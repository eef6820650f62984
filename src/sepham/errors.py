"""Exception hierarchy shared by all sepham modules."""


class SephamError(Exception):
    """Base class for all library errors."""


class NotAPermutation(SephamError):
    """A sequence repeats or omits a value of the ground set."""


class SizeMismatch(SephamError):
    """Two objects live on different ground sets."""


class SameCycle(SephamError):
    """The degree-3 relation on cycles is irreflexive; identical arguments are a caller bug."""


class CapExceeded(SephamError):
    """A factorial-sized computation was requested beyond the configured cap."""


class BadEdge(SephamError):
    """An edge endpoint is out of range or the endpoints coincide."""


class EvenN(SephamError):
    """The Walecki decomposition requires odd n."""


class PositionOutOfRange(SephamError):
    """A 1-based position index falls outside its admissible range."""


class DomainError(SephamError):
    """A closed-form bound or a universe is undefined at the requested parameters."""


class UnknownRelation(SephamError):
    """No relation registered under the given name."""


class UnknownUniverse(SephamError):
    """No universe registered under the given name."""


class UnknownKind(SephamError):
    """No member kind registered under the given name."""
