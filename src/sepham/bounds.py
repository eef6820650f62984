"""Exact-arithmetic evaluation of every closed-form bound and the
bound-comparison inequalities.

Integer-valued formulas use arbitrary-precision integers via Fraction; the
single irrational ingredient, (1+sqrt(2))^n, is handled as a certified
enclosing interval with outward rounding, so no floating point ever decides
a pass/fail comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import Dict, List, Optional, Tuple

from .errors import DomainError

Interval = Tuple[Fraction, Fraction]

#: Smallest n at which every closed-form bound is defined.
MIN_N = 3

_SQRT2_DIGITS = 40


def sqrt2_interval() -> Interval:
    """Rational enclosure lo < sqrt(2) < hi with denominator 10^_SQRT2_DIGITS."""
    scale = 10 ** _SQRT2_DIGITS
    s = isqrt(2 * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


def _pow_interval(iv: Interval, n: int) -> Interval:
    # valid for positive intervals
    return iv[0] ** n, iv[1] ** n


def _inv_interval(iv: Interval) -> Interval:
    return 1 / iv[1], 1 / iv[0]


def _mul_scalar(iv: Interval, c: Fraction) -> Interval:
    # valid for positive c
    return iv[0] * c, iv[1] * c


@dataclass
class BoundsRecord:
    """Every closed-form bound evaluated exactly at one n.

    Fields undefined below their n-threshold are None; q_lower_kmm is a
    certified interval because of the (1+sqrt(2))^n denominator.
    """

    n: int
    q_lower_kmm: Interval
    q_upper_kmm: Fraction
    q_lower_new: Fraction
    r_lower: Fraction
    r_lower_vacuous: bool
    r_upper: Fraction
    mcy_lower: int
    mcy_upper_even: Optional[int]
    incompat_total_bound: Optional[Fraction]


def eval_bounds(n: int) -> BoundsRecord:
    """Evaluate all closed-form bounds at n (n >= MIN_N)."""
    if n < MIN_N:
        raise DomainError(f"bounds need n >= {MIN_N}, got {n}")
    m = n // 2
    lo, hi = sqrt2_interval()
    base = (1 + lo, 1 + hi)
    denom = _mul_scalar(_pow_interval(base, n), Fraction(factorial(m)))
    q_lower_kmm = _mul_scalar(_inv_interval(denom), Fraction(factorial(n - 2)))
    q_upper_kmm = Fraction(factorial(n), factorial(m) * 2 ** m)
    q_lower_new = Fraction(factorial(m - 1), 2 ** (n // 4))
    r_lower = Fraction(factorial(n)) / (Fraction(n) ** 13 * Fraction(5) ** (n - 10))
    r_upper = Fraction(factorial(n), 2 ** m)
    mcy_upper_even = (n - 1) * factorial(n - 3) if n >= 4 else None
    incompat_total = (
        4 * comb(n - 1, 5) * Fraction(n) ** 8 * Fraction(5) ** (n - 8)
        if n >= 6
        else None
    )
    return BoundsRecord(
        n=n,
        q_lower_kmm=q_lower_kmm,
        q_upper_kmm=q_upper_kmm,
        q_lower_new=q_lower_new,
        r_lower=r_lower,
        r_lower_vacuous=r_lower < 1,
        r_upper=r_upper,
        mcy_lower=factorial(n - 2),
        mcy_upper_even=mcy_upper_even,
        incompat_total_bound=incompat_total,
    )


def incompat_bound(n: int, r: int) -> int:
    """C(n-1, r+2) * n^(r+5) * 5^(n-(r+5)), the per-run-count incompatibility bound."""
    if r + 5 < 5 or n < r + 5:
        raise DomainError(f"need n >= r+5 >= 5, got n={n}, r={r}")
    if r + 2 > n - 1:
        raise DomainError(f"need r+2 <= n-1, got n={n}, r={r}")
    return comb(n - 1, r + 2) * n ** (r + 5) * 5 ** (n - (r + 5))


@dataclass
class InequalityEntry:
    n: int
    checks: Dict[str, bool] = field(default_factory=dict)
    details: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


@dataclass
class InequalityReport:
    entries: List[InequalityEntry]
    base_ratio_ok: bool  # the one-off 2/(1+sqrt(2)) < 2^(-1/4) fact

    @property
    def ok(self) -> bool:
        return self.base_ratio_ok and all(e.ok for e in self.entries)

    def first_failure(self) -> Optional[Tuple[int, str, str]]:
        if not self.base_ratio_ok:
            return (0, "base_ratio", "2/(1+sqrt2) >= 2^(-1/4)")
        for e in self.entries:
            for name, passed in e.checks.items():
                if not passed:
                    return (e.n, name, e.details.get(name, ""))
        return None


def check_inequalities(n_range) -> InequalityReport:
    """Verify the bound-comparison inequalities over a range of n.

    Per n: (a) the new explicit lower bound for Q strictly dominates the
    greedy lower bound, through the auxiliary middle term; (b) the total
    incompatibility bound is at most n^13 * 5^(n-10); (c) lower <= upper
    for both Q and R.  Failures become report entries, never exceptions.
    """
    lo, hi = sqrt2_interval()
    entries = []
    for n in n_range:
        rec = eval_bounds(n)
        e = InequalityEntry(n=n)
        middle = _middle_term(n, lo, hi)
        kmm_hi = rec.q_lower_kmm[1]
        e.checks["kmm_lt_middle"] = kmm_hi < middle[0]
        e.details["kmm_lt_middle"] = f"{float(kmm_hi):.6g} < {float(middle[0]):.6g}"
        e.checks["new_dominates_kmm"] = kmm_hi < rec.q_lower_new
        e.details["new_dominates_kmm"] = (
            f"{float(kmm_hi):.6g} < {float(rec.q_lower_new):.6g}"
        )
        if rec.incompat_total_bound is not None:
            total_cap = Fraction(n) ** 13 * Fraction(5) ** (n - 10)
            e.checks["incompat_le_total"] = rec.incompat_total_bound <= total_cap
            e.details["incompat_le_total"] = (
                f"{rec.incompat_total_bound} <= {total_cap}"
            )
        e.checks["r_lower_le_upper"] = rec.r_lower <= rec.r_upper
        e.checks["q_new_le_q_upper"] = rec.q_lower_new <= rec.q_upper_kmm
        entries.append(e)
    # 2/(1+sqrt2) < 2^(-1/4)  <=>  (2/(1+sqrt2))^4 < 1/2
    ratio_hi = 2 / (1 + lo)
    base_ratio_ok = ratio_hi ** 4 < Fraction(1, 2)
    return InequalityReport(entries=entries, base_ratio_ok=base_ratio_ok)


def _middle_term(n: int, lo: Fraction, hi: Fraction) -> Interval:
    # (2 / (1+sqrt2))^n * ceil(n/2)!
    ratio = (2 / (1 + hi), 2 / (1 + lo))
    return _mul_scalar(_pow_interval(ratio, n), Fraction(factorial((n + 1) // 2)))
