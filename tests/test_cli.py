import hashlib
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepham.cli import UsageError, parse_family, run, serialize_family
from sepham.constructions import kernel_cycle_family


def read(path):
    with open(path) as f:
        return f.read()


class TestFamilyFile:
    def test_round_trip(self, tmp_path):
        fam = kernel_cycle_family(5, (1, 2))
        text = serialize_family(fam)
        parsed = parse_family(text)
        assert parsed.kind == fam.kind
        assert parsed.n == fam.n
        assert parsed.seqs() == fam.seqs()
        assert serialize_family(parsed) == text

    def test_header_lines(self):
        fam = kernel_cycle_family(4, (1, 2))
        lines = serialize_family(fam).splitlines()
        assert lines[0] == "# sepham family v1"
        assert lines[1].startswith("# kind=cycles n=4 construction=kernel-cycles")

    def test_rejects_foreign_file(self):
        with pytest.raises(UsageError):
            parse_family("not a family\n1 2 3\n")


class TestMalformedFamilyFile:
    """Each malformed file is a UsageError from parse_family and exit 1 from verify."""

    def check(self, tmp_path, text):
        with pytest.raises(UsageError):
            parse_family(text)
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run(["verify", "--relation", "crossing", "--family", str(bad)]) == 1

    def test_header_without_kind(self, tmp_path):
        self.check(tmp_path, "# sepham family v1\n# n=4 seed=none\n1 2 3 4\n")

    def test_header_only(self, tmp_path):
        self.check(tmp_path, "# sepham family v1\n")

    def test_unknown_kind(self, tmp_path):
        self.check(tmp_path, "# sepham family v1\n# kind=blobs n=4 seed=none\n1 2 3 4\n")

    def test_member_size_differs_from_n(self, tmp_path):
        self.check(
            tmp_path, "# sepham family v1\n# kind=paths n=5 seed=none\n1 2 3 4 5 6\n"
        )


class TestConstructVerify:
    def test_bipartite_crossing_pipeline(self, tmp_path, capsys):
        out = tmp_path / "fam.txt"
        assert run(
            [
                "construct", "--which", "bipartite-crossing",
                "--n", "12", "--mode", "exact", "--out", str(out),
            ]
        ) == 0
        body = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
        assert len(body) >= 15
        assert run(["verify", "--relation", "crossing", "--family", str(out)]) == 0
        captured = capsys.readouterr()
        assert "OK:" in captured.out and "pairs verified" in captured.out

    def test_every_construction_verifies(self, tmp_path):
        cases = [
            (["--which", "two-diff", "--n", "4", "--mode", "exact"], "value-separated"),
            (["--which", "kernel-cycles", "--n", "5", "--edge", "1,2"], "shared-edge"),
            (
                ["--which", "greedy", "--n", "5", "--universe", "cycles",
                 "--relation", "shared-edge"],
                "shared-edge",
            ),
        ]
        for extra, relation in cases:
            out = tmp_path / "fam.txt"
            assert run(["construct", *extra, "--out", str(out)]) == 0
            assert run(["verify", "--relation", relation, "--family", str(out)]) == 0

    def test_verify_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "# sepham family v1\n"
            "# kind=permutations n=4 construction=manual seed=none\n"
            "1 2 3 4\n"
            "2 1 3 4\n"
        )
        assert run(["verify", "--relation", "two-separated", "--family", str(bad)]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["construct", "--which", "greedy", "--n", "5", "--universe",
                "permutations", "--relation", "two-separated", "--order", "shuffle",
                "--seed", "9"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)
        assert "seed=9" in read(a)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_greedy_mode_requires_seed(self, capsys):
        assert run(["construct", "--which", "two-diff", "--n", "5", "--mode", "greedy"]) == 1

    def test_shuffle_requires_seed(self):
        assert run(
            ["construct", "--which", "greedy", "--n", "5", "--universe",
             "permutations", "--relation", "two-separated", "--order", "shuffle"]
        ) == 1

    def test_kernel_needs_edge(self):
        assert run(["construct", "--which", "kernel-cycles", "--n", "5"]) == 1

    def test_config_error_exits_1(self):
        assert run(["oracle", "--quantity", "R", "--n", "9"]) == 1

    def test_malformed_edge(self, capsys):
        assert run(["construct", "--which", "kernel-cycles", "--n", "5", "--edge", "1"]) == 1
        assert "--edge" in capsys.readouterr().err

    def test_malformed_perm(self, capsys):
        assert run(["analyze", "--perm", "a_b"]) == 1
        assert "--perm" in capsys.readouterr().err

    def test_malformed_n_range(self, capsys):
        assert run(["report", "--n-range", "4"]) == 1
        assert "--n-range" in capsys.readouterr().err

    def test_oracle_n_zero(self, capsys):
        assert run(["oracle", "--quantity", "Q", "--n", "0"]) == 1
        assert "needs n >= 3" in capsys.readouterr().err

    def test_oracle_negative_n(self, capsys):
        assert run(["oracle", "--quantity", "R", "--n", "-1"]) == 1
        assert "needs n >= 3" in capsys.readouterr().err

    def test_greedy_n_below_the_universe_minimum(self, capsys):
        assert run(["construct", "--which", "greedy", "--universe", "paths",
                    "--relation", "crossing", "--n", "0"]) == 1
        assert "needs n >= 2" in capsys.readouterr().err

    def test_two_diff_exact_negative_m(self, capsys):
        assert run(["construct", "--which", "two-diff", "--n", "-1"]) == 1
        assert "needs m >= 1" in capsys.readouterr().err

    def test_analyze_one_element_perm(self, capsys):
        assert run(["analyze", "--perm", "1"]) == 1
        assert "needs n >= 2" in capsys.readouterr().err

    def test_verify_relation_of_another_kind(self, tmp_path, capsys):
        cycles, paths = tmp_path / "cycles.txt", tmp_path / "paths.txt"
        assert run(["construct", "--which", "kernel-cycles", "--n", "5", "--edge", "1,2",
                    "--out", str(cycles)]) == 0
        assert run(["construct", "--which", "bipartite-crossing", "--n", "8",
                    "--out", str(paths)]) == 0
        assert run(["verify", "--relation", "two-separated", "--family", str(cycles)]) == 1
        assert run(["verify", "--relation", "shared-edge", "--family", str(paths)]) == 1
        err = capsys.readouterr().err
        assert "does not apply to kind=cycles" in err
        assert "does not apply to kind=paths" in err


    def test_reversed_n_range(self, capsys):
        assert run(["report", "--n-range", "5:3"]) == 1
        assert "--n-range" in capsys.readouterr().err

    def test_unknown_universe(self, capsys):
        assert run(["construct", "--which", "greedy", "--universe", "nope",
                    "--relation", "crossing", "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert "unknown universe 'nope'" in err
        assert "permutations, paths, bipartite-paths, cycles" in err

    def test_unknown_relation(self, capsys):
        assert run(["construct", "--which", "greedy", "--universe", "paths",
                    "--relation", "nope", "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert "unknown relation 'nope'" in err
        assert "crossing, two-different, value-separated, two-separated, shared-edge" in err

    def test_greedy_relation_of_another_kind(self, tmp_path, capsys):
        out = tmp_path / "fam.txt"
        assert run(["construct", "--which", "greedy", "--universe", "paths",
                    "--relation", "shared-edge", "--n", "5", "--out", str(out)]) == 1
        assert "does not apply to kind=paths" in capsys.readouterr().err
        assert not out.exists()

    def test_greedy_paths_take_crossing_only(self, tmp_path, capsys):
        out = tmp_path / "fam.txt"
        assert run(["construct", "--which", "greedy", "--universe", "paths",
                    "--relation", "two-separated", "--n", "5", "--out", str(out)]) == 1
        assert "does not apply to kind=paths" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_orientation_dependent_relation_on_paths(self, tmp_path, capsys):
        paths = tmp_path / "paths.txt"
        assert run(["construct", "--which", "greedy", "--universe", "paths",
                    "--relation", "crossing", "--n", "6", "--out", str(paths)]) == 0
        for relation in ("two-different", "value-separated", "two-separated"):
            assert run(["verify", "--relation", relation, "--family", str(paths)]) == 1
        assert capsys.readouterr().err.count("does not apply to kind=paths") == 3


_member_line = st.lists(st.integers(-1, 7), max_size=8).map(lambda vs: " ".join(map(str, vs)))
_family_like = st.builds(
    lambda kind, n, members: "# sepham family v1\n# kind={} n={} seed=none\n{}\n".format(
        kind, n, "\n".join(members)),
    st.sampled_from(["paths", "cycles", "permutations", "blob", ""]),
    st.integers(-2, 8),
    st.lists(_member_line, max_size=5),
)


class TestVerifyFuzz:
    """Whatever the family file holds, verify exits 0, 1 or 2 and never raises."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.text(), st.text().map(lambda t: "# sepham family v1\n" + t), _family_like),
        st.sampled_from(["crossing", "two-separated", "shared-edge"]),
    )
    def test_arbitrary_text(self, text, relation):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "fam.txt"
            path.write_text(text, encoding="utf-8")
            assert run(["verify", "--relation", relation, "--family", str(path)]) in (0, 1, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.binary())
    def test_arbitrary_bytes(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "fam.txt"
            path.write_bytes(data)
            assert run(["verify", "--relation", "crossing", "--family", str(path)]) in (0, 1, 2)


class TestAnalyzeOracleBounds:
    def test_analyze(self, capsys):
        assert run(["analyze", "--perm", "2 6 4 1 3 5"]) == 0
        out = capsys.readouterr().out
        assert "positions 1..4" in out
        assert "free positions: [1, 2, 3, 4]" in out

    def test_oracle_output(self, capsys):
        assert run(["oracle", "--quantity", "Mcy", "--n", "5"]) == 0
        assert "Mcy(5) = 6 (exact)" in capsys.readouterr().out

    def test_oracle_timeout_prints_the_certified_interval(self, capsys):
        assert run(["oracle", "--quantity", "R", "--n", "6", "--time-limit", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("R(6) in [") and ", 15] (timeout" in out

    def test_report_timeout_prints_the_certified_interval(self, tmp_path):
        out = tmp_path / "report.md"
        assert run(["report", "--n-range", "6:6", "--oracle-max-n", "6",
                    "--time-limit", "0.5", "--out", str(out)]) == 0
        text = read(out)
        assert re.search(r"\| 6 \| 6 \| \[\d+, 15\] \| 3125/90699264 \| 90 \|", text)
        assert text.endswith("`[best, upper]` = best found within the time limit "
                             "and the certified upper bound.\n")

    def test_bounds_csv(self, capsys):
        assert run(["bounds", "--n", "6", "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out[0].split(",")
        row = out[1].split(",")
        assert row[header.index("q_upper_kmm")] == "15"

    def test_bounds_text_flags_vacuous(self, capsys):
        assert run(["bounds", "--n", "6"]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_report(self, tmp_path):
        out = tmp_path / "report.md"
        assert run(
            ["report", "--n-range", "4:5", "--oracle-max-n", "5", "--out", str(out)]
        ) == 0
        text = read(out)
        assert "| n |" in text
        assert "## Two-separated permutation families (R)" in text

    def test_report_past_the_construction_caps(self, tmp_path):
        out = tmp_path / "report.md"
        assert run(["report", "--n-range", "18:18", "--oracle-max-n", "4",
                    "--out", str(out)]) == 0
        assert "| 18 | - | - | - |" in read(out)


def _sha256_of_output(tmp_path, argv):
    out = tmp_path / "out.txt"
    assert run([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestPinnedOutputs:
    """Outputs pinned byte for byte; the digests were taken before the
    greedy and report code paths were unified, the report's after it
    stopped ending an all-exact table with the timeout footnote."""

    def test_report(self, tmp_path):
        argv = ["report", "--n-range", "4:5", "--oracle-max-n", "5"]
        assert _sha256_of_output(tmp_path, argv) == (
            "a3853c4774006f874289987a649ddffc9eeef868143fcc6a85596bfbfacebd12"
        )

    def test_two_diff_greedy(self, tmp_path):
        argv = ["construct", "--which", "two-diff", "--mode", "greedy", "--seed", "7",
                "--n", "6"]
        assert _sha256_of_output(tmp_path, argv) == (
            "cdeeeed87989b306d1b290618c74c6f6e35c3013667c5fb5da5fad56bcab5489"
        )

    def test_bipartite_crossing_greedy(self, tmp_path):
        argv = ["construct", "--which", "bipartite-crossing", "--mode", "greedy",
                "--seed", "3", "--n", "12"]
        assert _sha256_of_output(tmp_path, argv) == (
            "67a966cc6b300f55c302a6d5a4f64e0cb70d14c719a12c5a1e6de82480c25e91"
        )

    def test_report_skips_n_beyond_each_quantity_max_n(self, tmp_path):
        # Q, R and Mcy are capped at n=7, 6 and 7, so n=8 has no oracle columns
        argv = ["report", "--n-range", "8:8", "--oracle-max-n"]
        assert _sha256_of_output(tmp_path, argv + ["8"]) == _sha256_of_output(
            tmp_path, argv + ["7"]
        )
        assert "| 8 | 2 | - | - | 3/2 | 105 |" in read(tmp_path / "out.txt")
