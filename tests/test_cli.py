"""Command-line surface: output shapes, exit codes, determinism."""

import contextlib
import csv
import errno
import io
import json
import random
from fractions import Fraction

import pytest

from thetares import (
    THETA,
    THETA2,
    Family,
    Poly,
    RatFunc,
    RelationError,
    UsageError,
    has_pole,
    parse_family,
    rec_sequence,
    rec_step,
    residue_report,
)
from thetares import checks, cli, qseries, recurrence
from thetares.cli import main
from thetares.qseries import QSeries, cf_coeff, r2_count, sigma1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv(*rows):
    return "".join(f"{row}\r\n" for row in rows)


def _lines(*lines):
    return "".join(f"{line}\n" for line in lines)


@pytest.fixture
def no_entries(monkeypatch, tmp_path):
    """Make building any global entry an error, and point
    THETARES_CACHE_DIR at a directory that must stay absent."""
    def refuse(*args, **kwargs):
        raise AssertionError("a global entry was built")

    monkeypatch.setattr("thetares.recurrence.rec_step", refuse)
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("THETARES_CACHE_DIR", str(cache_dir))
    return cache_dir


class TestCompute:
    def test_delta_family_entry_4(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "mult:2,8,8", "--m-max", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "mult:2,8,8"
        assert payload["entries"][4]["den"] == [[2, 9], [4, 5], [6, 1]]

    def test_theta2_initial_entry(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "mult:0,0,2", "--m-max", "0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][0] == {"m": 0, "num": ["1"], "den": []}

    def test_malformed_family(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "mult:zzz", "--m-max", "1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("family", ["poly:1:[(0,1,1),(-1,2,1)]", "poly:1:[(1,0,1/0)]"])
    def test_malformed_poly_family(self, capsys, family):
        """A family string with a malformed monomial is a usage error, not a
        traceback or a silent skip."""
        code, out, err = run_cli(capsys, "residues", "--family", family, "--m-max", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("via_env", [False, True])
    def test_cache_dir_that_is_a_file(self, capsys, monkeypatch, tmp_path, via_env):
        """A cache directory that cannot be made is a usage error, not a
        traceback or a silent skip."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        argv = ["compute", "--family", "mult:0,0,2", "--m-max", "1"]
        if via_env:
            monkeypatch.setenv("THETARES_CACHE_DIR", str(blocker))
        else:
            argv += ["--cache-dir", str(blocker)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unusable cache directory {str(blocker)!r}: ")

    def test_cache_write_that_fails(self, capsys, monkeypatch, tmp_path):
        # a full disk or a directory that cannot be written to: chmod cannot
        # show it to a process running as root, so the write itself fails
        def refuse(*args):
            raise PermissionError(errno.EACCES, "Permission denied")

        monkeypatch.setattr("thetares.cache.SeqCache.write", refuse)
        cache_dir = tmp_path / "cache"
        code, out, err = run_cli(capsys, "compute", "--family", "mult:0,0,2", "--m-max", "2",
                                 "--cache-dir", str(cache_dir))
        assert (code, out) == (2, "")
        assert err == f"error: unusable cache directory {str(cache_dir)!r}: Permission denied\n"

    def test_wrong_computed_entry_is_a_mismatch(self, capsys, monkeypatch, tmp_path):
        # a step wrong by one coefficient from entry 3 on: the relation check
        # raises, and the CLI prints one error line and no entry, writes no
        # entry past 2, and exits 1
        def wrong_step(family, m, prev):
            entry = rec_step(family, m, prev)
            if m < 3:
                return entry
            nums = list(entry.num.int_coeffs)
            nums[-1] += entry.num.int_den
            return RatFunc(Poly.from_cleared(nums, entry.num.int_den), entry.factors)

        monkeypatch.setattr("thetares.recurrence.rec_step", wrong_step)
        with pytest.raises(RelationError, match="entry 3 "):
            rec_sequence(parse_family("mult:0,0,2"), 5)
        code, out, err = run_cli(capsys, "compute", "--family", "mult:0,0,2", "--m-max", "5",
                                 "--format", "json", "--cache-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(list(tmp_path.glob("*.pkl"))) == 3

    def test_missing_family(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--m-max", "1")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "mult:0,0,2", "--m-max", "1",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "num", "den"]
        assert json.loads(rows[2][1]) == ["0", "0", "-1/4"]


class TestResidues:
    def test_theta2_recovers_r2(self, capsys):
        code, out, _ = run_cli(
            capsys, "residues", "--family", "mult:0,0,2", "--m-max", "5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_match"] is True
        assert [row["recovered"] for row in payload["rows"]] == ["4", "4", "0", "4", "8"]

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "residues", "--family", "mult:0,0,2", "--m-max", "3",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "pole", "order", "residue", "recovered", "oracle", "match"]
        assert rows[1] == ["1", "1", "1", "1/4", "4", "4", "true"]

    def test_normalize_delta(self, capsys):
        code, out, _ = run_cli(
            capsys, "residues", "--family", "mult:2,8,8", "--m-max", "4",
            "--normalize-delta", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][3]["oracle"] == "252"
        assert payload["rows"][3]["recovered"] == "252"

    def test_normalize_delta_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(
            capsys, "residues", "--family", "mult:0,0,2", "--m-max", "2",
            "--normalize-delta",
        )
        assert code == 2

    def test_oracle_truncation_is_the_last_pole(self, capsys, monkeypatch):
        truncs = []

        def recording_cf_coeff(family, n, trunc):
            truncs.append(trunc)
            return cf_coeff(family, n, trunc)

        monkeypatch.setattr("thetares.cli.cf_coeff", recording_cf_coeff)
        code, out, _ = run_cli(
            capsys, "residues", "--family", "mult:2,8,8", "--m-max", "6",
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["all_match"] is True
        # a = 2: the poles of entries 1..6 sit at v = 1/3 .. 1/8
        assert truncs == [6 + 2] * 6

    def test_theta_family_square_rows(self, capsys):
        # mult:0,0,1 is the single theta constant (c = 1/4): nonzero rows
        # exactly at the squares
        code, out, _ = run_cli(
            capsys, "residues", "--family", "mult:0,0,1", "--m-max", "10",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        nonzero = [row["m"] for row in payload["rows"] if row["recovered"] != "0"]
        assert nonzero == [1, 4, 9]

    def test_pretty_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "residues", "--family", "mult:0,0,2", "--m-max", "6", "--format", "pretty",
        )
        assert code == 0 and out == _lines(
            "   m  pole order                  residue        recovered           oracle match",
            "   1     1     1                      1/4                4                4 yes",
            "   2     2     1                   -1/128                4                4 yes",
            "   3     3     0                        0                0                0 yes",
            "   4     4     1                 -1/65536                4                4 yes",
            "   5     5     1                 1/655360                8                8 yes",
            "   6     6     0                        0                0                0 yes",
        )

    def test_builds_no_entry(self, capsys, no_entries):
        code, out, _ = run_cli(
            capsys, "residues", "--family", "mult:2,8,8", "--m-max", "8",
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["all_match"] is True
        assert not no_entries.exists()

    @pytest.mark.parametrize("text", [
        "mult:0,0,2", "mult:0,0,1", "mult:0,0,4", "mult:2,8,8", "mult:1,0,0",
        "mult:1,2,3", "poly:1:[(1,0,1/3),(0,1,-2/7)]",
    ])
    def test_rows_equal_the_global_route(self, capsys, text):
        m_max = 12
        family = parse_family(text)
        seq = rec_sequence(family, m_max)
        expected = []
        for m in range(1, m_max + 1):
            report = residue_report(seq, m)
            oracle = cf_coeff(family, report.pole, family.edge(m_max))
            expected.append({
                "m": m, "pole": report.pole, "order": report.pole_order,
                "residue": str(report.residue), "recovered": str(report.recovered),
                "oracle": str(oracle), "match": report.recovered == oracle,
            })
        code, out, _ = run_cli(
            capsys, "residues", "--family", text, "--m-max", str(m_max), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rows"] == expected

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("thetares.cli.cf_coeff",
                            lambda family, n, trunc: cf_coeff(family, n, trunc) + (n == 4))
        code, out, _ = run_cli(capsys, "residues", "--family", "mult:0,0,2", "--m-max", "5",
                               "--format", "json")
        payload = json.loads(out)
        assert code == 1 and payload["all_match"] is False
        assert [row["m"] for row in payload["rows"] if not row["match"]] == [4]


# exact csv and pretty output of every scan kind; json is checked by field
_SCAN_TEXT = {
    ("two-squares", 10, "csv"): _csv("found", 1, 2, 4, 5, 8, 9, 10),
    ("two-squares", 10, "pretty"): _lines(
        "found: [1, 2, 4, 5, 8, 9, 10]", "kind: two-squares", "m_max: 10",
        "mismatches: []", "oracle: [1, 2, 4, 5, 8, 9, 10]", "passed: True"),
    ("squares", 10, "csv"): _csv("found", 1, 4, 9),
    ("squares", 10, "pretty"): _lines(
        "found: [1, 4, 9]", "kind: squares", "m_max: 10", "mismatches: []",
        "oracle: [1, 4, 9]", "passed: True"),
    ("lehmer", 4, "csv"): _csv("violations"),
    ("lehmer", 4, "pretty"): _lines(
        "kind: lehmer", "m_max: 4", "mismatches: []", "oracle_tau_zeros: []",
        "passed: True", "violations: []"),
    ("perfect-odd", 10, "csv"): _csv(
        "m,residue,is_perfect", "1,1/2,false", "3,1/384,false", "5,3/327680,false",
        "7,1/29360128,false", "9,13/77309411328,false"),
    ("perfect-odd", 10, "pretty"): _lines(
        "kind: perfect-odd", "m_max: 10", "mismatches: []", "passed: True", "perfect: []",
        "rows: [{'m': 1, 'residue': '1/2', 'is_perfect': False}, "
        "{'m': 3, 'residue': '1/384', 'is_perfect': False}, "
        "{'m': 5, 'residue': '3/327680', 'is_perfect': False}, "
        "{'m': 7, 'residue': '1/29360128', 'is_perfect': False}, "
        "{'m': 9, 'residue': '13/77309411328', 'is_perfect': False}]"),
}


class TestScan:
    def test_two_squares(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--kind", "two-squares", "--m-max", "12",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] == [1, 2, 4, 5, 8, 9, 10]
        assert payload["passed"] is True

    def test_squares(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--kind", "squares", "--m-max", "16", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["found"] == [1, 4, 9, 16]

    def test_lehmer(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--kind", "lehmer", "--m-max", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["violations"] == []

    @pytest.mark.parametrize("kind", ["two-squares", "perfect-odd", "squares", "lehmer"])
    def test_jet_scans_build_no_entry(self, capsys, no_entries, kind):
        code, out, _ = run_cli(
            capsys, "scan", "--kind", kind, "--m-max", "9", "--format", "json",
        )
        assert code == 0 and json.loads(out)["passed"] is True
        assert not no_entries.exists()

    def test_perfect_odd(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--kind", "perfect-odd", "--m-max", "15",
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["perfect"] == []

    def test_perfect_odd_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--kind", "perfect-odd", "--m-max", "9", "--format", "json",
        )
        rows = json.loads(out)["rows"]
        assert code == 0
        assert rows[0] == {"m": 1, "residue": "1/2", "is_perfect": False}
        assert rows[-1] == {"m": 9, "residue": str(Fraction(8 * 13, 9 * 16**9)),
                            "is_perfect": False}

    def test_perfect_odd_flags_a_perfect_residue(self, capsys, monkeypatch):
        # no odd perfect number is known, so every real row is False: hand
        # the criterion 16^(1-m) at m = 5 to see that it flags exactly that m
        real = cli.local_residue

        def residue(family, m):
            return Fraction(1, 16 ** (m - 1)) if m == 5 else real(family, m)

        monkeypatch.setattr(cli, "local_residue", residue)
        code, out, _ = run_cli(
            capsys, "scan", "--kind", "perfect-odd", "--m-max", "9", "--format", "json",
        )
        payload = json.loads(out)
        # sigma1(5) = 6, not 10: the flagged row is a mismatch
        assert (code, payload["perfect"], payload["mismatches"]) == (1, [5], [5])

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--kind", "nonsense", "--m-max", "3")
        assert code == 2

    @pytest.mark.parametrize("kind,m_max,fmt", list(_SCAN_TEXT))
    def test_exact_text(self, capsys, kind, m_max, fmt):
        code, out, _ = run_cli(
            capsys, "scan", "--kind", kind, "--m-max", str(m_max), "--format", fmt,
        )
        assert code == 0 and out == _SCAN_TEXT[kind, m_max, fmt]

    # each scan kind driven into a mismatch on the oracle side
    @pytest.mark.parametrize("kind,patch,mismatches", [
        ("two-squares", lambda mp: mp.setattr(
            "thetares.cli.r2_count", lambda n: 0 if n == 5 else r2_count(n)), [5]),
        ("squares", lambda mp: mp.setitem(
            cli._SET_SCANS, "squares", (cli._SET_SCANS["squares"][0], lambda m: {1, 4})), [9]),
        ("lehmer", lambda mp: mp.setattr("thetares.cli.delta_series", QSeries.zero),
         list(range(11))),
        ("perfect-odd", lambda mp: mp.setattr(
            "thetares.cli.sigma1", lambda n: 2 * n if n == 5 else sigma1(n)), [5]),
    ])
    def test_mismatch_exits_1(self, capsys, monkeypatch, kind, patch, mismatches):
        patch(monkeypatch)
        code, out, _ = run_cli(capsys, "scan", "--kind", kind, "--m-max", "10",
                               "--format", "json")
        payload = json.loads(out)
        assert code == 1 and payload["passed"] is False
        assert payload["mismatches"] == mismatches

    # each pole scan driven into a mismatch on the jet side: has_pole misses
    # the pole of one entry (256*Delta entry 4 belongs to lehmer's k = 2)
    @pytest.mark.parametrize("kind,entry,mismatches", [
        ("two-squares", 5, [5]), ("squares", 9, [9]), ("lehmer", 4, [2]),
    ])
    def test_missed_pole_exits_1(self, capsys, monkeypatch, kind, entry, mismatches):
        monkeypatch.setattr(cli, "has_pole", lambda family, m: m != entry and has_pole(family, m))
        code, out, _ = run_cli(capsys, "scan", "--kind", kind, "--m-max", "10",
                               "--format", "json")
        payload = json.loads(out)
        assert code == 1 and payload["passed"] is False
        assert payload["mismatches"] == mismatches


# the two r2 counts of the oracle disagree at n = 5: its self-check fails
@pytest.mark.parametrize("argv", [
    ["scan", "--kind", "two-squares", "--m-max", "10"],
    ["verify", "--suite", "residues", "--m-max", "6"],
])
def test_oracle_failing_its_self_check_exits_1(capsys, monkeypatch, argv):
    divisor = qseries._r2_divisor
    monkeypatch.setattr(qseries, "_r2_divisor", lambda n: divisor(n) + (n == 5))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: r2(5): lattice count 8 != divisor formula 9\n"


class TestVerify:
    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "golden", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True

    def test_identities(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_resum(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "resum")
        assert code == 0

    def test_residues_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "residues", "--m-max", "6",
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True

    @pytest.mark.parametrize("suite", ["golden", "identities", "resum"])
    def test_m_max_with_another_suite_is_a_usage_error(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--m-max", "5")
        assert code == 2 and not out
        assert "--m-max" in err

    @pytest.mark.parametrize("m_max", ["0", "-3"])
    def test_residues_m_max_below_one_is_a_usage_error(self, capsys, m_max):
        code, out, err = run_cli(capsys, "verify", "--suite", "residues", "--m-max", m_max)
        assert code == 2 and not out
        assert "--m-max" in err

    def test_csv_format_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "golden", "--format", "csv")
        assert code == 2 and not out
        assert "invalid choice: 'csv'" in err

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("thetares.checks.r2_count", lambda n: r2_count(n) + (n == 3))
        code, out, _ = run_cli(capsys, "verify", "--suite", "residues", "--m-max", "3")
        assert code == 1
        assert ("FAIL  theta^2 residues recover r2(m) for m <= 3 "
                "(first mismatch at m = 3: recovered 0, oracle 1)\n") in out
        assert out.endswith("suite residues: FAIL\n")

    def test_mismatch_detail_in_json_is_exact_rationals(self, capsys, monkeypatch):
        monkeypatch.setattr("thetares.checks.r2_count", lambda n: r2_count(n) + (n == 3))
        code, out, _ = run_cli(capsys, "verify", "--suite", "residues", "--m-max", "3",
                               "--format", "json")
        assert code == 1 and "Fraction(" not in out
        details = [c["detail"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert details == ["first mismatch at m = 3: recovered 0, oracle 1"]

    def test_jet_mismatch_exits_1(self, capsys, monkeypatch):
        # the mod-p jet of theta alone moves at m = 2; the global residues do not
        jet = checks.local_residue_mod
        monkeypatch.setattr(checks, "local_residue_mod",
                            lambda family, m: jet(family, m) + (family == THETA and m == 2))
        code, out, _ = run_cli(capsys, "verify", "--suite", "residues", "--m-max", "3")
        assert code == 1
        assert out.count("FAIL  ") == 1
        assert (f"FAIL  theta local jets agree exactly and mod {recurrence.PRIME} with the "
                "residues for m <= 3 (first mismatch at m = 2: residue 0, exact jet 0, "
                "jet mod p 1)\n") in out

    def test_resum_mismatch_exits_1(self, capsys, monkeypatch):
        # one u-side coefficient of theta^2 moves by 1; the v-side entries do not
        columns = checks.u_columns

        def bumped(family, lengths):
            out = columns(family, lengths)
            if family == THETA2:
                coeffs = list(out[2].coeffs)
                coeffs[3] += 1
                out[2] = Poly(coeffs)
            return out

        monkeypatch.setattr(checks, "u_columns", bumped)
        code, out, _ = run_cli(capsys, "verify", "--suite", "resum")
        assert code == 1
        assert out.count("FAIL  ") == 1
        assert ("FAIL  resummation equivalence for theta^2, every entry m <= 20 (8 "
                "coefficients past deg N vanish) (first mismatch at m = 2, coefficient 3: "
                "u-side D T 3/4, v-side N / den -1/4)\n") in out


class TestQSeriesDump:
    def test_x_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "qseries-dump", "--series", "x", "--trunc", "4",
        )
        assert code == 0
        assert json.loads(out) == {"trunc": 4, "coeffs": ["-1", "8", "-24", "32", "-24"]}

    def test_family_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "qseries-dump", "--family", "mult:0,0,2", "--trunc", "5",
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "4", "4", "0", "4", "8"]

    def test_unknown_series(self, capsys):
        code, _, _ = run_cli(capsys, "qseries-dump", "--series", "zeta", "--trunc", "4")
        assert code == 2

    @pytest.mark.parametrize("source", [
        ("--series", "theta3"), ("--series", "theta4"), ("--series", "x"),
        ("--series", "y"), ("--series", "u"), ("--series", "t"),
        ("--series", "delta"), ("--family", "mult:0,0,2"),
        ("--family", "poly:1:[(1,0,1/3),(0,1,-2/7)]"),
    ])
    def test_negative_trunc_is_a_usage_error(self, capsys, source):
        code, out, err = run_cli(capsys, "qseries-dump", *source, "--trunc", "-1")
        assert code == 2 and not out
        assert err.startswith("error:")

    def test_series_and_family_are_exclusive(self, capsys):
        code, out, err = run_cli(
            capsys, "qseries-dump", "--series", "x", "--family", "mult:0,0,2",
        )
        assert code == 2 and not out
        assert "not allowed with argument" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "qseries-dump", "--series", "delta", "--trunc", "16")
        _, second, _ = run_cli(capsys, "qseries-dump", "--series", "delta", "--trunc", "16")
        assert first == second


@pytest.fixture
def engine_refused(monkeypatch):
    """Every route by which a command builds a list raises instead: the
    engine (the jets and the steps), phi_0, and the q-series builders the
    commands call.  A case that gets past the size rule then exits 3 with
    "the engine ran" and allocates nothing."""
    def refuse(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(recurrence, "_stencil", refuse)
    monkeypatch.setattr(recurrence, "rec_step", refuse)
    monkeypatch.setattr(Family, "phi0", refuse)
    for name in ("cf_series", "cf_coeff", "delta_series"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli, "_SERIES", dict.fromkeys(cli._SERIES, refuse))


@pytest.mark.parametrize("argv", [
    ("residues", "--family", "mult:0,0,2", "--m-max", str(10**20)),
    ("qseries-dump", "--series", "t", "--trunc", str(10**20)),
    ("compute", "--family", "mult:0,0,2", "--m-max", str(10**20)),
])
def test_size_past_an_index_is_a_usage_error(capsys, argv):
    # each needs a list of 2^24 entries or more, which the command refuses
    # before it runs; exit 1 would read as a mismatch
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("scan", "--kind", "lehmer", "--m-max", str(10**20)),
    ("scan", "--kind", "two-squares", "--m-max", str(10**20)),
    ("compute", "--family", f"mult:{2**61},0,0"),
    # the longest list, not --m-max alone, meets the bound: the jets' 4m + 3
    # terms for lehmer, the oracle's m + a + 1 for residues
    ("scan", "--kind", "lehmer", "--m-max", str(2**59 - 1)),
    ("compute", "--family", f"mult:{2**59},0,0", "--m-max", str(2**59)),
    ("residues", "--family", f"mult:{2**60 - 1},0,0", "--m-max", "1"),
    ("verify", "--suite", "residues", "--m-max", str(2**60)),
    ("qseries-dump", "--family", "mult:0,0,2", "--trunc", str(2**60)),
    # the family's own a or degree k: the Family constructor refuses it
    ("compute", "--family", f"poly:{2**61}:[({2**61},0,1)]", "--m-max", "1"),
    ("residues", "--family", f"poly:{2**61}:[({2**61},0,1)]", "--m-max", "1"),
    ("qseries-dump", "--family", f"poly:{2**61}:[({2**61},0,1)]", "--trunc", "4"),
    ("qseries-dump", "--family", f"mult:{10**400},0,0", "--trunc", "4"),
    # each exited 3 with MemoryError once its list was allocated (with no
    # memory limit, --m-max 2^40 would grow _stencil's rows until memory ran
    # out); the lehmer one has 4m + 3 > 2^24 > 2m + 3
    ("qseries-dump", "--series", "t", "--trunc", str(2**59)),
    ("residues", "--family", f"mult:{2**59},0,0", "--m-max", "1"),
    ("residues", "--family", f"mult:{2**30},0,0", "--m-max", "1"),
    ("compute", "--family", "mult:0,0,2", "--m-max", str(2**40)),
    ("verify", "--suite", "residues", "--m-max", str(2**40)),
    ("scan", "--kind", "lehmer", "--m-max", str(2**22)),
    # phi_0 = P(1, u) would hold k + 1 coefficients
    ("compute", "--family", f"poly:{2**59}:[({2**59},0,1)]", "--m-max", "1"),
    ("residues", "--family", f"poly:{2**59}:[({2**59},0,1)]", "--m-max", "1"),
    ("qseries-dump", "--family", f"mult:1,0,0*poly:{2**24}:[(0,{2**24},1)]", "--trunc", "4"),
])
def test_size_bound_is_a_usage_error(capsys, engine_refused, argv):
    # refused at once: the engine never runs, where a scan this long would
    # not end and a list this long would not fit; only a, which builds no
    # list, has its own bound of 2^60
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    a = next((int(arg[5:].split(",")[0]) for arg in argv if arg.startswith("mult:")), 0)
    bound = "2^60" if a >= 2**60 else "2^24"
    assert err.startswith("error: ") and err.endswith(f"not below {bound}\n")
    assert err.count("\n") == 1


# a = 2^59 enters pole parameters alone: one step and a one-term oracle run
@pytest.mark.parametrize("argv,expected", [
    (("compute", "--family", f"mult:{2**59},0,0", "--m-max", "1"),
     f"e_0(v) = (1) / (1 - {2**59}v)\n"
     f"e_1(v) = ({2**58}v^2) / (1 - {2**59}v)^3\n"),
    (("qseries-dump", "--family", f"mult:{2**59},0,0", "--trunc", "0"),
     '{"coeffs": ["0"], "trunc": 0}\n'),
])
def test_huge_a_with_short_lists_runs(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_size_rule_is_2_to_the_24():
    # the one rule: a list of 2^24 - 1 entries is built, one of 2^24 is not
    cli._check_size("--trunc", 5, 0, 2**24 - 1)
    with pytest.raises(UsageError,
                       match=r"^--m-max 3 needs a list of 16777216 entries, not below 2\^24$"):
        cli._check_size("--m-max", 3, 1, 2**24)


def test_family_degree_bound_is_2_to_the_24():
    # the same rule for phi_0's k + 1 coefficients, as the commands parse it
    assert parse_family(f"poly:{2**24 - 2}:[({2**24 - 2},0,1)]").k == 2**24 - 2
    assert Family(monomials=((2**24 - 2, 0, 1),)).k == 2**24 - 2
    with pytest.raises(UsageError, match=r"^family degree k = 16777215: .*not below 2\^24$"):
        parse_family(f"poly:{2**24 - 1}:[(0,{2**24 - 1},1)]")
    with pytest.raises(UsageError, match=r"^family degree k = 16777215: .*not below 2\^24$"):
        Family(monomials=((0, 2**24 - 1, 1),))


def test_size_bound_is_2_to_the_60():
    # a builds no list, so the only bound of 2^60 left is a's own guard
    assert parse_family(f"mult:{2**60 - 1},0,0").a == 2**60 - 1
    with pytest.raises(UsageError, match=r"^exponent a = 1152921504606846976, not below 2\^60$"):
        parse_family(f"mult:{2**60},0,0")


# each command at the last accepted size reaches the engine, and one past
# it is refused: the longest list is 2m + 3 jet terms, 4m + 3 for lehmer,
# max(2m + 3, m + a + 1) for residues and trunc + 1 for qseries-dump
@pytest.mark.parametrize("argv,last", [
    (("compute", "--family", "mult:0,0,2", "--m-max"), 2**23 - 2),
    (("verify", "--suite", "residues", "--m-max"), 2**23 - 2),
    (("scan", "--kind", "two-squares", "--m-max"), 2**23 - 2),
    (("scan", "--kind", "perfect-odd", "--m-max"), 2**23 - 2),
    (("scan", "--kind", "lehmer", "--m-max"), 2**22 - 1),
    (("residues", "--family", "mult:0,0,2", "--m-max"), 2**23 - 2),
    (("residues", "--m-max", "1", "--family"), 2**24 - 3),  # a of mult:a,0,0
    (("qseries-dump", "--series", "t", "--trunc"), 2**24 - 2),
    (("qseries-dump", "--family", "mult:0,0,2", "--trunc"), 2**24 - 2),
], ids=["compute", "verify", "two-squares", "perfect-odd", "lehmer", "residues-m",
        "residues-a", "qseries-dump-series", "qseries-dump-family"])
def test_size_rule_boundary_per_command(capsys, engine_refused, argv, last):
    def value(n):
        return f"mult:{n},0,0" if argv[-1] == "--family" else str(n)

    code, out, err = run_cli(capsys, *argv, value(last))
    assert (code, out) == (3, "") and err.endswith("AssertionError: the engine ran\n")
    code, out, err = run_cli(capsys, *argv, value(last + 1))
    assert (code, out) == (2, "") and err.endswith("not below 2^24\n")


@pytest.mark.parametrize("trunc", [0, 1])
def test_delta_below_q2_is_a_usage_error(capsys, trunc):
    # the discriminant starts at q^2: the command refuses, not delta_series
    code, out, err = run_cli(capsys, "qseries-dump", "--series", "delta", "--trunc", str(trunc))
    assert (code, out, err) == (2, "", "error: --trunc must be at least 2\n")


def test_oracle_truncation_one_short_is_an_internal_error(capsys, monkeypatch):
    # a TruncationError is a ValueError, but a program bug: exit 3, not 2
    monkeypatch.setattr(cli, "cf_coeff", lambda family, n, trunc: cf_coeff(family, n, trunc - 1))
    code, out, err = run_cli(capsys, "residues", "--family", "mult:0,0,2", "--m-max", "5")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback")
    assert err.endswith("internal error: TruncationError: coefficient 5 beyond truncation 4\n")


def test_value_error_from_rec_step_is_an_internal_error(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("entry 1 has no pole at v = 1/j, j >= 2: ()")

    monkeypatch.delenv("THETARES_CACHE_DIR", raising=False)
    monkeypatch.setattr(recurrence, "rec_step", broken)
    code, out, err = run_cli(capsys, "compute", "--family", "mult:0,0,2", "--m-max", "3")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback") and "in broken" in err
    assert err.endswith("internal error: ValueError: entry 1 has no pole at v = 1/j, j >= 2: ()\n")


@pytest.mark.parametrize("argv", [
    ("residues", "--family", "mult:0,0,2", "--m-max", "5"),
    ("scan", "--kind", "lehmer", "--m-max", "5"),
    ("verify", "--suite", "residues", "--m-max", "5"),
])
def test_crash_is_an_internal_error(capsys, monkeypatch, argv):
    # a bug in the engine, here the jet dividing by zero, is neither a
    # mismatch (exit 1) nor a usage error (exit 2): exit 3 and a traceback
    def crash(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(recurrence, "_stencil", crash)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("Traceback") and "in crash" in err
    assert [line for line in err.splitlines() if line.startswith("internal error:")] == [
        "internal error: ZeroDivisionError: division by zero"]


def test_compute_deterministic(capsys):
    args = ("compute", "--family", "mult:2,8,8", "--m-max", "3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# flags a subcommand would ignore are not registered, so passing one is a
# usage error rather than silently dropped; only compute reads --cache-dir
_BASE_ARGV = {
    "compute": ("compute", "--family", "mult:2,8,8", "--m-max", "1"),
    "residues": ("residues", "--family", "mult:2,8,8", "--m-max", "1"),
    "scan": ("scan", "--kind", "lehmer", "--m-max", "2"),
    "scan-squares": ("scan", "--kind", "squares", "--m-max", "2"),
    "verify": ("verify", "--suite", "golden"),
    "qseries-dump": ("qseries-dump", "--series", "x"),
}
_FLAG_ARGV = {
    "--trunc": ("--trunc", "8"),
    "--format": ("--format", "json"),
    "--cache-dir": ("--cache-dir", "cache"),
    "--normalize-delta": ("--normalize-delta",),
}


@pytest.mark.parametrize("command,flag", [
    ("compute", "--trunc"), ("compute", "--normalize-delta"),
    ("residues", "--trunc"), ("residues", "--cache-dir"),
    ("scan", "--trunc"), ("scan", "--normalize-delta"), ("scan", "--cache-dir"),
    ("scan-squares", "--cache-dir"),
    ("verify", "--trunc"), ("verify", "--cache-dir"), ("verify", "--normalize-delta"),
    ("qseries-dump", "--format"), ("qseries-dump", "--cache-dir"),
    ("qseries-dump", "--normalize-delta"),
])
def test_ignored_flag_is_a_usage_error(capsys, command, flag):
    """A flag the command would ignore is a usage error.  Every scan kind,
    for one, is decided by local jets and builds no entry, so --cache-dir
    is one there."""
    code, out, err = run_cli(capsys, *_BASE_ARGV[command], *_FLAG_ARGV[flag])
    assert code == 2 and not out
    assert f"unrecognized arguments: {flag}" in err


# -- the plain-form parser against argparse ------------------------------------

# (values argparse takes, values it refuses or reads as a flag)
_INT_VALUES = (("0", "7", "+3", " 5", "1_0"), ("-2", "x", "", "3.0"))
_TEXT_VALUES = (("mult:0,0,2", "", "a=b", "cache dir"), ("-x", "--family"))


def _value(rng, kwargs):
    if "choices" in kwargs:
        values = (kwargs["choices"], ("bogus", "-h"))
    else:
        values = _INT_VALUES if "type" in kwargs else _TEXT_VALUES
    return rng.choice(values[rng.random() < 0.1])


def _command_line(rng):
    """A line of one subcommand's flags, each given or left out at random,
    then mutated or not: a flag of any subcommand added (a repeat, or one
    this subcommand lacks), a token dropped, two tokens joined by "=", a
    flag cut short, or "-h"."""
    name = rng.choice([*cli._COMMANDS, "nonsense"])
    flags = cli._COMMANDS.get(name, cli._COMMANDS["scan"])[2]
    argv = [name]
    for flag, kwargs in rng.sample(list(flags.items()), len(flags)):
        if kwargs.get("required") or rng.random() < 0.6:
            argv += [flag] if "action" in kwargs else [flag, _value(rng, kwargs)]
    mutation = rng.randrange(8)
    if mutation == 0:
        other = rng.choice(list(cli._COMMANDS.values()))[2]
        flag, kwargs = rng.choice(list(other.items()))
        argv += [flag] if "action" in kwargs else [flag, _value(rng, kwargs)]
    elif mutation == 1 and len(argv) > 1:
        del argv[rng.randrange(len(argv))]
    elif mutation == 2 and len(argv) > 2:
        i = rng.randrange(1, len(argv) - 1)
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif mutation == 3 and len(argv) > 1:
        i = rng.randrange(1, len(argv))
        argv[i] = argv[i][:4]
    elif mutation == 4:
        argv.insert(rng.randrange(len(argv) + 1), "-h")
    return argv


def test_plain_parser_agrees_with_argparse():
    # whenever the plain form takes a line, argparse parses it to the same
    # fields; the plain form must take a fair share (790 of the 3,000 lines
    # of this seed), not decline everything
    rng = random.Random(26)
    parser = cli.build_parser()
    taken = 0
    for _ in range(3000):
        argv = _command_line(rng)
        plain = cli._plain(argv)
        if plain is None:
            continue
        taken += 1
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                expected = vars(parser.parse_args(argv))
            except SystemExit:
                pytest.fail(f"plain form took {argv}, argparse refused it: {err.getvalue()}")
        assert vars(plain) == expected, argv
    assert 600 <= taken <= 1500, taken


# lines argparse takes that are not plain, no subcommand, and a value not a string
@pytest.mark.parametrize("argv", [
    ["scan", "--kind", "lehmer", "--m-max", "3", "--m-max", "4"],
    ["scan", "--kind=lehmer", "--m-max", "3"],
    ["scan", "--ki", "lehmer", "--m-max", "3"],
    ["scan", "--kind", "lehmer", "--m-max", "-3"],
    ["scan", "--kind", "lehmer", "--m-max", 3],
    [],
])
def test_plain_parser_declines(argv):
    assert cli._plain(argv) is None
