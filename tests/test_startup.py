"""Start-up contract: what `from thetares import *` binds, what
`import thetares.cli` loads, and the plain `Family` class that replaced
the dataclass."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thetares
from thetares import THETA2, cf_series, parse_family
from thetares.cli import main

# argparse, with the gettext and locale its messages load, parses only help
# and usage errors: a plain command line never needs them
PARSER = {"argparse", "gettext", "locale"}
# modules a CLI run must not pay for at import: dataclasses pulls in inspect
# (and ast, dis, tokenize), csv serves one output format, hashlib and pickle
# only the cache
FORBIDDEN = {"dataclasses", "inspect", "csv", "hashlib", "pickle", "typing"} | PARSER

# the public names the README's Library section lists, then the rest of the
# names the package's top-level imports make public
README_NAMES = {
    "Family", "HigherOrderPoleError", "OracleConsistencyError", "Poly", "QSeries",
    "RatFunc", "RelationError", "SeqState", "THETA2", "cf_coeff", "has_pole",
    "local_residue", "local_residue_mod", "r2_count", "ramanujan_tau", "rec_sequence",
    "rec_step", "residue_report", "sigma1", "upoly_sequence", "upoly_step",
}
OTHER_NAMES = {
    "BACKEND", "DEFAULT_TRUNC", "DELTA256", "FamilyError", "ResidueReport", "THETA",
    "THETA4", "TruncationError", "cf_series", "delta_series", "dstar",
    "parse_family", "t_series", "theta_series", "u_series", "UsageError", "xy_series",
}


def test_star_import_binds_every_public_name():
    bound = {}
    exec("from thetares import *", bound)
    assert README_NAMES | OTHER_NAMES <= bound.keys()
    assert "Rat" not in bound  # rationals are Fraction, under no second name


_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import thetares.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_forbidden_module():
    # compared against the bare interpreter, so a site that preloads some of
    # these modules does not hide a regression or fail the test
    src = str(Path(thetares.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-I", "-c", _PROBE, src],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "thetares.cli" in loaded
    assert not loaded & FORBIDDEN, sorted(loaded & FORBIDDEN)


_RUN_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import thetares.cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(thetares.cli.main(argv))
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""

_PLAIN_RUNS = [
    ["compute", "--family", "mult:0,0,2", "--m-max", "2", "--format", "json"],
    ["residues", "--family", "mult:2,8,8", "--m-max", "3", "--format", "json"],
    ["scan", "--kind", "lehmer", "--m-max", "4", "--format", "json"],
    ["verify", "--suite", "golden", "--format", "json"],
    ["qseries-dump", "--series", "x", "--trunc", "4"],
]


def test_plain_runs_load_no_parser(capsys):
    src = str(Path(thetares.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "THETARES_CACHE_DIR"}
    out = subprocess.run([sys.executable, "-I", "-c", _RUN_PROBE, src, json.dumps(_PLAIN_RUNS)],
                         capture_output=True, text=True, check=True, env=env).stdout
    codes, loaded = json.loads(out)
    assert codes == [0] * len(_PLAIN_RUNS)
    assert not set(loaded) & PARSER, sorted(set(loaded) & PARSER)
    # help and usage errors still come from argparse
    assert main(["scan", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: thetares scan [-h] ")
    assert main(["scan", "--kind", "cubes"]) == 2
    assert "argument --kind: invalid choice: 'cubes'" in capsys.readouterr().err


class TestFamily:
    def test_parsed_family_equals_labelled_one(self):
        parsed = parse_family("mult:0,0,2")
        assert parsed == THETA2
        assert hash(parsed) == hash(THETA2)

    def test_label_only_changes_str(self):
        assert str(THETA2) == "theta^2"
        assert str(parse_family("mult:0,0,2")) == "mult:0,0,2"

    def test_other_families_differ(self):
        assert parse_family("mult:0,0,1") != THETA2
        assert parse_family("poly:2:[(0,2,1)]") != parse_family("poly:2:[(1,1,1)]")
        assert parse_family("mult:0,0,2*poly:1:[(0,1,1)]") != parse_family("poly:1:[(0,1,1)]")
        assert THETA2 != (THETA2.a, THETA2.b4, THETA2.c4, THETA2.monomials, THETA2.k)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            THETA2.a = 1
        with pytest.raises(AttributeError):
            del THETA2.label
        with pytest.raises(AttributeError):
            THETA2.extra = 0
        assert THETA2.a == 0 and THETA2.label == "theta^2"

    def test_shares_cached_series(self):
        assert cf_series(THETA2, 8) is cf_series(parse_family("mult:0,0,2"), 8)
