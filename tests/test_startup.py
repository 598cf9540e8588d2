"""Start-up contract: what `import thetares.cli` loads, and the plain
`Family` class that replaced the dataclass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import thetares
from thetares import THETA2, cf_series, parse_family

# modules a CLI run must not pay for at import: dataclasses pulls in inspect
# (and ast, dis, tokenize), csv serves one output format, hashlib only the cache
FORBIDDEN = {"dataclasses", "inspect", "csv", "hashlib", "typing"}

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
        assert THETA2 != (THETA2.kind, THETA2.a)

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
