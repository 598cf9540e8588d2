"""Entry cache: round-trips, corruption handling, CLI integration."""

import json

import pytest

from thetares import DELTA256, THETA2, Poly, RatFunc, __version__, rec_sequence, rec_step
from thetares import recurrence
from thetares.cache import SeqCache, cached_sequence
from thetares.cli import main

# theta^2 entry m = 3 exactly as the Fraction-based writer of format 1
# wrote it; reading it and writing it back must give these bytes
PINNED_M3 = (
    '{"engine": "0.1.0", "entry": {"den": [[1, 5], [2, 3]], "num": ["0", "0", "0", "0", '
    '"-1/4", "17/8", "-457/64", "13", "-953/64", "351/32", "-35/8", "3/4"]}, '
    '"family": "mult:0,0,2", "format": 1, "m": 3}'
)


def test_round_trip(tmp_path):
    cache = SeqCache(tmp_path)
    seq = cached_sequence(DELTA256, 4, cache)
    fresh = rec_sequence(DELTA256, 4)
    assert seq.entries == fresh.entries
    # second run is served from disk and identical
    again = cached_sequence(DELTA256, 4, cache)
    assert again.entries == seq.entries


def test_cache_files_are_versioned(tmp_path):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 2, cache)
    path = cache.entry_path(THETA2, 1)
    data = json.loads(path.read_text())
    assert data["format"] == 1
    assert data["family"] == "mult:0,0,2"
    assert data["m"] == 1
    assert set(data) == {"format", "engine", "family", "m", "entry"}


def test_corrupt_entries_are_recomputed(tmp_path):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 3, cache)
    good = cache.read(THETA2, 2)
    cache.entry_path(THETA2, 2).write_text("{not json")
    assert cache.read(THETA2, 2) is None
    seq = cached_sequence(THETA2, 3, cache)
    assert seq.entries[2] == good
    assert cache.read(THETA2, 2) == good  # rewritten


def test_pinned_file_reads_and_writes_back_byte_identical(tmp_path):
    cache = SeqCache(tmp_path)
    path = cache.entry_path(THETA2, 3)
    pinned = PINNED_M3.replace('"engine": "0.1.0"', f'"engine": "{__version__}"')
    path.write_text(pinned, encoding="utf-8")
    entry = cache.read(THETA2, 3)
    assert entry == rec_sequence(THETA2, 3).entries[3]
    path.unlink()
    cache.write(THETA2, 3, entry)
    assert path.read_bytes() == pinned.encode()


def test_zero_denominator_is_recomputed(tmp_path):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 3, cache)
    good = cache.read(THETA2, 2)
    path = cache.entry_path(THETA2, 2)
    data = json.loads(path.read_text())
    data["entry"]["num"][3] = "1/0"
    path.write_text(json.dumps(data))
    assert cache.read(THETA2, 2) is None
    seq = cached_sequence(THETA2, 3, cache)
    assert seq.entries[2] == good
    assert cache.read(THETA2, 2) == good  # rewritten


def test_coefficients_beyond_the_int_str_limit(tmp_path):
    # 15,000 digits: str(int) and int(str) refuse more than 4,300 by default
    big = "-" + "3" * 14999 + "1/4"
    entry = RatFunc(Poly.from_strings([big, "1", "0", "5/2"]), [(2, 1), (3, 2)])
    assert entry.num.to_strings()[0] == big
    cache = SeqCache(tmp_path)
    cache.write(THETA2, 7, entry)
    assert big in cache.entry_path(THETA2, 7).read_text()
    assert cache.read(THETA2, 7) == entry


def test_mismatched_header_rejected(tmp_path):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 1, cache)
    path = cache.entry_path(THETA2, 1)
    data = json.loads(path.read_text())
    data["family"] = "mult:9,9,9"
    path.write_text(json.dumps(data))
    assert cache.read(THETA2, 1) is None


def test_distinct_families_do_not_collide(tmp_path):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 1, cache)
    cached_sequence(DELTA256, 1, cache)
    assert cache.read(THETA2, 1) != cache.read(DELTA256, 1)


def test_interrupted_run_keeps_its_progress(tmp_path, monkeypatch):
    cache = SeqCache(tmp_path)

    def step(family, m, prev=None):
        if m == 3:
            raise RuntimeError("interrupted")
        return rec_step(family, m, prev)

    monkeypatch.setattr(recurrence, "rec_step", step)
    with pytest.raises(RuntimeError, match="interrupted"):
        cached_sequence(THETA2, 5, cache)
    assert [cache.read(THETA2, m) is not None for m in range(4)] == [True] * 3 + [False]


def test_forged_cached_factor_is_a_theory_violation(tmp_path, capsys):
    # a cached theta^2 entry 3 with an extra factor (1 - 4v), the next edge:
    # entry 4, built on it, would have a pole of order 4 at v = 1/4
    def compute(m_max):
        return main(["compute", "--family", "mult:0,0,2", "--m-max", str(m_max),
                     "--format", "json", "--cache-dir", str(tmp_path)])

    assert compute(3) == 0
    capsys.readouterr()
    path = SeqCache(tmp_path).entry_path(THETA2, 3)
    data = json.loads(path.read_text())
    data["entry"]["den"].append([4, 1])
    path.write_text(json.dumps(data))
    assert compute(4) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("theory violation: entry 4 ")


def test_cli_uses_cache_dir(tmp_path, capsys):
    argv = ["compute", "--family", "mult:0,0,2", "--m-max", "2",
            "--format", "json", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(list(tmp_path.glob("*.json"))) == 3
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THETARES_CACHE_DIR", str(tmp_path))
    assert main(["compute", "--family", "mult:0,0,2", "--m-max", "1"]) == 0
    capsys.readouterr()
    assert len(list(tmp_path.glob("*.json"))) == 2
