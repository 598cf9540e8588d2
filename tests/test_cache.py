"""Entry cache: round-trips, corruption handling, CLI integration."""

import json

import pytest

from thetares import DELTA256, THETA2, Poly, RatFunc, __version__, rec_sequence, rec_step
from thetares import backend, parse_family, recurrence
from thetares.cache import SeqCache, cached_sequence
from thetares.cli import main

# theta^2 entry m = 3 in the retired format 1 (decimal "p/q" strings):
# a miss, recomputed and rewritten in format 2
PINNED_M3 = (
    '{"engine": "0.1.0", "entry": {"den": [[1, 5], [2, 3]], "num": ["0", "0", "0", "0", '
    '"-1/4", "17/8", "-457/64", "13", "-953/64", "351/32", "-35/8", "3/4"]}, '
    '"family": "mult:0,0,2", "format": 1, "m": 3}'
)
# the same entry in format 2: hex numerators over the shared denominator
# 0x40 = 64; reading it and writing it back must give these bytes
PINNED_M3_HEX = (
    '{"engine": "0.1.0", "entry": {"den": "40", "factors": [[1, 5], [2, 3]], "nums": '
    '["0", "0", "0", "0", "-10", "88", "-1c9", "340", "-3b9", "2be", "-118", "30"]}, '
    '"family": "mult:0,0,2", "format": 2, "m": 3}'
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
    assert data["format"] == 2
    assert data["family"] == "mult:0,0,2"
    assert data["m"] == 1
    assert set(data) == {"format", "engine", "family", "m", "entry"}
    assert set(data["entry"]) == {"nums", "den", "factors"}


def test_corrupt_entries_are_recomputed(tmp_path):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 3, cache)
    good = cache.read(THETA2, 2)
    cache.entry_path(THETA2, 2).write_text("{not json")
    assert cache.read(THETA2, 2) is None
    seq = cached_sequence(THETA2, 3, cache)
    assert seq.entries[2] == good
    assert cache.read(THETA2, 2) == good  # rewritten


def this_engine(text):
    return text.replace('"engine": "0.1.0"', f'"engine": "{__version__}"')


def test_pinned_file_reads_and_writes_back_byte_identical(tmp_path):
    cache = SeqCache(tmp_path)
    path = cache.entry_path(THETA2, 3)
    pinned = this_engine(PINNED_M3_HEX)
    path.write_text(pinned, encoding="utf-8")
    entry = cache.read(THETA2, 3)
    assert entry == rec_sequence(THETA2, 3).entries[3]
    path.unlink()
    cache.write(THETA2, 3, entry)
    assert path.read_bytes() == pinned.encode()


def test_format_1_file_is_rewritten_in_format_2(tmp_path):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 3, cache)
    path = cache.entry_path(THETA2, 3)
    path.write_text(this_engine(PINNED_M3), encoding="utf-8")
    assert cache.read(THETA2, 3) is None
    cached_sequence(THETA2, 3, cache)
    assert path.read_text(encoding="utf-8") == this_engine(PINNED_M3_HEX)


def test_zero_denominator_is_recomputed(tmp_path):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 3, cache)
    good = cache.read(THETA2, 2)
    path = cache.entry_path(THETA2, 2)
    data = json.loads(path.read_text())
    data["entry"]["den"] = "0"
    path.write_text(json.dumps(data))
    assert cache.read(THETA2, 2) is None
    seq = cached_sequence(THETA2, 3, cache)
    assert seq.entries[2] == good
    assert cache.read(THETA2, 2) == good  # rewritten


def test_coefficients_beyond_the_int_str_limit(tmp_path):
    # 15,000 digits: str(int) and int(str) refuse more than 4,300 by default
    big = (10**15000 - 1) // 3 - 2  # 333...31
    entry = RatFunc(Poly.from_cleared([-big, 4, 0, 10], 4), [(2, 1), (3, 2)])
    assert entry.num.to_strings() == ["-" + "3" * 14999 + "1/4", "1", "0", "5/2"]
    cache = SeqCache(tmp_path)
    cache.write(THETA2, 7, entry)
    assert f'"-{big:x}"' in cache.entry_path(THETA2, 7).read_text()
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


def compute(cache_dir, m_max):
    return main(["compute", "--family", "mult:0,0,2", "--m-max", str(m_max),
                 "--format", "json", "--cache-dir", str(cache_dir)])


def rerun_with_forged_entry(cache_dir, capsys, forge):
    """Run theta^2 to m = 4, replace the cached entry 3 by the numerator
    and factors ``forge(entry 3)`` returns, and run again: the second run
    must print what the first printed, and must have recomputed entry 3
    and rewritten its file."""
    assert compute(cache_dir, 4) == 0
    cold = capsys.readouterr().out
    cache = SeqCache(cache_dir)
    path = cache.entry_path(THETA2, 3)
    good = path.read_bytes()
    num, factors = forge(cache.read(THETA2, 3))
    cache.write(THETA2, 3, RatFunc(num, factors))
    assert cache.read(THETA2, 3) == RatFunc(num, factors)
    assert compute(cache_dir, 4) == 0
    assert capsys.readouterr().out == cold
    assert path.read_bytes() == good


def test_forged_cached_factor_is_a_miss(tmp_path, capsys):
    # theta^2 entry 3 (factors (1, 5), (2, 3)) with an extra factor
    # (1 - 4v), the next edge; built on, it would give entry 4 a double pole
    def forge(entry):
        return entry.num, [(1, 5), (2, 3), (4, 1)]

    rerun_with_forged_entry(tmp_path, capsys, forge)


def test_cancellable_old_factor_is_a_miss(tmp_path, capsys):
    # N (1 - 2v) over (1 - 2v)^4: reduced, it would give entry 3 back,
    # but an old factor must be raised by exactly 2
    def forge(entry):
        return entry.num * Poly([1, -2]), [(1, 5), (2, 4)]

    rerun_with_forged_entry(tmp_path, capsys, forge)


def test_edge_factor_over_a_root_is_a_miss(tmp_path, capsys):
    # theta^2 entry 3 has no pole at v = 1/3 (3 is no sum of two squares);
    # N (1 - 3v) over (1 - 3v) has the shape but a numerator vanishing there
    def forge(entry):
        return entry.num * Poly([1, -3]), [(1, 5), (2, 3), (3, 1)]

    rerun_with_forged_entry(tmp_path, capsys, forge)


def test_forged_numerator_is_a_miss(tmp_path, capsys):
    # the right denominator, but numerator coefficient 4 moved by 1: the
    # relation to entry 2, checked at a random point mod PRIME, fails
    def forge(entry):
        nums, den = list(entry.num.int_coeffs), entry.num.int_den
        nums[4] += den
        return Poly.from_cleared(nums, den), entry.factors

    rerun_with_forged_entry(tmp_path, capsys, forge)


@pytest.mark.parametrize("key, value", [
    ("factors", [[1, 5], [2.0, 3]]),
    ("factors", [[1, 5], [2, True]]),
    ("factors", [[1, 5], ["2", 3]]),
    ("nums", "1"),  # one hex string, not a list of them
])
def test_entry_of_the_wrong_json_types_is_a_miss(tmp_path, key, value):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 3, cache)
    path = cache.entry_path(THETA2, 3)
    good = path.read_bytes()
    data = json.loads(good)
    data["entry"][key] = value
    path.write_text(json.dumps(data, sort_keys=True))
    assert cache.read(THETA2, 3) is None
    cached_sequence(THETA2, 3, cache)
    assert path.read_bytes() == good


@pytest.mark.parametrize("text", ["[]", "1", '"x"', "null"])
def test_non_object_file_is_a_miss(tmp_path, capsys, text):
    assert compute(tmp_path, 3) == 0
    cold = capsys.readouterr().out
    path = SeqCache(tmp_path).entry_path(THETA2, 2)
    good = path.read_bytes()
    path.write_text(text)
    assert compute(tmp_path, 3) == 0
    assert capsys.readouterr().out == cold
    assert path.read_bytes() == good


@pytest.mark.parametrize("text", [
    "poly:1:[(0,1,1)]",  # e_0 = 0, no factors
    "mult:1,0,0",  # e_0 = 1 / (1 - v), a factor before any step
    "mult:0,0,2",  # theta^2: poles cancel at every non-sum of two squares
    "mult:2,8,8",  # 256*Delta: edge offset 2, poles of growing order
    "poly:2:[(0,2,1/3),(1,1,-5/2),(2,0,1)]",  # rational rhs after m = 0
])
def test_prefix_is_read_back_whole(tmp_path, monkeypatch, text):
    family = parse_family(text)
    cache = SeqCache(tmp_path)
    cold = cached_sequence(family, 12, cache)

    def step(family, m, prev=None):
        raise AssertionError(f"entry {m} was recomputed")

    monkeypatch.setattr(recurrence, "rec_step", step)
    assert cached_sequence(family, 12, cache).entries == cold.entries


def test_one_root_test_per_entry_at_its_edge(tmp_path, monkeypatch):
    calls = []
    eval_at_inv = backend.eval_at_inv

    def counted(nums, j):
        calls.append(j)
        return eval_at_inv(nums, j)

    monkeypatch.setattr(backend, "eval_at_inv", counted)
    rec_sequence(THETA2, 20)
    assert calls == list(range(1, 21))  # entry m of theta^2 has its edge at 1/m
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 20, cache)
    calls.clear()
    warm = cached_sequence(THETA2, 20, cache)
    # a read tests only an entry that carries the edge factor, there alone
    assert calls == [m for m in range(1, 21) if warm.entries[m].pole_order(m)]


def test_other_engine_version_is_a_miss(tmp_path):
    cache = SeqCache(tmp_path)
    cached_sequence(THETA2, 2, cache)
    path = cache.entry_path(THETA2, 2)
    good = path.read_bytes()
    data = json.loads(good)
    data["engine"] = "0.0.0"
    path.write_text(json.dumps(data, sort_keys=True))
    assert cache.read(THETA2, 2) is None
    cached_sequence(THETA2, 2, cache)
    assert path.read_bytes() == good


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
