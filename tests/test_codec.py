"""The coefficient output format, ``format_rationals``, and the cache's
form of the same cleared integers.

The codec never builds a ``Fraction``; ``str(Fraction)`` stays here as
the reference it must agree with.  Nothing parses the output format
back: the cache stores numerators and denominator as pickled ints, and a
numerator that is not exactly an int makes the cache read a miss.
"""

import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetares import THETA2, Poly, QSeries, RatFunc, rec_sequence
from thetares.cache import SeqCache
from thetares.cli import main
from thetares.rational import format_rationals

# zero, small and multi-thousand-bit numerators of both signs
numerators = st.one_of(
    st.just(0),
    st.integers(-1000, 1000),
    st.integers(-(2**4000), 2**4000),
)
denominators = st.one_of(st.just(1), st.integers(1, 10**6), st.integers(1, 2**3000))
cleared = st.tuples(st.lists(numerators, max_size=8), denominators)


def reference_strings(nums, den):
    return [str(Fraction(c, den)) for c in nums]


@settings(deadline=None, derandomize=True)
@given(cleared)
def test_poly_codec_matches_fraction(pair):
    nums, den = pair
    assert format_rationals(nums, den) == reference_strings(nums, den)
    p = Poly.from_cleared(nums, den)
    assert p.to_strings() == [str(c) for c in p.coeffs]
    assert p == Poly(Fraction(c, den) for c in nums)


@settings(deadline=None, derandomize=True)
@given(cleared, st.integers(0, 14))
def test_qseries_codec_matches_fraction(pair, trunc):
    nums, den = pair
    f = QSeries([Fraction(c, den) for c in nums], trunc=trunc)
    data = f.to_json_dict()
    assert data == {"trunc": trunc, "coeffs": [str(c) for c in f.coeffs]}


def rerun_with_cached_coefficient(tmp_path, value):
    """Cache theta^2 to m = 3, replace numerator 4 of entry 3 in its file by
    ``value`` and rerun: the run must give the entries back and rewrite the
    file.  Returns what the cache read of the forged file gave."""
    cache = SeqCache(tmp_path)
    cold = rec_sequence(THETA2, 3, cache).entries
    path = cache.entry_path(THETA2, 3)
    good = path.read_bytes()
    data = pickle.loads(good)
    data["nums"][4] = value
    path.write_bytes(pickle.dumps(data, protocol=5))
    forged = cache.read(THETA2, 3)
    assert rec_sequence(THETA2, 3, cache).entries == cold
    assert path.read_bytes() == good
    return forged


# these two tests are named for the hex strings of cache format 2, whose
# decoding raised on them; a format-3 read takes no string, well-formed
# ("1e3" was 0x1e3) or not
@pytest.mark.parametrize("bad", ["1/0", "1/-2", "0/0", "", "/3", "1/", "1.5", "1e3", "1/2/3",
                                 "--" + "1" * 5000, "1" * 3000 + "x" + "1" * 3000])
def test_malformed_strings_raise_value_error(tmp_path, bad):
    assert rerun_with_cached_coefficient(tmp_path, bad) is None


# the int 5 reads back, and the relation check of `rec_sequence` rejects it
@pytest.mark.parametrize("bad", [5, 0.5, None, ["1"]])
def test_non_strings_raise_type_error(tmp_path, bad):
    forged = rerun_with_cached_coefficient(tmp_path, bad)
    assert (forged is None) == (type(bad) is not int)


# around the default limit of 4300 digits, where str(int) and int(str)
# start to raise, and well past it
@pytest.mark.parametrize("digits", [4299, 4300, 4301, 4320, 8601, 15000])
def test_coefficients_beyond_the_int_str_limit(digits):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    big = 10 ** (digits - 1) + 12345
    nines = 10**digits - 1
    strings = ["1" + "0" * (digits - 6) + "12345", "-" + "9" * digits,
               "-" + "9" * (digits - 1) + "8/3", "3/1" + "0" * (digits - 1)]
    den = 3 * 10 ** (digits - 1)
    p = Poly.from_cleared([big * den, -nines * den, (1 - nines) * 10 ** (digits - 1), 9], den)
    assert p.coeffs == (big, -nines, Fraction(1 - nines, 3), Fraction(3, 10 ** (digits - 1)))
    assert p.to_strings() == strings
    assert QSeries(p.coeffs).to_json_dict()["coeffs"] == strings
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_pretty_printing_goes_through_the_codec(capsys):
    assert main(["compute", "--family", "mult:0,0,2", "--m-max", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "e_2(v) = (1/4v^6 - 11/16v^5 + 13/16v^4 - 1/4v^3) / (1 - v)^3(1 - 2v)")
    f = RatFunc(Poly.from_cleared([3 * 10**15000, -1, 0, -3], 3), [(2, 1)])
    assert str(f) == f"(-v^3 - 1/3v + 1{'0' * 15000}) / (1 - 2v)"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_codec_follows_a_lowered_limit(tmp_path):
    limit = sys.get_int_max_str_digits()
    strings = ["-" + "7" * 3001 + "/9", "1" + "0" * 2000]
    p = Poly.from_cleared([-7 * (10**3001 - 1) // 9, 9 * 10**2000], 9)
    entry = RatFunc(p, [(2, 1)])
    cache = SeqCache(tmp_path)
    sys.set_int_max_str_digits(640)
    try:
        assert p.to_strings() == strings
        cache.write(THETA2, 7, entry)  # pickled ints: no digit limit applies
        assert cache.read(THETA2, 7) == entry
    finally:
        sys.set_int_max_str_digits(limit)
    assert p.coeffs == (Fraction(-7 * (10**3001 - 1) // 9, 9), 10**2000)
