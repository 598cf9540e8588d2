"""The coefficient wire format: ``parse_rationals`` / ``format_rationals``.

The codec never builds a ``Fraction``; ``str(Fraction)`` and
``Fraction(str)`` stay here as the reference it must agree with.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetares import Poly, QSeries, RatFunc
from thetares.cli import main
from thetares.rational import format_rationals, parse_rationals

# zero, small and multi-thousand-bit numerators of both signs
numerators = st.one_of(
    st.just(0),
    st.integers(-1000, 1000),
    st.integers(-(2**4000), 2**4000),
)
denominators = st.one_of(st.just(1), st.integers(1, 10**6), st.integers(1, 2**3000))
cleared = st.tuples(st.lists(numerators, max_size=8), denominators)
# "p/q" with no reduction, e.g. "2/4" or "3/1"
unreduced = st.builds(lambda p, q: f"{p}/{q}", numerators, denominators)


def reference_strings(nums, den):
    return [str(Fraction(c, den)) for c in nums]


@settings(deadline=None, derandomize=True)
@given(cleared, st.lists(unreduced, max_size=4))
def test_poly_codec_matches_fraction(pair, extra):
    nums, den = pair
    assert format_rationals(nums, den) == reference_strings(nums, den)
    p = Poly.from_cleared(nums, den)
    assert p.to_strings() == [str(c) for c in p.coeffs]
    assert Poly.from_strings(p.to_strings()) == p
    strings = reference_strings(nums, den) + extra
    assert Poly.from_strings(strings) == Poly(Fraction(s) for s in strings)


@settings(deadline=None, derandomize=True)
@given(cleared, st.lists(unreduced, max_size=4), st.integers(0, 14))
def test_qseries_codec_matches_fraction(pair, extra, trunc):
    nums, den = pair
    f = QSeries([Fraction(c, den) for c in nums], trunc=trunc)
    data = f.to_json_dict()
    assert data == {"trunc": trunc, "coeffs": [str(c) for c in f.coeffs]}
    assert QSeries.from_json_dict(data) == f
    strings = reference_strings(nums, den) + extra
    assert QSeries.from_json_dict({"trunc": trunc, "coeffs": strings}) == QSeries(
        [Fraction(s) for s in strings], trunc=trunc
    )


def test_parse_keeps_shared_denominator():
    assert parse_rationals(["1/2", "-1/3", "5", "2/4"]) == ([6, -4, 60, 6], 12)
    assert parse_rationals([]) == ([], 1)


@pytest.mark.parametrize("bad", ["1/0", "1/-2", "0/0", "", "/3", "1/", "1.5", "1e3", "1/2/3",
                                 "--" + "1" * 5000, "1" * 3000 + "x" + "1" * 3000])
def test_malformed_strings_raise_value_error(bad):
    with pytest.raises(ValueError):
        parse_rationals(["1", bad])


@pytest.mark.parametrize("bad", [5, 0.5, None, ["1"]])
def test_non_strings_raise_type_error(bad):
    with pytest.raises(TypeError):
        parse_rationals(["1", bad])


# around the default limit of 4300 digits, where str(int) and int(str)
# start to raise, and well past it
@pytest.mark.parametrize("digits", [4299, 4300, 4301, 4320, 8601, 15000])
def test_coefficients_beyond_the_int_str_limit(digits):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    big = 10 ** (digits - 1) + 12345
    nines = 10**digits - 1
    strings = ["1" + "0" * (digits - 6) + "12345", "-" + "9" * digits,
               "-" + "9" * (digits - 1) + "8/3", "3/1" + "0" * (digits - 1)]
    p = Poly.from_strings(strings)
    assert p.coeffs == (big, -nines, Fraction(1 - nines, 3), Fraction(3, 10 ** (digits - 1)))
    assert p.to_strings() == strings
    f = QSeries.from_json_dict({"trunc": 3, "coeffs": strings})
    assert f.to_json_dict()["coeffs"] == strings
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_pretty_printing_goes_through_the_codec(capsys):
    assert main(["compute", "--family", "mult:0,0,2", "--m-max", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "e_2(v) = (1/4v^6 - 11/16v^5 + 13/16v^4 - 1/4v^3) / (1 - v)^3(1 - 2v)")
    big = "1" + "0" * 15000
    f = RatFunc(Poly.from_strings([big, "-1/3", "0", "-1"]), [(2, 1)])
    assert str(f) == f"(-v^3 - 1/3v + {big}) / (1 - 2v)"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_codec_follows_a_lowered_limit():
    limit = sys.get_int_max_str_digits()
    strings = ["-" + "7" * 3001 + "/9", "1" + "0" * 2000]
    sys.set_int_max_str_digits(640)
    try:
        p = Poly.from_strings(strings)
        assert p.to_strings() == strings
    finally:
        sys.set_int_max_str_digits(limit)
    assert p.coeffs == (Fraction(-7 * (10**3001 - 1) // 9, 9), 10**2000)
