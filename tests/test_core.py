import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gekr.core import (
    GEKR,
    ArrayMatrix,
    LogMagnitude,
    ModelParams,
    PatternSet,
    Record,
    pack_row,
    parse_alpha,
    parse_array,
    render_magnitude,
)


class TestRecord:
    """A Record keeps what callers had of the frozen dataclass it replaced."""

    def test_fields_by_position_or_keyword(self):
        params = ModelParams(6, Fraction(2, 3), 4)
        assert params == ModelParams(n=6, alpha=Fraction(2, 3), r=4) == ModelParams(6, r=4, alpha=Fraction(2, 3))
        assert params == ModelParams.fixed_weight(6, 4)
        assert ModelParams(n=6, alpha=Fraction(1, 2)).r is None
        for bad in [(), (1.0, 2.0)]:
            with pytest.raises(TypeError):
                LogMagnitude(*bad)
        for bad in [{"log10": 1.0, "mu": 2.0}, {"mu": 1.0}]:
            with pytest.raises(TypeError):
                LogMagnitude(**bad)
        with pytest.raises(TypeError):
            ArrayMatrix(3, n=3)
        with pytest.raises(ValueError):
            ModelParams(n=0, alpha=Fraction(1, 2))

    def test_equality_hash_repr(self):
        assert LogMagnitude(2.0) == LogMagnitude(2.0)
        assert LogMagnitude(2.0) != LogMagnitude(3.0)
        assert LogMagnitude(2.0) != 2.0
        assert hash(LogMagnitude(2.0)) == hash((2.0,))  # as the dataclass hashed it
        assert len({ArrayMatrix(2, (1, 2)), ArrayMatrix(2, (1, 2)), ArrayMatrix(2, (2, 1))}) == 2
        assert repr(ModelParams(6, Fraction(2, 3), 4)) == "ModelParams(n=6, alpha=Fraction(2, 3), r=4)"
        assert repr(GEKR) == f"PatternSet(members={GEKR.members!r})"

    def test_immutable_without_instance_dict(self):
        params = ModelParams.fixed_weight(6, 4)
        with pytest.raises(AttributeError):
            params.n = 7
        with pytest.raises(AttributeError):
            del params.r
        with pytest.raises(AttributeError):
            params.extra = 1
        assert isinstance(params, Record) and not hasattr(params, "__dict__")

    def test_copy_and_pickle(self):
        for record in (ModelParams.fixed_weight(6, 4), LogMagnitude.zero(), GEKR, ArrayMatrix(2, (1, 3))):
            assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record

    def test_ordering_only_between_magnitudes(self):
        assert LogMagnitude(1.0) <= LogMagnitude(1.0) < LogMagnitude(2.0)
        assert LogMagnitude(2.0) >= LogMagnitude(2.0) > LogMagnitude(1.0)
        assert max(LogMagnitude(3.0), LogMagnitude.zero(), LogMagnitude(-1.0)) == LogMagnitude(3.0)
        with pytest.raises(TypeError):
            LogMagnitude(1.0) < 2.0
        with pytest.raises(TypeError):
            ModelParams.fixed_weight(6, 4) < ModelParams.fixed_weight(6, 5)


class TestLogMagnitude:
    def test_zero(self):
        z = LogMagnitude.zero()
        assert z.is_zero
        assert render_magnitude(z) == "0"
        assert z.log10 == -math.inf

    def test_from_float_round_trip(self):
        v = LogMagnitude(math.log10(226.0))
        assert 10.0**v.log10 == pytest.approx(226.0)

    def test_render_known_value(self):
        v = LogMagnitude(289.35351202229026)
        assert render_magnitude(v) == "2.26e289"

    def test_render_negative_exponent(self):
        v = LogMagnitude(-695.88216)
        assert render_magnitude(v) == "1.31e-696"

    def test_render_mantissa_rollover(self):
        # 9.997e5 rounds to 10.0 at three digits, which must bump the
        # exponent rather than print "10.00e5".
        v = LogMagnitude(math.log10(9.997e5))
        assert render_magnitude(v) == "1.00e6"

    def test_from_fraction_huge(self):
        v = LogMagnitude.from_fraction(Fraction(10**500, 3))
        assert v.log10 == pytest.approx(500 - math.log10(3))
        assert LogMagnitude.from_fraction(Fraction(0)).is_zero

    def test_ordering(self):
        small = LogMagnitude(-300.0)
        big = LogMagnitude(1e6)
        assert LogMagnitude.zero() < small < big

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LogMagnitude(math.nan)

    @given(st.floats(min_value=-5000, max_value=5000, allow_nan=False))
    def test_render_parse_round_trip(self, log10):
        v = LogMagnitude(log10)
        mantissa, _, exponent = render_magnitude(v).partition("e")
        back = math.log10(float(mantissa)) + int(exponent)
        # Three significant digits keep the mantissa within 0.005 of a
        # value of at least 1, so the log within log10(1.005) = 2.17e-3.
        assert abs(back - v.log10) < 2.2e-3

    @given(
        st.floats(min_value=-1000, max_value=1000, allow_nan=False),
        st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    )
    def test_ordering_matches_log10(self, x, y):
        assert (LogMagnitude(x) < LogMagnitude(y)) == (x < y)


class TestPatternSet:
    def test_gekr_members(self):
        assert GEKR.members == {(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
        assert (1, 1, 1) in GEKR
        assert (0, 0, 0) not in GEKR
        assert len(GEKR) == 4

    def test_from_text(self):
        ps = PatternSet.from_text("011, 111")
        assert ps.members == {(0, 1, 1), (1, 1, 1)}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PatternSet(frozenset())
        with pytest.raises(ValueError):
            PatternSet.from_text("01")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            PatternSet(frozenset({(0, 1, 2)}))

    def test_iteration_sorted(self):
        assert list(GEKR) == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


class TestArrayMatrix:
    def test_pack_row(self):
        # Column 0 is the least significant bit.
        assert pack_row("110") == 0b011
        assert pack_row("") == 0
        with pytest.raises(ValueError):
            pack_row("1x0")

    def test_parse_round_trip(self):
        text = "1110\n1101\n1011\n"
        arr = parse_array(text)
        assert arr.m == 3
        assert arr.n == 4
        assert set(arr.weights()) == {3}
        assert arr.to_text() == text

    def test_parse_comments_blanks_crlf(self):
        arr = parse_array("# header\r\n10\r\n\r\n01")
        assert arr.m == 2
        assert arr.rows == (0b01, 0b10)
        assert set(arr.weights()) == {1}

    def test_parse_mixed_weights(self):
        assert set(parse_array("110\n100\n").weights()) == {1, 2}

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_array("110\n1100\n")
        with pytest.raises(ValueError):
            parse_array("")
        with pytest.raises(ValueError):
            parse_array("# only a comment\n")
        with pytest.raises(ValueError):
            parse_array("102\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayMatrix(n=2, rows=(4,))
        with pytest.raises(ValueError):
            ArrayMatrix(n=0, rows=())

    def test_weights_and_bits(self):
        arr = ArrayMatrix(n=3, rows=(0b011, 0b101))
        assert arr.weights() == (2, 2)
        assert arr.row_bits(0) == (1, 1, 0)

    @given(st.integers(min_value=1, max_value=130).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
    ))
    def test_row_bits_column_order(self, case):
        n, row = case
        bits = ArrayMatrix(n=n, rows=(row,)).row_bits(0)
        assert bits == tuple((row >> j) & 1 for j in range(n))
        assert all(type(b) is int for b in bits)

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=16), min_size=1, max_size=8)
    )
    def test_parse_render_round_trip(self, lines):
        same_len = [line.ljust(16, "0") for line in lines]
        text = "\n".join(same_len) + "\n"
        arr = parse_array(text)
        assert arr.to_text() == text
        assert parse_array(arr.to_text()).rows == arr.rows

    def test_no_rows_render_empty(self):
        assert ArrayMatrix(n=5, rows=()).to_text() == ""


class TestModelParams:
    def test_independent(self):
        p = ModelParams.independent("2/3", 30)
        assert p.alpha == Fraction(2, 3)
        assert p.r is None

    def test_fixed_weight(self):
        p = ModelParams.fixed_weight(20, 14)
        assert p.alpha == Fraction(7, 10)
        assert p.r == 14

    def test_full_weight_and_density_one(self):
        # Degenerate but legal: weight n rows and certain 1-entries.
        assert ModelParams.fixed_weight(6, 6).alpha == 1
        assert ModelParams.independent(1, 5).alpha == 1

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            ModelParams.independent(0, 10)
        with pytest.raises(ValueError):
            ModelParams.independent(Fraction(3, 2), 10)
        with pytest.raises(ValueError):
            ModelParams.fixed_weight(10, 0)
        with pytest.raises(ValueError):
            ModelParams.fixed_weight(10, 11)
        with pytest.raises(ValueError):
            ModelParams(n=10, alpha=Fraction(1, 2), r=0)

    def test_alpha_weight_consistency(self):
        with pytest.raises(ValueError):
            ModelParams(n=10, alpha=Fraction(1, 3), r=5)


def test_parse_alpha():
    assert parse_alpha("2/3") == Fraction(2, 3)
    assert parse_alpha("0.5") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_alpha("abc")
    with pytest.raises(ValueError):
        parse_alpha("1/0")


def test_parse_alpha_range():
    # Densities outside (0, 1] or under the smallest float are refused
    # with the same message whatever the exponent, which is never
    # expanded past len(text) + 400 digits.
    assert parse_alpha(" 1e-300 ") == Fraction(1, 10**300)
    assert parse_alpha("1_0e-0000000000000000000000001") == Fraction(1)
    for text in ("0", "-1/3", "3/2", "1.5", "1e30000000", "1e99999999999999999999", "0e-99999999999999999999"):
        with pytest.raises(ValueError, match=r"must be in \(0, 1\], got "):
            parse_alpha(text)
    for text in ("1e-400", "1e-30000000", "1e-99999999999999999999", "1e-9_999_999_999_999_999_999"):
        with pytest.raises(ValueError, match=f"density {text} underflows a float"):
            parse_alpha(text)
    for text in ("inf", "nan", "1e", "1 e5", "1__0e5", "1e99999999999999999999x"):
        with pytest.raises(ValueError, match="bad density"):
            parse_alpha(text)
