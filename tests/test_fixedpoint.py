"""Fixed-point layer: frozen examples, exhaustive oracles, algebraic laws."""

import math
import random
from fractions import Fraction

import pytest

from fbe.fixedpoint import (
    DomainError,
    FixedOverflow,
    FixedPoint,
    Layout,
    WidthMismatch,
    absolute,
    add,
    from_value,
    make,
    negate,
    nonrestoring_div,
    nonrestoring_isqrt,
    parse,
    reciprocal_nonrestoring,
    render,
    shift,
    square,
    sqrt_nonrestoring,
)


def fxu(text):
    return parse(text, signed=False)


def fxs(text):
    return parse(text, signed=True)


# ---------------------------------------------------------------- frozen

def test_square_examples():
    assert render(square(fxu("01.10"))) == "10.01"
    # widening the frac field first: 0.75^2 = 0.5625 truncates to 0 at 4 bits
    a = FixedPoint(0b000011, 2, 4, False)
    assert render(square(a)) == "00.0000"


def test_square_overflow_flagged():
    with pytest.raises(FixedOverflow):
        square(fxu("11.00"))  # 9.0 needs 4 int bits


def test_sqrt_examples():
    a = FixedPoint(0b100000, 2, 4, False)  # 10.0000
    assert render(sqrt_nonrestoring(a)) == "01.0110"
    assert render(sqrt_nonrestoring(fxu("00.0100"))) == "00.1000"


def test_reciprocal_examples():
    a = FixedPoint(0b011000, 2, 4, False)  # 01.1000
    assert render(reciprocal_nonrestoring(a)) == "00.1010"
    assert render(reciprocal_nonrestoring(fxu("10.00"))) == "00.10"


def test_negate_examples():
    assert render(negate(fxs("00.10"))) == "11.10"
    # most negative value is its own negation
    assert render(negate(fxs("10.00"))) == "10.00"


def test_shift_examples():
    assert render(shift(fxu("01.00"), -1)) == "00.10"
    assert render(shift(fxu("01.10"), +1)) == "11.00"
    assert render(shift(fxu("10.01"), -2)) == "00.10"


def test_add_wraps():
    assert render(add(fxs("11.10"), fxs("00.10"))) == "00.00"


def test_reciprocal_zero():
    with pytest.raises(ZeroDivisionError):
        reciprocal_nonrestoring(fxu("00.00"))


def test_width_mismatch():
    with pytest.raises(WidthMismatch):
        add(fxu("01.00"), fxu("010.0"))
    with pytest.raises(WidthMismatch):
        add(fxu("01.00"), fxs("01.00"))
    # FixedPoint's own field checks
    for fields, message in (((0, -1, 2), "negative field width"),
                            ((0, 0, 0), "zero-width value"),
                            ((0, 0, 3, True), "signed layout needs the sign bit"),
                            ((16, 2, 2), "raw 16 outside 4 bits")):
        with pytest.raises(WidthMismatch, match=message):
            FixedPoint(*fields)


# ------------------------------------------------------------- integer loops

def test_isqrt_exhaustive():
    for n in range(1 << 14):
        root, rem = nonrestoring_isqrt(n)
        assert root == math.isqrt(n)
        assert root * root + rem == n
        assert 0 <= rem <= 2 * root
    with pytest.raises(DomainError, match="negative radicand"):
        nonrestoring_isqrt(-1)


def test_isqrt_random_wide():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.getrandbits(rng.randrange(1, 64))
        root, rem = nonrestoring_isqrt(n)
        assert root == math.isqrt(n) and root * root + rem == n


def test_div_exhaustive():
    for d in range(1, 65):
        for n in range(1 << 9):
            qbits = max(1, (n // d).bit_length())
            q, r = nonrestoring_div(n, d, qbits)
            assert q == n // d and r == n % d


def test_div_quotient_must_fit():
    with pytest.raises(FixedOverflow):
        nonrestoring_div(64, 1, 3)
    with pytest.raises(DomainError, match="divisor must be positive"):
        nonrestoring_div(5, 0, 3)


# ------------------------------------------------------------ value oracle

def layouts_upto(width):
    for w in range(1, width + 1):
        for f in range(w + 1):
            ib = w - f
            yield Layout(ib, f, False)
            if ib >= 1:
                yield Layout(ib, f, True)


def test_value_roundtrip_exhaustive():
    for lay in layouts_upto(6):
        for raw in range(1 << lay.width):
            a = make(raw, lay)
            assert from_value(a.value, lay) == a
            assert parse(render(a), lay.signed) == a


def test_value_range():
    a = make(0b1000, Layout(2, 2, True))
    assert a.value == -2
    b = make(0b0111, Layout(2, 2, True))
    assert b.value == Fraction(7, 4)
    c = make(0b1000, Layout(2, 2, False))
    assert c.value == 2


def test_add_is_mod_arithmetic():
    lay = Layout(2, 3, True)
    mod = 1 << lay.width
    for x in range(mod):
        for y in range(mod):
            s = add(make(x, lay), make(y, lay))
            assert s.raw == (x + y) % mod


def test_negate_involution_and_abs():
    with pytest.raises(DomainError, match="signed layout"):
        negate(fxu("01.00"))
    lay = Layout(3, 3, True)
    for raw in range(1 << lay.width):
        a = make(raw, lay)
        assert negate(negate(a)) == a
        b = absolute(a)
        if a.raw != 1 << (lay.width - 1):  # most negative has no positive twin
            assert b.value == abs(a.value)


def test_shift_matches_floor_on_nonneg():
    lay = Layout(3, 3, False)
    for raw in range(1 << lay.width):
        a = make(raw, lay)
        for k in range(1, 4):
            assert shift(a, -k).raw == raw >> k
            assert shift(a, k).raw == (raw << k) % (1 << lay.width)


def test_square_oracle_exhaustive():
    for lay in layouts_upto(7):
        for raw in range(1 << lay.width):
            a = make(raw, lay)
            exact = a.value * a.value
            t = exact.numerator * (1 << lay.frac_bits) // exact.denominator
            hi = 1 << (lay.width - 1) if lay.signed else 1 << lay.width
            if t >= hi:
                with pytest.raises(FixedOverflow):
                    square(a)
            else:
                s = square(a)
                assert s.value <= exact < s.value + s.ulp


def test_sqrt_oracle_exhaustive():
    for lay in layouts_upto(7):
        for raw in range(1 << lay.width):
            a = make(raw, lay)
            if a.signed and a.sign_bit:
                with pytest.raises(DomainError):
                    sqrt_nonrestoring(a)
                continue
            r = sqrt_nonrestoring(a)
            assert r.raw == math.isqrt(a.raw << a.frac_bits)
            # adjunction: r <= sqrt(a) < r + ulp
            assert r.value * r.value <= a.value
            assert (r.value + r.ulp) ** 2 > a.value


def test_reciprocal_oracle_exhaustive():
    for lay in layouts_upto(7):
        for raw in range(1, 1 << lay.width):
            a = make(raw, lay)
            v = a.value
            if v == 0:
                continue
            t = Fraction(1) / abs(v)
            want = t.numerator * (1 << lay.frac_bits) // t.denominator
            hi = 1 << (lay.width - 1) if lay.signed else 1 << lay.width
            if want >= hi:
                with pytest.raises(FixedOverflow):
                    reciprocal_nonrestoring(a)
                continue
            r = reciprocal_nonrestoring(a)
            assert abs(r.value) <= Fraction(1) / abs(v)
            assert abs(r.value) + r.ulp > Fraction(1) / abs(v)
            if r.value != 0:
                assert (r.value < 0) == (v < 0)


def test_parse_rejects_junk():
    for bad in ["", ".", "01.0.1", "0a.01", "2.0"]:
        with pytest.raises(DomainError):
            parse(bad)


def test_from_value_checks():
    lay = Layout(2, 2, False)
    with pytest.raises(DomainError):
        from_value(Fraction(1, 3), lay)
    with pytest.raises(FixedOverflow):
        from_value(4, lay)
