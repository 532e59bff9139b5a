"""Digit recurrences against closed forms, frozen vectors, and each other."""

import math
import random
from fractions import Fraction

import pytest

from fbe.expansion import (
    DigitString,
    derived_eval,
    error_budget,
    fbe_expand,
    fbe_expand_trace,
    get_spec,
    group1_value_bound,
    group1_value_enclosure,
    ifbe_evaluate,
    log2_domain_reduce,
    oracle_eval,
    parse_digits,
    plouffe_arctan_bits,
)
from fbe.fixedpoint import DomainError, make, render


def bits(*d):
    return DigitString(tuple(d), 2)


# ------------------------------------------------------------------ frozen

def test_log2_narrow_frozen():
    # log2(1.5) = 0.10010101110...
    assert fbe_expand(get_spec("log2"), "1.5", 4, 16).digits == (1, 0, 0, 1)
    assert fbe_expand(get_spec("log2"), "1.5", 8, 24).digits == (1, 0, 0, 1, 0, 1, 0, 1)


def test_log2_wide_golden_rows():
    spec = get_spec("log2-wide")
    assert fbe_expand(spec, 1, 4, 4).digits == (0, 0, 0, 0)
    assert fbe_expand(spec, 2, 4, 4).digits == (1, 0, 0, 0)


def test_arccos_golden_rows():
    spec = get_spec("arccos")
    assert fbe_expand(spec, 0, 2, 4).digits == (1, 0)
    assert fbe_expand(spec, Fraction(1, 2), 2, 4).digits == (0, 1)
    assert fbe_expand(spec, 1, 2, 4).digits == (0, 0)
    assert fbe_expand(spec, Fraction(-1, 2), 2, 4).digits == (1, 0)


def test_arccot_golden_row():
    assert fbe_expand(get_spec("arccot"), 1, 2, 4).digits == (0, 1)


def test_arccot_sentinel_freezes():
    # x = 1 reaches 0 after one step, then the chain freezes on digit 0
    assert fbe_expand(get_spec("arccot"), 1, 6, 8).digits == (0, 1, 0, 0, 0, 0)


def test_cos_golden_rows():
    spec = get_spec("cos")
    cases = {
        (0, 0): "01.000",
        (0, 1): "00.101",
        (1, 0): "00.000",
        (1, 1): "11.011",
    }
    for din, want in cases.items():
        out, inf = ifbe_evaluate(spec, bits(*din), 5)
        assert not inf
        assert render(out) == want


def test_cot_frozen_vectors():
    spec = get_spec("cot")
    out, inf = ifbe_evaluate(spec, bits(0, 1), 6)  # x = 0.25
    assert not inf and out.value == 1
    out, inf = ifbe_evaluate(spec, bits(1), 6)  # x = 0.5, cot = 0
    assert not inf and out.value == 0
    out, inf = ifbe_evaluate(spec, bits(0, 0), 6)  # x = 0, infinity marker
    assert inf


def test_exp2_identity_and_trace():
    spec = get_spec("exp2")
    out, inf = ifbe_evaluate(spec, bits(0, 0, 0), 8)
    assert out.value == 1
    out, _ = ifbe_evaluate(spec, parse_digits(".1011"), 16)
    assert abs(float(out.value) - 2 ** 0.6875) < 1e-3


def test_domain_reduce_frozen():
    r = log2_domain_reduce(6)
    assert (r.y, r.shift, r.direction, r.exponent) == (Fraction(3, 2), 2, "right", 2)
    r = log2_domain_reduce(Fraction(1, 2))
    assert (r.y, r.shift, r.direction, r.exponent) == (Fraction(1), 1, "left", -1)
    with pytest.raises(DomainError):
        log2_domain_reduce(0)


def test_derived_ln2_frozen():
    assert render(derived_eval("ln", 2, 8)) == "0.10110001"


def test_plouffe_frozen():
    assert plouffe_arctan_bits(1, 4, 16).digits == (0, 1, 0, 0)
    assert plouffe_arctan_bits(Fraction(1, 2), 8, 32).digits == (0, 0, 1, 0, 0, 1, 0, 1)


def test_ternary_frozen():
    # log2(2) = 1 -> ternary 1,0,0,...
    assert fbe_expand(get_spec("log2-ternary"), 2, 4, 12).digits == (1, 0, 0, 0)


# ------------------------------------------------------------- cross checks

def test_oracle_matches_closed_forms():
    # digit strings at generous width against float references
    checks = [
        ("log2", Fraction(3, 2), math.log2(1.5)),
        ("log2-wide", 2, 1.0),
        ("log2-wide", 3, math.log2(3)),
        ("arccos", Fraction(-1, 2), 2 / 3),
        ("arccos", Fraction(3, 8), math.acos(3 / 8) / math.pi),
        ("arccot", Fraction(5, 2), math.atan2(1, 2.5) / math.pi),
        ("arccot", Fraction(-3, 4), math.atan2(1, -0.75) / math.pi),
    ]
    for name, x, want in checks:
        spec = get_spec(name)
        ds = oracle_eval(spec, x, 16, 12)
        got = float(ds.value()) * spec.value_scale
        assert abs(got - want) < spec.value_scale * 2 ** -14 + 1e-9, name


def test_group2_oracle_matches_closed_forms():
    rng = random.Random(7)
    for name in ("exp2", "cos", "cot"):
        spec = get_spec(name)
        for _ in range(30):
            n = rng.randrange(3, 9)
            d = [rng.randrange(2) for _ in range(n)]
            if name == "cot" and not any(d):
                d[0] = 1
            ds = bits(*d)
            x = float(ds.value())
            out, inf = oracle_eval(spec, ds, n, 12)
            assert not inf
            want = spec.closed_form(x)
            assert abs(float(out.value) - want) < 2 ** -10, (name, d)


def test_cos_signed_equals_unsigned_everywhere():
    u, s = get_spec("cos"), get_spec("cos-signed")
    for n in (1, 3, 6):
        for pattern in range(1 << n):
            d = [(pattern >> i) & 1 for i in range(n)]
            a, _ = ifbe_evaluate(u, bits(*d), 10)
            b, _ = ifbe_evaluate(s, bits(*d), 10)
            assert a == b, d


def test_radix_strings_agree_with_binary():
    rng = random.Random(3)
    spec2 = get_spec("log2")
    for _ in range(40):
        x = Fraction(rng.randrange(1 << 8, 1 << 9), 1 << 8)  # [1,2)
        b = fbe_expand(spec2, x, 12, 48)
        val2 = b.value()
        for name in ("log2-ternary", "log2-quaternary", "log2-quaternary-wide"):
            spec = get_spec(name)
            ds = fbe_expand(spec, x, 10, 48)
            lhs = ds.value() * spec.value_scale
            ulp = Fraction(spec.value_scale, spec.radix ** 10)
            assert abs(lhs - val2) <= ulp + Fraction(1, 1 << 12), name


def test_inverse_roundtrip_log_exp():
    # digits of log2 x fed to exp2 reproduce x within the stacked bounds
    rng = random.Random(5)
    m = 24
    n = (m - 1) // 2
    for _ in range(40):
        x = Fraction(rng.randrange(1 << 10, 1 << 11), 1 << 10)
        ds = fbe_expand(get_spec("log2"), x, n, m)
        out, _ = ifbe_evaluate(get_spec("exp2"), ds, m)
        tol = Fraction(1, 1 << (n - 1)) + Fraction(1, 1 << (m - 3))
        assert abs(out.value - x) <= 2 * tol, x


def test_dividing_point_neighbors_match_oracle_first_digit():
    # inputs hugging each interval boundary still classify like the oracle
    m = 10
    for name, raws in {
        "log2-wide": [(1 << (m - 1)) - 1, 1 << (m - 1)],
        "arccos": [0, 1, (1 << m) - 1],
        "arccot": [0, 1, (1 << m) - 1, (1 << (m - 1)) + 1],
    }.items():
        spec = get_spec(name)
        lay = spec.layout(m, 4)
        for raw in raws:
            x = make(raw, lay).value
            try:
                got = fbe_expand(spec, x, 1, m).digits[0]
            except DomainError:
                continue
            want = oracle_eval(spec, x, 1, m).digits[0]
            assert got == want, (name, raw)


def test_digit_prefix_stability():
    spec = get_spec("arccos")
    full = fbe_expand(spec, Fraction(3, 8), 10, 12).digits
    for n in range(1, 10):
        assert fbe_expand(spec, Fraction(3, 8), n, 12).digits == full[:n]


# ----------------------------------------------------------------- domains

def test_domain_errors():
    with pytest.raises(DomainError):
        fbe_expand(get_spec("log2"), Fraction(1, 2), 4, 8)
    with pytest.raises(DomainError):
        fbe_expand(get_spec("arccos"), Fraction(5, 4), 4, 8)
    with pytest.raises(DomainError):
        fbe_expand(get_spec("exp2"), 1, 4, 8)  # group 2 cannot expand
    with pytest.raises(DomainError):
        ifbe_evaluate(get_spec("arccos"), bits(0, 1), 8)


def test_arccot_excludes_most_negative():
    spec = get_spec("arccot")
    lay = spec.layout(6, 2)
    bad = make(1 << 5, lay).value  # the pattern 100000
    with pytest.raises(DomainError):
        fbe_expand(spec, bad, 2, 6)


def test_arccot_accepts_everything_else():
    spec = get_spec("arccot")
    m = 6
    lay = spec.layout(m, 3)
    for raw in range(1 << m):
        if raw == 1 << (m - 1):
            continue
        fbe_expand(spec, make(raw, lay).value, 3, m)


# ------------------------------------------------------------ digit strings

def test_digitstring_value_and_text():
    ds = bits(1, 0, 0, 1)
    assert ds.value() == Fraction(9, 16)
    assert ds.text() == ".1001"
    assert ds.text(point_after=1) == "1.001"
    assert parse_digits("0.1011").digits == (1, 0, 1, 1)
    assert parse_digits(".11").digits == (1, 1)
    t = DigitString((2, 0, 1), 3)
    assert t.value() == Fraction(2, 3) + Fraction(1, 27)
    with pytest.raises(DomainError):
        DigitString((2,), 2)


def test_trace_shapes():
    ds, trace = fbe_expand_trace(get_spec("log2-wide"), 3, 5, 8)
    assert len(ds.digits) == 5 and len(trace) == 6
    assert trace[0].value == 3


# ------------------------------------------------------------- error budget

def test_error_budget_entries():
    b = error_budget("exp2", 8, 12)
    assert b.q == 11 and b.bound == Fraction(4, 1 << 11)
    assert b.guaranteed_exact_bits == 10
    b = error_budget("cos", 6, 12)
    assert b.q == 10 and b.bound == Fraction(65, 1 << 10)
    assert b.guaranteed_exact_bits == 6
    b = error_budget("arccos", 8, 16)
    assert b.q == 14 and b.guaranteed_exact_bits == 9
    assert b.bound == Fraction(1, 1 << 8) - Fraction(1, 1 << 14)
    b = error_budget("log2-wide", 10, 10)
    assert b.bound is None and b.guaranteed_exact_bits == 10


@pytest.mark.parametrize("name", ("log2-wide", "arccot"))
@pytest.mark.parametrize("m", (7, 9))
def test_group1_value_bound_holds_and_can_fail(name, m):
    # widths criterion 3 does not use.  The bound spans fewer than 2^6
    # ulps, so flipping any of the first m-6 digits moves the value by at
    # least 2^-(m-6) and must land provably outside it.
    spec = get_spec(name)
    lay = spec.layout(m, m)
    lo, hi = group1_value_bound(name, m, m)
    assert hi - lo < Fraction(64, 1 << m)
    cases = 0
    for raw in range(1 << m):
        x = make(raw, lay).value
        try:
            ds = fbe_expand(spec, x, m, m)
        except DomainError:
            continue
        cases += 1
        f_lo, f_hi = group1_value_enclosure(name, x, m)
        assert lo <= f_lo - ds.value() and f_hi - ds.value() <= hi, (name, x)
        for k in range(m - 6):
            flipped = list(ds.digits)
            flipped[k] ^= 1
            v = DigitString(tuple(flipped)).value()
            assert f_hi - v <= lo or f_lo - v >= hi, (name, x, k)
    assert cases == {"log2-wide": 3 << (m - 2), "arccot": (1 << m) - 1}[name]


def test_derived_values_against_math():
    cases = [
        ("ln", Fraction(3, 2), math.log(1.5)),
        ("log10", 5, math.log10(5)),
        ("arcsin", Fraction(1, 2), 1 / 6),
        ("arctan", 1, 0.25),
        ("exp_e", Fraction(1, 4), math.exp(0.25)),
        ("sin", Fraction(1, 4), math.sin(math.pi / 4)),
        ("tan", Fraction(1, 8), math.tan(math.pi / 8)),
    ]
    for name, x, want in cases:
        out = derived_eval(name, x, 16)
        assert abs(float(out.value) - want) < 2 ** -13, name


def test_plouffe_saturation_is_sentinel():
    # close to 1 the update explodes; it must saturate instead of raising
    ds = plouffe_arctan_bits(Fraction(255, 256), 6, 8, int_bits=3)
    assert len(ds.digits) == 6
