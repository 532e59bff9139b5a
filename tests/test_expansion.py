"""Digit recurrences against closed forms, frozen vectors, and each other."""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fbe import checks
from fbe.expansion import (
    DigitString,
    builtin_specs,
    derived_eval,
    error_budget,
    fbe_expand,
    fbe_expand_trace,
    get_spec,
    group1_value_bound,
    group1_value_enclosure,
    ifbe_evaluate,
    ifbe_evaluate_trace,
    log2_domain_reduce,
    oracle_eval,
    parse_digits,
    plouffe_arctan_bits,
)
from fbe.fixedpoint import DomainError, FixedOverflow, FixedPointError, make, render


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


# ------------------------------------------ plain drivers against traced ones

GROUP1 = [s for s in builtin_specs().values() if s.group == 1]
GROUP2 = [s for s in builtin_specs().values() if s.group == 2]


def outcome(f, *args):
    """("ok", f(*args)), or ("raised", type, message) of its FixedPointError."""
    try:
        return "ok", f(*args)
    except FixedPointError as e:
        return "raised", type(e), str(e)


def test_expand_matches_its_trace_on_every_raw():
    # every raw pattern of every width m <= 9, at n = m: fbe_expand gives
    # the traced digits or the same error, the last trace entry is where a
    # bare step loop ends, and valid_raws lists exactly the raws the
    # encoder takes, each of which encodes back to itself
    for spec in GROUP1:
        for m in range(spec.min_width, 10):
            lay = spec.layout(m, m)
            # what is_valid_raw and valid_raws read of a synthesized circuit
            sc = SimpleNamespace(spec=spec, layout=lay, config=SimpleNamespace(m=m))
            accepted = []
            for raw in range(1 << m):
                x = make(raw, lay).value
                traced = outcome(fbe_expand_trace, spec, x, m, m)
                plain = outcome(fbe_expand, spec, x, m, m)
                assert checks.is_valid_raw(sc, raw) == (traced[0] == "ok"), (spec.name, m, raw)
                if traced[0] != "ok":
                    assert plain == traced
                    continue
                ds, trace = traced[1]
                assert plain[1] == ds and plain[1].value() == ds.value()
                st = spec.encode(x, lay)
                assert st[0] == raw
                for _ in range(m):
                    _, st = spec.step(st, lay)
                assert len(trace) == m + 1 and trace[-1] == make(st[0], lay)
                accepted.append(raw)
            assert list(checks.valid_raws(sc)) == accepted, (spec.name, m)


def test_evaluate_matches_its_trace_on_every_string():
    # every digit string of n <= 8, at the least width and at m = 10
    for spec in GROUP2:
        for m, n in itertools.product((spec.min_width, 10), range(1, 9)):
            lay = spec.layout(m, n)
            for digits in itertools.product((0, 1), repeat=n):
                ds = DigitString(digits)
                out, trace = ifbe_evaluate_trace(spec, ds, m)
                assert ifbe_evaluate(spec, ds, m) == out
                st = spec.init(lay)
                for i, v in enumerate(reversed(digits)):
                    st = spec.absorb(st, v, i, lay)
                assert len(trace) == n + 1 and trace[-1] == make(st[0], lay)
                assert out == spec.finish(st, digits, lay)


def encoder_inputs(spec, m, rng):
    """Domain ends, range ends and the most negative value with their
    neighbours an ulp and half an ulp away, non-dyadic and huge values,
    and 60 seeded ones, dyadic to q + 2 bits or over 3, 5 or 3 * 2^q."""
    lay = spec.layout(m)
    q, top = lay.frac_bits, 1 << (lay.int_bits - lay.signed)
    ulp = Fraction(1, 1 << q)
    xs = [Fraction(v) for v in (-top - 1, -top, -1, 0, 1, 2, 4, 8, 16, top, top + 1)]
    xs += [v + s for v in xs for s in (ulp, -ulp, ulp / 2)]
    xs += [Fraction(1, 3), Fraction(-5, 7), Fraction(3, 2), Fraction(10 ** 50 + 1, 2)]
    for _ in range(60):
        d = rng.choice((1 << rng.randrange(q + 3), 3, 5, 3 << q))
        xs.append(Fraction(rng.randrange(-(top + 2) * d, (top + 2) * d), d))
    return xs


def outcome_text(res, text):
    """An outcome as encode_outcomes writes it: text(result), or the
    error's type and message."""
    return text(res[1]) if res[0] == "ok" else f"{res[1].__name__}: {res[2]}"


def encode_outcomes():
    """One line per group-1 spec, width and encoder input: the raw or the
    error of spec.encode, then the digits or the error of fbe_expand."""
    rng = random.Random(2613)
    for spec in GROUP1:
        for m in (spec.min_width, 6, 9, 16):
            lay = spec.layout(m)
            for x in encoder_inputs(spec, m, rng):
                enc = outcome_text(outcome(spec.encode, x, lay), lambda st: f"raw {st[0]}")
                exp = outcome_text(outcome(fbe_expand, spec, x, 3, m),
                                   lambda ds: f"digits {ds.digits}")
                yield f"{spec.name} m={m} x={x}: {enc} | {exp}"


ARCCOT_6 = "Layout(int_bits=3, frac_bits=3, signed=True)"
# (spec, m, x) -> the error the encoder raises
ENCODE_ERRORS = {
    ("log2", 6, Fraction(1, 3)): (DomainError, "1/3 outside the domain of log2"),
    ("log2", 6, Fraction(4, 3)): (DomainError, "4/3 not representable with 5 frac bits"),
    ("log2", 6, Fraction(2)): (DomainError, "2 outside the domain of log2"),
    ("log2", 6, Fraction(127, 64)): (DomainError, "127/64 not representable with 5 frac bits"),
    ("log2-wide", 4, Fraction(9, 8)): (DomainError, "9/8 not representable with 2 frac bits"),
    ("log2-wide", 4, Fraction(4)): (DomainError, "4 outside the domain of log2-wide"),
    ("arccos", 6, Fraction(-17, 16)): (DomainError, "-17/16 outside the domain of arccos"),
    ("log2-quaternary-wide", 5, Fraction(16)): (
        DomainError, "16 outside the domain of log2-quaternary-wide"),
    ("arccot", 6, Fraction(4)): (FixedOverflow, f"4 outside range of {ARCCOT_6}"),
    ("arccot", 6, Fraction(-33, 8)): (FixedOverflow, f"-33/8 outside range of {ARCCOT_6}"),
    ("arccot", 6, Fraction(1000, 3)): (DomainError, "1000/3 not representable with 3 frac bits"),
    ("arccot", 6, Fraction(-4)): (DomainError, "-4 is the excluded most-negative input"),
    ("arccot", 6, Fraction(10 ** 50 + 1, 2)): (
        FixedOverflow, f"100000000000...0000000001/2 (53 characters) outside range of {ARCCOT_6}"),
    ("log2", 6, Fraction(10 ** 50 + 1, 2)): (
        DomainError, "100000000000...0000000001/2 (53 characters) outside the domain of log2"),
}
# closed ends are taken, the open upper ends are not (above)
ENCODE_ENDS = {("log2", 6, Fraction(1)): 32, ("arccos", 6, Fraction(1)): 16,
               ("arccos", 6, Fraction(-1)): 48, ("log2-wide", 4, Fraction(15, 4)): 15,
               ("arccot", 6, Fraction(-31, 8)): 33}
# SHA-256 over the encode_outcomes lines
ENCODE_OUTCOMES_DIGEST = "8413e3765de2f95a1b400d64f745fe345c664e0e3511d7463f1f237d1f0e9827"


def test_encoders_keep_their_checks_and_messages():
    # the domain, then representability, then the layout range, then the
    # excluded most-negative arccot input, with the messages as they were
    for (name, m, x), (kind, message) in ENCODE_ERRORS.items():
        spec = get_spec(name)
        with pytest.raises(kind) as info:
            spec.encode(x, spec.layout(m))
        assert str(info.value) == message
    for (name, m, x), raw in ENCODE_ENDS.items():
        spec = get_spec(name)
        assert spec.encode(x, spec.layout(m)) == (raw, 0)
    lines = list(encode_outcomes())
    assert len(lines) == 3024
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ENCODE_OUTCOMES_DIGEST


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
    # group 1: what group1_value_bound proves, not the strict digit claim
    b = error_budget("log2-wide", 10, 10)
    assert b.bound is None and b.guaranteed_exact_bits == 7
    lo, hi = group1_value_bound("log2-wide", 10, 10)
    assert lo == 0 and Fraction(1, 1 << 8) < hi <= Fraction(1, 1 << 7)
    b = error_budget("arccot", 10, 10)
    assert b.guaranteed_exact_bits == 6
    lo, hi = group1_value_bound("arccot", 10, 10)
    assert Fraction(1, 1 << 7) < hi <= Fraction(1, 1 << 6) and -lo < hi
    assert error_budget("log2", 10, 10).guaranteed_exact_bits == 0


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
