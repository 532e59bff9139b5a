"""Digit recurrences that expand function values one bit at a time.

Group 1 functions (the log2 variants, arccos, arccot) read a fixed-point
number and emit digits of the function value, one interval comparison per
step.  Group 2 functions (exp2, cos, cot) run recurrences in the other
direction: digits of the argument go in lsb first and the function value
comes out.  Every step is plain fixed-point arithmetic at the working
width with magnitude truncation, so this module is also the bit-exact
mirror of the synthesized circuits.  Running the same recurrence at four
times the width serves as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .fixedpoint import (
    DomainError,
    FixedPoint,
    Layout,
    WidthMismatch,
    _raw_of,
    _shown,
    _trunc_raw,
    from_value,
    make,
)

# chain state: (raw register value, auxiliary flag bits)
State = tuple[int, int]

NumberLike = Union[int, float, str, Fraction]
# longest number text _as_fraction reads; Python's int() stops at 4300
# digits, and with at most 3 exponent digits this bounds every value
_MAX_NUMBER_TEXT = 1000


def _as_fraction(x: NumberLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and len(x.strip()) > _MAX_NUMBER_TEXT:
        raise DomainError(f"{_shown(x.strip())} is longer than {_MAX_NUMBER_TEXT} characters")
    if isinstance(x, str) and "e" in x.lower():
        # Fraction builds 10**e however long e is
        exp = x.lower().rpartition("e")[2].strip().lstrip("+-").replace("_", "")
        if len(exp.lstrip("0")) > 3:
            raise DomainError(f"exponent of {x!r} has more than 3 digits")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise DomainError(f"{x!r} has a zero denominator") from None


@dataclass(frozen=True)
class DigitString:
    """Digits in display order (most significant first).

    value() reads them as the fraction 0.d0 d1 d2 ... in the given radix.
    lsb_first records that the consuming recurrence absorbs them from the
    right end, which is how the Group 2 chains are wired.
    """

    digits: tuple[int, ...]
    radix: int = 2
    lsb_first: bool = False

    def __post_init__(self):
        for d in self.digits:
            if not 0 <= d < self.radix:
                raise DomainError(f"digit {d} outside radix {self.radix}")

    def __len__(self):
        return len(self.digits)

    def value(self) -> Fraction:
        acc = Fraction(0)
        for d in reversed(self.digits):
            acc = (acc + d) / self.radix
        return acc

    def text(self, point_after: int = 0) -> str:
        glyphs = "".join(str(d) for d in self.digits)
        if point_after <= 0:
            return "." + glyphs
        return glyphs[:point_after] + "." + glyphs[point_after:]


def parse_digits(text: str, radix: int = 2) -> DigitString:
    t = text.strip()
    if t.startswith("0."):
        t = t[1:]
    if t.startswith("."):
        t = t[1:]
    if not t or any(c not in "0123456789" for c in t):
        raise DomainError(f"bad digit string {_shown(repr(text))}")
    return DigitString(tuple(int(c) for c in t), radix)


@dataclass(frozen=True)
class Interval:
    """A domain with integer ends."""

    lo: int
    hi: int
    lo_closed: bool = True
    hi_closed: bool = False


@dataclass(frozen=True)
class FunctionSpec:
    """One digit recurrence.

    Group 1: encode (by default the domain test) + step, one radix digit per step.
    Group 2: init + absorb(digit) + finish.
    value_scale maps the emitted digit-string fraction back to the plain
    function: scale * DigitString.value() approximates target(x).
    """

    name: str
    group: int
    radix: int
    value_scale: int
    domain: Optional[Interval]
    min_width: int
    make_layout: Callable[[int, int], Layout]
    closed_form: Optional[Callable[[float], float]] = None
    encode: Optional[Callable[[Fraction, Layout], State]] = None
    step: Optional[Callable[[State, Layout], tuple[int, State]]] = None
    init: Optional[Callable[[Layout], State]] = None
    absorb: Optional[Callable[[State, int, int, Layout], State]] = None
    finish: Optional[Callable[[State, Sequence[int], Layout], tuple[FixedPoint, bool]]] = None
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.group == 1 and self.encode is None:
            object.__setattr__(self, "encode", _encode_interval(self.name, self.domain))

    def layout(self, m: int, n: int = 1) -> Layout:
        """The Layout for (m, n), made once: Layout is frozen, so shared."""
        lay = self._layouts.get((m, n))
        if lay is None:
            if m < self.min_width:
                raise WidthMismatch(f"{self.name} needs m >= {self.min_width}, got {m}")
            lay = self._layouts[m, n] = self.make_layout(m, n)
        return lay


def _encode_interval(spec_name, domain):
    """The encoder of a spec with this domain and no encoder of its own:
    x = p/d against the integer ends on integers, then from_value's checks."""
    lo, hi, lo_open, hi_open = domain.lo, domain.hi, not domain.lo_closed, not domain.hi_closed

    def enc(x: Fraction, lay: Layout) -> State:
        p, d = x.numerator, x.denominator
        if p < lo * d or p > hi * d or (lo_open and p == lo * d) or (hi_open and p == hi * d):
            raise DomainError(f"{_shown(x)} outside the domain of {spec_name}")
        return _raw_of(x, lay), 0

    return enc


# ----------------------------------------------------------------- group 1

def _spec_log2() -> FunctionSpec:
    # x in [1,2): compare the exact square against 2, then keep x^2 or x^2/2
    def step(st: State, lay: Layout):
        raw, _ = st
        q = lay.frac_bits
        p = raw * raw  # 2q frac bits, exact
        w = 1 if p >= 2 << (2 * q) else 0
        return w, ((p >> (q + w)), 0)

    return FunctionSpec(
        name="log2", group=1, radix=2, value_scale=1, domain=Interval(1, 2), min_width=2,
        make_layout=lambda m, n: Layout(1, m - 1), closed_form=math.log2, step=step,
    )


def _spec_log2_wide() -> FunctionSpec:
    # x in [1,4), digits of log2(x)/2.  The register is conditionally
    # shifted right before squaring, so both the shift and the square
    # truncate, exactly like the gate version.
    def step(st: State, lay: Layout):
        raw, _ = st
        q = lay.frac_bits
        w = (raw >> (q + 1)) & 1
        u = raw >> 1 if w else raw  # value in [1,2) on the low m-1 bits
        return w, ((u * u) >> q, 0)

    return FunctionSpec(
        name="log2-wide", group=1, radix=2, value_scale=2, domain=Interval(1, 4), min_width=3,
        make_layout=lambda m, n: Layout(2, m - 2), closed_form=math.log2, step=step,
    )


def _spec_arccos() -> FunctionSpec:
    # digits of arccos(x)/pi for x in [-1,1]; update |a| -> 2|a|^2 - 1
    # with the sign of the next value restored afterwards, and the a = 0
    # midpoint patched to +1 / digit 1.
    def step(st: State, lay: Layout):
        raw, _ = st
        m = lay.width
        q = lay.frac_bits
        full = 1 << m
        sign = (raw >> (m - 1)) & 1
        w = sign
        mag = full - raw if sign else raw
        p = mag * mag  # 2q frac
        b = ((p >> (q - 1)) - (1 << q)) % full  # trunc(2|a|^2) - 1
        if sign:
            b = (full - b) % full
        if raw == 0:
            # midpoint: output digit 1 and continue from +1; with q = m-2
            # the -1 -> +1 patch is a single sign-bit flip
            b = (b + (full >> 1)) % full
            w ^= 1
        return w, (b, 0)

    return FunctionSpec(
        name="arccos", group=1, radix=2, value_scale=1, domain=Interval(-1, 1, True, True),
        min_width=3, make_layout=lambda m, n: Layout(2, m - 2, True),
        closed_form=lambda x: math.acos(x) / math.pi, step=step,
    )


def _spec_arccot() -> FunctionSpec:
    # digits of arccot(x)/pi over all representable x; a = 0 maps to the
    # infinity sentinel (a frozen chain that keeps emitting digit 0), the
    # register meanwhile carries 1 as the representative pattern.

    def enc(x: Fraction, lay: Layout) -> State:
        raw = _raw_of(x, lay)
        if raw == 1 << (lay.width - 1):
            # the most negative pattern has no magnitude inside the register
            raise DomainError(f"{x} is the excluded most-negative input")
        return raw, 0

    def step(st: State, lay: Layout):
        raw, frozen = st
        m = lay.width
        q = lay.frac_bits
        full = 1 << m
        if frozen:
            return 0, (1 << q, 1)
        sign = (raw >> (m - 1)) & 1
        if raw == 0:
            return 1, (1 << q, 1)
        w = sign
        mag = full - raw if sign else raw
        s = mag * mag - (1 << (2 * q))  # a^2 - 1 at 2q frac, exact
        below_one = mag < (1 << q)
        smag = -s if below_one else s
        b = smag // (2 * mag)  # the quotient lands at q frac bits
        if below_one:
            b = (full - b) % full
        if w:
            b = (full - b) % full
        return w, (b, 0)

    return FunctionSpec(
        name="arccot", group=1, radix=2, value_scale=1, domain=None,
        min_width=3, make_layout=lambda m, n: Layout((m + 1) // 2, m // 2, True),
        closed_form=lambda x: math.atan2(1.0, x) / math.pi, encode=enc, step=step,
    )


def _spec_log2_ternary() -> FunctionSpec:
    # x in [1,8): one ternary digit of log2(x)/3 per cubing
    def step(st: State, lay: Layout):
        raw, _ = st
        q = lay.frac_bits
        t = raw >> q
        w = 2 if t >= 4 else (1 if t >= 2 else 0)
        p = raw * raw * raw  # 3q frac
        return w, (p >> (2 * q + 3 * w), 0)

    return FunctionSpec(
        name="log2-ternary", group=1, radix=3, value_scale=3, domain=Interval(1, 8),
        min_width=4, make_layout=lambda m, n: Layout(3, m - 3), closed_form=math.log2, step=step,
    )


def _spec_log2_quaternary() -> FunctionSpec:
    # x in [1,4): quaternary digits of log2(x)/2; the interval boundaries
    # sit at powers of sqrt(2), so membership is decided on the exact x^4
    def step(st: State, lay: Layout):
        raw, _ = st
        q = lay.frac_bits
        p = raw ** 4  # 4q frac
        t = p >> (4 * q)
        w = (t.bit_length() - 1) // 2
        return w, (p >> (3 * q + 2 * w), 0)

    return FunctionSpec(
        name="log2-quaternary", group=1, radix=4, value_scale=2, domain=Interval(1, 4),
        min_width=3, make_layout=lambda m, n: Layout(2, m - 2), closed_form=math.log2, step=step,
    )


def _spec_log2_quaternary_wide() -> FunctionSpec:
    # x in [1,16): quaternary digits of log2(x)/4 with plain power-of-two
    # interval boundaries
    def step(st: State, lay: Layout):
        raw, _ = st
        q = lay.frac_bits
        w = (raw >> q).bit_length() - 1
        p = raw ** 4
        return w, (p >> (3 * q + 4 * w), 0)

    return FunctionSpec(
        name="log2-quaternary-wide", group=1, radix=4, value_scale=4,
        domain=Interval(1, 16), min_width=5, make_layout=lambda m, n: Layout(4, m - 4),
        closed_form=math.log2, step=step,
    )


# ----------------------------------------------------------------- group 2

def _start_at_one(lay: Layout) -> State:
    return 1 << lay.frac_bits, 0


def _finish_plain(st: State, digits, lay: Layout):
    return make(st[0], lay), False


def _spec_exp2() -> FunctionSpec:
    # x = 0.v(n-1)..v0 absorbed lsb first; a -> sqrt(a) or sqrt(2a)

    def absorb(st: State, v: int, i: int, lay: Layout) -> State:
        raw, _ = st
        # radicand extended to 2q frac bits, doubled when the digit is set
        return math.isqrt(raw << (lay.frac_bits + v)), 0

    return FunctionSpec(
        name="exp2", group=2, radix=2, value_scale=1,
        domain=Interval(0, 1), min_width=2,
        make_layout=lambda m, n: Layout(1, m - 1), closed_form=lambda x: 2.0 ** x,
        init=_start_at_one, absorb=absorb, finish=_finish_plain,
    )


def _cos_halfstep(raw: int, parity: int, q: int) -> int:
    """(1 +- a)/2 built exactly on q+1 frac bits, then one truncated sqrt."""
    t = raw << 1  # a at q+1 frac
    tw = 1 << (q + 3)  # [2 int][q+1 frac] scratch width
    if parity:
        t = (-t) % tw
    t = (t + (1 << (q + 1))) % tw
    t >>= 1  # exact halve, the low bit is zero
    return math.isqrt(t << (q - 1))


def _spec_cos() -> FunctionSpec:
    # |cos(pi x)| chain: the parity of consecutive digits picks the sign
    # inside the half-angle update, the last digit restores the real sign.

    def absorb(st: State, v: int, i: int, lay: Layout) -> State:
        raw, prev = st
        return _cos_halfstep(raw, v ^ prev, lay.frac_bits), v

    def finish(st: State, digits, lay: Layout):
        raw = st[0]
        if digits and digits[0]:  # msb decides the sign of cos
            raw = (-raw) % (1 << lay.width)
        return make(raw, lay), False

    return FunctionSpec(
        name="cos", group=2, radix=2, value_scale=1,
        domain=Interval(0, 1), min_width=3,
        make_layout=lambda m, n: Layout(2, m - 2, True),
        closed_form=lambda x: math.cos(math.pi * x),
        init=_start_at_one, absorb=absorb, finish=finish,
    )


def _spec_cos_signed() -> FunctionSpec:
    # signed chain a -> (-1)^v sqrt((1 + (-1)^v a)/2); reference variant,
    # digit for digit equal to the unsigned chain plus sign restore

    def absorb(st: State, v: int, i: int, lay: Layout) -> State:
        raw, _ = st
        m = lay.width
        q = lay.frac_bits
        full = 1 << m
        val = raw - full if raw >> (m - 1) else raw
        t2 = (1 << q) + (-val if v else val)  # 1 +- a at q frac in [0,2]
        b = math.isqrt(t2 << (q - 1))
        if v:
            b = (-b) % full
        return b, 0

    return FunctionSpec(
        name="cos-signed", group=2, radix=2, value_scale=1,
        domain=Interval(0, 1), min_width=3,
        make_layout=lambda m, n: Layout(2, m - 2, True),
        closed_form=lambda x: math.cos(math.pi * x),
        init=_start_at_one, absorb=absorb, finish=_finish_plain,
    )


def _cot_layout(m, n):
    ib = min(n, max(1, (m - 2) // 2))
    return Layout(1 + ib, m - 1 - ib, True)


def _cot_absorb(st: State, v: int, i: int, lay: Layout) -> State:
    raw, flag = st
    anc1 = flag & 1
    q = lay.frac_bits
    full = 1 << lay.width
    if i == 0:
        # trigger stage: the register starts at 1 standing in for infinity;
        # the first set digit turns it into the live value cot(pi/2) = 0
        b = 0 if (anc1 and v) else raw
    elif anc1:
        # frozen chain: only the representative carry fires
        b = (1 << q) if not v else 0
    else:
        prev = (flag >> 1) & 1
        p = v ^ prev
        s = raw * raw + (1 << (2 * q))  # a^2 + 1 at 2q frac, exact
        b = math.isqrt(s)
        b = (b + raw) if p == 0 else (b - raw)
        b %= full
    anc1 ^= 1 if b == 0 else 0
    return b, anc1 | (v << 1)


def _cot_finish(st: State, digits, lay: Layout):
    raw, flag = st
    if digits and digits[0]:
        raw = (-raw) % (1 << lay.width)
    return make(raw, lay), bool(flag & 1)


def _spec_cot() -> FunctionSpec:
    # |cot(pi x)| chain with a one-bit latch for the infinity sentinel;
    # x = 0 leaves the latch set and the finish reports it.
    return FunctionSpec(
        name="cot", group=2, radix=2, value_scale=1,
        domain=Interval(0, 1), min_width=4,
        make_layout=_cot_layout,
        closed_form=lambda x: math.cos(math.pi * x) / math.sin(math.pi * x),
        init=lambda lay: (1 << lay.frac_bits, 1),
        absorb=_cot_absorb, finish=_cot_finish,
    )


_BUILTINS = None


def builtin_specs() -> dict[str, FunctionSpec]:
    global _BUILTINS
    if _BUILTINS is None:
        specs = [
            _spec_log2(), _spec_log2_wide(), _spec_arccos(), _spec_arccot(),
            _spec_log2_ternary(), _spec_log2_quaternary(),
            _spec_log2_quaternary_wide(),
            _spec_exp2(), _spec_cos(), _spec_cos_signed(), _spec_cot(),
        ]
        _BUILTINS = {s.name: s for s in specs}
    return _BUILTINS


def get_spec(name: str) -> FunctionSpec:
    try:
        return builtin_specs()[name]
    except KeyError:
        raise DomainError(f"unknown function {name!r}") from None


# ------------------------------------------------------------------ drivers

def _expand_raw(spec: FunctionSpec, st: State, n: int, lay: Layout,
                trace: Optional[list] = None) -> tuple[int, ...]:
    """The n digits spec emits from state st, on raw ints; trace, when
    given, gets the register value after each step."""
    digits = []
    for _ in range(n):
        d, st = spec.step(st, lay)
        digits.append(d)
        if trace is not None:
            trace.append(st[0])
    return tuple(digits)


def _absorb_raw(spec: FunctionSpec, st: State, digits: Sequence[int], lay: Layout,
                trace: Optional[list] = None) -> State:
    """The state after absorbing digits (display order) lsb first from
    state st, on raw ints; trace, when given, gets the register value
    after each step."""
    for i, v in enumerate(reversed(digits)):
        st = spec.absorb(st, v, i, lay)
        if trace is not None:
            trace.append(st[0])
    return st


def _expand_start(spec: FunctionSpec, x: NumberLike, n: int, m: int):
    if spec.group != 1:
        raise DomainError(f"{spec.name} does not emit digits")
    if n < 1:
        raise DomainError("need at least one digit")
    lay = spec.layout(m, n)
    return spec.encode(_as_fraction(x), lay), lay


def fbe_expand(spec: FunctionSpec, x: NumberLike, n: int, m: int) -> DigitString:
    """Emit the first n digits of the scaled function value at width m."""
    st, lay = _expand_start(spec, x, n, m)
    return DigitString(_expand_raw(spec, st, n, lay), spec.radix)


def fbe_expand_trace(spec: FunctionSpec, x: NumberLike, n: int, m: int):
    """fbe_expand plus the chain values a_0 .. a_n as FixedPoints."""
    st, lay = _expand_start(spec, x, n, m)
    trace = [st[0]]
    ds = DigitString(_expand_raw(spec, st, n, lay, trace), spec.radix)
    return ds, [make(raw, lay) for raw in trace]


def _absorb_layout(spec: FunctionSpec, digits: DigitString, m: int) -> Layout:
    if spec.group != 2:
        raise DomainError(f"{spec.name} does not absorb digits")
    if spec.radix != digits.radix:
        raise DomainError("radix mismatch")
    if not digits.digits:
        raise DomainError("need at least one digit")
    return spec.layout(m, len(digits.digits))


def ifbe_evaluate(spec: FunctionSpec, digits: DigitString, m: int) -> tuple[FixedPoint, bool]:
    """Absorb digits lsb first and return (value, hit_infinity)."""
    lay = _absorb_layout(spec, digits, m)
    st = _absorb_raw(spec, spec.init(lay), digits.digits, lay)
    return spec.finish(st, digits.digits, lay)


def ifbe_evaluate_trace(spec: FunctionSpec, digits: DigitString, m: int):
    """ifbe_evaluate plus the chain values a_0 .. a_n as FixedPoints."""
    lay = _absorb_layout(spec, digits, m)
    st = spec.init(lay)
    trace = [st[0]]
    st = _absorb_raw(spec, st, digits.digits, lay, trace)
    return spec.finish(st, digits.digits, lay), [make(raw, lay) for raw in trace]


def oracle_eval(spec: FunctionSpec, arg, n: int, m: int, factor: int = 4):
    """The same recurrence at factor*m bits, the reference everything is
    judged against."""
    if spec.group == 1:
        return fbe_expand(spec, arg, n, factor * m)
    return ifbe_evaluate(spec, arg, factor * m)


# ------------------------------------------------------- domain reduction

@dataclass(frozen=True)
class DomainReduction:
    """x = y * 2^(+shift or -shift) with y in [1,2)."""

    y: Fraction
    shift: int
    direction: str  # "right" when x was divided down, "left" when doubled

    @property
    def exponent(self) -> int:
        return self.shift if self.direction == "right" else -self.shift


def log2_domain_reduce(x: NumberLike) -> DomainReduction:
    v = _as_fraction(x)
    if v <= 0:
        raise DomainError(f"log2 needs a positive input, got {v}")
    shift = 0
    direction = "right"
    while v >= 2:
        v /= 2
        shift += 1
    while v < 1:
        v *= 2
        shift += 1
        direction = "left"
    return DomainReduction(v, shift, direction)


# ------------------------------------------------------------- derived set

def _auto_fixed(v: Fraction, frac_bits: int) -> FixedPoint:
    t = _trunc_raw(v, frac_bits)
    int_bits = max(1, (abs(t) >> frac_bits).bit_length() + 1)
    return make(t, Layout(int_bits, frac_bits, True))


def _const(expr: str, prec: int = 60) -> Fraction:
    # stdlib decimal gives ln/log10 constants to plenty of digits
    from decimal import Decimal, getcontext

    getcontext().prec = prec
    d = {
        "ln2": Decimal(2).ln(),
        "log10_2": Decimal(2).log10(),
        "log2_e": 1 / Decimal(2).ln(),
    }[expr]
    return Fraction(d)


def _frac_bits_of(v: Fraction, n: int) -> DigitString:
    # exact binary digits of 0 <= v < 1, truncated at n
    digits = []
    for _ in range(n):
        v *= 2
        d = int(v)
        digits.append(d)
        v -= d
    return DigitString(tuple(digits), 2)


def _log2_digits_value(x: Fraction, n: int, m: int) -> Fraction:
    red = log2_domain_reduce(x)
    if red.y == 1:
        frac = Fraction(0)
    else:
        ds = fbe_expand(get_spec("log2"), red.y, n, m)
        frac = ds.value()
    return red.exponent + frac


def derived_eval(name: str, x: NumberLike, frac_bits: int) -> FixedPoint:
    """Functions reached through identities on the built-in recurrences.

    ln and log10 rescale log2; arcsin and arctan are complements of
    arccos and arccot divided by pi; exp_e routes through exp2; sin and
    tan read cos and cot at the shifted argument.  Angular functions work
    in turns: arcsin/arctan return f/pi, sin/tan take x as a fraction of
    pi.  Results are truncated toward zero at frac_bits.
    """
    v = _as_fraction(x)
    q = frac_bits
    guard = q + 12
    wide = 4 * guard + 8

    if name in ("ln", "log10"):
        scale = _const("ln2") if name == "ln" else _const("log10_2")
        return _auto_fixed(_log2_digits_value(v, guard, wide) * scale, q)
    if name == "arcsin":
        if not Fraction(-1) <= v <= 1:
            raise DomainError("arcsin domain is [-1,1]")
        ds = fbe_expand(get_spec("arccos"), v, guard, wide)
        return _auto_fixed(Fraction(1, 2) - ds.value(), q)
    if name == "arctan":
        ds = fbe_expand(get_spec("arccot"), v, guard, wide)
        return _auto_fixed(Fraction(1, 2) - ds.value(), q)
    if name == "exp_e":
        if not Fraction(0) <= v < 1:
            raise DomainError("exp_e wants x in [0,1)")
        y = v * _const("log2_e")
        yi = int(y)
        ds = _frac_bits_of(y - yi, guard)
        out, _ = ifbe_evaluate(get_spec("exp2"), ds, wide)
        return _auto_fixed(out.value * (1 << yi), q)
    if name == "sin":
        if not Fraction(0) <= v < 1:
            raise DomainError("sin works on x in [0,1) turns")
        d = abs(v - Fraction(1, 2))
        out, _ = ifbe_evaluate(get_spec("cos"), _frac_bits_of(d, guard), wide)
        return _auto_fixed(out.value, q)
    if name == "tan":
        if not Fraction(0) < v < Fraction(1, 2):
            raise DomainError("tan works on x in (0,1/2) turns")
        d = Fraction(1, 2) - v
        out, _ = ifbe_evaluate(get_spec("cot"), _frac_bits_of(d, guard), wide)
        return _auto_fixed(out.value, q)
    raise DomainError(f"unknown derived function {name!r}")


# ------------------------------------------------------------ arctan digits

def plouffe_arctan_bits(x: NumberLike, n: int, frac_bits: int,
                        int_bits: int = 4) -> DigitString:
    """Digits of arctan(x)/pi by the doubling recurrence a -> 2a/(1-a^2).

    a = +-1 maps to the minus-infinity sentinel (digit 1, then zero).  An
    update that leaves the representable range saturates to the same
    sentinel; that behavior is a documented convention, not asserted math.
    """
    v = _as_fraction(x)
    if v < 0:
        raise DomainError("doubling recurrence wants x >= 0")
    lay = Layout(int_bits, frac_bits, True)
    a = from_value(v, lay, exact=False).value
    hi = Fraction(1 << (int_bits - 1))
    digits = []
    sentinel = False
    for _ in range(n):
        if sentinel:
            digits.append(1)
            sentinel = False
            a = Fraction(0)
            continue
        digits.append(1 if a < 0 else 0)
        if abs(a) == 1:
            sentinel = True
            continue
        nxt = 2 * a / (1 - a * a)
        if abs(nxt) >= hi:
            sentinel = True
            continue
        a = from_value(nxt, lay, exact=False).value
    return DigitString(tuple(digits), 2)


# ------------------------------------------------------------- error budget

@dataclass(frozen=True)
class ErrorBudget:
    function: str
    n: int
    m: int
    q: int
    per_step: Fraction
    bound: Optional[Fraction]
    bound_text: str
    guaranteed_exact_bits: int


def error_budget(name: str, n: int, m: int) -> ErrorBudget:
    """Advertised accuracy per function at digit count n, width m.

    Group 1 entries record the strict digit claim (all m digits equal to
    the high-precision expansion at n = m), which `fbe verify
    group1-exact` reports red: a value within an ulp of f(x) can still
    differ in every digit (.0111... against .1000...).  The proven
    guarantee for those recurrences is group1_value_bound, and their
    guaranteed_exact_bits is the largest k with both ends of that bound
    within 2^-k (m - 3 for log2-wide at n = m, about q + 1 for arccot),
    or 0 where no bound is proven.  Group 2
    entries are value bounds on |chain - exact|.  These restate the
    analysis the constructions were designed around; the verification
    suite reports how each one fares.
    """
    spec = get_spec(name)
    lay = spec.layout(m, n)
    q = lay.frac_bits
    step = Fraction(1, 1 << q)
    if name in ("log2", "log2-wide", "arccot", "log2-ternary",
                "log2-quaternary", "log2-quaternary-wide"):
        try:
            lo, hi = group1_value_bound(name, n, m)
        except (DomainError, WidthMismatch):
            bits = 0
        else:
            w = max(-lo, hi)
            bits = (w.denominator // w.numerator).bit_length() - 1
        return ErrorBudget(name, n, m, q, step, None,
                           "strict claim: all m digits exact at n = m "
                           "(fails; see group1_value_bound)", bits)
    if name == "arccos":
        bound = Fraction(1, 1 << (q // 2 + 1)) - step
        return ErrorBudget(name, n, m, q, step, bound,
                           "value error below 2^-(q/2+1) - 2^-q",
                           m // 2 + 1)
    if name == "exp2":
        return ErrorBudget(name, n, m, q, step, Fraction(4, 1 << q),
                           "value error below 2^-(q-2)", m - 2)
    if name in ("cos", "cos-signed"):
        bound = Fraction((1 << n) + 1, 1 << q)
        return ErrorBudget(name, n, m, q, step, bound,
                           "value error below (2^n + 1) 2^-q", max(0, m - n))
    if name == "cot":
        return ErrorBudget(name, n, m, q, step, None,
                           "almost all m bits claimed exact (empirical, "
                           "unquantified)", m)
    raise DomainError(f"no budget entry for {name!r}")


# rational upper bounds on 1/ln 2 = 1.44269... and 1/pi = 0.31830...
_INV_LN2_UP = Fraction(14427, 10000)
_INV_PI_UP = Fraction(3184, 10000)


def group1_value_bound(name: str, n: int, m: int) -> tuple[Fraction, Fraction]:
    """Proven (lo, hi) with lo <= f(x)/value_scale - value(digits) < hi.

    digits are the n digits the recurrence emits at width m for any valid
    register input x; q is the frac width of the register.  Write T_k for
    the scaled function value the register holds before step k, so
    T_0 = f(x)/value_scale exactly.  An exact step would give
    T_(k+1) = 2 T_k - d_k; the truncating step gives that minus an error
    e_k, and the interval test reading d_k is exact on the register.
    Unrolling n steps,

        T_0 - value(digits) = sum_k e_k 2^-(k+1) + 2^-n T_n,

    with T_n in [0, 1), so lo = min e_k and hi = 2^-n + max e_k.

    log2-wide (T = log2(a)/2, a in [1,4), q = m - 2, needs m >= 4): the
    conditional right shift drops at most 2^-(q+1) from u = a/2 >= 1,
    which costs a relative 2^-q once squared; truncating u^2 >= 1 to q
    frac bits drops a relative < 2^-q.  The next register is therefore
    (a/2^d)^2 (1 - eps) with 0 <= eps < delta = 2^-(q-1), and
    e_k = -log2(1 - eps)/2 lies in [0, delta/(2 (1 - delta) ln 2)),
    using -ln(1 - eps) <= eps/(1 - eps).

    arccot (T = arccot(a)/pi): the quotient (a^2 - 1)/(2a) = cot(2 arccot a)
    is truncated toward zero by < 2^-q (it never wraps: |a| >= 2^-q keeps
    its magnitude below 2^(q-1), inside the register), and |d arccot(a)/da| =
    1/(1 + a^2) <= 1, so the angle moves by < 2^-q radians and
    |e_k| < 2^-q/pi.  The a = 0 sentinel (digit 1, then T = 0 frozen) is
    exact.

    1/ln 2 and 1/pi enter through the rational upper bounds above, so the
    result is a valid bound in exact arithmetic.
    """
    spec = get_spec(name)
    q = spec.layout(m, n).frac_bits
    ulp = Fraction(1, 1 << n)
    if name == "log2-wide":
        if q < 2:
            raise WidthMismatch(f"{name} value bound needs m >= 4, got {m}")
        delta = Fraction(2, 1 << q)
        return Fraction(0), ulp + delta * _INV_LN2_UP / (2 * (1 - delta))
    if name == "arccot":
        e = Fraction(1, 1 << q) * _INV_PI_UP
        return -e, ulp + e
    raise DomainError(f"no group 1 value bound for {name!r}")


def group1_value_enclosure(name: str, x: NumberLike,
                           n: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= f(x)/value_scale < hi, from the oracle run for
    4n digits at width 4n plus its group1_value_bound."""
    value = oracle_eval(get_spec(name), x, 4 * n, n).value()
    lo, hi = group1_value_bound(name, 4 * n, 4 * n)
    return value + lo, value + hi
