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
    """

    digits: tuple[int, ...]
    radix: int = 2

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


def cot_chain_bounds(lay: Layout, n: int) -> list[int]:
    """B_0 .. B_{n-1}: bounds on the raw value the cot chain holds after
    absorb step i (chain register RegI{i} of the circuit), over every
    digit string of n digits.

    Write F(r) = isqrt(r^2 + 4^q) + r, L_0 = 0 and L_i = F(L_{i-1}),
    clamped to 2^m - 1 once F reaches 2^m; then B_0 = 2^q and B_i = L_i,
    which is at least L_1 = 2^q.  Every live value after step i is at
    most L_i, and every value at most B_i, by induction over the steps:
    - the trigger step leaves 2^q frozen or 0 live;
    - a frozen step writes 0 or 2^q;
    - a live step with p = 1 writes isqrt(r^2 + 4^q) - r, which lies in
      [0, 2^q] since r^2 <= r^2 + 4^q <= (r + 2^q)^2;
    - a live step with p = 0 writes F(r) mod 2^m, and F is monotone, so
      r <= L_{i-1} gives at most F(L_{i-1}) before the register wraps,
      and anything below 2^m once it can;
    - a register that unfreezes holds 0.
    Some digit string reaches the bit length of each B_i (checked
    exhaustively in the tests), so no step's width can be narrowed.
    """
    q, top = lay.frac_bits, (1 << lay.width) - 1
    one = 1 << q
    bounds, live = [one], 0
    for _ in range(1, n):
        live = min(math.isqrt(live * live + one * one) + live, top)
        bounds.append(live)
    return bounds


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


def oracle_eval(spec: FunctionSpec, arg, n: int, m: int):
    """The same recurrence at 4m bits, the reference everything is judged
    against."""
    if spec.group == 1:
        return fbe_expand(spec, arg, n, 4 * m)
    return ifbe_evaluate(spec, arg, 4 * m)


# ------------------------------------------------------------- error budget

@dataclass(frozen=True)
class ErrorBudget:
    bound: Fraction
    bound_text: str


def error_budget(name: str, n: int, m: int) -> ErrorBudget:
    """The value bound on |chain - exact| of the exp2 and cos recurrences
    at digit count n, width m, which `fbe verify group2-bounds` checks.
    These restate the analysis the constructions were designed around.
    Group 1's proven accuracy statement is group1_value_bound."""
    q = get_spec(name).layout(m, n).frac_bits
    if name == "exp2":
        return ErrorBudget(Fraction(4, 1 << q), "value error below 2^-(q-2)")
    if name == "cos":
        return ErrorBudget(Fraction((1 << n) + 1, 1 << q),
                           "value error below (2^n + 1) 2^-q")
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
