"""Six reversible circuits that run the digit recurrences in place.

synthesize is the one driver.  It lays out the digit register RegO and
the chain registers, RegI{i} holding the recurrence's value after step
i, and runs the one loop over the steps.  A family (_log .. _cot) takes
(b, cfg, lay, steps, spec, the digit qubits, the table's register); it
allocates its scratch, writes its digit table if it has one, and returns
(step, last, p).  step(i, a, nxt, d) emits step i from chain bits a and
digit qubit d into the next chain register nxt: the gate image of one
recurrence step, with its truncations, wraparound and sentinels, so a
basis-state simulation reproduces the classical digits or value bit for
bit.  step_circuit gives one step's gates alone.  A forward evaluator
(log, arccos, arccot) reads a number from RegI0, and last(a, d) writes
its last digit.  arccos and arccot carry the chain's sign in the digits:
RegI{i} holds u_i, a_i negated where d_{i-1} is set (for arccot while
the chain is live), d_i = sign(u_i) xor d_{i-1} or 1 where u_i = 0.
Shift-add arccos squares u_i signed, so RegI{i} ends on u_i; the others
end RegI{i} on x, |a_1| .. |a_{n-2}|, u_{n-1}.  Each family states in
its docstring the value facts its gates rely on, and so which gates it
leaves out, on every valid input.  An inverse one (exp,
cos, cot) reads digits from RegO and builds the value in the last chain
register; cos and cot hand over a parity qubit p, which the driver
keeps: it holds the last digit absorbed, within a step that digit xor
the one before, and at the end the sign, the value negated where it is
set.

An inverse evaluator's chain value after j steps is one of 2^j values,
one per digit prefix, so the value after the first TABLE_DIGITS steps is
written by one table on the digit qubits (_prefix_table): the chain
starts at the table's register, and only the steps after it compute.

The Builder owns the ancilla policy (Builder.frames, .uncompute,
.computed).  Under clean all steps share one scratch register (AncW).
Under garbage step i's frame is one run of qubits that starts where the
step before's kept bits end, and AncW{i} names the low bits step i
leaves set: all of its frame for log, arccos and arccot, while the root
walks of exp, cos and cot return the rest to zero for the next step to
take.  The bits past the last kept part end at zero, in one clean
register (AncWTop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .blocks import (
    POLICIES,
    Builder,
    add_into,
    complemented,
    copy_bits,
    decrement,
    div_stages,
    increment,
    lookup,
    negate_bits,
    rotate_left1,
    rotate_right1,
    sqrt_stages,
    square,
    square_width,
)
from .circuit import Circuit, CircuitError, Register, export_text
from .expansion import (
    DigitString,
    FunctionSpec,
    _absorb_raw,
    _as_fraction,
    cot_chain_bounds,
    get_spec,
    parse_digits,
)
from .fixedpoint import FixedPoint, Layout, make

SYNTH_SPEC = {
    "log": "log2-wide",
    "arccos": "arccos",
    "arccot": "arccot",
    "exp": "exp2",
    "cos": "cos",
    "cot": "cot",
}

SQUARE_METHODS = ("shift_add", "reversed_sqrt")
# the inverse evaluators write each chain register that depends on at
# most this many digits from a table on the digit qubits
TABLE_DIGITS = 4


@dataclass(frozen=True)
class SynthConfig:
    """Shape of one synthesized evaluator.

    n digits at register width m; policy picks whether block scratch is
    left as garbage or uncomputed; square_method switches the squaring
    blocks between shift-and-add and the reversed square root walk.
    """

    function: str
    n: int
    m: int
    policy: str = "garbage"
    square_method: str = "shift_add"

    def __post_init__(self):
        if self.function not in SYNTH_SPEC:
            raise CircuitError(f"unknown circuit family {self.function!r}")
        if self.policy not in POLICIES:
            raise CircuitError(f"unknown ancilla policy {self.policy!r}")
        if self.square_method not in SQUARE_METHODS:
            raise CircuitError(f"unknown square method {self.square_method!r}")
        if self.n < 1:
            raise CircuitError("need at least one digit")


def encode_digits(rego: Register, digits) -> int:
    """Basis state with an argument digit string in rego: qubit i holds
    the digit absorbed at step i, the string read from its right end."""
    if isinstance(digits, str):
        digits = parse_digits(digits)
    if digits.radix != 2:
        raise CircuitError(f"digits of radix {digits.radix}, the circuit reads radix 2")
    if len(digits.digits) != rego.size:
        raise CircuitError(f"expected {rego.size} digits, got {len(digits.digits)}")
    return sum(1 << (rego.start + i) for i, d in enumerate(reversed(digits.digits)) if d)


def decode_digits(rego: Register, state: int) -> DigitString:
    """The digits a forward evaluator wrote, rego qubit i the i-th shown."""
    raw = rego.extract(state)
    return DigitString(tuple((raw >> i) & 1 for i in range(rego.size)))


def value_registers(registers) -> tuple[Optional[Register], Optional[Register]]:
    """An inverse evaluator's (value, infinity flag) registers: the output
    RegI{i} of the highest i and an output Anc1, each None if missing."""
    outs = {int(nm[4:]): r for nm, r in registers.items()
            if nm[:4] == "RegI" and nm[4:].isdecimal() and r.role == "output"}
    flag = registers.get("Anc1")
    return (outs[max(outs)] if outs else None,
            flag if flag is not None and flag.role == "output" else None)


def decode_value(out: Register, flag: Optional[Register], state: int) -> tuple[FixedPoint, bool]:
    """(value, infinite) off value_registers' pair after a simulation."""
    fp = FixedPoint(out.extract(state), out.int_bits, out.frac_bits, out.signed)
    return fp, flag is not None and bool(flag.extract(state))


class SynthesizedCircuit:
    """Circuit plus the encode/decode conventions it was built with.

    chain names the value registers in step order; RegI{i} holds the
    recurrence's value after step i (for cot, after absorb step i).  A
    forward evaluator keeps RegI0 .. RegI{n-1}, which end on the words
    checks.chain_words gives.  An inverse one keeps the digit table's
    register up to the output, the last entry: at n <= TABLE_DIGITS that
    is the output alone.
    """

    def __init__(self, config: SynthConfig, spec: FunctionSpec, layout: Layout,
                 circuit: Circuit, chain: list[str]):
        self.config = config
        self.spec = spec
        self.layout = layout
        self.circuit = circuit
        self.chain = chain
        self._value = value_registers(circuit.registers)

    @property
    def group(self) -> int:
        return self.spec.group

    @property
    def n_qubits(self) -> int:
        return self.circuit.n_qubits

    @property
    def digits_point(self) -> int:
        """Display position of the binary point inside the digit string."""
        return self.circuit.registers["RegO"].int_bits

    def encode_input(self, x) -> int:
        """Basis state with x loaded into RegI0 (forward evaluators)."""
        if self.group != 1:
            raise CircuitError(f"{self.config.function} takes digits, not a number")
        raw, _ = self.spec.encode(_as_fraction(x), self.layout)
        return self.circuit.registers["RegI0"].insert(0, raw)

    def encode_digits(self, digits) -> int:
        """Basis state with an argument digit string in RegO."""
        if self.group != 2:
            raise CircuitError(f"{self.config.function} takes a number, not digits")
        return encode_digits(self.circuit.registers["RegO"], digits)

    def decode_digits(self, state: int) -> DigitString:
        return decode_digits(self.circuit.registers["RegO"], state)

    def decode_value(self, state: int) -> tuple[FixedPoint, bool]:
        """(value register, infinity flag) after a simulation."""
        if self.group != 2:
            raise CircuitError(f"{self.config.function} writes digits, not a value")
        return decode_value(*self._value, state)

    def chain_values(self, state: int) -> list[FixedPoint]:
        return [make(self.circuit.registers[nm].extract(state), self.layout)
                for nm in self.chain]

    def export(self) -> str:
        return export_text(self.circuit)


def _prefix_table(b: Builder, spec: FunctionSpec, lay: Layout, digits, reg) -> list:
    """Write reg from a table: the chain value after the recurrence
    absorbs digits, one entry per value of those digits, so the register
    equals the recurrence by construction.  Returns the states, indexed
    by the integer the digits spell."""
    j = len(digits)
    # _absorb_raw takes the digits in display order, last absorbed first
    states = [_absorb_raw(spec, spec.init(lay), [x >> i & 1 for i in reversed(range(j))], lay)
              for x in range(1 << j)]
    lookup(b, digits, [st[0] for st in states], reg.bits)
    return states


def _square_scratch(b: Builder, cfg: SynthConfig, k: int):
    """(root_tmp, carry) for square() of k bits: the reversed root walk
    takes a k-bit root register and shift-and-add a carry qubit, and
    neither touches the other's."""
    if cfg.square_method == "reversed_sqrt":
        return b.reg("AncRoot", "ancilla-clean", k).bits, None
    return None, b.reg("AncC", "ancilla-clean", 1).bits[0]


# ----------------------------------------------------------------- forward

def _log(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, *_):
    """log2-wide at q = m - 2: every chain value lies in [1, 4).  After
    the halving the digit (bit q + 1) fires, the low m - 1 bits hold a
    value in [1, 2): a raw in [2^q, 2^(q+1)) is kept and one in
    [2^(q+1), 2^(q+2)) halved into it.  So bit q, the squared window's
    top bit, is set on every valid input (fact c), and shift-add runs
    the square's top stage with no control ("set").  u^2 >> q for such a
    u lies in [2^q, 2^(q+2)) again, so the fact holds at every step.  A
    register with bits q and q + 1 clear, outside the domain, squares as
    (u + 2^q)^2 there."""
    m, q = cfg.m, lay.frac_bits
    wides = b.frames("AncW", dict.fromkeys(steps, square_width(m - 1, cfg.square_method)))
    root_t, car = _square_scratch(b, cfg, m - 1) if steps else (None, None)

    def last(a, d):
        b.flip(d, [(a[m - 1], True)])

    def step(i, a, nxt, d):
        last(a, d)
        # halve the register when the digit fired; the wrapped low bit
        # parks in the top position, outside the squared window
        with b.controls([(d, True)]):
            rotate_right1(b, a)
        with b.compute() as sq:
            square(b, cfg.square_method, a[:m - 1], wides[i], root_t, car, top="set")
        copy_bits(b, wides[i][q:q + m], nxt)
        b.uncompute(sq)
        with b.controls([(d, True)]):
            rotate_left1(b, a)

    return step, last, None


def arccos_zero_after_step0(q: int) -> bool:
    """Whether u_{i+1} = trunc(2 u_i^2) - 1 can be 0 at q frac bits
    (fact b).  With R = |u_i| in ulps, trunc(2 u_i^2) = 1 exactly when
    2^(2q-1) <= R^2 < 2^(2q-1) + 2^(q-1).  Let r be the least integer
    with r^2 >= 2^(2q-1); then r > 2^(q-1), so the next square,
    r^2 + 2r + 1, already lies past the interval, and only r can fall
    in it.  One isqrt decides: False at m = q + 2 = 3, 5-17, 21-23,
    25-27 and 29-31, True at m = 4, 18-20, 24, 28 and 32."""
    r = math.isqrt((1 << 2 * q - 1) - 1) + 1
    return r * r < (1 << 2 * q - 1) + (1 << q - 1)


def _arccos(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, spec, digits, _):
    """arccos at q = m - 2: every chain value u lies in [-1, 1], so
    |u| <= 2^q in ulps.

    Shift-add squares u as the signed word of its low m - 1 bits, bit q
    weighted -2^q (fact a), through square_into's "signed" top stage.
    A u >= 0 has bit q clear, or u = 1 with the bits below it clear,
    whose signed reading -2^q squares to 4^q = u^2 all the same.  A
    u < 0 has low m - 1 bits 2^(q+1) + u, so bit q is set over
    r' = 2^q + u, and r' - 2^q = u.  No negation of u is needed, none
    to make |u| and none to restore RegI0, so every RegI{i} ends on u_i.
    The reversed root walk squares unsigned bits and keeps the
    negations.  The digit's zero test for u_i = 0, m + 1 controls, runs
    past step 0 only where arccos_zero_after_step0 says u_i = 0 can
    occur (fact b).  Off the domain a register outside [-1, 1] squares
    as the signed word of its low m - 1 bits under shift-add, and where
    the test is dropped a u_i = 0 at i >= 1 takes digit d_{i-1}."""
    m, q = cfg.m, lay.frac_bits
    wides = b.frames("AncW", dict.fromkeys(steps, square_width(m - 1, cfg.square_method)))
    root_t, car = _square_scratch(b, cfg, m - 1) if steps else (None, None)
    signed = cfg.square_method == "shift_add"
    zeros = arccos_zero_after_step0(q)

    def digit(i, a, d):
        # d holds sign(u_i): d_i is that xor d_{i-1}, and 1 where u_i = 0
        prev = digits[i - 1:i] if i else []
        copy_bits(b, prev, [d])  # d ^= d_{i-1}
        if zeros or not i:
            b.flip(d, [(x, False) for x in (*a, *prev)])

    def magnitude(a, d):
        # -1 <= u < 0 has a bit below the sign set, so the +1 ends below it
        if not signed:
            with b.controls([(d, True)]):
                negate_bits(b, a, m - 1)

    def step(i, a, nxt, d):
        b.flip(d, [(a[m - 1], True)])
        magnitude(a, d)
        with b.compute() as sq:
            square(b, cfg.square_method, a[:m - 1], wides[i], root_t, car,
                   top="signed" if signed else "plain")
        # window starts one place lower: the product is doubled on copy
        copy_bits(b, wides[i][q - 1:q - 1 + m], nxt)
        decrement(b, nxt[q:])  # u_{i+1} = trunc(2 u_i^2) - 1
        b.uncompute(sq)
        if i == 0:  # the input register ends on x; under the walk the rest keep |u|
            magnitude(a, d)
        digit(i, a, d)

    def last(a, d):
        b.flip(d, [(a[m - 1], True)])
        digit(cfg.n - 1, a, d)

    return step, last, None


@lru_cache(maxsize=None)
def arccot_quotient_reach(lay: Layout) -> int:
    """T, a carry reach for the negations of arccot's quotient (fact d):
    one more than the most trailing zeros of any quotient a step with
    0 < |a| < 1 writes.  Such a step writes Q = trunc((1 - a^2) / 2|a|),
    in ulps (4^q - A^2) // 2A for A = |a| in 1 .. 2^q - 1, and Q >= 1
    since 4^q - A^2 >= 2^q + A > 2A.  Enumerating the 2^q - 1 values
    bounds the trailing zeros, so the low T bits of Q, and so of -Q,
    are never all zero, and the +1 of negating either ends inside
    them.  After step 0 the chain is negative only as such a -Q (the
    quotient at |a| >= 1 and the frozen sentinel are >= 0), so u_i's
    negation under its sign at i >= 1 takes the same reach.  T is 3 at
    m = 8, 9 at m = 16 and 11 at m = 20."""
    q = lay.frac_bits
    quotients = ((4 ** q - a * a) // (2 * a) for a in range(1, 1 << q))
    return 1 + max((x & -x).bit_length() - 1 for x in quotients)


def _arccot(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, spec, digits, _):
    """arccot: every register word but the most negative is a valid
    input.  Past step 0 each negation of the chain value, under its sign
    or under AncS, carries its +1 only through the low T bits of
    arccot_quotient_reach (fact d).  The most negative word, outside the
    domain, may run differently from step 1 on."""
    m, q = cfg.m, lay.frac_bits
    reach = arccot_quotient_reach(lay)
    # square scratch doubles as the division frame, one guard bit on top
    sqs = b.frames("AncSq", dict.fromkeys(steps, 2 * m - 1))
    root_t = (b.reg("AncRoot", "ancilla-clean", m - 1).bits
              if steps and cfg.square_method == "reversed_sqrt" else None)
    # under clean the quotient needs a zero temp.  The reversed walk
    # hands AncRoot back clean before div_stages writes the quotient,
    # and the replay clears the quotient before that walk runs again,
    # so AncRoot serves as that temp too
    quot_t = ((root_t or b.reg("AncQuot", "ancilla-clean", m - 1).bits)
              if b.clean and steps else None)
    anc1 = b.reg("Anc1", "garbage", 1).bits[0]
    z = b.reg("AncZ", "ancilla-clean", 1).bits[0]
    s, car = ([b.reg(nm, "ancilla-clean", 1).bits[0] for nm in ("AncS", "AncC")]
              if steps else (None, None))

    def freeze(a, d):
        # d = sign(u_i), 0 once frozen whatever the register holds
        b.flip(d, [(a[m - 1], True), (anc1, False)])
        b.flip(z, [(x, False) for x in a])  # z ^= [u_i = 0]
        b.flip(anc1, [(z, True)])  # freeze from here on

    def digit(i, a, d):
        # d_i is 1 where u_i = 0, and while live the sign xor d_{i-1}
        b.flip(d, [(z, True)])
        b.flip(z, [(x, False) for x in a])  # back to 0: |u_i| = 0 where u_i is
        if i:
            b.flip(d, [(digits[i - 1], True), (anc1, False)])

    def step(i, a, nxt, d):
        w = sqs[i]
        freeze(a, d)
        # u is never the most negative pattern, so the +1 ends below the
        # sign; past step 0 a negative u is a -Q, and it ends below T
        with b.controls([(d, True)]):
            negate_bits(b, a, reach if i else m - 1)
        # the trigger step's a = 0 divides 1.0 instead, so its quotient
        # is 0 as a frozen step's is, whose a holds the sentinel 1.0: no
        # write into nxt needs the freeze flag
        b.flip(a[q], [(z, True)])
        # |a| < 1 exactly when no integer bit of the magnitude is set
        b.flip(s, [(x, False) for x in a[q:]])
        with b.computed(nxt[:m - 1], quot_t) as quo:
            square(b, cfg.square_method, a[:m - 1], w, root_t, car)
            decrement(b, w[2 * q:])
            # under s, 0 < |a| < 1 (the trigger flip made a = 0 into
            # 1.0), so the low 2q bits hold a^2 >= 1 ulp^2 exactly and
            # the +1 ends inside them
            with b.controls([(s, True)]):
                negate_bits(b, w, 2 * q)
            div_stages(b, w, a[:m - 1], quo, car, shift=1)
        # u_{i+1}: the quotient, negated where |a| < 1, where the +1
        # ends in its low T bits
        with b.controls([(s, True)]):
            negate_bits(b, nxt, reach)
        b.flip(s, [(x, False) for x in a[q:]])
        b.flip(a[q], [(z, True)])
        b.flip(nxt[q], [(anc1, True)])  # frozen chain carries the sentinel
        if i == 0:  # the input register ends on x; the rest keep |u|
            with b.controls([(d, True)]):
                negate_bits(b, a, m - 1)
        digit(i, a, d)

    def last(a, d):
        freeze(a, d)
        digit(cfg.n - 1, a, d)

    return step, last, None


# ----------------------------------------------------------------- inverse

def _exp(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, spec, digits, table):
    m, q = cfg.m, lay.frac_bits
    # the root walk's m stages leave the frame zero above its low m + 2
    # bits, where the next step's frame starts under garbage
    wides = b.frames("AncW", dict.fromkeys(steps, 2 * m + 1), dict.fromkeys(steps, m + 2))
    root_t = b.reg("AncRoot", "ancilla-clean", m).bits if b.clean and steps else None
    # no gate touches AncC; it stays so that even an all-table circuit
    # has a clean ancilla for the benchmark's dirty-ancilla check to flip
    b.reg("AncC", "ancilla-clean", 1)
    _prefix_table(b, spec, lay, digits[:steps.start], table)

    def step(i, a, nxt, v):
        w = wides[i]
        with b.computed(nxt, root_t) as root:
            # radicand a << (q + v): the digit selects the placement
            for j in range(m):
                b.flip(w[q + j + 1], [(v, True), (a[j], True)])
                b.flip(w[q + j], [(v, False), (a[j], True)])
            sqrt_stages(b, w, root, m)

    return step, None, None


def _cos(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, spec, digits, table):
    m, q = cfg.m, lay.frac_bits
    # m - 1 root stages: the frame is zero above its low m + 1 bits
    wides = b.frames("AncW", dict.fromkeys(steps, 2 * m - 1), dict.fromkeys(steps, m + 1))
    root_t = b.reg("AncRoot", "ancilla-clean", m - 1).bits if b.clean and steps else None
    p = b.reg("AncP", "ancilla-clean", 1).bits[0]
    b.reg("AncC", "ancilla-clean", 1)  # touched by no gate, as in _exp
    _prefix_table(b, spec, lay, digits[:steps.start], table)

    def step(i, a, nxt, v):
        w = wides[i]
        t = w[q - 1:q + m]  # the 1 +- a scratch at one extra frac bit
        with b.computed(nxt[:m - 1], root_t) as root:
            for j in range(m):
                b.flip(w[q + j], [(a[j], True)])  # t = a << 1
            # t's low bit w[q - 1] is zero, as the frame is where the
            # step borrows it, so -t = -(t >> 1) << 1: negate above it
            with b.controls([(p, True)]):
                negate_bits(b, t[1:])
            increment(b, t[q + 1:])  # + 1 at the unit column
            # halve exactly: the low bit is zero so rotation is a shift
            rotate_right1(b, t)
            sqrt_stages(b, w, root, m - 1)

    return step, None, p


def _cot_step_widths(bound: int, q: int) -> tuple[int, int]:
    """(k, s) for a cot step that reads a <= bound: a fits k bits, and
    a^2 + 1 at 2q fraction bits fits 2s, so its root takes s stages."""
    return bound.bit_length(), ((bound * bound + (1 << 2 * q)).bit_length() + 1) // 2


# cot_increment_reach's pass stops at a step that reads more states
REACH_STATES = 1 << 16


@lru_cache(maxsize=None)
def cot_increment_reach(lay: Layout, n: int, cap: int) -> tuple[int, ...]:
    """(r_0, r_1, ..) for the a^2 + 1 increment of cot's steps i < n
    (fact e).  Step i reads one of the states after i absorb steps, at
    most one per digit prefix: {spec.init} at i = 0, then spec.absorb of
    each under digit 0 and 1, one breadth-first pass.  The increment
    adds 1.0 to a^2 at 2q frac bits, so its carry runs through the
    trailing ones of the integer part a^2 >> 2q, and r is one more than
    the most of them over the states: bits[:r] of that part are never
    all ones, and the carry ends inside them.  A step that reads more
    than cap states, and every step after it, is left out and takes the
    whole cascade: the tuple ends before it."""
    spec = get_spec(SYNTH_SPEC["cot"])
    q, states, reach = lay.frac_bits, {spec.init(lay)}, []
    for i in range(n):
        if len(states) > cap:
            break
        ints = {a * a >> 2 * q for a, _ in states}
        reach.append(max((x + 1 & ~x).bit_length() for x in ints))
        if i + 1 < n:
            states = {spec.absorb(st, v, i, lay) for st in states for v in (0, 1)}
    return tuple(reach)


def _cot(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, spec, digits, table):
    """cot: every digit string is a valid input, and each step's a^2 + 1
    increment runs on the bits cot_increment_reach gives (fact e), or on
    the whole a^2 >> 2q where the pass stops at REACH_STATES states."""
    m, q = cfg.m, lay.frac_bits
    carries = cot_increment_reach(lay, cfg.n, REACH_STATES)
    # each step squares and roots only the bits its chain value can
    # reach (cot_chain_bounds derives the bound), and its scratch holds
    # just those bits.  a^2 + 1 < 4^s, so the square and the root walk
    # leave the frame zero above its low s + 2 bits
    bounds = cot_chain_bounds(lay, cfg.n)
    widths = {i: _cot_step_widths(bounds[i - 1], q) for i in steps}
    sqs = b.frames("AncSq", {i: max(square_width(k, cfg.square_method), 2 * s + 1)
                             for i, (k, s) in widths.items()},
                   {i: s + 2 for i, (k, s) in widths.items()})
    roots = b.frames("AncRoot", {i: max(k if cfg.square_method == "reversed_sqrt" else 0, s)
                                 for i, (k, s) in widths.items()})
    anc1 = b.reg("Anc1", "output", 1).bits[0]  # the infinity flag
    p = b.reg("AncP", "ancilla-clean", 1).bits[0]
    car = b.reg("AncC", "ancilla-clean", 1).bits[0] if steps else None

    # the table holds the trigger step, which turns the infinity sentinel
    # into cot(pi/2) = 0 on the first set digit, and the latch with it
    states = _prefix_table(b, spec, lay, digits[:steps.start], table)
    lookup(b, digits[:steps.start], [st[1] & 1 for st in states], [anc1])

    def step(i, a, nxt, v):
        w, rt, (k, s) = sqs[i], roots[i], widths[i]
        carry = carries[i] if i < len(carries) else 2 * (s - q)
        # only the write-back into nxt waits for the latch: the blocks
        # around it write scratch or restore a, C(V.W.V') = V.C(W).V'
        with b.compute() as mk:
            square(b, cfg.square_method, a[:k], w, rt[:k], car)
            increment(b, w[2 * q:2 * q + carry])  # a^2 + 1, exact at 2q frac
            sqrt_stages(b, w[:2 * s + 1], rt[:s], s)
        with b.controls([(anc1, False)]):
            copy_bits(b, rt[:min(s, m)], nxt)  # the register keeps root mod 2^m
        b.uncompute(mk)
        # b = root +- a: where p is set, root - a = ~(~root + a); under
        # the latch nxt is zero and the two complements cancel
        with complemented(b, nxt, p), b.controls([(anc1, False)]):
            add_into(b, a, nxt, car)
        b.flip(nxt[q], [(anc1, True), (v, False)])  # frozen chain update
        b.flip(anc1, [(x, False) for x in nxt])  # uniform latch toggle on a zero value

    return step, None, p


_FAMILIES = {
    "log": _log,
    "arccos": _arccos,
    "arccot": _arccot,
    "exp": _exp,
    "cos": _cos,
    "cot": _cot,
}


# ------------------------------------------------------------------ driver

def _build(config: SynthConfig) -> tuple[SynthesizedCircuit, dict[int, slice], dict]:
    """synthesize's circuit, the slice of its gates each computed step
    emitted, and the scratch frames each step borrows, which must be zero
    on every input when the step starts (Builder.frames)."""
    spec = get_spec(SYNTH_SPEC[config.function])
    lay = spec.layout(config.m, config.n)
    n, forward = config.n, spec.group == 1
    b = Builder(config.policy)
    rego = b.reg("RegO", "output" if forward else "input", n, int_bits=spec.digit_point)
    # the forward chain is a_0 .. a_{n-1}; an inverse one starts at the
    # table's register, RegI{first}, or RegI{first - 1} for cot, whose
    # RegI{i} holds the value after absorb step i
    first = 0 if forward else min(n, TABLE_DIGITS)
    roles = (["input"] + ["garbage"] * (n - 1) if forward
             else ["garbage"] * (n - first) + ["output"])
    regs = [b.reg(f"RegI{i}", role, lay.width, frac_bits=lay.frac_bits, signed=lay.signed)
            for i, role in enumerate(roles, first - (config.function == "cot"))]
    steps = range(first, first + len(regs) - 1)
    step, last, p = _FAMILIES[config.function](b, config, lay, steps, spec, rego.bits, regs[0])

    spans = {}
    if p is not None:
        b.flip(p, [(rego.bits[first - 1], True)])  # p = the last digit absorbed
    for i, (cur, nxt) in enumerate(zip(regs, regs[1:]), first):
        start, d = len(b.gates), rego.bits[i]
        if p is not None:
            b.flip(p, [(d, True)])  # p = d xor the digit before
        step(i, cur.bits, nxt.bits, d)
        if p is not None:
            b.flip(p, [(rego.bits[i - 1], True)])  # back to p = d
        spans[i] = slice(start, len(b.gates))
    if last:
        last(regs[-1].bits, rego.bits[-1])
    if p is not None:
        with b.controls([(p, True)]):
            negate_bits(b, regs[-1].bits)  # the top digit decides the sign
        b.flip(p, [(rego.bits[-1], True)])
    return (SynthesizedCircuit(config, spec, lay, b.finish(), [r.name for r in regs]), spans,
            b.borrowed)


def synthesize(config: SynthConfig) -> SynthesizedCircuit:
    """Build the evaluator circuit for one configuration.

    Deterministic: the same configuration always yields the same gate
    list and register map, byte for byte in the text form.
    """
    return _build(config)[0]


def step_circuit(config: SynthConfig, i: int) -> Circuit:
    """synthesize(config)'s registers with only computed step i's gates,
    with cos's and cot's two flips of p around them."""
    sc, spans, _ = _build(config)
    if i not in spans:
        raise CircuitError(f"{config.function} has no computed step {i}, only {list(spans)}")
    sc.circuit.gates = sc.circuit.gates[spans[i]]
    return sc.circuit
