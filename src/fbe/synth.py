"""Six reversible circuits that run the digit recurrences in place.

synthesize is the one driver.  It lays out the digit register RegO and
the chain registers, RegI{i} holding the recurrence's value after step
i, and runs the one loop over the steps.  A family (_log .. _cot) takes
(b, cfg, lay, steps) and, if inverse, the spec, the digit qubits and the
table's register; it allocates its scratch, writes its digit table if it
has one, and returns (step, last, p).  step(i, a, nxt, d) emits step i
from chain bits a and digit qubit d into the next chain register nxt:
the gate image of one recurrence step, with its truncations, wraparound
and sentinels, so a basis-state simulation reproduces the classical
digits or value bit for bit.  step_circuit gives one step's gates alone.
A forward evaluator (log, arccos, arccot) reads a number from RegI0, and
last(a, d) writes its last digit.  An inverse one (exp, cos, cot) reads
digits from RegO and builds the value in the last chain register; cos
and cot hand over a parity qubit p, which the driver keeps: it holds the
last digit absorbed, within a step that digit xor the one before, and at
the end the sign, the value negated where it is set.

An inverse evaluator's chain value after j steps is one of 2^j values,
one per digit prefix, so the value after the first TABLE_DIGITS steps is
written by one table on the digit qubits (_prefix_table): the chain
starts at the table's register, and only the steps after it compute.

The Builder owns the ancilla policy (Builder.uncompute, .computed): under
garbage every step gets its own scratch register (AncW0, AncW1, ...),
under clean all steps share one (AncW).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    forward evaluator keeps RegI0 .. RegI{n-1}.  An inverse one keeps
    the digit table's register up to the output, the last entry: at
    n <= TABLE_DIGITS that is the output alone.
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


def _zero_test(b: Builder, target: int, bits):
    """target ^= [bits all zero]."""
    b.flip(target, [(q, False) for q in bits])


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
    m, q = cfg.m, lay.frac_bits
    wides = [b.scratch("AncW", square_width(m - 1, cfg.square_method), i).bits for i in steps]
    root_t, car = _square_scratch(b, cfg, m - 1)

    def last(a, d):
        b.flip(d, [(a[m - 1], True)])

    def step(i, a, nxt, d):
        last(a, d)
        # halve the register when the digit fired; the wrapped low bit
        # parks in the top position, outside the squared window
        with b.controls([(d, True)]):
            rotate_right1(b, a)
        with b.compute() as sq:
            square(b, cfg.square_method, a[:m - 1], wides[i], root_t, car)
        copy_bits(b, wides[i][q:q + m], nxt)
        b.uncompute(sq)
        with b.controls([(d, True)]):
            rotate_left1(b, a)

    return step, last, None


def _arccos(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, *_):
    m, q = cfg.m, lay.frac_bits
    wides = [b.scratch("AncW", square_width(m - 1, cfg.square_method), i).bits for i in steps]
    z = b.reg("AncZ", "ancilla-clean", 1).bits[0]
    root_t, car = _square_scratch(b, cfg, m - 1)

    def step(i, a, nxt, d):
        _zero_test(b, z, a)
        b.flip(d, [(a[m - 1], True)])
        with b.controls([(d, True)]):
            negate_bits(b, a)
        with b.compute() as sq:
            square(b, cfg.square_method, a[:m - 1], wides[i], root_t, car)
        # window starts one place lower: the product is doubled on copy
        copy_bits(b, wides[i][q - 1:q - 1 + m], nxt)
        decrement(b, nxt[q:])
        with b.controls([(d, True)]):
            negate_bits(b, nxt)
        # a == 0 midpoint: flip the digit and lift -1 to +1, which is a
        # single sign-bit flip at this layout
        b.flip(d, [(z, True)])
        b.flip(nxt[m - 1], [(z, True)])
        b.uncompute(sq)
        with b.controls([(d, True)]):
            negate_bits(b, a)
        _zero_test(b, z, a)

    def last(a, d):
        _zero_test(b, z, a)
        b.flip(d, [(a[m - 1], True)])
        b.flip(d, [(z, True)])
        _zero_test(b, z, a)

    return step, last, None


def _arccot(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, *_):
    m, q = cfg.m, lay.frac_bits
    # square scratch doubles as the division frame, one guard bit on top
    sqs = [b.scratch("AncSq", 2 * m - 1, i).bits for i in steps]
    quot_t = b.reg("AncQuot", "ancilla-clean", m - 1).bits if b.clean else None
    root_t = (b.reg("AncRoot", "ancilla-clean", m - 1).bits
              if cfg.square_method == "reversed_sqrt" else None)
    anc1 = b.reg("Anc1", "garbage", 1).bits[0]
    z = b.reg("AncZ", "ancilla-clean", 1).bits[0]
    s = b.reg("AncS", "ancilla-clean", 1).bits[0]
    car = b.reg("AncC", "ancilla-clean", 1).bits[0]

    def digit(a, d):
        b.flip(d, [(a[m - 1], True)])
        _zero_test(b, z, a)
        b.flip(d, [(z, True)])
        b.flip(anc1, [(z, True)])  # freeze from here on

    def step(i, a, nxt, d):
        w = sqs[i]
        digit(a, d)
        with b.controls([(d, True)]):
            negate_bits(b, a)
        # the trigger step's a = 0 divides 1.0 instead, so its quotient
        # is 0 as a frozen step's is, whose a holds the sentinel 1.0: no
        # write into nxt needs the freeze flag
        b.flip(a[q], [(z, True)])
        # |a| < 1 exactly when no integer bit of the magnitude is set
        _zero_test(b, s, a[q:])
        with b.computed(nxt[:m - 1], quot_t) as quo:
            square(b, cfg.square_method, a[:m - 1], w, root_t, car)
            decrement(b, w[2 * q:])
            with b.controls([(s, True)]):
                negate_bits(b, w)
            div_stages(b, w, a[:m - 1], quo, car, shift=1)
        # the sign of |a| < 1 and the digit's cancel: one negation where
        # s xor d, with s holding it around the negation
        b.flip(s, [(d, True)])
        with b.controls([(s, True)]):
            negate_bits(b, nxt)
        b.flip(s, [(d, True)])
        _zero_test(b, s, a[q:])
        b.flip(a[q], [(z, True)])
        b.flip(nxt[q], [(anc1, True)])  # frozen chain carries the sentinel
        with b.controls([(d, True)]):
            negate_bits(b, a)
        _zero_test(b, z, a)

    def last(a, d):
        digit(a, d)
        _zero_test(b, z, a)

    return step, last, None


# ----------------------------------------------------------------- inverse

def _exp(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, spec, digits, table):
    m, q = cfg.m, lay.frac_bits
    wides = {i: b.scratch("AncW", 2 * m + 1, i).bits for i in steps}
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
    wides = {i: b.scratch("AncW", 2 * m - 1, i).bits for i in steps}
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
            with b.controls([(p, True)]):
                negate_bits(b, t)
            increment(b, t[q + 1:])  # + 1 at the unit column
            # halve exactly: the low bit is zero so rotation is a shift
            rotate_right1(b, t)
            sqrt_stages(b, w, root, m - 1)

    return step, None, p


def _cot_step_widths(bound: int, q: int) -> tuple[int, int]:
    """(k, s) for a cot step that reads a <= bound: a fits k bits, and
    a^2 + 1 at 2q fraction bits fits 2s, so its root takes s stages."""
    return bound.bit_length(), ((bound * bound + (1 << 2 * q)).bit_length() + 1) // 2


def _cot(b: Builder, cfg: SynthConfig, lay: Layout, steps: range, spec, digits, table):
    m, q = cfg.m, lay.frac_bits
    # each step squares and roots only the bits its chain value can
    # reach (cot_chain_bounds derives the bound), and its scratch holds
    # just those bits; under clean one register serves every step, so
    # it takes the widest step's width
    bounds = cot_chain_bounds(lay, cfg.n)
    widths = {i: _cot_step_widths(bounds[i - 1], q) for i in steps}
    sq_w = {i: max(square_width(k, cfg.square_method), 2 * s + 1)
            for i, (k, s) in widths.items()}
    rt_w = {i: max(k if cfg.square_method == "reversed_sqrt" else 0, s)
            for i, (k, s) in widths.items()}
    if b.clean:
        sq_w, rt_w = ({i: max(ws.values()) for i in ws} for ws in (sq_w, rt_w))
    sqs = {i: b.scratch("AncSq", sq_w[i], i).bits for i in steps}
    roots = {i: b.scratch("AncRoot", rt_w[i], i).bits for i in steps}
    anc1 = b.reg("Anc1", "output", 1).bits[0]  # the infinity flag
    p = b.reg("AncP", "ancilla-clean", 1).bits[0]
    car = b.reg("AncC", "ancilla-clean", 1).bits[0] if steps else None

    # the table holds the trigger step, which turns the infinity sentinel
    # into cot(pi/2) = 0 on the first set digit, and the latch with it
    states = _prefix_table(b, spec, lay, digits[:steps.start], table)
    lookup(b, digits[:steps.start], [st[1] & 1 for st in states], [anc1])

    def step(i, a, nxt, v):
        w, rt, (k, s) = sqs[i], roots[i], widths[i]
        # only the write-back into nxt waits for the latch: the blocks
        # around it write scratch or restore a, C(V.W.V') = V.C(W).V'
        with b.compute() as mk:
            square(b, cfg.square_method, a[:k], w, rt[:k], car)
            increment(b, w[2 * q:2 * s])  # a^2 + 1, exact at 2q frac
            sqrt_stages(b, w[:2 * s + 1], rt[:s], s)
        with b.controls([(anc1, False)]):
            copy_bits(b, rt[:min(s, m)], nxt)  # the register keeps root mod 2^m
        b.uncompute(mk)
        # b = root +- a: where p is set, root - a = ~(~root + a); under
        # the latch nxt is zero and the two complements cancel
        with complemented(b, nxt, p), b.controls([(anc1, False)]):
            add_into(b, a, nxt, car)
        b.flip(nxt[q], [(anc1, True), (v, False)])  # frozen chain update
        _zero_test(b, anc1, nxt)  # uniform latch toggle on a zero value

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

def _build(config: SynthConfig) -> tuple[SynthesizedCircuit, dict[int, slice]]:
    """synthesize's circuit and the slice of its gates each step emitted."""
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
    return SynthesizedCircuit(config, spec, lay, b.finish(), [r.name for r in regs]), spans


def synthesize(config: SynthConfig) -> SynthesizedCircuit:
    """Build the evaluator circuit for one configuration.

    Deterministic: the same configuration always yields the same gate
    list and register map, byte for byte in the text form.
    """
    return _build(config)[0]


def step_circuit(config: SynthConfig, i: int) -> Circuit:
    """synthesize(config)'s registers with only computed step i's gates,
    with cos's and cot's two flips of p around them."""
    sc, spans = _build(config)
    if i not in spans:
        raise CircuitError(f"{config.function} has no computed step {i}, only {list(spans)}")
    sc.circuit.gates = sc.circuit.gates[spans[i]]
    return sc.circuit
