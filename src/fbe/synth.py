"""Six reversible circuits that run the digit recurrences in place.

Each synthesizer lays out a digit register, a chain of value registers
and the scratch each step needs, then emits one module per digit.  A
module is the gate-level image of one classical recurrence step: the
same truncations, the same wraparound, the same sentinel handling, so a
basis-state simulation reproduces the classical digit string or value
bit for bit.

The forward evaluators (log, arccos, arccot) read a number from RegI0
and write digits into RegO; the inverse evaluators (exp, cos, cot) read
digits from RegO and build the value in the last chain register.  Value
registers between the ends keep the intermediate chain values, which
both policies leave in place.  The policy itself belongs to the Builder:
each step computes into scratch from Builder.scratch, copies out, and
hands the compute block to Builder.uncompute, which returns that scratch
to zero under the clean policy and leaves it as garbage otherwise.  So
under garbage every step gets its own scratch register (AncW0, AncW1,
...), and under clean all steps share one (AncW).

An inverse evaluator's chain register after j steps holds one of 2^j
values, one per digit prefix, so the first TABLE_DIGITS of them are
written by a table on the digit qubits (_prefix_tables).  Only the steps
after them compute, and only those take scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .circuit import Circuit, CircuitError, export_text
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


class SynthesizedCircuit:
    """Circuit plus the encode/decode conventions it was built with.

    Digit register convention: for the forward evaluators RegO qubit i
    holds the i-th displayed digit (most significant first).  For the
    inverse evaluators RegO qubit i holds the digit absorbed at step i,
    which is the string read from the right end (lsb first).
    """

    def __init__(self, config: SynthConfig, spec: FunctionSpec, layout: Layout,
                 circuit: Circuit, chain: list[str]):
        self.config = config
        self.spec = spec
        self.layout = layout
        self.circuit = circuit
        self.chain = chain

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
        if isinstance(digits, str):
            digits = parse_digits(digits)
        if digits.radix != 2:
            raise CircuitError(f"digits of radix {digits.radix}, the circuit reads radix 2")
        if len(digits.digits) != self.config.n:
            raise CircuitError(f"expected {self.config.n} digits, got {len(digits.digits)}")
        rego = self.circuit.registers["RegO"]
        state = 0
        for i in range(self.config.n):
            if digits.digits[self.config.n - 1 - i]:
                state |= 1 << (rego.start + i)
        return state

    def decode_digits(self, state: int) -> DigitString:
        rego = self.circuit.registers["RegO"]
        raw = rego.extract(state)
        return DigitString(tuple((raw >> i) & 1 for i in range(self.config.n)))

    def decode_value(self, state: int) -> tuple[FixedPoint, bool]:
        """(value register, infinity flag) after a simulation."""
        reg = self.circuit.registers[self.chain[-1]]
        fp = make(reg.extract(state), self.layout)
        infinite = False
        if self.config.function == "cot":
            infinite = bool(self.circuit.registers["Anc1"].extract(state))
        return fp, infinite

    def chain_values(self, state: int) -> list[FixedPoint]:
        return [make(self.circuit.registers[nm].extract(state), self.layout)
                for nm in self.chain]

    def export(self) -> str:
        return export_text(self.circuit)


def _zero_test(b: Builder, target: int, bits):
    """target ^= [bits all zero]."""
    b.flip(target, [(q, False) for q in bits])


def _chain(b: Builder, lay: Layout, roles) -> list:
    """Value registers RegI0, RegI1, ... in the given roles."""
    return [b.reg(f"RegI{i}", role, lay.width, frac_bits=lay.frac_bits,
                  signed=lay.signed) for i, role in enumerate(roles)]


def _prefix_tables(b: Builder, spec: FunctionSpec, lay: Layout, digits, regs) -> list:
    """Write regs[j] from a table: the chain value after the recurrence
    absorbs digits[:j+1], one entry per value of those digits, so the
    register equals the recurrence by construction.  Returns the states
    after all len(regs) digits, indexed by the integer they spell."""
    for j, reg in enumerate(regs, 1):
        # _absorb_raw takes the digits in display order, last absorbed first
        states = [_absorb_raw(spec, spec.init(lay), [x >> i & 1 for i in reversed(range(j))], lay)
                  for x in range(1 << j)]
        lookup(b, digits[:j], [st[0] for st in states], reg.bits)
    return states


# ----------------------------------------------------------------- forward

def _synth_log(b: Builder, cfg: SynthConfig, spec: FunctionSpec, lay: Layout):
    n, m, q = cfg.n, cfg.m, lay.frac_bits
    rego = b.reg("RegO", "output", n, int_bits=1)
    regs = _chain(b, lay, ["input"] + ["garbage"] * (n - 1))
    wides = [b.scratch("AncW", square_width(m - 1, cfg.square_method), i)
             for i in range(n - 1)]
    root_t = (b.reg("AncRoot", "ancilla-clean", m - 1).bits
              if cfg.square_method == "reversed_sqrt" else None)
    car = b.reg("AncC", "ancilla-clean", 1).bits[0]

    for i in range(n - 1):
        a, nxt, w = regs[i].bits, regs[i + 1].bits, wides[i].bits
        d = rego.bits[i]
        b.flip(d, [(a[m - 1], True)])
        # halve the register when the digit fired; the wrapped low bit
        # parks in the top position, outside the squared window
        with b.controls([(d, True)]):
            rotate_right1(b, a)
        with b.compute() as sq:
            square(b, cfg.square_method, a[:m - 1], w, root_t, car)
        copy_bits(b, w[q:q + m], nxt)
        b.uncompute(sq)
        with b.controls([(d, True)]):
            rotate_left1(b, a)
    b.flip(rego.bits[n - 1], [(regs[n - 1].bits[m - 1], True)])
    return regs


def _synth_arccos(b: Builder, cfg: SynthConfig, spec: FunctionSpec, lay: Layout):
    n, m, q = cfg.n, cfg.m, lay.frac_bits
    rego = b.reg("RegO", "output", n, int_bits=0)
    regs = _chain(b, lay, ["input"] + ["garbage"] * (n - 1))
    wides = [b.scratch("AncW", square_width(m - 1, cfg.square_method), i)
             for i in range(n - 1)]
    root_t = (b.reg("AncRoot", "ancilla-clean", m - 1).bits
              if cfg.square_method == "reversed_sqrt" else None)
    z = b.reg("AncZ", "ancilla-clean", 1).bits[0]
    car = b.reg("AncC", "ancilla-clean", 1).bits[0]

    for i in range(n - 1):
        a, nxt, w = regs[i].bits, regs[i + 1].bits, wides[i].bits
        d = rego.bits[i]
        _zero_test(b, z, a)
        b.flip(d, [(a[m - 1], True)])
        with b.controls([(d, True)]):
            negate_bits(b, a)
        with b.compute() as sq:
            square(b, cfg.square_method, a[:m - 1], w, root_t, car)
        # window starts one place lower: the product is doubled on copy
        copy_bits(b, w[q - 1:q - 1 + m], nxt)
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
    a, d = regs[n - 1].bits, rego.bits[n - 1]
    _zero_test(b, z, a)
    b.flip(d, [(a[m - 1], True)])
    b.flip(d, [(z, True)])
    _zero_test(b, z, a)
    return regs


def _synth_arccot(b: Builder, cfg: SynthConfig, spec: FunctionSpec, lay: Layout):
    n, m, q = cfg.n, cfg.m, lay.frac_bits
    rego = b.reg("RegO", "output", n, int_bits=0)
    regs = _chain(b, lay, ["input"] + ["garbage"] * (n - 1))
    # square scratch doubles as the division frame, one guard bit on top
    sqs = [b.scratch("AncSq", 2 * m - 1, i) for i in range(n - 1)]
    quot_t = b.reg("AncQuot", "ancilla-clean", m - 1).bits if b.clean else None
    root_t = (b.reg("AncRoot", "ancilla-clean", m - 1).bits
              if cfg.square_method == "reversed_sqrt" else None)
    anc1 = b.reg("Anc1", "garbage", 1).bits[0]
    z = b.reg("AncZ", "ancilla-clean", 1).bits[0]
    s = b.reg("AncS", "ancilla-clean", 1).bits[0]
    car = b.reg("AncC", "ancilla-clean", 1).bits[0]

    for i in range(n - 1):
        a, nxt, w = regs[i].bits, regs[i + 1].bits, sqs[i].bits
        d = rego.bits[i]
        b.flip(d, [(a[m - 1], True)])
        _zero_test(b, z, a)
        b.flip(d, [(z, True)])
        b.flip(anc1, [(z, True)])  # freeze from here on
        with b.controls([(d, True)]):
            negate_bits(b, a)
        # |a| < 1 exactly when no integer bit of the magnitude is set
        _zero_test(b, s, a[q:])
        # only the writes into nxt wait for the freeze flag; the blocks
        # that write scratch run regardless, C(V.W.V') = V.C(W).V'
        frozen = [(anc1, False)]
        with b.compute() as live:
            square(b, cfg.square_method, a[:m - 1], w, root_t, car)
            decrement(b, w[2 * q:])
            with b.controls([(s, True)]):
                negate_bits(b, w)
            # under garbage the quotient lands in nxt itself
            with b.controls([] if quot_t else frozen):
                div_stages(b, w, a[:m - 1], quot_t or nxt[:m - 1], car, shift=1)
        if quot_t:
            with b.controls(frozen):
                copy_bits(b, quot_t, nxt[:m - 1])
        b.uncompute(live)
        # the sign of |a| < 1 and the digit's cancel: one negation where
        # s xor d, with s holding it around the negation
        b.flip(s, [(d, True)])
        with b.controls(frozen + [(s, True)]):
            negate_bits(b, nxt)
        b.flip(s, [(d, True)])
        _zero_test(b, s, a[q:])
        b.flip(nxt[q], [(anc1, True)])  # frozen chain carries the sentinel
        with b.controls([(d, True)]):
            negate_bits(b, a)
        _zero_test(b, z, a)
    a, d = regs[n - 1].bits, rego.bits[n - 1]
    b.flip(d, [(a[m - 1], True)])
    _zero_test(b, z, a)
    b.flip(d, [(z, True)])
    b.flip(anc1, [(z, True)])
    _zero_test(b, z, a)
    return regs


# ----------------------------------------------------------------- inverse

def _synth_exp(b: Builder, cfg: SynthConfig, spec: FunctionSpec, lay: Layout):
    n, m, q = cfg.n, cfg.m, lay.frac_bits
    rego = b.reg("RegO", "input", n, int_bits=0)
    regs = _chain(b, lay, ["garbage"] * n + ["output"])
    tab = min(n, TABLE_DIGITS)
    wides = {i: b.scratch("AncW", 2 * m + 1, i) for i in range(tab, n)}
    root_t = b.reg("AncRoot", "ancilla-clean", m).bits if b.clean and wides else None
    # no gate touches AncC; it stays so that even an all-table circuit
    # has a clean ancilla for the benchmark's dirty-ancilla check to flip
    b.reg("AncC", "ancilla-clean", 1)

    b.flip(regs[0].bits[q])  # a0 = 1
    _prefix_tables(b, spec, lay, rego.bits, regs[1:tab + 1])
    for i in range(tab, n):
        a, nxt, w = regs[i].bits, regs[i + 1].bits, wides[i].bits
        v = rego.bits[i]
        with b.compute() as mk:
            # radicand a << (q + v): the digit selects the placement
            for j in range(m):
                b.flip(w[q + j + 1], [(v, True), (a[j], True)])
                b.flip(w[q + j], [(v, False), (a[j], True)])
            sqrt_stages(b, w, root_t or nxt, m)
        if root_t:
            copy_bits(b, root_t, nxt)
        b.uncompute(mk)
    return regs


def _synth_cos(b: Builder, cfg: SynthConfig, spec: FunctionSpec, lay: Layout):
    n, m, q = cfg.n, cfg.m, lay.frac_bits
    rego = b.reg("RegO", "input", n, int_bits=0)
    regs = _chain(b, lay, ["garbage"] * n + ["output"])
    tab = min(n, TABLE_DIGITS)
    wides = {i: b.scratch("AncW", 2 * m - 1, i) for i in range(tab, n)}
    root_t = b.reg("AncRoot", "ancilla-clean", m - 1).bits if b.clean and wides else None
    p = b.reg("AncP", "ancilla-clean", 1).bits[0]
    # no gate touches AncC; it stays so that even an all-table circuit
    # has a clean ancilla for the benchmark's dirty-ancilla check to flip
    b.reg("AncC", "ancilla-clean", 1)

    b.flip(regs[0].bits[q])  # a0 = 1
    _prefix_tables(b, spec, lay, rego.bits, regs[1:tab + 1])
    b.flip(p, [(rego.bits[tab - 1], True)])  # p = the last digit absorbed
    for i in range(tab, n):
        a, nxt, w = regs[i].bits, regs[i + 1].bits, wides[i].bits
        v = rego.bits[i]
        b.flip(p, [(v, True)])  # p = v xor previous digit
        t = w[q - 1:q + m]  # the 1 +- a scratch at one extra frac bit
        with b.compute() as mk:
            for j in range(m):
                b.flip(w[q + j], [(a[j], True)])  # t = a << 1
            with b.controls([(p, True)]):
                negate_bits(b, t)
            increment(b, t[q + 1:])  # + 1 at the unit column
            # halve exactly: the low bit is zero so rotation is a shift
            rotate_right1(b, t)
            sqrt_stages(b, w, root_t or nxt[:m - 1], m - 1)
        if root_t:
            copy_bits(b, root_t, nxt[:m - 1])
        b.uncompute(mk)
        b.flip(p, [(rego.bits[i - 1], True)])  # back to p = v_i
    with b.controls([(p, True)]):
        negate_bits(b, regs[n].bits)  # the top digit decides the sign
    b.flip(p, [(rego.bits[n - 1], True)])
    return regs


def _cot_step_widths(bound: int, q: int) -> tuple[int, int]:
    """(k, s) for a cot step that reads a <= bound: a fits k bits, and
    a^2 + 1 at 2q fraction bits fits 2s, so its root takes s stages."""
    return bound.bit_length(), ((bound * bound + (1 << 2 * q)).bit_length() + 1) // 2


def _synth_cot(b: Builder, cfg: SynthConfig, spec: FunctionSpec, lay: Layout):
    n, m, q = cfg.n, cfg.m, lay.frac_bits
    rego = b.reg("RegO", "input", n, int_bits=0)
    regs = _chain(b, lay, ["garbage"] * (n - 1) + ["output"])
    # each step squares and roots only the bits its chain value can
    # reach (cot_chain_bounds derives the bound); once the chain can wrap,
    # a^2 + 1 can take 2m+1 bits, so the scratch is sized for a walk of
    # m+1 stages and the root gets its own m+1 bit register
    bounds = cot_chain_bounds(lay, n)
    tab = min(n, TABLE_DIGITS)
    sqs = {i: b.scratch("AncSq", 2 * m + 3, i) for i in range(tab, n)}
    roots = {i: b.scratch("AncRoot", m + 1, i) for i in range(tab, n)}
    anc1 = b.reg("Anc1", "output", 1).bits[0]  # the infinity flag
    p = b.reg("AncP", "ancilla-clean", 1).bits[0]
    car = b.reg("AncC", "ancilla-clean", 1).bits[0]

    # the tables hold the trigger step, which turns the infinity sentinel
    # into cot(pi/2) = 0 on the first set digit, and the latch with it
    states = _prefix_tables(b, spec, lay, rego.bits, regs[:tab])
    lookup(b, rego.bits[:tab], [st[1] & 1 for st in states], [anc1])
    b.flip(p, [(rego.bits[tab - 1], True)])  # p = the last digit absorbed
    for i in range(tab, n):
        a, nxt, w, rt = regs[i - 1].bits, regs[i].bits, sqs[i].bits, roots[i].bits
        v = rego.bits[i]
        k, s = _cot_step_widths(bounds[i - 1], q)
        b.flip(p, [(v, True)])  # p = v xor previous digit
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
        b.flip(p, [(rego.bits[i - 1], True)])
    with b.controls([(p, True)]):
        negate_bits(b, regs[n - 1].bits)
    b.flip(p, [(rego.bits[n - 1], True)])
    return regs


_SYNTH = {
    "log": _synth_log,
    "arccos": _synth_arccos,
    "arccot": _synth_arccot,
    "exp": _synth_exp,
    "cos": _synth_cos,
    "cot": _synth_cot,
}


def synthesize(config: SynthConfig) -> SynthesizedCircuit:
    """Build the evaluator circuit for one configuration.

    Deterministic: the same configuration always yields the same gate
    list and register map, byte for byte in the text form.
    """
    spec = get_spec(SYNTH_SPEC[config.function])
    lay = spec.layout(config.m, config.n)
    b = Builder(config.policy)
    regs = _SYNTH[config.function](b, config, spec, lay)
    return SynthesizedCircuit(config, spec, lay, b.finish(), [r.name for r in regs])
