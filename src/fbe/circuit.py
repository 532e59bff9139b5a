"""Reversible gate-list circuits over x, cx, ccx, mcx, swap, cswap, h.

Circuits here are flat gate lists plus named registers.  Simulation
runs a compiled program in one of two stages, and one count switches
them: the states and terms run since the circuit last changed.  Until
that count reaches _COMPILE_AFTER the circuit runs its flat program, the
list fused in one pass into mask entries.  Consecutive X-family gates
under one condition fuse into one XOR of their targets, and the cascades
that increment or decrement a field of contiguous qubits (the
widening-control ladders of blocks.increment and blocks.decrement, also
replayed reversed) fuse into one conditional add of +1 or -1 on that
field; any other gate stays an entry of its own.  From then on it runs
the compiled program: the list fused again with one more entry, the
register add: each MAJ/UMA ripple adder of blocks.add_into (about 6w
gates, none of which fuse; found by fbe.ripple) becomes one entry
dst <- dst + src + anc, and its reversed replay one dst <- dst - src -
anc, each a few big-int operations.  Both programs are flat lists of
entries of one shape.  The program's stage picks the kernel.  The flat
program runs through the interpreter _run, one state or term at a time,
in both modes.  The compiled one runs in basis mode as the Python code
fbe.codegen writes out, each entry an if statement on s with its op
inline, and in sparse mode bit-sliced through _run_planes at any term
count, one int per touched qubit with a bit per term.  Every entry but h maps basis states
one to one, so the sparse mode runs each h-free stretch as a permutation
of its terms, with amplitudes following their terms, and splits
amplitudes only at the h entries between stretches (_split, the one
place that handles h).  simulate_batch runs a list of basis states
through an h-free circuit's one stretch the same way (_run_stretch),
with no amplitudes.  A stretch's first bit-sliced batch goes through
the interpreter _planes, later ones as the Python code fbe.codegen
writes out over the planes.  Compile keeps masks only for the qubits gates
touch, so its memory does not grow with the declared qubit count.  Gate
lists, resource counts and the text form never see the fusion or the
generated code.

A gate is a Gate record: a tuple (kind, targets, controls, neg_mask)
whose fields read by name as well.  Its checks run where gates come from
outside: the Gate constructor (and xgate) checks the shape against one
table and that no qubit repeats, Circuit.add and Circuit.extend check
every qubit against the register file, and import_text runs all of them
in one call per distinct gate line.  Gates that blocks.Builder makes
skip them by construction: it allocates every qubit it names and builds
its records with tuple.__new__.

The text form is line oriented and round-trips exactly.  Synthesis
replays blocks, so the text repeats itself: export formats each distinct
gate once, and each qubit's operand once, and import parses and checks
each distinct gate line once, appending the same Gate on every repeat,
and parses each distinct operand token once.  Compile, too, reads each
distinct gate's condition once (_read), for _fuse and ripple.find alike.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import and_, itemgetter, or_
from typing import Iterable, Optional

from .fixedpoint import _shown

X_KINDS = ("x", "cx", "ccx", "mcx")
# ops of the program entries, see _fuse and ripple.find
_XOR, _ADD, _SWAP, _H, _RADD = 0, 1, 2, 3, 4
# states and terms a circuit runs through its flat program after its
# last change; the run that reaches it builds the compiled program (see
# Circuit._prepared).  On the 20 sweep-exhaustive circuits the build
# costs 10-15 flat runs, generating its code 24-55, and each later state
# runs 3.0-6.8x faster (BENCH_flat_program.json).  With the figures of
# the nested program that came before (BENCH_two_stages.json), over
# N = 1, 2, 4, ..., 4096 runs, 65 has the lowest mean ratio to the best
# cost knowing N above 50 (1.22-1.23; 64: 1.29, 128: 1.36), 33 the
# lowest of all (1.19-1.20), but at 33 the 50 states per circuit of
# acceptance criterion 5 take 25 % longer.  superposition's first round
# call, 1 + 64 terms, crosses it; synth-grid's 3 states per circuit do
# not.
_COMPILE_AFTER = 65
ROLES = ("input", "output", "ancilla-clean", "garbage")
# largest qubits header import_text accepts
MAX_TEXT_QUBITS = 1 << 20


class _Memo(dict):
    """f(key) for each key looked up, made on first lookup: a mask 1 << q
    or an operand "q[i]" per declared qubit would take memory quadratic
    or linear in the qubit count.  f is pure, so no value goes stale."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, key):
        self[key] = v = self.f(key)
        return v


def _qubits_of(mask: int) -> tuple[int, ...]:
    """The qubits of mask, lowest first."""
    return tuple(q for q, c in enumerate(bin(mask)[:1:-1]) if c == "1")


class CircuitError(Exception):
    pass


class SimulationLimit(CircuitError):
    """Sparse simulation exceeded the configured term budget."""


class Gate(tuple):
    """One gate as the tuple (kind, targets, controls, neg_mask), its
    fields also readable by name; bit i of neg_mask set = controls[i]
    fires on |0>.  Gate(...) checks the shape, tuple.__new__ does not."""

    __slots__ = ()

    def __new__(cls, kind: str, targets: tuple[int, ...],
                controls: tuple[int, ...] = (), neg_mask: int = 0) -> "Gate":
        return _checked(kind, targets, controls, neg_mask)

    kind = property(itemgetter(0))
    targets = property(itemgetter(1))
    controls = property(itemgetter(2))
    neg_mask = property(itemgetter(3))

    @property
    def qubits(self) -> tuple[int, ...]:
        return self[2] + self[1]

    def __getnewargs__(self):
        # copy and pickle rebuild a record through __new__'s four fields
        return tuple(self)

    def __repr__(self) -> str:
        return "Gate(kind=%r, targets=%r, controls=%r, neg_mask=%r)" % self


# kind -> (targets, fewest controls, most controls)
_SHAPES = {"x": (1, 0, 0), "cx": (1, 1, 1), "ccx": (1, 2, 2), "mcx": (1, 3, float("inf")),
           "swap": (2, 0, 0), "cswap": (2, 1, 1), "h": (1, 0, 0)}


def _checked(kind: str, targets: tuple[int, ...], controls: tuple[int, ...],
             neg: int, n_qubits: Optional[int] = None) -> Gate:
    """The Gate after its checks: shape, no qubit repeated, neg_mask width,
    then, given n_qubits, the first qubit (controls first) not below it."""
    nt, nc = len(targets), len(controls)
    shape = _SHAPES.get(kind)
    if shape is None or nt != shape[0] or not shape[1] <= nc <= shape[2]:
        raise CircuitError(f"bad gate shape {kind} targets={nt} controls={nc}")
    qs = controls + targets
    if len(set(qs)) != nt + nc:
        raise CircuitError(f"{kind} reuses a qubit: {targets} {controls}")
    if neg >> nc:
        raise CircuitError("neg_mask wider than the control list")
    if n_qubits is not None and max(qs) >= n_qubits:
        q = next(q for q in qs if q >= n_qubits)
        raise CircuitError(f"qubit {_shown(q)} outside 0..{n_qubits - 1}")
    return tuple.__new__(Gate, (kind, targets, controls, neg))


def xgate(target: int, controls: Iterable[tuple[int, bool]] = ()) -> Gate:
    """X on target under (qubit, positive?) controls."""
    ctl = tuple(controls)
    qs = tuple(q for q, _ in ctl)
    neg = 0
    for i, (_, pos) in enumerate(ctl):
        if not pos:
            neg |= 1 << i
    kind = {0: "x", 1: "cx", 2: "ccx"}.get(len(qs), "mcx")
    return Gate(kind, (target,), qs, neg)


@dataclass(frozen=True)
class Register:
    name: str
    role: str
    start: int
    size: int
    int_bits: int
    frac_bits: int
    signed: bool = False

    def __post_init__(self):
        # the text form reads a name as one token up to whitespace or #
        if self.name.split() != [self.name] or "#" in self.name:
            raise CircuitError(f"bad register name {_shown(repr(self.name))}")
        if self.role not in ROLES:
            raise CircuitError(f"unknown role {_shown(repr(self.role))}")
        if self.size != self.int_bits + self.frac_bits:
            raise CircuitError(f"{_shown(self.name)}: size {self.size} != field widths")
        if self.size < 1 or self.start < 0:
            raise CircuitError(f"{_shown(self.name)}: bad span")

    @property
    def bits(self) -> tuple[int, ...]:
        """Qubit indices lsb first."""
        return tuple(range(self.start, self.start + self.size))

    def extract(self, state: int) -> int:
        return (state >> self.start) & ((1 << self.size) - 1)

    def insert(self, state: int, raw: int) -> int:
        mask = ((1 << self.size) - 1) << self.start
        return (state & ~mask) | ((raw & ((1 << self.size) - 1)) << self.start)


def _read(g, bit, conds: dict) -> tuple:
    """Gate g read as (cm, cv, first target's mask, its own entry unless
    X-family), bit mapping a qubit to its mask, and stored in conds under
    g.  A compile keeps one conds, keyed by value, for _fuse and
    ripple.find alike, which look a gate up there first: a repeated gate
    is read once, and its entries share the ints."""
    kind, targets, controls, neg = g
    cm = cv = sum(map(bit, controls))
    while neg:
        low = neg & -neg
        cv -= bit(controls[low.bit_length() - 1])
        neg ^= low
    t = bit(targets[0])
    own = (None if kind in X_KINDS else (0, 0, _H, t, 0) if kind == "h"
           else (cm, cv, _SWAP, t | bit(targets[1]), 0))
    c = conds[g] = (cm, cv, t, own)
    return c


def _fuse(gates, prog: list, bit, conds: dict) -> None:
    """Fuse the gate list, in one pass, into entries (cm, cv, op, mask,
    step) appended to prog; each gate is looked up in conds, or read
    into it by _read, and bit maps a qubit to its mask.

    A run of X-family gates under one condition is one _XOR entry whose
    mask is the XOR of the targets; XOR, not OR, because two equal gates
    cancel.  A cascade in which each gate's controls are the next gate's
    plus that gate's target, positive, and each target is one qubit below
    the last, increments the field mask of qubits lo..lo+w-1 under the
    last gate's condition: an _ADD entry with step 2^lo, run as
    v = s & mask; s ^= (v ^ (v + step)) & mask.  The mirror cascade, each
    target one qubit above the last and added to the next gate's
    controls, decrements the field under the first gate's condition:
    step -2^lo.  Targets never lie in the condition, so it holds or fails
    for the whole entry.  Any other gate (swap, cswap, h, or an X off
    both patterns) is an entry of its own."""
    # the open X-family entry (op is None when none is open) and the
    # condition and target of its last gate, which a cascade goes on
    # from; lt is 0 once a run holds two gates under one condition
    op = cm = cv = mask = step = lcm = lcv = lt = None
    for g in gates:
        gcm, gcv, t, own = conds.get(g) or _read(g, bit, conds)
        if own is not None:
            if op is not None:
                prog.append((cm, cv, op, mask, step))
                op = None
            prog.append(own)
            continue
        if op is not None:
            if step == 0 and gcm == cm and gcv == cv:
                mask ^= t
                lt = 0
                continue
            if step >= 0 and t == lt >> 1 and lcm == gcm | t and lcv == gcv | t:
                # increment: the condition shrinks to this gate's
                op, cm, cv, mask, step = _ADD, gcm, gcv, mask | t, t
                lcm, lcv, lt = gcm, gcv, t
                continue
            if step <= 0 and t == lt << 1 and gcm == lcm | lt and gcv == lcv | lt:
                # decrement: the condition stays the first gate's
                op, mask, step = _ADD, mask | t, -(mask & -mask)
                lcm, lcv, lt = gcm, gcv, t
                continue
            prog.append((cm, cv, op, mask, step))
        op, cm, cv, mask, step = _XOR, gcm, gcv, t, 0
        lcm, lcv, lt = gcm, gcv, t
    if op is not None:
        prog.append((cm, cv, op, mask, step))


def _fuse_adders(gates) -> list:
    """The flat program of the gate list with each ripple adder that
    ripple.find finds as one register-add entry; _fuse fuses the gates
    between them."""
    # imported here, on the first compiled program: a circuit run fewer
    # times never compiles the module
    from .ripple import find

    prog, bit, conds, lo = [], _Memo((1).__lshift__).__getitem__, {}, 0
    for start, end, entry in find(gates, bit, conds):
        _fuse(gates[lo:start], prog, bit, conds)
        prog.append(entry)
        lo = end
    _fuse(gates[lo:] if lo else gates, prog, bit, conds)
    return prog


def _run(prog, s: int) -> int:
    """Run basis state s through the flat program's entries (cm, cv, op,
    mask, step), h-free: each acts when s & cm == cv and maps basis states
    one to one.  The compiled program runs as generated code instead."""
    for cm, cv, op, mask, step in prog:
        if s & cm == cv:
            if op == _XOR:
                s ^= mask
            elif op == _ADD:
                v = s & mask
                s ^= (v ^ (v + step)) & mask
            elif op == _SWAP:
                v = s & mask
                if v and v != mask:
                    s ^= mask
    return s


def _touched(prog) -> int:
    """The OR of every cm | mask; a register add touches the qubits it
    reads as well as its field."""
    touched = 0
    for cm, _, op, mask, _ in prog:
        if op == _RADD:
            mask = mask[0] | mask[1] | 1 << mask[3]
        touched |= cm | mask
    return touched


def _run_planes(prog, states, qubits=None, touched=None, kernel=None) -> list[int]:
    """Run the distinct basis states through the h-free entries of a
    compiled stretch at once, bit-sliced (Biham, FSE 1997): one int per
    touched qubit whose bit k is that qubit in states[k].  An entry's
    condition is the AND of its control planes, negative controls
    complemented, within the terms' condition, and an entry whose
    condition is empty is skipped.  _XOR flips its target
    planes under the condition, _ADD ripples a carry (step > 0) or a
    borrow up the field from its lowest qubit until the plane empties,
    dropping what leaves the top so that the field wraps, _RADD does the
    same with a full adder or subtractor per src qubit, anc's plane the
    carry or borrow in, and _SWAP exchanges its two planes under it.
    Only the touched qubits, the OR of every cm | mask (a register add's
    src and anc too), are packed and unpacked; a qubit
    equal in every term gets a constant plane, and untouched bits pass
    through.  The pack writes the varying qubits of every term as one
    term-major string and reads each plane off it with a strided slice,
    the mirror of the unpack, so both take time and memory linear in the
    term count.  qubits maps a mask to its qubits, lowest first
    (Circuit._qubits), and touched is _touched(prog) when the caller has
    it already.  The entries run through kernel, codegen.planes(prog,
    qubits[touched], qubits), when given, and through the interpreter
    _planes if not."""
    qs = _Memo(_qubits_of) if qubits is None else qubits
    if touched is None:
        touched = _touched(prog)
    if not (touched and states):  # no terms, or entries whose targets cancelled
        return list(states)
    full = (1 << len(states)) - 1
    order = qs[touched]
    # pack: term k's varying qubits, msb first, are the k-th last block of
    # span characters, so qubit q's plane is every span-th character
    every = reduce(and_, states)
    vary = (reduce(or_, states) ^ every) & touched
    span = vary.bit_length()
    packed = "".join([format(s & vary, f"0{span}b") for s in reversed(states)])
    planes = [int(packed[span - 1 - q::span], 2) if vary >> q & 1 else full * (every >> q & 1)
              for q in order]
    if kernel is None:
        by_qubit = dict(zip(order, planes))
        _planes(prog, by_qubit, full, qs)
        planes = list(by_qubit.values())
    else:
        kernel(planes, full)
    # unpack: the planes as one plane-major string, top qubit first, each
    # plane msb first with zero runs for the gaps of untouched qubits, so
    # term k's touched bits are every n-th character from n - 1 - k
    n = len(states)
    rows = []
    top = touched.bit_length()
    for q, p in zip(reversed(order), reversed(planes)):
        if top - q > 1:
            rows.append("0" * (n * (top - q - 1)))
        rows.append(format(p, f"0{n}b"))
        top = q
    bits = "".join(rows)
    return [s & ~touched | int(bits[n - 1 - k::n], 2) << top
            for k, s in enumerate(states)]


def _planes(prog, planes, within, qs):
    """The entry loop of _run_planes: run prog on the planes under the
    condition `within`, the plane of the terms it runs."""
    for cm, cv, op, mask, step in prog:
        cond = within
        for q in qs[cv]:
            cond &= planes[q]
        if cm != cv:
            for q in qs[cm ^ cv]:
                cond &= ~planes[q]
        if not cond:
            continue
        if op == _XOR:
            for q in qs[mask]:
                planes[q] ^= cond
        elif op == _ADD:  # cond ripples on as the carry or the borrow
            for q in qs[mask]:
                p = planes[q]
                planes[q] = p ^ cond
                cond &= p if step > 0 else ~p
                if not cond:
                    break
        elif op == _RADD:  # a full adder or subtractor per source bit
            dst, src = qs[mask[0]], qs[mask[1]]
            c = cond & planes[mask[3]]  # the carry or the borrow in
            for q, r in zip(dst, src):
                p, x = planes[q], planes[r] & cond
                t = p ^ x
                planes[q] = t ^ c
                c = x & p | c & t if step > 0 else x & ~p | c & ~t
            for q in dst[len(src):]:
                if not c:
                    break
                p = planes[q]
                planes[q] = p ^ c
                c &= p if step > 0 else ~p
        elif op == _SWAP:
            a, b = qs[mask]
            pa, pb = planes[a], planes[b]
            d = (pa ^ pb) & cond
            planes[a], planes[b] = pa ^ d, pb ^ d


class Circuit:
    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise CircuitError("need at least one qubit")
        self.n_qubits = n_qubits
        self.gates: list[Gate] = []
        self.registers: dict[str, Register] = {}
        self._qubits = _Memo(_qubits_of)

    @property
    def gates(self) -> list[Gate]:
        """The gate list.  Assigning one drops the compiled program and
        the run count, as add does; editing the list in place does not."""
        return self._gates

    @gates.setter
    def gates(self, gates: list[Gate]):
        self._gates = gates
        self._changed()

    def _changed(self):
        self._program = None
        self._stretches = None  # _program split at its h entries, for _run_stretch
        self._generated = None  # the compiled program as a Python function
        self._runs = 0  # states and terms run since the last change

    def add_register(self, reg: Register):
        if reg.start + reg.size > self.n_qubits:
            raise CircuitError(f"{_shown(reg.name)} spills past qubit {self.n_qubits - 1}")
        if reg.name in self.registers:
            raise CircuitError(f"duplicate register {_shown(reg.name)}")
        self.registers[reg.name] = reg

    def add(self, gate: Gate):
        for q in gate.qubits:
            if not 0 <= q < self.n_qubits:
                raise CircuitError(f"qubit {_shown(q)} outside 0..{self.n_qubits - 1}")
        self._gates.append(gate)
        self._changed()

    def extend(self, gates: Iterable[Gate]):
        for g in gates:
            self.add(g)

    def inverse(self) -> "Circuit":
        """Every gate in the set is an involution, so reverse the list."""
        inv = Circuit(self.n_qubits)
        inv.registers = dict(self.registers)
        inv.gates = list(reversed(self.gates))
        return inv

    # ------------------------------------------------------------- running

    def _prepared(self, states: int):
        """The program for a run of `states` states or terms.  Until
        _COMPILE_AFTER have run since the last change, this run counted,
        it is the flat program: the gate list fused in one pass (_fuse)
        into entries (cm, cv, op, mask, step) that act when s & cm == cv.
        The run that reaches _COMPILE_AFTER drops it and builds the
        compiled program in its place, with no flat compile first when
        it is the first run: the gate list fused with each MAJ/UMA ripple
        adder as one register-add entry (_fuse_adders).  That takes
        1.0-1.6 flat compiles on the sweep circuits, which a circuit run
        only a few times, such as one just imported to be checked, does
        not win back.  Circuit.add drops the program and the count."""
        runs = self._runs
        self._runs = runs + states
        if runs + states < _COMPILE_AFTER:
            if self._program is None:
                self._program = []
                _fuse(self.gates, self._program, _Memo((1).__lshift__).__getitem__, {})
        elif runs < _COMPILE_AFTER:
            # drop the flat program before its successor is built
            self._program = self._stretches = None
            self._program = _fuse_adders(self.gates)
        return self._program

    def _split(self, prog):
        """The program split at its h entries, the one place that handles
        h: one [entries, touched, kernel, h] list per h-free stretch, h
        the mask of the h entry that ends the stretch, 0 after the last
        one, so no stretch holds one, and no kernel checks for h.
        touched, the OR of the entries' cm | mask (_touched), is None
        until the stretch of the compiled program first runs bit-sliced.
        kernel, the stretch as generated code (codegen.planes), is None
        until it runs bit-sliced a second time.  Made on the first run of
        each program, flat or compiled, that needs it, and dropped when
        the program is."""
        if self._stretches is None:
            self._stretches = []
            lo = 0
            # a last h entry of mask 0 ends the last stretch
            for hi, (_, _, op, mask, _) in enumerate(prog + [(0, 0, _H, 0, 0)]):
                if op == _H:
                    self._stretches.append([prog[lo:hi], None, None, mask])
                    lo = hi + 1
        return self._stretches

    def _check_state(self, state: int):
        if state < 0 or state >> self.n_qubits:
            raise CircuitError("state outside the register file")

    def simulate_basis(self, state: int) -> int:
        """Run one computational-basis state through the gate list: the
        flat program through _run, then, from the run that reaches
        _COMPILE_AFTER, the compiled program as generated Python code
        (codegen.kernel).  A circuit with an h gate is refused before
        anything runs or is generated."""
        self._check_state(state)
        run = self._generated
        if run is None:
            prog = self._prepared(1)
            if len(self._split(prog)) > 1:
                raise CircuitError("h gate present, use simulate_sparse")
            if self._runs < _COMPILE_AFTER:
                return _run(prog, state)
            # imported here: a circuit run fewer times never compiles it
            from .codegen import kernel

            run = self._generated = kernel(prog)
        return run(state)

    def _run_stretch(self, part, states: list[int], compiled: bool) -> list[int]:
        """The end state of each of states, in order, through one stretch
        of _split: the flat program's through _run state by state, the
        compiled program's through _run_planes, all at once, first
        through the interpreter _planes, then as the Python code
        codegen.planes writes out, generated on its second run."""
        stretch, touched, run, _ = part
        if not compiled:
            return [_run(stretch, s) for s in states]
        if touched is None:
            # the first run goes through _planes: a one-shot batch of
            # thousands of terms would not win back the 0.2-0.5 s of
            # generating the code
            touched = part[1] = _touched(stretch)
        elif run is None:
            # imported here: a circuit run fewer times never compiles it
            from .codegen import planes

            run = part[2] = planes(stretch, self._qubits[touched], self._qubits)
        return _run_planes(stretch, states, self._qubits, touched, run)

    def simulate_batch(self, states: Iterable[int]) -> list[int]:
        """The final state of each basis state in states, in order, all
        run through _run_stretch as simulate_sparse runs them; a state
        given twice runs twice.  The states count towards _COMPILE_AFTER.
        A state outside the register file, or a circuit with an h gate,
        is refused before anything is compiled or run."""
        states = list(states)
        for s in states:
            self._check_state(s)
        if "h" in map(itemgetter(0), self.gates):
            raise CircuitError("h gate present, use simulate_sparse")
        (part,) = self._split(self._prepared(len(states)))
        return self._run_stretch(part, states, self._runs >= _COMPILE_AFTER)

    def simulate_sparse(self, state, cap: int = 1 << 20) -> dict[int, complex]:
        """Exact sparse-state simulation from one basis state or a
        {state: amplitude} dict.  Every entry but h is a bijection on
        basis states, so each stretch between h entries permutes the
        terms, each keeping its amplitude: the stretches come from
        _split, once per program, and each runs through _run_stretch,
        the stretch runner simulate_batch uses, so the program's stage
        picks the kernel.  The terms of the start count towards
        _COMPILE_AFTER.  h splits amplitudes by 1/sqrt(2) and drops the
        terms that cancel to zero.
        Raises SimulationLimit once an entry leaves more than cap terms."""
        amps = {state: 1.0 + 0j} if isinstance(state, int) else dict(state)
        for s in amps:
            self._check_state(s)
        inv_sqrt2 = 2 ** -0.5
        prog = self._prepared(len(amps))
        compiled = self._runs >= _COMPILE_AFTER
        for part in self._split(prog):
            if part[0]:
                amps = dict(zip(self._run_stretch(part, list(amps), compiled), amps.values()))
                if len(amps) > cap:
                    raise SimulationLimit(f"state grew past {cap} terms")
            mask = part[3]
            if not mask:
                return amps
            nxt: dict[int, complex] = {}
            for s, a in amps.items():
                lo = s & ~mask
                hi = s | mask
                w = a * inv_sqrt2
                nxt[lo] = nxt.get(lo, 0j) + w
                nxt[hi] = nxt.get(hi, 0j) + (w if not s & mask else -w)
            amps = {s: a for s, a in nxt.items() if a != 0}
            if len(amps) > cap:
                raise SimulationLimit(f"state grew past {cap} terms")

    # ----------------------------------------------------------- reporting

    def resource_count(self) -> dict:
        """Raw tallies plus a decomposition into the two-control set.

        mcx with k controls is priced at 2k-3 toffolis and k-2 ancillas,
        the V-chain over clean ancillas (borrowed dirty ones would cost
        4(k-2), Barenco et al., quant-ph/9503016, section 7); swap is 3
        cx; cswap is 1 ccx and 2 cx.
        """
        kinds = dict.fromkeys(("x", "cx", "ccx", "mcx", "swap", "cswap", "h"), 0)
        kinds.update(Counter(map(itemgetter(0), self.gates)))
        # control count -> gates; only mcx gates have three or more
        widths = Counter(map(len, map(itemgetter(2), self.gates)))
        mcx = [(k, n) for k, n in widths.items() if k >= 3]
        ccx_equiv = kinds["ccx"] + kinds["cswap"] + sum(n * (2 * k - 3) for k, n in mcx)
        cx_equiv = kinds["cx"] + 2 * kinds["cswap"] + 3 * kinds["swap"]
        clean = max((k - 2 for k, _ in mcx), default=0)
        roles: dict[str, int] = {}
        for r in self.registers.values():
            roles[r.role] = roles.get(r.role, 0) + r.size
        return {
            "qubits": self.n_qubits,
            "gates": len(self.gates),
            "by_kind": kinds,
            "toffoli_equivalent": ccx_equiv,
            "cx_equivalent": cx_equiv,
            "decomposition_ancillas": clean,
            "qubits_by_role": roles,
        }


# ------------------------------------------------------------- text format

def export_text(c: Circuit) -> str:
    """Serialize; a negative control carries a ! prefix.  Each distinct
    gate is formatted once, however often the list repeats it, and each
    qubit's operand once."""
    lines = [f"qubits {c.n_qubits}"]
    for r in c.registers.values():
        hi = r.start + r.size - 1
        line = (f"reg {r.name} {r.role} {r.start}..{hi} "
                f"int_bits {r.int_bits} frac_bits {r.frac_bits}")
        if r.signed:
            line += " signed"
        lines.append(line)
    names = _Memo("q[{}]".format)
    done: dict[Gate, str] = {}
    for g in c.gates:
        text = done.get(g)
        if text is None:
            kind, targets, controls, neg = g
            ops = list(map(names.__getitem__, controls + targets))
            while neg:
                low = neg & -neg
                i = low.bit_length() - 1
                ops[i] = "!" + ops[i]
                neg ^= low
            text = done[g] = f"{kind} {','.join(ops)}"
        lines.append(text)
    return "\n".join(lines) + "\n"


def _is_index(tok: str) -> bool:
    """Whether tok is a count or index written in ASCII digits 0-9 alone:
    int() by itself would also read "1_0", "+3", " 3" and other scripts'
    digits, such as the Arabic-Indic four."""
    return tok.isascii() and tok.isdigit()


def _index(tok: str) -> int:
    """int(tok) for a count or index, ValueError unless _is_index(tok)."""
    if not _is_index(tok):
        raise ValueError(tok)
    return int(tok)


def import_text(text: str) -> Circuit:
    """Parse the text form.  Every line is checked in order and the first
    bad one is named in the error.  A gate line seen before in this text
    was already checked against this circuit, so it appends the same
    Gate without being parsed again; an operand token parsed before
    reuses its (qubit, negated) pair, and the gate is checked as usual,
    by _checked, which builds the record.  The parse makes many tuples
    and no reference cycles, so it runs with the cyclic GC paused: the
    collections its allocations would start free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_text(text)
    finally:
        if enabled:
            gc.enable()


def _parse_text(text: str) -> Circuit:
    """import_text's parse."""
    c: Optional[Circuit] = None
    seen: dict[str, Gate] = {}
    operands: dict[str, tuple[int, bool]] = {}  # only tokens that parsed
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        g = seen.get(rawline)
        if g is not None:  # only checked gate lines are kept, so c is set
            append(g)
            continue
        toks = rawline.split("#", 1)[0].split()
        if not toks:
            continue
        head = toks[0]
        if head == "qubits":
            if c is not None:
                raise CircuitError(f"line {lineno}: duplicate qubits header")
            if len(toks) != 2 or not _is_index(toks[1]):
                raise CircuitError(f"line {lineno}: bad qubits header")
            # count digits first: int() refuses strings past 4300 digits
            if (len(toks[1].lstrip("0")) > len(str(MAX_TEXT_QUBITS))
                    or int(toks[1]) > MAX_TEXT_QUBITS):
                raise CircuitError(
                    f"line {lineno}: more than {MAX_TEXT_QUBITS} qubits")
            try:
                c = Circuit(int(toks[1]))
            except CircuitError as e:
                raise CircuitError(f"line {lineno}: {e}") from None
            append = c.gates.append
            continue
        if c is None:
            raise CircuitError(f"line {lineno}: qubits header must come first")
        if head == "reg":
            signed = toks[-1] == "signed"
            body = toks[:-1] if signed else toks
            if len(body) != 8 or body[4] != "int_bits" or body[6] != "frac_bits":
                raise CircuitError(f"line {lineno}: bad register line")
            span = body[3].split("..")
            if len(span) != 2:
                raise CircuitError(f"line {lineno}: bad register span")
            try:
                lo, hi = _index(span[0]), _index(span[1])
                ib, fb = _index(body[5]), _index(body[7])
            except ValueError:
                raise CircuitError(f"line {lineno}: bad register numbers") from None
            try:
                c.add_register(Register(body[1], body[2], lo, hi - lo + 1, ib, fb, signed))
            except CircuitError as e:
                raise CircuitError(f"line {lineno}: {e}") from None
            continue
        if head not in _SHAPES:
            raise CircuitError(f"line {lineno}: unknown gate {_shown(repr(head))}")
        if len(toks) != 2:
            raise CircuitError(f"line {lineno}: gate wants one operand list")
        qs = []
        negs = 0  # bit i set = operand i carries a !
        for tok in toks[1].split(","):
            op = operands.get(tok)
            if op is None:
                neg = tok.startswith("!")
                body = tok[neg:]
                if not (body.startswith("q[") and body.endswith("]")):
                    raise CircuitError(f"line {lineno}: bad operand {_shown(repr(tok))}")
                try:
                    op = operands[tok] = (_index(body[2:-1]), neg)
                except ValueError:
                    raise CircuitError(
                        f"line {lineno}: bad qubit index in {_shown(repr(tok))}") from None
            q, neg = op
            negs |= neg << len(qs)
            qs.append(q)
        n_ctl = len(qs) - _SHAPES[head][0]
        if n_ctl < 0:
            raise CircuitError(f"line {lineno}: not enough operands")
        if negs >> n_ctl:
            raise CircuitError(f"line {lineno}: target cannot be negated")
        try:
            g = _checked(head, tuple(qs[n_ctl:]), tuple(qs[:n_ctl]), negs, c.n_qubits)
        except CircuitError as e:
            raise CircuitError(f"line {lineno}: {e}") from None
        append(g)
        seen[rawline] = g
    if c is None:
        raise CircuitError("empty circuit text")
    return c
