"""Translate a compiled program into Python source and compile it.

Two writers share one chunker, and both take h-free programs: h is
handled by Circuit._split alone.  kernel(prog) returns a function of one
basis state that runs the compiled program on it: each entry is written
out as `if s & cm == cv:` and its op inline, so a state pays for a few
big-int operations per entry and no tuple unpacking or op dispatch.
Circuit.simulate_basis runs every state through it once the circuit
holds its compiled program (see circuit._COMPILE_AFTER).  planes(prog,
order, qubits) returns a function of a list of bit-sliced planes, plane
i being qubit order[i], and the condition c0 of the terms it runs, that
does what circuit._planes does on them: each entry is written out as
`c1 = c0 & P[3] & ~P[7]` and `if c1:`, its op inline on the planes.
Circuit._run_stretch, shared by simulate_sparse and simulate_batch, runs
each compiled stretch through it from its second bit-sliced run on.
The source holds only ints (the basis writer's masks as :#x, plane
indices in decimal) and fixed text.

Compile's transient memory grows with the source it parses, so the
source is compiled in functions of at most CHUNK_LINES lines each: a
longer run of entries is cut between entries into functions called in
turn.  An entry is its condition and its op, so no line of a function
sits more than three levels deeper than its body.  This module is
loaded on the first generation, so a process whose circuits never run
that many states or terms never compiles it.
"""

from __future__ import annotations

from .circuit import _ADD, _RADD, _SWAP, _XOR

# source lines per compiled function: kernel() on cot clean reversed-sqrt
# at n=6 m=10 peaks at 15.2 MB traced as one function, at 1.9 MB in
# functions of at most 400 lines (Python 3.11)
CHUNK_LINES = 400


def _op(op, mask, step) -> list[str]:
    """The lines of one entry's op, _XOR, _ADD and _SWAP as _run does
    them, _RADD as ripple.find describes it."""
    if op == _XOR:
        return [f"s ^= {mask:#x}"] if mask else []
    if op == _ADD:
        sign = "+" if step > 0 else "-"
        return [f"v = s & {mask:#x}",
                f"s ^= (v ^ (v {sign} {abs(step):#x})) & {mask:#x}"]
    if op == _RADD:
        dm, sm, lo, a = mask
        sign = "+" if step > 0 else "-"
        shift = abs(step).bit_length() - 1
        return [f"v = s & {dm:#x}",
                f"s ^= (v ^ (v {sign} ((((s & {sm:#x}) >> {lo:#x}) + (s >> {a:#x} & 1))"
                f" << {shift:#x}))) & {dm:#x}"]
    return [f"v = s & {mask:#x}",  # _SWAP
            f"if v and v != {mask:#x}:",
            f"    s ^= {mask:#x}"]


def _cond(cm: int, cv: int) -> str:
    """The if line of condition s & cm == cv, cm nonzero."""
    if not cv:
        return f"if not s & {cm:#x}:"
    if cm == cv and not cm & (cm - 1):
        return f"if s & {cm:#x}:"
    return f"if s & {cm:#x} == {cv:#x}:"


def _under(head: list[str], body: list[str]) -> list[str]:
    """body indented under the lines head ends with, or as it is when
    there is no head; no lines when body is empty."""
    if not (head and body):
        return body
    return head + [f"    {line}" for line in body]


class _Basis:
    """The basis writer: functions of the state s."""

    params = "s"
    tail = "return s"

    def call(self, name) -> str:
        return f"s = {name}(s)"

    def entry(self, cm, cv, op, mask, step) -> list[str]:
        return _under([_cond(cm, cv)] if cm else [], _op(op, mask, step))


def _ripple(planes, up: bool) -> list[str]:
    """The loop rippling the carry (up) or the borrow k through the
    planes of these indices in turn until k is empty, as _planes does,
    dropping what leaves the top as the wrap does."""
    return [f"for i in {tuple(planes)}:", "    p = P[i]", "    P[i] = p ^ k",
            f"    k &= {'' if up else '~'}p", "    if not k:", "        break"]


class _Planes:
    """The planes writer: functions of the plane list P and the
    condition c0 of the terms; an entry's own condition is c1."""

    params = "P, c0"
    tail = "return"

    def __init__(self, order, qubits):
        self.index = {q: i for i, q in enumerate(order)}
        self.qubits = qubits

    def planes(self, mask) -> list[int]:
        return [self.index[q] for q in self.qubits[mask]]

    def call(self, name) -> str:
        return f"{name}(P, c0)"

    def entry(self, cm, cv, op, mask, step) -> list[str]:
        if not cm:
            return self.op(op, mask, step, "c0")
        terms = (["c0"] + [f"P[{i}]" for i in self.planes(cv)]
                 + [f"~P[{i}]" for i in self.planes(cm ^ cv)])
        return _under([f"c1 = {' & '.join(terms)}", "if c1:"], self.op(op, mask, step, "c1"))

    def op(self, op, mask, step, c) -> list[str]:
        """The lines of one entry's op under the condition variable c."""
        if op == _XOR:
            return [f"P[{i}] ^= {c}" for i in self.planes(mask)]
        if op == _ADD:
            # the condition is the carry into the field's lowest qubit
            return [f"k = {c}"] + _ripple(self.planes(mask), step > 0)
        if op == _RADD:
            # a full adder or subtractor per source qubit, anc's plane
            # the carry or the borrow in, then the carry's ripple on
            dm, sm, _, a = mask
            dst, src = self.planes(dm), self.planes(sm)
            # t = p ^ x: the carry out is k where t is set and x (= p)
            # where not, the borrow out x where t is set and k where not
            lines = [f"k = {c} & P[{self.index[a]}]"]
            carry = "x ^ (x ^ k) & t" if step > 0 else "k ^ (k ^ x) & t"
            for i, j in zip(dst, src):
                lines += [f"x = P[{j}] & {c}", f"t = P[{i}] ^ x", f"P[{i}] = t ^ k",
                          f"k = {carry}"]
            if len(dst) == len(src):  # no carry out: the field wraps
                return lines[:-1]
            return lines + _ripple(dst[len(src):], step > 0)
        a, b = self.planes(mask)  # _SWAP
        return [f"k = (P[{a}] ^ P[{b}]) & {c}", f"P[{a}] ^= k", f"P[{b}] ^= k"]


class _Kernel:
    """Compiles the functions of one kernel, written by one writer,
    into one namespace."""

    def __init__(self, writer):
        self.write = writer
        self.ns = {}
        self.defined = 0

    def define(self, lines: list[str]) -> str:
        """Compile lines as the body of a new function of the writer's
        parameters; its name."""
        name = f"_f{self.defined}"
        self.defined += 1
        src = "".join([f"def {name}({self.write.params}):\n"]
                      + [f"    {line}\n" for line in lines] + [f"    {self.write.tail}\n"])
        exec(compile(src, "<fbe kernel>", "exec"), self.ns)
        return name

    def calls(self, chunks: list[list[str]]) -> list[str]:
        """Each chunk compiled as a function, the calls in order; packed
        into functions again while they run past CHUNK_LINES."""
        call = self.write.call
        calls = [call(self.define(c)) for c in chunks]
        while len(calls) > CHUNK_LINES:
            calls = [call(self.define(calls[i:i + CHUNK_LINES]))
                     for i in range(0, len(calls), CHUNK_LINES)]
        return calls

    def body(self, prog) -> list[str]:
        """prog's entries as lines run in turn: those themselves while
        they fit in CHUNK_LINES, else cut between entries into functions
        and the calls to them."""
        chunks, lines = [], []
        for e in prog:
            stmt = self.write.entry(*e)
            if lines and len(lines) + len(stmt) > CHUNK_LINES:
                chunks.append(lines)
                lines = []
            lines += stmt
        if not chunks:
            return lines
        return self.calls(chunks + [lines] if lines else chunks)


def _compiled(writer, prog):
    k = _Kernel(writer)
    return k.ns[k.define(k.body(prog))]


def kernel(prog):
    """A compiled function of a basis state s that runs the h-free
    compiled program prog on it."""
    return _compiled(_Basis(), prog)


def planes(prog, order, qubits):
    """A compiled function of a plane list P, plane i being qubit
    order[i], and the condition c0 of the terms it runs, that does in
    place what _planes(prog, planes, c0, qubits) does; order holds every
    qubit the entries touch, and qubits maps a mask to its qubits,
    lowest first."""
    return _compiled(_Planes(order, qubits), prog)
