"""Translate a nested compiled program into Python source and compile it.

kernel(prog) returns a function of one basis state that does what
circuit._run(prog, s) does, without the interpreter loop: each entry is
written out as `if s & cm == cv:` and its op inline, a block as an
indented body, so a state pays for a few big-int operations per entry
and no tuple unpacking or op dispatch.  Circuit.simulate_basis runs
every state through it once the circuit holds its compiled program (see
circuit._COMPILE_AFTER).  The source holds only ints, formatted :#x, and
fixed text.

Compile's transient memory grows with the source it parses, so the
source is compiled in functions of at most CHUNK_LINES lines each:
a longer run of entries is cut between entries into functions called in
turn, and a block whose body would not fit, or would nest deeper than
MAX_DEPTH levels, becomes a call to the functions holding its body.
This module is loaded on the first generation, so a process whose
circuits never run that many states never compiles it.
"""

from __future__ import annotations

from .circuit import _ADD, _BLK, _RADD, _SWAP, _XOR, CircuitError

# source lines per compiled function: kernel() on cot clean reversed-sqrt
# at n=6 m=10 peaks at 15.2 MB traced as one function, at 1.9 MB in
# functions of at most 400 lines (Python 3.11)
CHUNK_LINES = 400
# indentation levels within one function; Python's tokenizer stops at 100
MAX_DEPTH = 40


def _op(op, mask, step) -> list[str]:
    """The lines of one non-block entry's op, as _run does it."""
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
    if op == _SWAP:
        return [f"v = s & {mask:#x}",
                f"if v and v != {mask:#x}:",
                f"    s ^= {mask:#x}"]
    # an h entry always fires, as in _run
    return ['raise CircuitError("h gate present, use simulate_sparse")']


def _cond(cm: int, cv: int) -> str:
    """The if line of condition s & cm == cv, cm nonzero."""
    if not cv:
        return f"if not s & {cm:#x}:"
    if cm == cv and not cm & (cm - 1):
        return f"if s & {cm:#x}:"
    return f"if s & {cm:#x} == {cv:#x}:"


class _Kernel:
    """Compiles the functions of one kernel into one namespace."""

    def __init__(self):
        self.ns = {"CircuitError": CircuitError}
        self.defined = 0

    def define(self, lines: list[str]) -> str:
        """Compile lines as the body of a new function of s; its name."""
        name = f"_f{self.defined}"
        self.defined += 1
        src = "".join([f"def {name}(s):\n"] + [f"    {line}\n" for line in lines]
                      + ["    return s\n"])
        exec(compile(src, "<fbe kernel>", "exec"), self.ns)
        return name

    def calls(self, chunks: list[list[str]]) -> list[str]:
        """Each chunk compiled as a function, the calls in order; packed
        into functions again while they run past CHUNK_LINES."""
        calls = [f"s = {self.define(c)}(s)" for c in chunks]
        while len(calls) > CHUNK_LINES:
            calls = [f"s = {self.define(calls[i:i + CHUNK_LINES])}(s)"
                     for i in range(0, len(calls), CHUNK_LINES)]
        return calls

    def body(self, prog) -> tuple[list[str], int]:
        """(lines, depth): prog's entries as at most CHUNK_LINES
        lines at indentation 0, nesting at most MAX_DEPTH levels."""
        chunks, lines, depth = [], [], 0
        for cm, cv, op, mask, step in prog:
            if op == _BLK:
                stmt, d = self.body(mask)
                if d >= MAX_DEPTH or len(stmt) >= CHUNK_LINES:
                    stmt, d = self.calls([stmt]), 0
            else:
                stmt = _op(op, mask, step)
                d = op == _SWAP
            if not stmt:
                continue
            if cm:
                stmt = [_cond(cm, cv)] + [f"    {line}" for line in stmt]
                d += 1
            if lines and len(lines) + len(stmt) > CHUNK_LINES:
                chunks.append(lines)
                lines, depth = [], 0
            lines += stmt
            depth = max(depth, d)
        if not chunks:
            return lines, depth
        return self.calls(chunks + [lines] if lines else chunks), 0


def kernel(prog):
    """A compiled function of a basis state s, equal to _run(prog, s)."""
    k = _Kernel()
    return k.ns[k.define(k.body(prog)[0])]
