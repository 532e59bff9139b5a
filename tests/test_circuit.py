"""Circuit IR: simulation against a naive reference, text round-trips."""

import copy
import hashlib
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from fbe import checks, circuit, codegen, ripple
from fbe.circuit import (
    _ADD,
    _BLK,
    _H,
    _RADD,
    _SWAP,
    _XOR,
    Circuit,
    CircuitError,
    Gate,
    Register,
    SimulationLimit,
    export_text,
    import_text,
    xgate,
)
from fbe.cli import main
from fbe.synth import SynthConfig, synthesize


def ref_apply(gate, s, n):
    # independent bit-list reference for the gate semantics
    bits = [(s >> i) & 1 for i in range(n)]
    for i, q in enumerate(gate.controls):
        want = 0 if (gate.neg_mask >> i) & 1 else 1
        if bits[q] != want:
            return s
    if gate.kind in ("x", "cx", "ccx", "mcx"):
        bits[gate.targets[0]] ^= 1
    elif gate.kind in ("swap", "cswap"):
        a, b = gate.targets
        bits[a], bits[b] = bits[b], bits[a]
    else:
        raise AssertionError("reference only handles permutation gates")
    return sum(b << i for i, b in enumerate(bits))


def random_circuit(rng, n, length, with_h=False):
    c = Circuit(n)
    for _ in range(length):
        kind = rng.choice(["x", "cx", "ccx", "mcx", "swap", "cswap"] + (["h"] if with_h else []))
        if kind == "h":
            c.add(Gate("h", (rng.randrange(n),)))
            continue
        need = {"x": 1, "cx": 2, "ccx": 3, "mcx": 4, "swap": 2, "cswap": 3}[kind]
        qs = rng.sample(range(n), need)
        if kind in ("swap", "cswap"):
            ctl = qs[:-2]
            g = Gate(kind, tuple(qs[-2:]), tuple(ctl), rng.randrange(1 << len(ctl)))
        else:
            ctl = qs[:-1]
            g = Gate(kind, (qs[-1],), tuple(ctl), rng.randrange(1 << len(ctl)))
        c.add(g)
    return c


def cascade(rng, bits, ctx, increment):
    """An increment (top target first) or decrement of bits under the
    (qubit, positive?) context ctx, cut to a partial run half the time."""
    gates = []
    for i, q in enumerate(bits):
        ctl = list(ctx) + [(b, True) for b in bits[:i]]
        rng.shuffle(ctl)
        gates.append(xgate(q, ctl))
    if increment:
        gates.reverse()
    if rng.random() < 0.5:
        a = rng.randrange(len(gates))
        gates = gates[a:rng.randrange(a, len(gates)) + 1]
    return gates


def fusable_circuit(rng, n, pieces, with_h=False):
    """Increment and decrement cascades and MAJ/UMA adders, forward and
    reversed, on contiguous and scattered qubits under mixed-polarity
    contexts, same-control runs with adjacent duplicates, and single
    gates (swap, cswap, h) between."""
    c = Circuit(n)
    for _ in range(pieces):
        piece = rng.choice(["cascade", "cascade", "run", "gate", "add"])
        w = rng.randrange(3 if piece == "add" else 1, n)
        if rng.random() < 0.5:
            lo = rng.randrange(n - w + 1)
            bits = list(range(lo, lo + w))
        else:
            bits = rng.sample(range(n), w)
        if piece == "add":
            # src and dst split bits, src the lower or the upper part
            ws = rng.randrange(1, w // 2 + 1)
            src, dst = ((bits[:ws], bits[ws:]) if rng.random() < 0.5
                        else (bits[-ws:], bits[:-ws]))
        rest = [q for q in range(n) if q not in bits]
        ctx = [(q, rng.random() < 0.5) for q in rng.sample(rest, rng.randrange(min(3, len(rest)) + 1))]
        if piece == "add":
            anc = rng.choice(rest)
            gates = add_under(rng, [k for k in ctx if k[0] != anc], src, dst, anc)
            c.extend(gates if rng.random() < 0.5 else gates[::-1])
        elif piece == "cascade":
            c.extend(cascade(rng, bits, ctx, rng.random() < 0.5))
        elif piece == "run":
            for q in bits:
                g = xgate(q, ctx)
                c.extend([g, g] if rng.random() < 0.4 else [g])
        else:
            c.extend(random_circuit(rng, n, 2, with_h).gates)
    return c


def add_under(rng, ctx, src, dst, anc):
    """add_into's MAJ/UMA ripple of src into dst under the (qubit,
    positive?) context ctx, the carry incrementing dst's high bits: the
    gates that write dst take the context, the others run bare (their
    controls shuffled with the context, then without it).  A context
    qubit is left off the gates that target it or hold it as a ladder
    control."""
    def flip(t, own, bare=False):
        ctl = own + [c for c in ctx if c[0] != t and c[0] not in dict(own)]
        rng.shuffle(ctl)
        return xgate(t, [c for c in ctl if c in own] if bare else ctl)

    gates = []
    chain = [anc] + src[:-1]
    for c, y, z in zip(chain, dst, src):
        gates += [flip(y, [(z, True)]), flip(c, [(z, True)], True),
                  flip(z, [(c, True), (y, True)], True)]
    high = dst[len(src):]
    for i in reversed(range(len(high))):
        gates.append(flip(high[i], [(src[-1], True)] + [(b, True) for b in high[:i]]))
    for c, y, z in reversed(list(zip(chain, dst, src))):
        gates += [flip(z, [(c, True), (y, True)], True), flip(c, [(z, True)], True),
                  flip(y, [(c, True)])]
    return gates


def context_circuit(rng, n, runs, with_h=False):
    """Runs of gates under one or two shared context controls of either
    polarity, as synthesis lays out a block under a digit: MAJ/UMA
    adders, increment and decrement cascades, swaps and cswaps under
    one context bit, now and then a sub-run under one more context bit,
    and uncontrolled swaps and h gates between runs."""
    c = Circuit(n)
    for _ in range(runs):
        ctx = [(q, rng.random() < 0.5) for q in rng.sample(range(n), rng.choice((1, 2)))]
        for _ in range(rng.randrange(2, 6)):
            inner = list(ctx)
            if rng.random() < 0.3:
                q = rng.choice([q for q in range(n) if q not in dict(ctx)])
                inner.append((q, rng.random() < 0.5))
            free = [q for q in range(n) if q not in dict(inner)]
            piece = rng.choice(["add", "add", "cascade", "cswap", "flip"])
            if piece == "add" and len(free) >= 4:
                w = rng.randrange(1, (len(free) - 1) // 2 + 1)
                qs = rng.sample(free, len(free))
                extra = rng.randrange(len(free) - 1 - 2 * w + 1)
                c.extend(add_under(rng, inner, qs[:w], qs[w:2 * w + extra], qs[-1]))
            elif piece == "cascade":
                lo = rng.randrange(len(free))
                bits = [q for q in free if q >= free[lo]][:rng.randrange(1, 5)]
                c.extend(cascade(rng, bits, inner, rng.random() < 0.5))
            elif piece == "cswap" and len(free) >= 2:
                (q, pos), (a, b) = rng.choice(inner), rng.sample(free, 2)
                c.add(Gate("cswap", (a, b), (q,), 0 if pos else 1))
            else:
                c.add(xgate(rng.choice(free), inner))
        if rng.random() < 0.2:
            c.add(Gate("swap", tuple(rng.sample(range(n), 2))))
        if with_h and rng.random() < 0.5:
            c.add(Gate("h", (rng.randrange(n),)))
    return c


def flatten(prog, cm0=0, cv0=0):
    """The entries of a nested program, each block's context ORed back
    into the conditions inside it."""
    for cm, cv, op, mask, step in prog:
        if op == _BLK:
            yield from flatten(mask, cm0 | cm, cv0 | cv)
        else:
            yield cm0 | cm, cv0 | cv, op, mask, step


def ref_sparse(c, s):
    # gate-by-gate sparse reference from a basis state or an amplitude
    # dict; h as in the textbook, no fusion
    amps = {s: 1.0 + 0j} if isinstance(s, int) else dict(s)
    for g in c.gates:
        if g.kind != "h":
            amps = {ref_apply(g, t, c.n_qubits): a for t, a in amps.items()}
            continue
        m = 1 << g.targets[0]
        nxt = {}
        for t, a in amps.items():
            w = a * 2 ** -0.5
            nxt[t & ~m] = nxt.get(t & ~m, 0j) + w
            nxt[t | m] = nxt.get(t | m, 0j) + (-w if t & m else w)
        amps = {t: a for t, a in nxt.items() if a != 0}
    return amps


def test_fused_program_matches_gate_by_gate():
    rng = random.Random(41)
    ops = set()
    for trial in range(24):
        n = rng.randrange(5, 8)
        c = fusable_circuit(rng, n, 14)
        for s in range(1 << n):
            want = s
            for g in c.gates:
                want = ref_apply(g, want, n)
            assert c.simulate_basis(s) == want, (trial, s)
            if s % 7 == 0:
                assert c.simulate_sparse(s) == {want: 1.0 + 0j}, (trial, s)
        # every state has run through the program, so from n = 6 on (74
        # states and terms or more) it holds the compiled one
        ops |= {(op, (step > 0) - (step < 0), op == _XOR and bin(mask).count("1") > 1)
                for _, _, op, mask, step in flatten(c._prepared(0))}
        hc = fusable_circuit(rng, n, 10, with_h=True)
        for s in rng.sample(range(1 << n), 4):
            got, want = hc.simulate_sparse(s), ref_sparse(hc, s)
            assert got.keys() == want.keys(), (trial, s)
            assert all(abs(got[k] - want[k]) < 1e-12 for k in want), (trial, s)
    # every kind of entry the fusion makes was exercised: increments,
    # decrements, register adds and subtracts, multi-target runs, single
    # flips, swaps
    assert {(_XOR, 0, True), (_XOR, 0, False), (_ADD, 1, False), (_ADD, -1, False),
            (_RADD, 1, False), (_RADD, -1, False), (_SWAP, 0, False)} <= ops


def test_sparse_permutes_amplitude_dicts():
    # every basis state at once, each with its own amplitude, so a term
    # that moved without its amplitude (or kept another's) shows
    rng = random.Random(43)
    for trial in range(12):
        n = rng.randrange(5, 8)
        start = {s: complex(s + 1, -s) for s in range(1 << n)}
        c = fusable_circuit(rng, n, 14)
        assert c.simulate_sparse(start) == ref_sparse(c, start), trial
        # h gates between permutation stretches, two of them adjacent
        hc = Circuit(n)
        for _ in range(3):
            hc.extend(fusable_circuit(rng, n, 5).gates)
            hc.add(Gate("h", (rng.randrange(n),)))
        hc.add(Gate("h", (rng.randrange(n),)))
        hc.extend(fusable_circuit(rng, n, 5).gates)
        assert [e[2] for e in hc._prepared(0)].count(_H) == 4
        sub = dict(rng.sample(sorted(start.items()), 5))
        got, want = hc.simulate_sparse(sub), ref_sparse(hc, sub)
        assert got.keys() == want.keys(), trial
        assert all(abs(got[k] - want[k]) < 1e-9 for k in want), trial


def shifted(gates, by):
    return [Gate(k, tuple(q + by for q in t), tuple(q + by for q in c), neg)
            for k, t, c, neg in gates]


def planes_kernels(prog, monkeypatch):
    """prog as generated planes code (codegen.planes), whole and cut into
    functions of at most 6 lines and 2 levels, so that runs of entries
    are split between functions and blocks hoisted into their own."""
    qs = circuit._Memo(circuit._qubits_of)
    order = qs[circuit._touched(prog)]
    whole = codegen.planes(prog, order, qs)
    with monkeypatch.context() as m:
        m.setattr(codegen, "CHUNK_LINES", 6)
        m.setattr(codegen, "MAX_DEPTH", 2)
        cut = codegen.planes(prog, order, qs)
    return whole, cut


def test_sparse_planes_match_term_by_term(monkeypatch):
    # many-term stretches run bit-sliced: 2, 12, 31, 64, 65 and 257
    # distinct terms, each with its own amplitude, on seeded circuits over
    # qubits 2..n+1 of n+5, so untouched qubits lie below and above; qubit
    # 2 is 0 and qubit n+1 is 1 in every term, the rest vary.  The
    # compiled program runs through _planes and as generated planes code
    rng = random.Random(53)
    n = 11
    ops = set()
    for size in (2, 12, 31, 64, 65, 257):
        for _ in range(2):
            c = Circuit(n + 5)
            c.extend(shifted(fusable_circuit(rng, n, 16).gates, 2))
            prog = c._prepared(0)
            nested = circuit._nest(prog)
            adders = circuit._nest(circuit._fuse_adders(c.gates))
            ops |= {(op, (step > 0) - (step < 0), bin(cm ^ cv).count("1") > 0)
                    for cm, cv, op, _, step in flatten(adders)}
            free = [q for q in range(n + 5) if q not in (2, n + 1)]
            keys = set()
            while len(keys) < size:
                keys.add(sum(1 << q for q in free if rng.random() < 0.5) | 1 << (n + 1))
            states = sorted(keys)
            start = {s: complex(i + 1, -2 * i) for i, s in enumerate(states)}
            want = [circuit._run(prog, s) for s in states]
            assert circuit._run_planes(prog, states) == want
            assert circuit._run_planes(nested, states) == want
            assert circuit._run_planes(adders, states) == want
            for run in planes_kernels(adders, monkeypatch):
                assert circuit._run_planes(adders, states, kernel=run) == want
            assert c.simulate_sparse(start) == ref_sparse(c, start), size
    # negative controls, swaps under them, increments, decrements,
    # register adds and subtracts
    assert {(_SWAP, 0, True), (_ADD, 1, True), (_ADD, -1, True), (_XOR, 0, True),
            (_RADD, 1, True), (_RADD, -1, True)} <= ops


def test_sparse_planes_wrap_fields(monkeypatch):
    # a field of all ones under +1 wraps to zero, one of all zeros under
    # -1 to all ones; the increment fires on q0 = 1, the decrement on q1 = 0,
    # through _planes and as generated planes code
    bits = [2, 3, 4, 5]
    c = Circuit(8)
    c.extend(reversed([xgate(bits[i], [(0, True)] + [(b, True) for b in bits[:i]])
                       for i in range(4)]))
    c.extend([xgate(bits[i], [(1, False)] + [(b, True) for b in bits[:i]])
              for i in range(4)])
    assert [(op, step, mask) for _, _, op, mask, step in c._prepared(0)] == [
        (_ADD, 4, 0b111100), (_ADD, -4, 0b111100)]
    start = {}
    for rest in range(16):
        other = (rest & 3) | (rest >> 2) << 6
        start[other | 0b111100] = complex(rest, 1)
        start[other] = complex(1, rest)
    got = c.simulate_sparse(start)
    assert got == ref_sparse(c, start)
    assert got[0b01] == start[0b111101]  # +1 wraps, -1 skipped
    assert got[0b111100] == start[0]  # +1 skipped, -1 wraps
    assert got[0b111110] == start[0b111110]  # -1 undoes the +1's wrap
    assert got[0b10] == start[0b10]  # neither fires
    states = list(start)
    want = [circuit._run(c._prepared(0), s) for s in states]
    for run in planes_kernels(c._prepared(0), monkeypatch):
        assert circuit._run_planes(c._prepared(0), states, kernel=run) == want


def test_sparse_planes_cancelled_targets(monkeypatch):
    # x x fuses to one entry that touches no qubit, for which planes code
    # is no code; under a control the entry is skipped whole
    c = Circuit(2)
    c.extend([Gate("x", (0,)), Gate("x", (0,))])
    assert c._prepared(0) == [(0, 0, _XOR, 0, 0)]
    assert c.simulate_sparse({0: 1 + 0j, 2: 0.5j}) == {0: 1 + 0j, 2: 0.5j}
    run = codegen.planes(c._prepared(0), [], circuit._Memo(circuit._qubits_of))
    assert run.__code__.co_code == (lambda P, c0: None).__code__.co_code
    under = [(2, 2, _XOR, 0, 0), (0, 0, _XOR, 4, 0)]
    states = list(range(16))
    # a program that touches no qubit passes the states through
    assert circuit._run_planes(c._prepared(0), states) == states
    for run in planes_kernels(under, monkeypatch):
        assert circuit._run_planes(under, states, kernel=run) == [s ^ 4 for s in states]


def test_sparse_stage_picks_the_kernel(monkeypatch):
    # an h between two stretches: the flat program runs each sparse
    # stretch through _run at any term count; the compiled one runs
    # bit-sliced at any term count, each stretch's first batch through
    # the interpreter _planes and every later one as generated planes
    # code, never through _run.  Calls of generated code count under the
    # generator's name, and every result equals the gate-by-gate reference
    rng = random.Random(59)
    n = 9
    c = Circuit(n)
    c.extend(fusable_circuit(rng, n, 8).gates)
    c.add(Gate("h", (0,)))
    c.extend(fusable_circuit(rng, n, 8).gates)
    calls = []

    def counted(name, f, generator=False):
        def g(*args):
            calls.append(name)
            out = f(*args)
            return counted(name, out) if generator else out
        return g

    for module, name in ((circuit, "_run"), (circuit, "_planes"),
                         (codegen, "kernel"), (codegen, "planes")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name),
                                                  module is codegen))

    def kernels(terms):
        calls.clear()
        start = {s: complex(i + 1, -i) for i, s in enumerate(rng.sample(range(1 << n), terms))}
        got, want = c.simulate_sparse(start), ref_sparse(c, start)
        assert got.keys() == want.keys(), terms
        assert all(abs(got[k] - want[k]) < 1e-12 for k in want), terms
        return set(calls)

    for terms in (1, 5, 40):
        assert kernels(terms) == {"_run"}, terms
    assert c._runs < circuit._COMPILE_AFTER <= c._runs + 65
    assert kernels(65) == {"_planes"}  # each stretch's first batch
    assert check_blocks(c._prepared(0)) >= 1
    for terms in (1, 5, 64):
        assert kernels(terms) == {"planes"}, terms


def check_blocks(prog, outm=0, outv=0):
    """Check the shape _nest promises, level by level, with conditions
    taken whole (every context around them ORed in): a block's context
    is the control bits its first two entries share outside the
    contexts around it, the entry after the block does not hold all of
    it, and no block holds h.  Returns the deepest nesting."""
    deepest = 0
    for k, e in enumerate(prog):
        if e[2] != _BLK:
            continue
        ctx, v, run = e[0], e[1], e[3]
        (am, av, *_), (bm, bv, *_) = list(flatten(run, outm | ctx, outv | v))[:2]
        assert ctx == am & bm & ~(av ^ bv) & ~outm and v == av & ctx
        assert _H not in [f[2] for f in flatten(run)]
        if k + 1 < len(prog):
            cm, cv = next(flatten(prog[k + 1:k + 2], outm, outv))[:2]
            assert not (cm & ctx == ctx and cv & ctx == v)
        deepest = max(deepest, 1 + check_blocks(run, outm | ctx, outv | v))
    return deepest


def test_nest_keeps_program_order_and_results():
    # runs under shared 1-2 bit contexts nest to depth 2 and more; the
    # blocks flatten back to the fused program, and on every basis state
    # the nested program as generated code, the flat one through _run and
    # the gate list agree
    rng = random.Random(61)
    depths = []
    for trial in range(16):
        n = rng.randrange(7, 10)
        c = context_circuit(rng, n, 10, with_h=trial % 2 == 1)
        flat = c._prepared(0)
        nested = circuit._nest(flat)
        assert list(flatten(nested)) == flat, trial
        assert len(nested) < len(flat)
        depths.append(check_blocks(nested))
        if trial % 2:
            # h entries stay at the top level, so sparse stretches split alike
            assert [e for e in nested if e[2] == _H] == [e for e in flat if e[2] == _H]
            for s in rng.sample(range(1 << n), 3):
                got, want = c.simulate_sparse(s), ref_sparse(c, s)
                assert got.keys() == want.keys(), (trial, s)
                assert all(abs(got[k] - want[k]) < 1e-12 for k in want), (trial, s)
            continue
        run = codegen.kernel(nested)
        for s in range(1 << n):
            want = s
            for g in c.gates:
                want = ref_apply(g, want, n)
            assert run(s) == circuit._run(flat, s) == want, (trial, s)
    assert max(depths) >= 2 and min(depths) >= 1


def test_nested_planes_match_flat():
    # 2, 64 and 257 terms bit-sliced through nested and flat programs
    rng = random.Random(67)
    n = 10
    for size in (2, 64, 257):
        for _ in range(3):
            c = context_circuit(rng, n, 12)
            flat = c._prepared(0)
            nested = circuit._nest(flat)
            states = rng.sample(range(1 << n), size)
            want = [circuit._run(flat, s) for s in states]
            assert circuit._run_planes(nested, states) == want, size
            assert circuit._run_planes(flat, states) == want, size


def ripple_layout(rng, w, wd, ctx_pos, gap=False):
    """Qubits for add_under, laid out in a shuffled order: src (w) and
    dst (wd) as ascending blocks, anc and one context qubit per entry of
    ctx_pos, positive or not, so either block may lie lowest and anc or
    the context between them.  With gap, an idle qubit splits dst above
    its qubit w - 1.  Returns (src, dst, anc, ctx, qubit count)."""
    order = ["src", "dst", "anc"] + list(ctx_pos)
    rng.shuffle(order)
    q, ctx = 0, []
    for item in order:
        if item == "src":
            src, q = list(range(q, q + w)), q + w
        elif item == "dst":
            dst = list(range(q, q + wd + gap))
            if gap:
                del dst[rng.randrange(w, wd)]
            q += wd + gap
        elif item == "anc":
            anc, q = q, q + 1
        else:
            ctx, q = ctx + [(q, item)], q + 1
    return src, dst, anc, ctx, q


def gate_by_gate(gates, n):
    out = []
    for s in range(1 << n):
        for g in gates:
            s = ref_apply(g, s, n)
        out.append(s)
    return out


def adder_program_runs(gates, n):
    """Every basis state through the adder-fused program, flat (generated
    code) and nested (generated code and _run_planes), and through
    simulate_sparse, each against the gate list applied gate by gate;
    returns the flat program."""
    want = gate_by_gate(gates, n)
    c = Circuit(n)
    c.extend(gates)
    flat = circuit._fuse_adders(c.gates)
    nested = circuit._nest(flat)
    states = list(range(1 << n))
    assert list(map(codegen.kernel(flat), states)) == want
    assert list(map(codegen.kernel(nested), states)) == want
    assert circuit._run_planes(nested, states) == want
    start = {s: complex(s + 1, -s) for s in states}
    assert c.simulate_sparse(start) == {t: start[s] for s, t in zip(states, want)}
    if len(states) >= circuit._COMPILE_AFTER:  # the sparse run built it
        assert c._prepared(0) == nested
    return flat


def test_register_add_matches_gate_by_gate():
    # add_into's ripple, forward and reversed, src 1-4 qubits, dst w to
    # w + 3, under 0-2 context controls of either polarity, on every
    # basis state (at most 2^13): one register-add entry, as the gates
    rng = random.Random(83)
    for w in range(1, 5):
        for extra in range(4):
            ctx_pos = [(w + extra + i) % 2 == 0 for i in range((w + extra) % 3)]
            src, dst, anc, ctx, n = ripple_layout(rng, w, w + extra, ctx_pos)
            gates = add_under(rng, ctx, src, dst, anc)
            for sign, order in ((1, gates), (-1, gates[::-1])):
                flat = adder_program_runs(order, n)
                assert [(op, step) for _, _, op, _, step in flat] == [
                    (_RADD, sign << dst[0])], (w, extra, sign)


def test_register_add_near_misses_stay_gate_by_gate():
    # an add with one ladder gate dropped, one ladder control's polarity
    # flipped, a dst with a gap, a context that holds a dst qubit or a
    # carry-in that is one is no add: no register-add entry, and every
    # state as the gates.  Each mutation lies in the last MAJ/UMA stage,
    # the carry's cascade or dst's upper part, which every shorter add
    # inside the ladder (its stages k..w-1 with src[k-1] as the carry
    # in) shares, or in a ladder of one stage.  The cascade's top gate
    # is never dropped: without it the gates add into a dst one qubit
    # narrower, an add still.  A context on dst[w-1] has a cascade to
    # lie in: with dst as wide as src, the last stage's gates would
    # carry no context at all, a plain add of one stage still
    rng = random.Random(89)
    for trial in range(30):
        miss = ("drop", "polarity", "gap", "context", "carry")[trial % 5]
        w = 1 if miss == "carry" else rng.randrange(1, 4)
        wd = w + rng.randrange(miss in ("gap", "context", "carry"), 3)
        ctx_pos = [rng.random() < 0.5 for _ in range(rng.randrange(2))]
        src, dst, anc, ctx, n = ripple_layout(rng, w, wd, ctx_pos, gap=miss == "gap")
        if miss == "context":
            ctx = ctx + [(rng.choice(dst[w - 1:]), rng.random() < 0.5)]
        elif miss == "carry":
            anc = rng.choice(dst[1:])
        gates = add_under(rng, ctx, src, dst, anc)
        # the last MAJ stage, the cascade and the last UMA stage
        last = rng.choice([i for i in range(3 * w - 3, 3 * w + 3 + wd - w)
                           if i != 3 * w or wd == w])
        if miss == "drop":
            del gates[last]
        elif miss == "polarity":
            kind, targets, controls, neg = g = gates[last]
            i = rng.choice([i for i, q in enumerate(controls) if q not in dict(ctx)])
            gates[last] = Gate(kind, targets, controls, neg ^ 1 << i)
        for order in (gates, gates[::-1]):
            flat = adder_program_runs(order, n)
            assert _RADD not in [e[2] for e in flat], (trial, miss)


def test_register_add_scan_names_no_gates_the_list_lacks(monkeypatch):
    # a first MAJ stage, then X gates down from qubit 2,001 to 2 under
    # the carry alone: targets of an increment of dst[1:], but without
    # its widening controls, so the candidate is refused before ladder
    # names 2,000 gates of up to 2,001 controls each
    def named(*args):
        raise AssertionError(f"ladder{args[2:]}")

    monkeypatch.setattr(ripple, "ladder", named)
    gates = [xgate(1, [(0, True)]), xgate(2002, [(0, True)]), xgate(0, [(2002, True), (1, True)])]
    gates += [xgate(q, [(0, True)]) for q in range(2001, 1, -1)]
    c = Circuit(2003)
    c.extend(gates)
    assert _RADD not in [e[2] for e in circuit._fuse_adders(c.gates)]


def test_nest_contexts_polarity_and_rejoin():
    # one context qubit of opposite polarity shares nothing; a run goes
    # on under its first two entries' context and ends at the first
    # entry without all of it
    a, b, t, u = 1, 2, 4, 8
    flat = [(a | b, a | b, _XOR, t, 0), (a | b, a | b, _XOR, u, 0),
            (a, a, _XOR, t, 0), (a, a, _XOR, u, 0),
            (a, 0, _XOR, t, 0), (a | b, b, _XOR, u, 0)]
    assert circuit._nest(flat) == [
        (a | b, a | b, _BLK, [(0, 0, _XOR, t, 0), (0, 0, _XOR, u, 0)], 0),
        (a, a, _BLK, [(0, 0, _XOR, t, 0), (0, 0, _XOR, u, 0)], 0),
        (a, 0, _BLK, [(0, 0, _XOR, t, 0), (b, b, _XOR, u, 0)], 0)]
    assert circuit._nest([flat[0], (a | b, 0, _XOR, u, 0)]) == [
        flat[0], (a | b, 0, _XOR, u, 0)]


def test_circuit_nests_at_the_threshold():
    # the program runs flat until _COMPILE_AFTER states or terms have
    # gone through it since the last change; the run that reaches it
    # builds _nest(_fuse_adders(gates)) in its place, which basis runs
    # call as generated code from then on; add drops both and the count
    rng = random.Random(71)
    n = 8
    c = context_circuit(rng, n, 8)
    g = xgate(0, [(1, True)])
    for added in (False, True):
        flat = c._prepared(0)
        assert check_blocks(flat) == 0
        for s in range(circuit._COMPILE_AFTER - 1):
            assert c.simulate_basis(s) == circuit._run(flat, s)
            assert c._prepared(0) is flat and c._generated is None
        c.simulate_basis(s + 1)
        nested = c._prepared(0)
        assert nested == circuit._nest(circuit._fuse_adders(c.gates))
        assert check_blocks(nested) >= 1
        generated = c._generated
        assert generated is not None
        assert all(c.simulate_basis(s) == circuit._run(flat, s) for s in range(1 << n))
        assert c._prepared(0) is nested and c._generated is generated
        if not added:
            c.add(g)
            assert c._program is c._generated is None and c._runs == 0
            assert c._prepared(0) == flat + [(2, 2, _XOR, 1, 0)]
    # sparse runs count terms: _COMPILE_AFTER - 1 of them stay flat, the
    # next run builds the compiled program, and no sparse run generates
    # code, however many terms it brings
    d = Circuit(n)
    d.extend(c.gates)
    start = {s: 1.0 + 0j for s in range(circuit._COMPILE_AFTER - 1)}
    assert d.simulate_sparse(start) == ref_sparse(d, start)
    assert check_blocks(d._prepared(0)) == 0
    assert d.simulate_sparse(3) == ref_sparse(d, 3)
    assert d._prepared(0) == circuit._nest(circuit._fuse_adders(d.gates))
    start = {s: 1.0 + 0j for s in range(1 << n)}
    assert d.simulate_sparse(start) == ref_sparse(d, start)
    assert d._generated is None
    d.add(g)
    assert d._program is None and d._runs == 0
    e = Circuit(n)
    e.extend(d.gates)
    assert d.simulate_sparse(3) == e.simulate_sparse(3) == ref_sparse(e, 3)


def test_first_run_past_the_threshold_fuses_no_flat_program(monkeypatch):
    # a first sparse run of _COMPILE_AFTER terms or more builds the
    # compiled program straight away: _fuse sees only the gates between
    # its register adds, never the whole list (exp at n = 6: the steps
    # past the digit tables have register adds)
    c = synthesize(SynthConfig("exp", 6, 6)).circuit
    start = {s: complex(s, 1) for s in range(128)}
    want = {}
    for s, a in start.items():
        t = s
        for gate in c.gates:
            t = ref_apply(gate, t, c.n_qubits)
        want[t] = a
    fused = []
    fuse = circuit._fuse

    def counted(gates, *rest):
        fused.append(len(gates))
        return fuse(gates, *rest)

    monkeypatch.setattr(circuit, "_fuse", counted)
    assert c.simulate_sparse(start) == want
    assert fused and len(c.gates) not in fused
    assert len(start) >= circuit._COMPILE_AFTER
    assert _RADD in [e[2] for e in flatten(c._prepared(0))]


def generated_cases(rng):
    """Seeded fusable circuits and context circuits, forward and
    inverted: their gates, qubit count and every basis state through the
    gate list, gate by gate."""
    for trial in range(12):
        n = rng.randrange(6, 9)
        c = fusable_circuit(rng, n, 14) if trial % 3 == 0 else context_circuit(rng, n, 8)
        if trial % 3 == 2:
            c = c.inverse()
        yield c.gates, n, gate_by_gate(c.gates, n)


def test_generated_kernel_matches_gate_by_gate(monkeypatch):
    # the nested register-add program as generated code, basis and
    # planes, equals _planes on it and the gate list on every basis
    # state, whole and cut into functions of at most 6 lines and 2
    # levels, so that runs of entries are split between functions and
    # blocks hoisted into their own
    rng = random.Random(97)
    ops, negs, functions = set(), set(), []
    for gates, n, want in generated_cases(rng):
        nested = circuit._nest(circuit._fuse_adders(gates))
        states = list(range(1 << n))
        assert circuit._run_planes(nested, states) == want
        whole = codegen.kernel(nested)
        with monkeypatch.context() as m:
            m.setattr(codegen, "CHUNK_LINES", 6)
            m.setattr(codegen, "MAX_DEPTH", 2)
            cut = codegen.kernel(nested)
        for run in (whole, cut):
            assert list(map(run, states)) == want
        sliced = planes_kernels(nested, monkeypatch)
        for run in sliced:
            assert circuit._run_planes(nested, states, kernel=run) == want
        ops |= {(op, (step > 0) - (step < 0), cm != 0)
                for cm, cv, op, _, step in flatten(nested)}
        negs |= {op for cm, cv, op, _, _ in flatten(nested) if cm != cv}
        # each function's source: its def line, at most 6 lines of body
        # and its return line; a planes entry may alone run longer (a
        # register add writes 4 lines per source qubit)
        qs = circuit._Memo(circuit._qubits_of)
        write = codegen._Planes(qs[circuit._touched(nested)], qs)
        longest = max(len(write.cond(cm, cv, 0)[0] + write.op(op, mask, step, 1)[0])
                      for cm, cv, op, mask, step in flatten(nested))
        for (whole, cut), most in (((whole, cut), 6), (sliced, max(6, longest))):
            assert sum(k.startswith("_f") for k in whole.__globals__) == 1
            defined = [f for k, f in cut.__globals__.items() if k.startswith("_f")]
            functions.append(len(defined))
            assert all(max(line for *_, line in f.__code__.co_lines() if line) <= most + 2
                       for f in defined)
    # swaps and cswaps, +-1 cascades, register adds and subtracts, each
    # under a condition, and negative controls on each kind
    assert {(_XOR, 0, True), (_SWAP, 0, False), (_SWAP, 0, True), (_ADD, 1, True),
            (_ADD, -1, True), (_RADD, 1, True), (_RADD, -1, True)} <= ops
    assert {_XOR, _SWAP, _ADD, _RADD} <= negs
    assert min(functions) > 1


def test_generated_kernel_nests_deep(monkeypatch):
    # a staircase of gate pairs under controls {0}, {0, 1}, .. {0..129}
    # nests 129 blocks deep, past the 100 indentation levels Python
    # reads: the generated code, basis and planes, calls functions for
    # the deep blocks.  Pair k flips qubits 130 and 131 when qubits 0..k
    # are all set, so a state's pairs fire as often as its low 130 qubits
    # have trailing ones
    n = 132

    def by_gates(s):
        low = s & (1 << 130) - 1
        return s ^ ((low ^ low + 1).bit_length() - 1 & 1) * (3 << 130)

    c = Circuit(n)
    for k in range(130):
        ctl = [(q, True) for q in range(k + 1)]
        c.extend([xgate(130, ctl), xgate(131, ctl)])
    nested = circuit._nest(circuit._fuse_adders(c.gates))
    assert check_blocks(nested) >= 129
    run = codegen.kernel(nested)
    rng = random.Random(101)
    for j in range(n):
        s = (1 << j) - 1 | rng.randrange(4) << 130 if j < 130 else rng.randrange(1 << n)
        assert run(s) == circuit._run(c._prepared(0), s) == by_gates(s), j
    states = sorted({(1 << j) - 1 | rng.randrange(4) << 130 for j in range(131)})
    want = list(map(by_gates, states))
    for run in planes_kernels(nested, monkeypatch):
        assert circuit._run_planes(nested, states, kernel=run) == want


def test_generated_kernel_refuses_h(monkeypatch):
    # simulate_basis refuses a circuit with an h gate before it runs or
    # generates anything, with one message on both sides of
    # _COMPILE_AFTER: no state reaches _run and no kernel is generated,
    # while its sparse runs split at the h as the gate list does
    rng = random.Random(103)
    c = context_circuit(rng, 7, 6)
    c.add(Gate("h", (3,)))
    c.extend(context_circuit(rng, 7, 2).gates)
    ran = []
    run, kernel = circuit._run, codegen.kernel
    monkeypatch.setattr(circuit, "_run", lambda prog, s: ran.append(s) or run(prog, s))
    monkeypatch.setattr(codegen, "kernel", lambda prog: ran.append(prog) or kernel(prog))
    message = "^h gate present, use simulate_sparse$"
    for s in range(circuit._COMPILE_AFTER + 1):
        with pytest.raises(CircuitError, match=message):
            c.simulate_basis(s % 128)
    assert c._prepared(0) == circuit._nest(circuit._fuse_adders(c.gates))
    assert not ran and c._generated is None
    for s in (0, 5):
        got, want = c.simulate_sparse(s), ref_sparse(c, s)
        assert got.keys() == want.keys(), s
        assert all(abs(got[k] - want[k]) < 1e-12 for k in want), s


def test_assigned_gates_drop_the_compiled_program():
    # assigning circuit.gates drops the compiled program and the run
    # count, as add does: arccot (4, 8) run once through every input,
    # then five gates short, runs the new list, as a fresh circuit with
    # that list does, not the held program of the old one
    sc = synthesize(SynthConfig("arccot", 4, 8))
    assert checks.exhaustive(sc) == (0, 0, True, None)
    assert sc.circuit._program is not None and sc.circuit._runs > 0
    sc.circuit.gates = sc.circuit.gates[:-5]
    assert sc.circuit._program is sc.circuit._generated is None and sc.circuit._runs == 0
    fresh = synthesize(SynthConfig("arccot", 4, 8))
    fresh.circuit.gates = fresh.circuit.gates[:-5]
    assert checks.exhaustive(sc) == checks.exhaustive(fresh)
    assert checks.exhaustive(fresh)[:3] == (129, 0, True)


def test_lazy_modules_wait_for_the_compiled_program():
    # in a fresh interpreter, neither import fbe nor basis and sparse
    # runs that stay below _COMPILE_AFTER, which run term by term
    # however many terms they hold, load codegen or ripple; the run that
    # reaches it loads both, and its sparse terms run bit-sliced
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = """if True:
        import sys
        import fbe
        from fbe import circuit
        from fbe.circuit import Circuit, Gate

        lazy = {"fbe.codegen", "fbe.ripple"}
        assert not lazy & set(sys.modules), "import"
        sliced = []
        run_planes = circuit._run_planes
        circuit._run_planes = lambda *a: sliced.append(len(a[1])) or run_planes(*a)
        c = Circuit(6)
        c.extend([Gate("cx", (1,), (0,)), Gate("ccx", (3,), (1, 2)), Gate("h", (4,)),
                  Gate("cswap", (2, 5), (4,))])
        d = Circuit(6)
        d.extend(c.gates[:2])
        below = circuit._COMPILE_AFTER - 1
        for s in range(below):
            d.simulate_basis(s)
        c.simulate_sparse({s: 1.0 + 0j for s in range(below)})
        assert not sliced and not lazy & set(sys.modules), "runs"
        d.simulate_basis(0)
        c.simulate_sparse(0)
        assert lazy <= set(sys.modules), "compiled"
        assert sliced == [1, 2], sliced
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_sparse_split_once_per_program(monkeypatch):
    # the stretches between h entries are cut on the first sparse run of
    # a program, flat or nested, and reused by later runs.  The flat
    # program runs term by term, so it needs neither touched masks nor
    # planes code; on the compiled one a stretch's touched mask is walked
    # for once, on its first bit-sliced run, and its planes code generated
    # once, on its second; all are dropped with the program
    rng = random.Random(73)
    n = 8
    c = context_circuit(rng, n, 6, with_h=True)
    c.add(Gate("h", (1,)))
    c.add(Gate("h", (2,)))  # an empty stretch between two h entries
    walks, builds = [], []
    touched = circuit._touched
    planes = codegen.planes

    def counted(prog):
        walks.append(len(prog))
        return touched(prog)

    def built(prog, *rest):
        builds.append(prog)
        return planes(prog, *rest)

    monkeypatch.setattr(circuit, "_touched", counted)
    monkeypatch.setattr(codegen, "planes", built)

    def walked(start):
        # whether this sparse run walked the program for touched masks
        before = len(walks)
        assert c.simulate_sparse(start) == ref_sparse(c, start)
        return len(walks) > before

    def check_split(prog):
        split = c._stretches
        assert len(split) == sum(e[2] == _H for e in prog) + 1
        rebuilt = []
        for stretch, mask, kernel, h in split:
            assert mask in (None, touched(stretch))
            assert _H not in [e[2] for e in stretch]
            rebuilt += stretch + ([(0, 0, _H, h, 0)] if h else [])
        assert rebuilt == prog and split[-1][3] == 0
        return split

    assert not walked(0)  # one term a run: no touched mask needed
    split = check_split(c._prepared(0))
    assert all(t is None and k is None for _, t, k, _ in split)
    assert not walked(1) and c._stretches is split
    # the flat program's stretches run term by term at any term count
    assert not walked({s: 1.0 + 0j for s in range(40)}) and c._stretches is split
    assert not builds and all(t is None and k is None for _, t, k, _ in split)
    start = {s: 1.0 + 0j for s in range(circuit._COMPILE_AFTER)}
    assert walked(start)  # the compiled program gets its own split
    assert check_blocks(c._prepared(0)) >= 1
    split = check_split(c._prepared(0))
    assert all(t is not None for st, t, _, _ in split if st)
    # the first bit-sliced run goes through _planes, with no code yet
    assert not builds and all(k is None for _, _, k, _ in split)
    # every non-empty stretch gets its code on its second run, once
    assert not walked(start) and c._stretches is split
    kernels = [k for st, _, k, _ in split if st]
    assert None not in kernels and builds == [st for st, *_ in split if st]
    assert not walked(start) and c._stretches is split
    assert [k for st, _, k, _ in split if st] == kernels and len(builds) == len(kernels)
    c.add(Gate("x", (0,)))
    assert c._program is c._stretches is None
    assert not walked(5)
    assert all(k is None for _, _, k, _ in check_split(c._prepared(0)))


def test_sparse_edge_behaviour():
    c = Circuit(3)
    c.add(Gate("x", (1,)))
    c.add(Gate("swap", (0, 2)))
    # a zero amplitude survives a program without h
    assert c.simulate_sparse({0: 0j, 1: 1 + 0j}) == {2: 0j, 6: 1 + 0j}
    # a start already past the cap is refused by a non-empty program,
    # while an empty one returns it as given
    wide = {s: 0.5 + 0j for s in range(8)}
    with pytest.raises(SimulationLimit):
        c.simulate_sparse(wide, cap=4)
    assert Circuit(3).simulate_sparse(wide, cap=4) == wide
    # h x h: the terms that cancel to zero are dropped
    hh = Circuit(2)
    hh.extend([Gate("h", (0,)), Gate("x", (1,)), Gate("h", (0,))])
    amps = hh.simulate_sparse({0: 1 + 0j, 1: 0j})
    assert set(amps) == {2} and abs(amps[2] - 1) < 1e-12


def test_fused_program_is_smaller():
    c = synthesize(SynthConfig("cot", n=6, m=10, policy="clean")).circuit
    # exact pins of the gate count and of the flat program's entries
    assert len(c.gates) == 2687
    assert len(c._prepared(0)) == 1996


def test_gate_validation():
    with pytest.raises(CircuitError):
        Gate("cx", (1,), ())
    with pytest.raises(CircuitError):
        Gate("x", (1,), (1,))
    with pytest.raises(CircuitError):
        Gate("swap", (1, 1))
    with pytest.raises(CircuitError):
        Gate("mcx", (0,), (1, 2))  # needs >= 3 controls
    with pytest.raises(CircuitError):
        Gate("cx", (0,), (1,), neg_mask=2)
    with pytest.raises(CircuitError, match=r"^qubit 5 outside 0\.\.2$"):
        Circuit(3).add(Gate("cx", (5,), (0,)))
    # copy and pickle rebuild the record through __getnewargs__
    g = Gate("ccx", (2,), (0, 1), 1)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(twin) is Gate and twin == g


def test_xgate_helper():
    g = xgate(5, [(1, True), (2, False)])
    assert g.kind == "ccx" and g.controls == (1, 2) and g.neg_mask == 2


def test_basis_sim_matches_reference_exhaustive():
    rng = random.Random(13)
    for trial in range(20):
        n = rng.randrange(4, 7)
        c = random_circuit(rng, n, 60)
        for s in range(1 << n):
            want = s
            for g in c.gates:
                want = ref_apply(g, want, n)
            assert c.simulate_basis(s) == want, trial


def test_inverse_is_identity():
    rng = random.Random(17)
    c = random_circuit(rng, 6, 200)
    inv = c.inverse()
    for s in range(64):
        assert inv.simulate_basis(c.simulate_basis(s)) == s


def test_negative_controls():
    c = Circuit(2)
    c.add(Gate("cx", (1,), (0,), neg_mask=1))  # fires when q0 = 0
    assert c.simulate_basis(0b00) == 0b10
    assert c.simulate_basis(0b01) == 0b01


def test_register_extract_insert():
    r = Register("A", "input", 2, 4, 2, 2, signed=True)
    s = r.insert(0, 0b1011)
    assert s == 0b1011 << 2
    assert r.extract(s) == 0b1011
    assert r.bits == (2, 3, 4, 5)


def test_register_validation():
    with pytest.raises(CircuitError):
        Register("A", "junk", 0, 4, 2, 2)
    with pytest.raises(CircuitError):
        Register("A", "input", 0, 4, 2, 1)
    c = Circuit(3)
    with pytest.raises(CircuitError):
        c.add_register(Register("A", "input", 0, 4, 2, 2))
    for start, size in ((0, 0), (-1, 4)):
        with pytest.raises(CircuitError, match="^A: bad span$"):
            Register("A", "input", start, size, size, 0)


@pytest.mark.parametrize("name", ["A B", "A#1", "", "A\nx q[0]"],
                         ids=["space", "hash", "empty", "newline"])
def test_register_names_the_text_cannot_read_are_refused(name):
    # each of these once exported as text that import_text refused
    with pytest.raises(CircuitError, match=r"^bad register name '"):
        Register(name, "input", 0, 2, 1, 1)
    c = Circuit(2)
    c.add_register(Register("A_1", "input", 0, 2, 1, 1))
    assert import_text(export_text(c)).registers == c.registers


def test_export_import_roundtrip():
    rng = random.Random(23)
    c = random_circuit(rng, 8, 120)
    c.add_register(Register("RegI0", "input", 0, 4, 2, 2, signed=True))
    c.add_register(Register("Anc", "ancilla-clean", 4, 4, 0, 4))
    text = export_text(c)
    c2 = import_text(text)
    assert c2.n_qubits == c.n_qubits
    assert c2.gates == c.gates
    assert c2.registers == c.registers
    assert export_text(c2) == text  # byte stable


def test_import_error_lines():
    with pytest.raises(CircuitError, match="line 2"):
        import_text("qubits 4\nfrob q[1]\n")
    with pytest.raises(CircuitError, match="line 3"):
        import_text("qubits 4\nx q[0]\ncx q[9],q[1]\n")
    with pytest.raises(CircuitError, match="line 1"):
        import_text("x q[0]\n")
    with pytest.raises(CircuitError, match="line 2"):
        import_text("qubits 4\ncx q[0],!q[1]\n")
    with pytest.raises(CircuitError, match="line 1"):
        import_text("qubits 0\n")
    with pytest.raises(CircuitError, match="line 1"):
        import_text("qubits \u00b2\n")  # isdigit() but not int()
    # the header is capped, and a huge one is refused before int() sees it
    with pytest.raises(CircuitError, match="^line 2: more than 1048576 qubits"):
        import_text("# big\nqubits 10000000000\nx q[9999999999]\n")
    with pytest.raises(CircuitError, match="^line 1: more than 1048576 qubits"):
        import_text("qubits " + "9" * 5000 + "\n")
    assert import_text("qubits 0001048576\n").n_qubits == 1 << 20
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(CircuitError, match="^empty circuit text$"):
            import_text(text)
    with pytest.raises(CircuitError, match="^line 2: bad register span$"):
        import_text("qubits 4\nreg A input 0-3 int_bits 4 frac_bits 0\n")


# int() alone reads each of these as a number
NOT_ASCII_DIGITS = [
    ("qubits 12\nx q[1_0]\n", r"^line 2: bad qubit index in 'q\[1_0\]'"),
    ("qubits 12\nx q[+3]\n", r"^line 2: bad qubit index in 'q\[\+3\]'"),
    ("qubits 12\nx q[\u0664]\n", "^line 2: bad qubit index in 'q\\[\u0664\\]'"),
    ("qubits \u0661\u0660\nx q[0]\n", "^line 1: bad qubits header"),
]


@pytest.mark.parametrize("text, message", NOT_ASCII_DIGITS,
                         ids=["underscore", "plus", "arabic-indic-index", "arabic-indic-header"])
def test_import_reads_ascii_digits_only(text, message):
    with pytest.raises(CircuitError, match=message):
        import_text(text)
    # register numbers go through the same reader
    with pytest.raises(CircuitError, match="^line 2: bad register numbers"):
        import_text("qubits 12\nreg A input 1_0..11 int_bits 2 frac_bits 0\n")


def test_import_skips_comments():
    c = import_text("# header\nqubits 2\n\nx q[0]  # flip\n")
    assert len(c.gates) == 1


def test_import_operand_memo_keeps_checks():
    # a token that failed to parse is not remembered: its first line is named
    with pytest.raises(CircuitError, match=r"^line 3: bad qubit index in 'q\[x\]'"):
        import_text("qubits 4\nx q[0]\ncx q[x],q[1]\ncx q[x],q[2]\n")
    c = import_text("qubits 5\ncx q[3],q[0]\ncx !q[3],q[1]\ncx q[3],q[2]\n")
    assert [g.neg_mask for g in c.gates] == [0, 1, 0]
    assert c.simulate_basis(0b00000) == 0b00010
    assert c.simulate_basis(0b01000) == 0b01101
    # remembered tokens still meet the gate and range checks
    with pytest.raises(CircuitError, match="^line 3: cx reuses a qubit"):
        import_text("qubits 2\ncx q[0],q[1]\ncx q[1],q[1]\n")
    with pytest.raises(CircuitError, match=r"^line 3: qubit 9 outside 0\.\.1"):
        import_text("qubits 2\ncx q[0],q[1]\ncx q[0],q[9]\n")


def test_import_memo_matches_line_by_line():
    c = synthesize(SynthConfig("cos", n=2, m=5, policy="clean")).circuit
    lines = export_text(c).splitlines()
    head = 1 + len(c.registers)
    got = import_text("\n".join(lines)).gates
    assert got == c.gates and len(set(lines[head:])) < len(got)
    for line, g in zip(lines[head:], got):
        assert import_text(f"{lines[0]}\n{line}\n").gates == [g]
    # a bad line met twice is reported where it first appears
    bad = "cx q[0],q[99]"
    text = "\n".join(lines[:head + 3] + [bad] + lines[head + 3:] + [bad])
    with pytest.raises(CircuitError, match=f"^line {head + 4}: qubit 99 outside"):
        import_text(text)


def test_export_memo_matches_per_gate():
    # cos at n = 6, whose steps past the digit tables uncompute under
    # clean, so gate objects repeat
    c = synthesize(SynthConfig("cos", n=6, m=5, policy="clean")).circuit
    assert len({id(g) for g in c.gates}) < len(c.gates)
    assert any(g.neg_mask for g in c.gates)
    want = [f"qubits {c.n_qubits}"] + export_text(c).splitlines()[1:1 + len(c.registers)]
    for g in c.gates:
        one = Circuit(c.n_qubits)
        one.add(g)
        want += export_text(one).splitlines()[1:]
    assert export_text(c) == "\n".join(want) + "\n"


FUZZ_CHARS = "!,[]0123456789 "


def mutate(rng, lines, head):
    """Up to three edits: delete or insert a character of FUZZ_CHARS,
    duplicate a line or swap two; a quarter of them hit the header and
    register lines."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(head) if rng.random() < 0.25 else rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            spots = [j for j, ch in enumerate(lines[i]) if ch in FUZZ_CHARS]
            if spots:
                j = rng.choice(spots)
                lines[i] = lines[i][:j] + lines[i][j + 1:]
        elif op == 1:
            j = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:j] + rng.choice(FUZZ_CHARS) + lines[i][j:]
        elif op == 2:
            lines.insert(i, lines[i])
        else:
            k = rng.randrange(len(lines))
            lines[i], lines[k] = lines[k], lines[i]
    return lines


def test_import_fuzz_names_first_bad_line(capsys, tmp_path):
    c = synthesize(SynthConfig("log", n=2, m=5, policy="clean")).circuit
    lines = export_text(c).splitlines()
    rng = random.Random("import_text/fuzz")
    rejected = []
    for _ in range(300):
        mutant = mutate(rng, lines, 1 + len(c.registers))
        try:
            import_text("\n".join(mutant))
            continue
        except CircuitError as e:
            msg = str(e)
        named = re.match(r"line (\d+): ", msg)
        assert named, msg
        bad = int(named.group(1))
        assert bad <= len(mutant), msg
        # the lines above the named one import, and adding it fails alike
        if bad > 1:
            import_text("\n".join(mutant[:bad - 1]))
        with pytest.raises(CircuitError) as again:
            import_text("\n".join(mutant[:bad]))
        assert str(again.value) == msg
        rejected.append(mutant)
    assert 50 < len(rejected) < 300
    for i, mutant in enumerate(rejected[:5]):
        path = tmp_path / f"mutant{i}.fbe"
        path.write_text("\n".join(mutant) + "\n")
        assert main(["sim", str(path), "01.000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and err.count("\n") == 1


PIN_KINDS = ("x", "cx", "ccx", "mcx", "swap", "cswap", "h", "frob", "CX", "qubits", "reg")
PIN_DIGITS = ("\u0664", "\u00b2", "\uff13", "1_0", "+3", "-1", "")


def pin_mutant(rng, lines, n_qubits):
    """One to three edits of a text's lines: drop, duplicate or swap
    lines, swap a line's kind, put a ! on an operand, repeat a qubit,
    push one out of range, write an index in other digits, add a token
    or a comment."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        ops = list(re.finditer(r"q\[(\d+)\]", line))
        op = rng.randrange(10)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, line)
        elif op == 2:
            k = rng.randrange(len(lines))
            lines[i], lines[k] = lines[k], line
        elif op == 3:
            lines[i] = rng.choice(PIN_KINDS) + line[line.find(" "):]
        elif op == 8:
            lines[i] = line + rng.choice((" q[0]", " junk", ",q[1]", ","))
        elif op == 9:
            j = rng.randrange(len(line) + 1)
            lines[i] = line[:j] + "  # " + line[j:]
            if rng.random() < 0.3:
                lines.insert(i, "# note")
        elif ops:
            a = rng.choice(ops)
            s, e = a.span(1)
            if op == 4:  # ! on an operand, often the target
                a = ops[-1] if rng.random() < 0.6 else a
                lines[i] = line[:a.start()] + "!" + line[a.start():]
            elif op == 5:  # repeat another operand's qubit
                lines[i] = line[:s] + rng.choice(ops).group(1) + line[e:]
            elif op == 6:  # out of range
                q = n_qubits + rng.choice((0, 1, 7, 10 ** 6))
                lines[i] = line[:s] + str(q) + line[e:]
            else:
                lines[i] = line[:s] + rng.choice(PIN_DIGITS) + line[e:]
    return lines


# SHA-256 over the import_text outcomes of test_import_outcomes_are_pinned
IMPORT_OUTCOMES_DIGEST = "a361b587884732b1c3d5c82bebab92d0adb3b2233028a3a14169b98a42f561b2"


def test_import_outcomes_are_pinned():
    # every mutant's outcome: the error message, line number included,
    # or the digest of the accepted circuit's own export
    rng = random.Random("import_text/pin")
    sources = [synthesize(SynthConfig("log", n=2, m=5, policy="clean")).circuit,
               synthesize(SynthConfig("cot", n=2, m=5)).circuit,
               random_circuit(random.Random(31), 9, 60, with_h=True)]
    sources[2].add_register(Register("RegI0", "input", 0, 4, 2, 2, signed=True))
    outcomes = []
    for c in sources:
        lines = export_text(c).splitlines()
        for _ in range(400):
            mutant = "\n".join(pin_mutant(rng, lines, c.n_qubits))
            try:
                got = import_text(mutant)
            except CircuitError as e:
                outcomes.append(f"error {e}")
                continue
            outcomes.append("ok " + hashlib.sha256(export_text(got).encode()).hexdigest())
    errors = sum(o.startswith("error") for o in outcomes)
    assert 400 < errors < 1100
    assert len({o.split(":")[1] for o in outcomes if o.startswith("error line")}) > 10
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == IMPORT_OUTCOMES_DIGEST


def test_import_names_the_first_bad_qubit():
    # controls first, then targets, each in the order written
    with pytest.raises(CircuitError, match=r"^line 2: qubit 7 outside 0\.\.4$"):
        import_text("qubits 5\nccx q[7],q[9],q[0]\n")
    with pytest.raises(CircuitError, match=r"^line 2: qubit 9 outside 0\.\.4$"):
        import_text("qubits 5\nccx q[1],q[9],q[7]\n")
    with pytest.raises(CircuitError, match=r"^line 3: qubit 5 outside 0\.\.4$"):
        import_text("qubits 5\nx q[4]\ncswap !q[1],q[3],q[5]\n")
    with pytest.raises(CircuitError, match=r"^line 3: qubit 8 outside 0\.\.4$"):
        import_text("qubits 5\nx q[4]\ncswap !q[8],q[6],q[5]\n")


def test_compile_memory_follows_touched_qubits():
    c = Circuit(30000)
    c.add(Gate("cx", (29999,), (0,)))
    tracemalloc.start()
    try:
        c._prepared(0)
        assert c.simulate_basis(1) == 1 | 1 << 29999
        with pytest.raises(CircuitError):
            c.simulate_basis(1 << 30000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_h_needs_sparse_mode():
    c = Circuit(1)
    c.add(Gate("h", (0,)))
    with pytest.raises(CircuitError):
        c.simulate_basis(0)


def test_sparse_h_amplitudes():
    c = Circuit(1)
    c.add(Gate("h", (0,)))
    amps = c.simulate_sparse(0)
    assert abs(amps[0] - 2 ** -0.5) < 1e-12
    assert abs(amps[1] - 2 ** -0.5) < 1e-12
    # twice is the identity
    c.add(Gate("h", (0,)))
    amps = c.simulate_sparse(1)
    assert set(amps) == {1} and abs(amps[1] - 1) < 1e-12


def test_sparse_interference_and_norm():
    rng = random.Random(31)
    c = random_circuit(rng, 6, 60, with_h=True)
    amps = c.simulate_sparse(0)
    norm = sum(abs(a) ** 2 for a in amps.values())
    assert abs(norm - 1) < 1e-12


def test_sparse_permutation_agrees_with_basis():
    rng = random.Random(37)
    c = random_circuit(rng, 6, 80)
    for s in (0, 5, 63, 17):
        amps = c.simulate_sparse(s)
        assert amps == {c.simulate_basis(s): 1.0 + 0j}
    # a start outside the register file is refused as in basis mode,
    # whether given as one state or as a key of an amplitude dict
    for bad in (-1, 1 << 6, 1 << 40):
        with pytest.raises(CircuitError, match="outside the register file"):
            c.simulate_basis(bad)
        with pytest.raises(CircuitError, match="outside the register file"):
            c.simulate_sparse(bad)
        with pytest.raises(CircuitError, match="outside the register file"):
            c.simulate_sparse({0: 0.6 + 0j, bad: 0.8 + 0j})


def test_batch_runs_like_basis():
    # simulate_batch gives each state's simulate_basis end, in order, a
    # repeated state once per occurrence: below _COMPILE_AFTER through
    # the flat program state by state, then past it through the compiled
    # one bit-sliced, interpreted on its first run and generated after
    rng = random.Random(117)
    n = 8
    for trial in range(6):
        c = (fusable_circuit, context_circuit)[trial % 2](rng, n, 12)
        ref = Circuit(n)
        ref.extend(c.gates)
        few = [rng.randrange(1 << n) for _ in range(10)]
        many = rng.sample(range(1 << n), 100)
        for states in (few + few[:3], many + [few[0]] * 3, many):
            assert c.simulate_batch(states) == list(map(ref.simulate_basis, states)), trial
            if states is not many:
                stage = c._runs < circuit._COMPILE_AFTER, c._stretches[0][1] is None
                assert stage == ((True, True) if len(states) == 13 else (False, False))
        assert c._stretches[0][2] is not None, trial
    assert Circuit(3).simulate_batch([5, 5]) == [5, 5]


def test_batch_refuses_h_and_outside_states():
    # an h gate, or a state outside the register file, is refused with
    # simulate_basis's message before anything is compiled or run
    rng = random.Random(119)
    c = context_circuit(rng, 7, 4)
    c.add(Gate("h", (2,)))
    with pytest.raises(CircuitError, match="^h gate present, use simulate_sparse$"):
        c.simulate_batch([0, 1])
    d = context_circuit(rng, 7, 4)
    for bad in (-1, 1 << 7):
        with pytest.raises(CircuitError, match="^state outside the register file$"):
            d.simulate_batch([0, bad])
    for x in (c, d):
        assert x._program is None and x._stretches is None and x._runs == 0
    # no states, in either stage
    assert d.simulate_batch([]) == [] and d._runs == 0
    d.simulate_batch(range(circuit._COMPILE_AFTER))
    assert d.simulate_batch([]) == [] and d.simulate_sparse({}) == {}


def test_sparse_cap():
    c = Circuit(6)
    for q in range(6):
        c.add(Gate("h", (q,)))
    with pytest.raises(SimulationLimit):
        c.simulate_sparse(0, cap=16)


def test_resource_count():
    c = Circuit(8)
    c.add(Gate("mcx", (7,), (0, 1, 2, 3, 4)))  # 5 controls
    c.add(Gate("swap", (0, 1)))
    c.add(Gate("cswap", (0, 1), (2,)))
    c.add(Gate("x", (3,)))
    r = c.resource_count()
    assert r["by_kind"]["mcx"] == 1 and r["by_kind"]["swap"] == 1
    assert r["toffoli_equivalent"] == (2 * 4 - 1) + 1
    assert r["cx_equivalent"] == 3 + 2
    assert r["decomposition_ancillas"] == 3
    assert r["qubits"] == 8
