"""Find the MAJ/UMA ripple adders of blocks.add_into in a gate list.

The compiled program (circuit) runs each such adder as one register-add
entry once a circuit has run circuit._COMPILE_AFTER states or terms:
circuit._fuse_adders asks find for the spans to replace.  ladder names
the gates add_into emits, so a span is fused only when it is exactly
that pattern, whose effect, dst <- dst + src + anc where the context
holds and the identity elsewhere, is add_into's by its proof; a change
to add_into stops the fusion instead of changing what the entry does.
This module is loaded on the first compiled program, so a process whose
circuits run only a few states, ones just imported to be checked say,
never compiles it.
"""

from __future__ import annotations

from .circuit import _RADD, X_KINDS, _read


def ladder(ctx: tuple, neg: int, anc: int, z: int, y: int, w: int, wd: int) -> list:
    """The gates blocks.add_into emits, as (kind, targets, controls,
    neg_mask), for src = z..z+w-1, dst = y..y+wd-1 and the carry-in anc
    under the context qubits ctx with their neg_mask neg: w MAJ stages,
    the carry's increment of dst's high wd - w qubits, then w UMA stages.
    The gates that write dst have the context followed by their own
    controls, the others their own alone."""
    def x(t, *own):
        qs = ctx + own
        return ("mcx" if len(qs) > 2 else X_KINDS[len(qs)], (t,), qs, neg)

    def bare(t, *own):
        return (X_KINDS[len(own)], (t,), own, 0)

    out = []
    for k in range(w):
        c = z + k - 1 if k else anc
        out += [x(y + k, z + k), bare(c, z + k), bare(z + k, c, y + k)]
    for h in range(wd - 1, w - 1, -1):
        out.append(x(y + h, z + w - 1, *range(y + w, y + h)))
    for k in range(w - 1, -1, -1):
        c = z + k - 1 if k else anc
        out += [bare(z + k, c, y + k), bare(c, z + k), x(y + k, c)]
    return out


def find(gates, bit, conds):
    """Find the MAJ/UMA ripple adders of blocks.add_into in the gate
    list, in one pass, and yield (start, end, entry) for each: the gates
    [start, end) map every basis state to one with the field
    dst <- dst + src + anc mod 2^|dst|, src and anc unchanged, under a
    condition, and leave every other state as it is; entry is the one
    _RADD entry that does the same.  The reversed pattern (sub_from,
    Builder.inverted, Builder.uncompute) subtracts.  The entry is
    (cm, cv, _RADD, (dst mask, src mask, src's lowest qubit, anc's
    qubit), step), step 2^lo for an add and -2^lo for a subtract, lo the
    field's lowest qubit.  bit and conds are the compile's, which
    circuit._read fills for find and _fuse alike.

    Three X-family gates with k + 1, 1 and 2 controls, k the context's
    size, open a candidate: a first MAJ stage, X y | ctx z, X anc | z,
    X z | anc y, or a last UMA stage replayed reversed, the same but
    X y | ctx anc first, matched on their (cm, cv, target) masks, so
    control order does not matter.  They give the condition, anc and the
    lowest source and field qubits; the targets of the stages that
    follow give the widths, source and field each ascending from there.
    Then the span must be the gates ladder names, in Builder's control
    order (one list comparison) or else gate by gate on the masks, and
    anc, src, dst and the condition must be pairwise disjoint: the
    condition holds throughout, and the gates are add_into's (Cuccaro et
    al., quant-ph/0410184) with its proof."""
    n = len(gates)

    def cond(g):
        # (cm, cv, target) of gate g, as circuit._fuse reads them; target
        # 0, matching nothing, for a swap, cswap or h
        cm, cv, t, own = conds.get(g) or _read(g, bit, conds)
        return cm, cv, t if own is None else 0

    def target(i):
        return gates[i][1][0] if i < n else -1

    def span(i, cm, cv, anc, z0, y0, rev):
        a, z, y, w = anc.bit_length() - 1, z0.bit_length() - 1, y0.bit_length() - 1, 1
        # the next MAJ stage, or the next UMA stage reversed: X y+w | z+w,
        # X z+w-1 | z+w, X z+w | z+w-1 y+w, the middle one bare
        ctl = len(gates[i][2])
        while (target(i + 3 * w) == y + w and target(i + 3 * w + 1) == z + w - 1
               and target(i + 3 * w + 2) == z + w and len(gates[i + 3 * w + 1][2]) == 1):
            w += 1
        # the carry's increment of dst[w:], or its decrement when
        # reversed, gate k of which has ctl + k controls, counted from its
        # low end: scanned on targets and control counts, so that ladder
        # below names no more controls than the span holds
        if rev:
            wd = w
            # up to the reversed MAJ stages, whose first target is the top
            # source qubit
            while (target(i + 2 * w + wd) == y + wd and not z <= y + wd < z + w
                   and len(gates[i + 2 * w + wd][2]) == ctl + wd - w):
                wd += 1
        else:
            # from the increment's top target, or none before the last
            # UMA stage
            t = target(i + 3 * w)
            wd = w if t == z + w - 1 else t - y + 1
            if wd < w or any(target(i + 3 * w + k) != y + wd - 1 - k
                             or len(gates[i + 3 * w + k][2]) != ctl + wd - w - 1 - k
                             for k in range(wd - w)):
                return None
        src, dst = (z0 << w) - z0, (y0 << wd) - y0
        if anc & (src | dst | cm) or src & (dst | cm) or dst & cm:
            return None
        # the context in the first gate's order, less its own control
        _, _, qs, neg = gates[i]
        own = a if rev else z
        ctx = tuple(q for q in qs if q != own)
        j = qs.index(own)
        want = ladder(ctx, neg & ((1 << j) - 1) | neg >> (j + 1) << j, a, z, y, w, wd)
        if rev:
            want.reverse()
        end = i + len(want)
        got = gates[i:end]
        if got != want and list(map(cond, got)) != list(map(cond, want)):
            return None
        return i, end, (cm, cv, _RADD, (dst, src, z, a), -y0 if rev else y0)

    i = 0
    while i + 5 < n:  # an add is at least 6 gates
        hit = None
        if len(gates[i + 1][2]) == 1 and len(gates[i + 2][2]) == 2:
            (cm0, cv0, t0), (cm1, cv1, t1), (cm2, cv2, t2) = map(cond, gates[i:i + 3])
            # X anc | z, X z | anc y, both bare and positive
            if t0 and t1 and t2 and cm1 == cv1 == t2 and cm2 == cv2 == t0 | t1:
                if cv0 & t2:  # MAJ: X y | ctx z
                    hit = span(i, cm0 ^ t2, cv0 ^ t2, t1, t2, t0, False)
                elif cv0 & t1:  # UMA reversed: X y | ctx anc
                    hit = span(i, cm0 ^ t1, cv0 ^ t1, t1, t2, t0, True)
        if hit:
            yield hit
            i = hit[1]
        else:
            i += 1
