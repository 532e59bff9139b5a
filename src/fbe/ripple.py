"""Find the MAJ/UMA ripple adders of blocks.add_into in a gate list.

The compiled program (circuit) runs each such adder as one register-add
entry once a circuit has run 16 states or terms: circuit._fuse_adders
asks find for the spans to replace.  ladder names the gates add_into
emits, so a span is fused only when it is exactly that pattern, whose
effect, dst <- dst + src + anc, is add_into's by its proof; a change to
add_into stops the fusion instead of changing what the entry does.
This module is loaded on the first swap, so a circuit that runs only a
few states, one just imported to be checked say, never compiles it.
"""

from __future__ import annotations

from .circuit import _RADD, X_KINDS


def ladder(ctx: tuple, neg: int, anc: int, z: int, y: int, w: int, wd: int) -> list:
    """The gates blocks.add_into emits, as (kind, targets, controls,
    neg_mask), for src = z..z+w-1, dst = y..y+wd-1 and the carry-in anc
    under the context qubits ctx with their neg_mask neg: w MAJ stages,
    the carry's increment of dst's high wd - w qubits, then w UMA stages,
    each gate's controls the context followed by its own."""
    def x(t, *own):
        qs = ctx + own
        return ("mcx" if len(qs) > 2 else X_KINDS[len(qs)], (t,), qs, neg)

    out = []
    for k in range(w):
        c = z + k - 1 if k else anc
        out += [x(y + k, z + k), x(c, z + k), x(z + k, c, y + k)]
    for h in range(wd - 1, w - 1, -1):
        out.append(x(y + h, z + w - 1, *range(y + w, y + h)))
    for k in range(w - 1, -1, -1):
        c = z + k - 1 if k else anc
        out += [x(z + k, c, y + k), x(c, z + k), x(y + k, c)]
    return out


def find(gates, bit):
    """Find the MAJ/UMA ripple adders of blocks.add_into in the gate
    list, in one pass, and yield (start, end, entry) for each: the gates
    [start, end) map every basis state to one with the field
    dst <- dst + src + anc mod 2^|dst|, src and anc unchanged, under a
    condition, and entry is the one _RADD entry that does the same.  The
    reversed pattern (sub_from, Builder.inverted, Builder.uncompute)
    subtracts.  The entry is (cm, cv, _RADD, (dst mask, src mask, src's
    lowest qubit, anc's qubit), step), step 2^lo for an add and -2^lo for
    a subtract, lo the field's lowest qubit.

    Three X-family gates with k, k and k + 1 controls open a candidate:
    a first MAJ stage, or a last UMA stage replayed reversed, matched on
    their (cm, cv, target) masks, so control order does not matter.  They
    give the condition, anc and the lowest source and field qubits; the
    targets of the stages that follow give the widths, source and field
    each ascending from there.  Then the span must be the gates ladder
    names, in Builder's control order (one list comparison) or else
    gate by gate on the masks, and anc, src, dst and the condition must
    be pairwise disjoint: the condition holds throughout, and the gates
    are add_into's (Cuccaro et al., quant-ph/0410184) with its proof."""
    n = len(gates)

    def cond(g):
        # (cm, cv, target) of gate g, as circuit._fuse reads them; target
        # 0, matching nothing, for a swap, cswap or h
        kind, targets, controls, neg = g
        cm = cv = sum(map(bit, controls))
        while neg:
            low = neg & -neg
            cv -= bit(controls[low.bit_length() - 1])
            neg ^= low
        return cm, cv, bit(targets[0]) if kind in X_KINDS else 0

    def target(i):
        return gates[i][1][0] if i < n else -1

    def span(i, cm, cv, anc, z0, y0, rev):
        a, z, y, w = anc.bit_length() - 1, z0.bit_length() - 1, y0.bit_length() - 1, 1
        # the next MAJ stage, or the next UMA stage reversed: X y+w | z+w,
        # X z+w-1 | z+w, X z+w | z+w-1 y+w, the middle one with as many
        # controls as the first gate (as many as the context and one)
        ctl = len(gates[i][2])
        while (target(i + 3 * w) == y + w and target(i + 3 * w + 1) == z + w - 1
               and target(i + 3 * w + 2) == z + w and len(gates[i + 3 * w + 1][2]) == ctl):
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
        ctl = len(gates[i][2])
        hit = None
        if len(gates[i + 1][2]) == ctl and len(gates[i + 2][2]) == ctl + 1:
            (cm0, cv0, t0), (cm1, cv1, t1), (cm2, cv2, t2) = map(cond, gates[i:i + 3])
            if t0 and t1 and t2:
                if cm0 == cm1 and cv0 == cv1:
                    # MAJ: X y | z, X anc | z, X z | anc y
                    if cv0 & t2 and cm2 == cm0 ^ t2 | t0 | t1 and cv2 == cv0 ^ t2 | t0 | t1:
                        hit = span(i, cm0 ^ t2, cv0 ^ t2, t1, t2, t0, False)
                # UMA reversed: X y | anc, X anc | z, X z | anc y
                elif (cv0 & t1 and cv1 & t2 and cm0 ^ t1 == cm1 ^ t2
                      and cv0 ^ t1 == cv1 ^ t2 and cm2 == cm0 | t0 and cv2 == cv0 | t0):
                    hit = span(i, cm0 ^ t1, cv0 ^ t1, t1, t2, t0, True)
        if hit:
            yield hit
            i = hit[1]
        else:
            i += 1
