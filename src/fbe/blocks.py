"""Reversible arithmetic built from the x/cx/ccx/mcx/swap/cswap set.

Everything here comes in two layers.  The lower layer is a Builder plus
emitter functions that append gates for one operation (ripple add,
increment cascade, shift-and-add squaring, non-restoring square root and
division) onto a circuit under construction; emitters compose freely and
honour an ambient control context, so a whole block can be predicated on
extra qubits without touching its internals.  The upper layer wraps each
emitter into a standalone circuit with named registers, which is what the
tests and the command line exercise directly.

The Builder owns the ancilla policy: blocks compute into Builder.scratch,
copy out, and pass the compute block to Builder.uncompute, which undoes
it only under "clean" (Bennett's compute-copy-uncompute); computed()
does all three around a temp.  Under clean the scratch is zero again
after each block, so every step computes into the same scratch register.

All arithmetic is two's complement on fixed-width registers, truncation
toward zero, matching the classical fixed-point routines bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Optional

from .circuit import X_KINDS, Circuit, CircuitError, Gate, Register

POLICIES = ("garbage", "clean")
# square_into's top stage: src's top bit as +2^j, as -2^j, or known set
SQUARE_TOPS = ("plain", "signed", "set")
# Gate((kind, targets, controls, neg_mask)) without Gate's checks
_record = partial(tuple.__new__, Gate)


def _merge(qs: tuple[int, ...], neg: int, ctl) -> tuple[tuple[int, ...], int]:
    """Controls qs with their neg_mask, followed by the (qubit, positive?)
    pairs of ctl, as (qubits, neg_mask)."""
    if ctl:
        more, pos = zip(*ctl)
        if False in pos:
            for i, p in enumerate(pos, len(qs)):
                if not p:
                    neg |= 1 << i
        qs += more
    return qs, neg


class Builder:
    """Accumulates gates and registers, then materialises a Circuit.

    Qubits are allocated in ascending order so registers stay contiguous.
    The control context (see controls()), kept as (qubits, neg_mask), is
    merged into every X-family gate and swap emitted while it is active.
    Gates are built as records without Gate's shape checks, and finish()
    hands them to the circuit without Circuit.add's range check: every
    qubit they name comes from alloc(), and the emitters never reuse one
    within a gate.

    The Builder owns the ancilla policy; `clean` says which is in force.
    scratch() gives block scratch in the matching role: a fresh register
    per call under garbage, and under clean one register per scratch
    role, shared by every step.  frames() lays out a whole chain's
    per-step scratch: under garbage the steps' frames stack, each on the
    bits the step before returned to zero, and under clean every step
    shares one register.  borrowed records each step's frames, which
    must be zero when the step starts.  compute() emits and records its
    body, and uncompute() appends that reversed under clean only, which
    returns the shared scratch to zero before the next step computes
    into it.
    inverted() emits its body's inverse under either policy: every gate
    here is self-inverse, so reversed order is the inverse.
    """

    def __init__(self, policy: str = "garbage"):
        if policy not in POLICIES:
            raise CircuitError(f"unknown ancilla policy {policy!r}")
        self.clean = policy == "clean"
        self.n = 0
        self.gates: list[Gate] = []
        self.regs: list[Register] = []
        self.ctx: tuple[tuple[int, ...], int] = ((), 0)
        self.shared: dict[str, Register] = {}  # clean scratch by role
        self.borrowed: dict[int, list[tuple[int, ...]]] = {}  # frames by step

    def alloc(self, size: int) -> tuple[int, ...]:
        bits = tuple(range(self.n, self.n + size))
        self.n += size
        return bits

    def reg(self, name: str, role: str, size: int, int_bits: Optional[int] = None,
            frac_bits: Optional[int] = None, signed: bool = False) -> Register:
        if int_bits is None and frac_bits is None:
            int_bits, frac_bits = size, 0
        elif int_bits is None:
            int_bits = size - frac_bits
        elif frac_bits is None:
            frac_bits = size - int_bits
        r = Register(name, role, self.n, size, int_bits, frac_bits, signed)
        self.alloc(size)
        self.regs.append(r)
        return r

    @contextmanager
    def controls(self, ctl):
        """Predicate everything emitted inside on (qubit, positive?) pairs."""
        saved = self.ctx
        self.ctx = _merge(*saved, tuple(ctl))
        try:
            yield
        finally:
            self.ctx = saved

    def scratch(self, role: str, size: int, step: Optional[int] = None) -> Register:
        """Block scratch named `role`, left as garbage or returned clean.

        Under garbage every call allocates a fresh register, named role
        followed by the step when one is given (AncW0, AncW1, ...).
        Under clean the first call for a role allocates one ancilla-clean
        register named role, and every later call hands the same one
        back: each step uncomputes it to zero before the next uses it
        (Bennett's compute-copy-uncompute), so n steps need one register,
        not n.  The first call must ask for the widest: a later call
        for more bits than the register holds raises CircuitError."""
        if not self.clean:
            return self.reg(role if step is None else f"{role}{step}", "garbage", size)
        if role not in self.shared:
            self.shared[role] = self.reg(role, "ancilla-clean", size)
        if size > self.shared[role].size:
            raise CircuitError(f"scratch {role}: {size} bits asked, the shared "
                               f"register holds {self.shared[role].size}")
        return self.shared[role]

    def frames(self, role: str, sizes: dict, kept: Optional[dict] = None) -> dict:
        """{step: frame bits} for per-step scratch of sizes {step: width}.

        Under clean every step gets the one register scratch(role) gives,
        at the widest size.  Under garbage step i may leave only its low
        kept[i] frame bits set (all of them when kept is None) and must
        return every bit above them to zero, as sqrt_stages does.  So the
        frames stack: step i's frame is one run of consecutive qubits that
        starts kept[i-1] bits after step i-1's, on the top that step has
        just zeroed, and a ripple add across it stays one run.  role{i}
        names step i's kept bits, in the garbage role, and the bits past
        the last kept part, zero again once the last step ends, form one
        ancilla-clean register, role + "Top"."""
        if not sizes:
            return {}
        if self.clean:
            bits = dict.fromkeys(sizes, self.scratch(role, max(sizes.values())).bits)
        else:
            kept = kept or sizes
            bits, end = {}, self.n
            for i, size in sizes.items():
                bits[i] = tuple(range(self.n, self.n + size))
                end = max(end, self.n + size)
                self.scratch(role, kept[i], i)
            if end > self.n:
                self.reg(f"{role}Top", "ancilla-clean", end - self.n)
        for i, qs in bits.items():
            self.borrowed.setdefault(i, []).append(qs)
        return bits

    @contextmanager
    def compute(self):
        """Emit the body and record its gates for uncompute()."""
        start = len(self.gates)
        done: list[Gate] = []
        yield done
        done.extend(self.gates[start:])

    def uncompute(self, done):
        """Append a compute() block reversed under clean; no-op under garbage."""
        if self.clean:
            self.gates.extend(reversed(done))

    @contextmanager
    def computed(self, out, tmp):
        """Compute into the bits yielded and end with the result on out:
        tmp, copied onto out and uncomputed, under clean; out under garbage."""
        with self.compute() as done:
            yield tmp if self.clean else out
        if self.clean:
            copy_bits(self, tmp, out)
        self.uncompute(done)

    @contextmanager
    def inverted(self):
        """Emit the inverse of the body: its gates in reverse order."""
        start = len(self.gates)
        yield
        self.gates[start:] = self.gates[start:][::-1]

    def flip(self, target: int, extra=()):
        """X on target under the context plus (qubit, positive?) extra."""
        qs, neg = _merge(*self.ctx, extra)
        kind = X_KINDS[len(qs)] if len(qs) < 3 else "mcx"
        self.gates.append(_record((kind, (target,), qs, neg)))

    def swap2(self, a: int, b: int):
        qs, neg = self.ctx
        if not qs:
            self.gates.append(_record(("swap", (a, b), (), 0)))
        elif len(qs) == 1:
            self.gates.append(_record(("cswap", (a, b), qs, neg)))
        else:
            # fredkin sandwich: swap = cx . controlled-x . cx
            cx = _record(("cx", (a,), (b,), 0))
            self.gates.append(cx)
            self.flip(b, [(a, True)])
            self.gates.append(cx)

    def finish(self) -> Circuit:
        c = Circuit(max(self.n, 1))
        for r in self.regs:
            c.add_register(r)
        c.gates = list(self.gates)
        return c


# ---------------------------------------------------------------- emitters

def _bare(t: int, *qs: int) -> Gate:
    """X on t under the positive controls qs alone, whatever the context."""
    return _record((X_KINDS[len(qs)], (t,), qs, 0))


def _maj(b: Builder, c: int, y: int, z: int):
    b.flip(y, [(z, True)])
    b.gates += _bare(c, z), _bare(z, c, y)


def _uma(b: Builder, c: int, y: int, z: int):
    b.gates += _bare(z, c, y), _bare(c, z)
    b.flip(y, [(c, True)])


def add_into(b: Builder, src, dst, anc: int):
    """dst += src + anc mod 2^len(dst), src aligned at dst[0], src and the
    carry-in anc preserved.

    Ripple carry in the MAJ/UMA style (Cuccaro et al., quant-ph/0410184).
    When dst is wider than src the carry keeps going as a controlled
    increment on the high bits (between the sweeps the top src qubit
    holds the carry out).

    Under a context only the gates that write dst take it: y ^= z in MAJ,
    y ^= c in UMA and the carry's increment.  c ^= z and z ^= c.y run
    bare.  Where the context fails dst never changes, so each UMA stage's
    first two gates meet the state its MAJ stage's last two left (the
    stages between them cancel, innermost first) and undo them: the add
    is the identity there.  Under one context qubit a bit then costs 4
    Toffolis, not 10, and with no context the gates are the plain adder.
    """
    src, dst = tuple(src), tuple(dst)
    w = len(src)
    if w == 0:
        return
    if w > len(dst):
        raise CircuitError("add_into: src wider than dst")
    chain = (anc,) + src[:-1]
    for i in range(w):
        _maj(b, chain[i], dst[i], src[i])
    if len(dst) > w:
        with b.controls([(src[w - 1], True)]):
            increment(b, dst[w:])
    for i in range(w - 1, -1, -1):
        _uma(b, chain[i], dst[i], src[i])


def sub_from(b: Builder, src, dst, anc: int):
    """dst -= src mod 2^len(dst); exact inverse of add_into."""
    with b.inverted():
        add_into(b, src, dst, anc)


def increment(b: Builder, bits):
    """bits += 1 mod 2^w via a cascade of widening controls."""
    bits = tuple(bits)
    for i in range(len(bits) - 1, 0, -1):
        b.flip(bits[i], [(bits[j], True) for j in range(i)])
    if bits:
        b.flip(bits[0])


def decrement(b: Builder, bits):
    """bits -= 1 mod 2^w; exact inverse of increment."""
    with b.inverted():
        increment(b, bits)


def negate_bits(b: Builder, bits, reach: Optional[int] = None):
    """Two's complement in place: bitwise not, then +1 on bits[:reach]
    (all of bits if None).  Exact when bits[:reach] is never all zero on
    entry: its complement is then never all ones, so the +1's carry ends
    inside it and the bits above only need the flip."""
    for q in bits:
        b.flip(q)
    increment(b, bits[:reach])


def copy_bits(b: Builder, src, dst):
    """XOR src onto dst; a copy when dst is clean."""
    for s, d in zip(src, dst):
        b.flip(d, [(s, True)])


def lookup(b: Builder, ctl, values, bits):
    """bits ^= values[x], where x is the integer the ctl qubits spell,
    ctl[0] lowest; values has 2^len(ctl) entries.

    Each target bit is written in its positive-polarity Reed-Muller
    form.  The Moebius transform of the table, run on whole values since
    it only XORs, leaves at x the target bits whose form holds the
    monomial AND of the ctl qubits set in x, and each is one X under
    those qubits.  A monomial's gates are emitted together, under one
    condition.
    """
    ctl, anf = tuple(ctl), list(values)
    if len(anf) != 1 << len(ctl):
        raise CircuitError("lookup: need one value per control pattern")
    for i in range(len(ctl)):
        for x in range(len(anf)):
            if x >> i & 1:
                anf[x] ^= anf[x ^ 1 << i]
    for x, mask in enumerate(anf):
        on = [(c, True) for i, c in enumerate(ctl) if x >> i & 1]
        for t, q in enumerate(bits):
            if mask >> t & 1:
                b.flip(q, on)


def rotate_right1(b: Builder, bits):
    """Cyclic shift toward the lsb: new[i] = old[i+1], new[top] = old[0]."""
    bits = tuple(bits)
    for i in range(len(bits) - 1):
        b.swap2(bits[i], bits[i + 1])


def rotate_left1(b: Builder, bits):
    """Cyclic shift toward the msb; exact inverse of rotate_right1."""
    with b.inverted():
        rotate_right1(b, bits)


@contextmanager
def complemented(b: Builder, bits, ctl: int):
    """Complement bits where ctl is set, before and after the body.

    An add in the body then subtracts where ctl is set, since
    W - X = ~(~W + X) mod 2^w, so one uncontrolled adder does the work
    of an add and a subtract each predicated on ctl.  The complements
    are cx gates under ctl alone, whatever the context: only the body
    needs the context, C(V.W.V') = V.C(W).V' when V leaves the
    context's qubits alone.
    """
    cx = [_bare(q, ctl) for q in bits]
    b.gates += cx
    yield
    b.gates += cx


def square_into(b: Builder, src, dst, anc: int, top: str = "plain"):
    """dst = src*src by the lower triangle of the shift-and-add products.

    dst must be clean and at least 2*len(src) wide, and anc clean.
    Stage j, bottom up, adds bit j of src by
    (L + 2^j)^2 = L^2 + 4^j + 2^(j+1) L with L = src mod 2^j.  Before
    it dst holds L^2 < 4^j, so dst[2j:] is zero: the 4^j is a flip of
    dst[2j] under src[j], and 2^(j+1) L an add of src[:j] into
    dst[j+1:2j+2] under src[j], the controlled qubit never an operand.
    The sum (src mod 2^(j+1))^2 fits 2j+2 bits, so that add is exact
    with a one-bit carry tail, and dst[2j+2:] is never touched.  The
    adds take k(k-1)/2 source bits in all for k = len(src).

    top picks the top stage, j = k - 1 (SQUARE_TOPS):
    - "plain" as above;
    - "signed" squares src as a two's-complement word, its top bit
      weighted -2^j (Baugh and Wooley, IEEE Trans. Computers C-22,
      1973): (L - 2^j)^2 = L^2 + 4^j - 2^(j+1) L, so the stage
      subtracts (sub_from) where it adds.  The result lies in
      (0, 4^j] and the subtract, like the add, only moves bits from
      j+1 up, so it is exact in the same window;
    - "set" takes src[j] as known to be 1 and runs the stage with no
      src[j] control.  Where src[j] is 0 it still adds, and dst ends on
      (src + 2^j)^2.

    Outside a context it emits no mcx, 3k^2 - k - 1 gates and
    (k-1)(2k+1) Toffolis: stage j > 0 has 6j + 2 gates, and its add 4
    Toffolis per source bit under src[j] (see add_into) and one for the
    carry tail.  "signed" costs the same.  "set" costs 2k - 1 Toffolis
    less from k = 2: its top stage adds at 2 Toffolis per source bit,
    and its carry tail is a cx.
    """
    src, dst = tuple(src), tuple(dst)
    k = len(src)
    if top not in SQUARE_TOPS:
        raise CircuitError(f"unknown square top stage {top!r}")
    if len(dst) < 2 * k:
        raise CircuitError("square_into: dst needs 2x the src width")
    for j in range(k):
        last = j == k - 1
        ctl = [] if last and top == "set" else [(src[j], True)]
        b.flip(dst[2 * j], ctl)
        with b.controls(ctl):
            (sub_from if last and top == "signed" else add_into)(
                b, src[:j], dst[j + 1:2 * j + 2], anc)


def sqrt_stages(b: Builder, frame, root, stages: int):
    """Non-restoring square root, radicand in frame, root bits extracted.

    frame holds the radicand N < 4^s (s = stages) in a clean
    two's-complement scratch register at least 2s+1 wide; root provides
    at least s clean bits.  Ends with root = floor sqrt N, frame[:s+2] =
    N - (root|1)^2 in two's complement and every frame bit above that
    zero: the walk stops at its last root bit, with no correction adding
    2 root + 1 back where that bit is 0, since no caller reads the
    remainder.  Stage i subtracts or adds the partial root run shifted
    to 2i+2 plus the 4^i constant, decided by the previously extracted
    bit; the new bit is the complement of the frame sign.

    Each stage is one uncontrolled ripple add, by two identities.  With
    r = root[i+1] and run = root >> (i+2), stage i subtracts 8 run + 5
    from W = frame[2i:] where r = 1 and adds 8 run + 3 where r = 0.
    First, W - X = ~(~W + X): complementing W where r is set before and
    after (complemented) turns the subtract into an add, of
    8 run + 3 + 2r.  Second, that is 1 + 2Y with Y = not r + 2r + 4 run,
    and W + 1 + 2Y is an add of Y into W's bits above the lowest, with
    that bit as the carry-in, then a flip of it: with W = W0 + 2H that
    leaves (1 - W0) + 2(H + Y + W0) = W + 1 + 2Y.  Y is root[i:s] with
    root[i] holding not r: stages run top down and stage i is the one
    that extracts root[i], so root[i] is still clean during it, and is
    flipped to not r around the add and back.

    Each stage runs only on the bits its value can reach.  Stage i ends
    on T = N - (2q+1)^2 4^i, where q = root >> (i+1) = isqrt(N >> 2i+2):
    from q^2 4^(i+1) <= N < (q+1)^2 4^(i+1) and q < 2^(s-i-1) follows
    -2^(s+i+1) < -(4q+1) 4^i <= T < (4q+3) 4^i < 2^(s+i+1), so T fits
    s+i+2 bits.  Every step of the stage is an add or a subtract, exact
    modulo 2^(s+i+2) on frame[:s+i+2] whatever the bits above hold, so
    that window ends on T with the sign in its top bit.  Each window is
    one bit narrower than the one before, and the frame above 2s+1 bits
    is never touched.  The bit a window sheds is the sign the stage
    before read its root bit r from, so it is 1 exactly when r = 0, and
    the next stage flips it back to zero where r = 0.

    Outside a context it emits no mcx, and its Toffolis number
    1 + sum over i < s-1 of 2(s - i) = s^2 + s - 1: the top stage's 3-bit
    decrement takes one, and each add two per source bit.
    """
    frame, root = tuple(frame), tuple(root)
    s = stages
    if len(frame) < 2 * s + 1:
        raise CircuitError("sqrt_stages: frame too narrow")
    for i in range(s - 1, -1, -1):
        live = frame[:s + i + 2]
        if i == s - 1:
            decrement(b, live[2 * i:])
        else:
            r = root[i + 1]
            b.flip(frame[s + i + 2], [(r, False)])  # the shed sign bit
            b.flip(root[i], [(r, False)])
            with complemented(b, live[2 * i:], r):
                add_into(b, root[i:s], live[2 * i + 1:], live[2 * i])
                b.flip(live[2 * i])
            b.flip(root[i], [(r, False)])
        b.flip(root[i], [(live[-1], False)])


def div_stages(b: Builder, frame, d_bits, q_bits, anc: int, shift: int = 0):
    """Non-restoring division, numerator in frame, divisor read only.

    Produces quo = floor(N / D), D = divisor * 2^shift, in q_bits (clean)
    from the numerator N in frame.  The caller owns the precondition
    D >= 1 and 0 <= N < D 2^t, t = len(q_bits): a zero divisor or a
    quotient that does not fit t bits is out of scope.  frame needs
    max(num_width, len(d_bits)+shift+len(q_bits)-1) + 1 bits
    (div_frame_width).  The shift places the divisor operand higher
    instead of materialising a doubled copy.  Stage j subtracts the
    divisor where the last quotient bit is 1 and adds it where it is 0:
    one uncontrolled add between two complements of the window under
    that bit, W - X = ~(~W + X).  Under a context only the add takes it
    (see complemented).

    Each stage runs only on the bits its remainder can reach.  Stage j
    ends on R_j = N - (2 (quo >> j+1) + 1) D 2^j, and from the
    precondition R_j lies in [-D 2^j, D 2^j), which fits k+shift+j+1
    bits for k = len(d_bits).  D 2^j has no bits below j+shift, and an
    add is exact modulo 2^w on a window of w bits whatever the bits
    above hold, so adding on the window frame[j+shift : k+shift+j+1]
    leaves frame[:k+shift+j+1] = R_j in two's complement, its sign, the
    complement of quotient bit j, in the top bit.  The top stage
    keeps the whole frame above j+shift.  The bit a window sheds is not
    flipped back, since nothing runs this walk inverted: callers
    uncompute by replaying it.  So the walk stops at its last quotient
    bit, with no correction to the remainder, and leaves

    - frame[:k+shift+1] = N - (quo|1) D mod 2^(k+shift+1), and
    - frame bit k+shift+1+i = not quo[min(i+1, t-1)],

    which at the exact width div_frame_width gives is
    frame[k+shift+1:] = ~quo >> 1.
    """
    frame, d_bits, q_bits = tuple(frame), tuple(d_bits), tuple(q_bits)
    t, k = len(q_bits), len(d_bits)
    for j in range(t - 1, -1, -1):
        top = k + shift + j
        if j == t - 1:
            sub_from(b, d_bits, frame[j + shift:], anc)
        else:
            win = frame[j + shift:top + 1]
            with complemented(b, win, q_bits[j + 1]):
                add_into(b, d_bits, win, anc)
        b.flip(q_bits[j], [(frame[top], False)])


def square_via_root(b: Builder, src, frame, root_tmp):
    """frame = src*src by running the square root stages backwards.

    A clean frame and clean root_tmp come in.  src is copied onto
    root_tmp and frame[:k+2] set to where the forward walk on src^2
    ends, N - (src|1)^2: zero for an odd src, and -(2 src + 1) = ~(2 src)
    for an even one, which is bits 0, 1 and k+1 and the complement of
    src[1:] between them, each under not src[0].  The inverted walk maps
    that back to (src^2, 0), so root_tmp comes out clean again for free.
    """
    src = tuple(src)
    k = len(src)
    copy_bits(b, src, root_tmp[:k])
    even = [(src[0], False)]
    for j in (0, 1, k + 1):
        b.flip(frame[j], even)
    for j in range(1, k):
        b.flip(frame[j + 1], even + [(src[j], False)])
    with b.inverted():
        sqrt_stages(b, frame, root_tmp, k)


def square(b: Builder, method: str, src, dst, root_tmp, anc: int, top: str = "plain"):
    """dst = src*src into a clean dst of square_width bits, by shift-and-add
    or by the reversed root walk, which returns the clean root_tmp clean
    and leaves anc alone.  top is square_into's top stage.  The root walk
    squares src unsigned: it has no signed top stage, and a known set
    top bit saves it nothing, so it runs as under "plain"."""
    if method == "shift_add":
        square_into(b, src, dst, anc, top)
    elif method == "reversed_sqrt":
        if top == "signed":
            raise CircuitError("the reversed root walk squares unsigned words only")
        square_via_root(b, src, dst, root_tmp)
    else:
        raise CircuitError(f"unknown square method {method!r}")


def square_width(k: int, method: str) -> int:
    """Product width for square(): the reversed walk adds a sign guard."""
    return 2 * k + (method == "reversed_sqrt")


def sqrt_frame_width(magnitude_bits: int) -> tuple[int, int]:
    """(frame width, stage count) for a radicand of the given size."""
    stages = (magnitude_bits + 1) // 2
    return 2 * stages + 1, stages


def div_frame_width(num_bits: int, d_bits: int, q_bits: int) -> int:
    return max(num_bits, d_bits + q_bits - 1) + 1


# ---------------------------------------------------------- block circuits

def build_adder(width: int) -> Circuit:
    """|a>|b> -> |a>|a+b mod 2^w>."""
    b = Builder()
    a = b.reg("A", "input", width)
    s = b.reg("B", "output", width)
    anc = b.reg("Anc", "ancilla-clean", 1)
    add_into(b, a.bits, s.bits, anc.bits[0])
    return b.finish()


def build_shift(width: int, k: int, direction: str = "left") -> Circuit:
    """Cyclic shift by k places built from swap ladders.

    This is a rotation: it equals the logical shift exactly when the k
    bits that wrap around are zero, which callers must arrange.
    shift_wraps names those inputs; acceptance criterion 6 skips them,
    while `fbe verify blocks` checks the full rotation.
    """
    if direction not in ("left", "right"):
        raise CircuitError(f"bad shift direction {direction!r}")
    if not 0 <= k < max(width, 1):
        raise CircuitError("shift amount out of range")
    b = Builder()
    a = b.reg("A", "output", width)
    for _ in range(k):
        if direction == "left":
            rotate_left1(b, a.bits)
        else:
            rotate_right1(b, a.bits)
    return b.finish()


def shift_wraps(raw: int, width: int, k: int, direction: str = "left") -> bool:
    """True when rotating raw by k would carry nonzero bits around."""
    raw &= (1 << width) - 1
    if direction == "left":
        return (raw >> (width - k)) != 0 if k else False
    return (raw & ((1 << k) - 1)) != 0 if k else False


def build_absolute(width: int) -> Circuit:
    """|a>|0> -> ||a| as two's complement>|sign bit>.

    The flag qubit records the sign first and then drives the negation,
    so the conditional never controls on a bit it rewrites.  The most
    negative pattern has no positive partner and passes through with the
    flag set.
    """
    b = Builder()
    a = b.reg("A", "input", width, signed=True)
    w = b.reg("W", "output", 1)
    b.flip(w.bits[0], [(a.bits[-1], True)])
    with b.controls([(w.bits[0], True)]):
        negate_bits(b, a.bits)
    return b.finish()


def build_square(width: int, out_width: Optional[int] = None, drop_low: int = 0,
                 method: str = "shift_add", policy: str = "garbage") -> Circuit:
    """|a>|0> -> |a>|window of a*a>.

    The full 2*width product is formed and out_width bits starting at
    drop_low are copied out (both defaulting to the exact product).  With
    method "reversed_sqrt" the product appears by running the square
    root block backwards instead of shift-and-add.  Under the clean
    policy the wide product is uncomputed after the copy.
    """
    b = Builder(policy)
    if out_width is None:
        out_width = 2 * width
    if drop_low < 0 or drop_low + out_width > 2 * width:
        raise CircuitError("square window out of range")
    a = b.reg("A", "input", width)
    if method == "shift_add" and out_width == 2 * width and drop_low == 0:
        p = b.reg("P", "output", out_width)
        anc = b.reg("Anc", "ancilla-clean", 1)
        square_into(b, a.bits, p.bits, anc.bits[0])
        return b.finish()

    wide = b.scratch("W", square_width(width, method))
    p = b.reg("P", "output", out_width)
    root_t = (b.reg("RootT", "ancilla-clean", width).bits
              if method == "reversed_sqrt" else None)
    # the reversed root walk needs no carry qubit
    anc = b.reg("Anc", "ancilla-clean", 1).bits[0] if method == "shift_add" else None
    with b.compute() as make:
        square(b, method, a.bits, wide.bits, root_t, anc)
    copy_bits(b, wide.bits[drop_low:drop_low + out_width], p.bits)
    b.uncompute(make)
    return b.finish()


def build_sqrt(width: int, frac_bits: int = 0, policy: str = "garbage") -> Circuit:
    """Integer square root of the register extended by frac_bits zeros.

    The radicand a*2^frac_bits sits in a frame of low zero padding, the
    input register, and high scratch.  Garbage policy: the frame keeps
    N - (B|1)^2 (see sqrt_stages) and B gets the root.  Clean policy:
    the root is copied off and the walk is reversed, restoring a and
    every scratch bit.
    """
    b = Builder(policy)
    frame_w, stages = sqrt_frame_width(width + frac_bits)
    low = b.scratch("AncLow", frac_bits).bits if frac_bits else ()
    a = b.reg("A", "input" if b.clean else "garbage", width)
    high = b.scratch("AncHigh", frame_w - width - frac_bits)
    root_t = b.reg("RootT", "ancilla-clean", stages).bits if b.clean else None
    root = b.reg("B", "output", stages)
    with b.computed(root.bits, root_t) as out:
        sqrt_stages(b, low + a.bits + high.bits, out, stages)
    return b.finish()


def build_reciprocal(width: int, frac_bits: int, policy: str = "garbage") -> Circuit:
    """|a>|0> -> |a>|floor(2^2q / a) masked to width> for unsigned a.

    Divides the constant 2^2q by the register value with the
    non-restoring walk, which is trunc(1/a) at the same layout whenever
    the true reciprocal fits the width (1/a below 2^int_bits).  That is
    div_stages' precondition N < D 2^t with N = 2^2q, D = a and
    t = width, and a zero divisor is out of scope; callers own both.
    Under garbage the frame R keeps div_stages' windowed end state,
    2^2q - (quo|1) a in its low width+1 bits and ~quo >> 1 above them;
    under clean the walk is replayed backwards and R comes out zero.
    """
    b = Builder(policy)
    q = frac_bits
    frame_w = div_frame_width(2 * q + 1, width, width)
    a = b.reg("A", "input", width)
    frame = b.scratch("R", frame_w).bits
    quot_t = b.reg("QuotT", "ancilla-clean", width).bits if b.clean else None
    quot = b.reg("B", "output", width)
    anc = b.reg("Anc", "ancilla-clean", 1)
    with b.computed(quot.bits, quot_t) as out:
        b.flip(frame[2 * q])
        div_stages(b, frame, a.bits, out, anc.bits[0])
    return b.finish()
