"""Reversible arithmetic blocks against the classical fixed-point layer."""

import hashlib
import itertools
import math
import random

import pytest

from fbe.blocks import (
    SQUARE_TOPS,
    Builder,
    add_into,
    build_absolute,
    build_adder,
    build_reciprocal,
    build_shift,
    build_sqrt,
    build_square,
    decrement,
    div_frame_width,
    div_stages,
    increment,
    lookup,
    negate_bits,
    rotate_left1,
    rotate_right1,
    shift_wraps,
    sqrt_frame_width,
    sqrt_stages,
    square,
    square_into,
    square_via_root,
    square_width,
    sub_from,
)
from fbe import circuit, codegen
from fbe.circuit import _BLK, _RADD, CircuitError, export_text
from fbe.fixedpoint import Layout, add as fp_add, make, sqrt_nonrestoring
from fbe.fixedpoint import square as fp_square


def clean(circuit, out, *names):
    for nm in names:
        if nm in circuit.registers:
            assert circuit.registers[nm].extract(out) == 0, nm


def test_adder_full_exhaustive():
    for w in (1, 2, 3, 4):
        c = build_adder(w)
        A, B = c.registers["A"], c.registers["B"]
        for a in range(1 << w):
            for s in range(1 << w):
                out = c.simulate_basis(B.insert(A.insert(0, a), s))
                assert A.extract(out) == a
                assert B.extract(out) == (a + s) % (1 << w)
                clean(c, out, "Anc")


def test_adder_matches_fixedpoint_add():
    lay = Layout(2, 2, False)
    c = build_adder(lay.width)
    A, B = c.registers["A"], c.registers["B"]
    for a in range(16):
        for s in range(16):
            out = c.simulate_basis(B.insert(A.insert(0, a), s))
            want = fp_add(make(a, lay), make(s, lay))
            assert B.extract(out) == want.raw


def test_add_into_carry_cascade():
    b = Builder()
    src, dst, anc = b.alloc(3), b.alloc(7), b.alloc(1)[0]
    add_into(b, src, dst, anc)
    c = b.finish()
    for a in range(8):
        for s in range(128):
            out = c.simulate_basis(a | (s << 3))
            assert out & 7 == a
            assert (out >> 3) & 127 == (s + a) % 128
            assert out >> 10 == 0


def test_sub_from_is_inverse_and_correct():
    b = Builder()
    src, dst, anc = b.alloc(3), b.alloc(5), b.alloc(1)[0]
    sub_from(b, src, dst, anc)
    c = b.finish()
    for a in range(8):
        for s in range(32):
            out = c.simulate_basis(a | (s << 3))
            assert (out >> 3) & 31 == (s - a) % 32
            assert out & 7 == a and out >> 8 == 0
    # add then sub round-trips every state
    b = Builder()
    src, dst, anc = b.alloc(3), b.alloc(5), b.alloc(1)[0]
    add_into(b, src, dst, anc)
    sub_from(b, src, dst, anc)
    c = b.finish()
    for st in range(1 << 8):
        assert c.simulate_basis(st) == st


def test_increment_decrement_negate():
    for w in (1, 3, 5):
        cases = (
            (increment, lambda x: x + 1),
            (decrement, lambda x: x - 1),
            (negate_bits, lambda x: -x),
        )
        for emit, ref in cases:
            b = Builder()
            bits = b.alloc(w)
            emit(b, bits)
            c = b.finish()
            for x in range(1 << w):
                assert c.simulate_basis(x) == ref(x) % (1 << w)


def test_negate_bits_reach():
    # with a reach the +1 runs on the low bits alone: -x whenever they
    # are not all zero, and wrong on some x whose low bits are zero and
    # whose high bits are not, where the carry would have left them
    for w in range(2, 7):
        for reach in range(1, w):
            b = Builder()
            bits = b.alloc(w)
            negate_bits(b, bits, reach)
            c = b.finish()
            low = (1 << reach) - 1
            finals = c.simulate_batch(range(1 << w))
            assert all(f == -x % (1 << w) for x, f in enumerate(finals) if x & low), (w, reach)
            assert any(f != -x % (1 << w) for x, f in enumerate(finals) if not x & low and x)


def test_rotation_ladders():
    for w in (2, 3, 5):
        b = Builder()
        bits = b.alloc(w)
        rotate_right1(b, bits)
        c = b.finish()
        for x in range(1 << w):
            assert c.simulate_basis(x) == (x >> 1) | ((x & 1) << (w - 1))
        b = Builder()
        bits = b.alloc(w)
        rotate_left1(b, bits)
        c = b.finish()
        for x in range(1 << w):
            assert c.simulate_basis(x) == ((x << 1) | (x >> (w - 1))) % (1 << w)


def test_shift_block_and_wrap_flag():
    w = 5
    for k in (0, 1, 2):
        for direction in ("left", "right"):
            c = build_shift(w, k, direction)
            for x in range(1 << w):
                got = c.simulate_basis(x)
                if direction == "left":
                    logical = (x << k) % (1 << w)
                else:
                    logical = x >> k
                if shift_wraps(x, w, k, direction):
                    assert got != logical or k == 0
                else:
                    assert got == logical, (k, direction, x)


def test_absolute_block():
    for w in (2, 3, 5):
        c = build_absolute(w)
        A, W = c.registers["A"], c.registers["W"]
        half = 1 << (w - 1)
        for a in range(1 << w):
            out = c.simulate_basis(A.insert(0, a))
            if a == half:
                # most negative pattern keeps its bits, flag still set
                assert A.extract(out) == half and W.extract(out) == 1
                continue
            val = a - (1 << w) if a & half else a
            assert A.extract(out) == abs(val)
            assert W.extract(out) == (1 if val < 0 else 0)


def test_square_exact_both_methods():
    for k in (1, 2, 3, 4, 5):
        direct = build_square(k)
        A, P = direct.registers["A"], direct.registers["P"]
        for a in range(1 << k):
            out = direct.simulate_basis(A.insert(0, a))
            assert A.extract(out) == a
            assert P.extract(out) == a * a
            clean(direct, out, "Anc")
    for k in (1, 2, 3, 4):
        rs = build_square(k, method="reversed_sqrt", policy="clean")
        A, P = rs.registers["A"], rs.registers["P"]
        for a in range(1 << k):
            out = rs.simulate_basis(A.insert(0, a))
            assert P.extract(out) == a * a
            clean(rs, out, "W", "RootT", "Anc")


def test_square_window_matches_fixedpoint():
    # same-layout squaring keeps the frac_bits window of the product
    lay = Layout(2, 3, False)
    c = build_square(lay.width, out_width=lay.width, drop_low=lay.frac_bits)
    A, P = c.registers["A"], c.registers["P"]
    for a in range(1 << lay.width):
        out = c.simulate_basis(A.insert(0, a))
        want = ((a * a) >> lay.frac_bits) % (1 << lay.width)
        assert P.extract(out) == want
        try:
            exact = fp_square(make(a, lay))
            assert exact.raw == want
        except Exception:
            pass  # overflow cases wrap in-circuit by design


def test_square_clean_policy_restores_wide():
    for method in ("shift_add", "reversed_sqrt"):
        c = build_square(3, out_width=3, drop_low=2, method=method, policy="clean")
        A, P = c.registers["A"], c.registers["P"]
        for a in range(8):
            out = c.simulate_basis(A.insert(0, a))
            assert P.extract(out) == ((a * a) >> 2) % 8
            clean(c, out, "W", "RootT", "Anc")


def test_sqrt_blocks_exhaustive():
    for w in (2, 3, 4, 5, 6):
        for q in (0, 1, 2):
            for policy in ("garbage", "clean"):
                c = build_sqrt(w, q, policy)
                A, B = c.registers["A"], c.registers["B"]
                s = sqrt_frame_width(w + q)[1]
                # under garbage the frame's top holds the walk's sign bits
                assert c.registers["AncHigh"].role == (
                    "ancilla-clean" if policy == "clean" else "garbage")
                for a in range(1 << w):
                    out = c.simulate_basis(A.insert(0, a))
                    r = math.isqrt(a << q)
                    assert B.extract(out) == r, (w, q, policy, a)
                    if policy == "clean":
                        assert A.extract(out) == a
                        clean(c, out, "AncLow", "AncHigh", "RootT")
                    else:
                        got, pos = 0, 0
                        for nm in (["AncLow"] if q else []) + ["A", "AncHigh"]:
                            reg = c.registers[nm]
                            got |= reg.extract(out) << pos
                            pos += reg.size
                        # N - (r|1)^2 on s+2 bits, every frame bit above 0
                        assert got == ((a << q) - (r | 1) ** 2) % (1 << s + 2), (w, q, a)


@pytest.mark.parametrize("extra", [0, 2])
def test_sqrt_stages_every_radicand(extra):
    # frames of 2s+1 and 2s+3 bits, each width one bit-sliced batch
    for s in range(2, 9):
        b = Builder()
        frame, root = b.alloc(2 * s + 1 + extra), b.alloc(s)
        sqrt_stages(b, frame, root, s)
        c = b.finish()
        for n, out in enumerate(c.simulate_batch(range(4 ** s))):
            r = math.isqrt(n)
            # frame[:s+2] holds n - (r|1)^2 in two's complement, every
            # frame bit above it 0
            assert out == (n - (r | 1) ** 2) % (1 << s + 2) | (r << len(frame)), (s, extra, n)


@pytest.mark.parametrize("extra", [0, 2])
@pytest.mark.parametrize("method", ["shift_add", "reversed_sqrt"])
def test_square_every_source(method, extra):
    for k in range(2, 9):
        b = Builder()
        src, dst = b.alloc(k), b.alloc(square_width(k, method) + extra)
        root_t, anc = b.alloc(k), b.alloc(1)[0]
        square(b, method, src, dst, root_t, anc)
        c = b.finish()
        for a, out in enumerate(c.simulate_batch(range(1 << k))):
            # src kept, dst = a^2, root_t and anc back at 0
            assert out == a | (a * a << k), (method, extra, k, a)


def test_reversed_square_preimage():
    # square_via_root writes the state the forward walk on src^2 ends on,
    # then runs that walk inverted: for k = 1..10 and every src, its
    # gates before the walk take (src, 0, 0) to exactly where the walk
    # takes (src, src^2, 0)
    for k in range(1, 11):
        fwd, rev = Builder(), Builder()
        for b in (fwd, rev):  # the same qubits in both
            src, frame, root = b.alloc(k), b.alloc(2 * k + 1), b.alloc(k)
        sqrt_stages(fwd, frame, root, k)
        square_via_root(rev, src, frame, root)
        cut = len(rev.gates) - len(fwd.gates)
        assert rev.gates[cut:] == fwd.gates[::-1], k
        rev.gates[cut:] = []
        ends = fwd.finish().simulate_batch([a | a * a << k for a in range(1 << k)])
        assert rev.finish().simulate_batch(range(1 << k)) == ends, k


def sqrt_stage_values(n, s):
    """Raw-int non-restoring walk on radicand n: the frame value each
    stage ends on, top stage first."""
    x, root = n, 0
    for i in range(s - 1, -1, -1):
        q = root >> i + 1
        if i == s - 1:
            x -= 4 ** i
        elif q & 1:
            x -= (4 * q + 1) << 2 * i
        else:
            x += (4 * q + 3) << 2 * i
        root |= (x >= 0) << i
        yield x


def test_stage_windows_are_tight():
    # sqrt_stages runs stage i on s+i+2 bits and stops at stage 0:
    # every radicand's stage values fit them, the walk ends on
    # n - (isqrt(n)|1)^2, and 4^s - 1 (the largest root) fills each
    # stage window
    for s in range(1, 9):
        for n in range(4 ** s):
            ends = list(sqrt_stage_values(n, s))
            assert all(-(2 << s + i) <= x < 2 << s + i
                       for i, x in zip(range(s - 1, -1, -1), ends)), (s, n)
            assert ends[-1] == n - (math.isqrt(n) | 1) ** 2, (s, n)
    for s in range(1, 11):
        ends = list(sqrt_stage_values(4 ** s - 1, s))
        assert all(x >= 1 << s + i for i, x in zip(range(s - 1, -1, -1), ends))
    # square_into's stages 0..j are square_into on src[:j+1] and
    # dst[:2j+2]: they leave (src mod 2^(j+1))^2 and touch no other qubit
    for k in range(1, 11):
        b = Builder()
        src, dst, anc = b.alloc(k), b.alloc(2 * k), b.alloc(1)[0]
        square_into(b, src, dst, anc)
        for j in range(k):
            low = Builder()
            low.alloc(b.n)
            square_into(low, src[:j + 1], dst[:2 * j + 2], anc)
            assert b.gates[:len(low.gates)] == low.gates, (k, j)
            used = set(src[:j + 1] + dst[:2 * j + 2] + (anc,))
            assert all(set(g.qubits) <= used for g in low.gates), (k, j)
            c = low.finish()
            for a, out in enumerate(c.simulate_batch(range(1 << k))):
                lo = a % (2 << j)
                assert out == a | lo * lo << k, (k, j, a)


def test_sqrt_matches_fixedpoint_layer():
    lay = Layout(3, 3, False)
    c = build_sqrt(lay.width, lay.frac_bits, "clean")
    A, B = c.registers["A"], c.registers["B"]
    for a in range(1 << lay.width):
        out = c.simulate_basis(A.insert(0, a))
        assert B.extract(out) == sqrt_nonrestoring(make(a, lay)).raw


def test_reciprocal_blocks():
    for w, q in ((3, 1), (4, 2), (5, 2), (4, 3)):
        for policy in ("garbage", "clean"):
            c = build_reciprocal(w, q, policy)
            A, B = c.registers["A"], c.registers["B"]
            for a in range(1, 1 << w):
                want = (1 << (2 * q)) // a
                if want >= (1 << w):
                    continue
                out = c.simulate_basis(A.insert(0, a))
                assert A.extract(out) == a
                assert B.extract(out) == want, (w, q, policy, a)
                if policy == "clean":
                    clean(c, out, "R", "QuotT", "Anc")


def test_controlled_context_gates_everything():
    b = Builder()
    ctl = b.alloc(1)[0]
    src, dst, anc = b.alloc(3), b.alloc(6), b.alloc(1)[0]
    with b.controls([(ctl, True)]):
        add_into(b, src, dst, anc)
        square_into(b, src, dst, anc)
        negate_bits(b, dst)
        rotate_right1(b, dst)
    c = b.finish()
    rng = random.Random(11)
    for _ in range(200):
        st = rng.randrange(1 << 10) & ~1
        assert c.simulate_basis(st) == st  # control off: identity
    # control on: equals the unconditioned composite
    plain = Builder()
    src2, dst2, anc2 = plain.alloc(3), plain.alloc(6), plain.alloc(1)[0]
    add_into(plain, src2, dst2, anc2)
    square_into(plain, src2, dst2, anc2)
    negate_bits(plain, dst2)
    rotate_right1(plain, dst2)
    ref = plain.finish()
    for _ in range(200):
        st = rng.randrange(1 << 9)
        got = c.simulate_basis((st << 1) | 1)
        assert got == (ref.simulate_basis(st) << 1) | 1


def test_negative_polarity_context():
    b = Builder()
    ctl = b.alloc(1)[0]
    bits = b.alloc(4)
    with b.controls([(ctl, False)]):
        increment(b, bits)
    c = b.finish()
    for x in range(16):
        assert c.simulate_basis(x << 1) == ((x + 1) % 16) << 1
        assert c.simulate_basis((x << 1) | 1) == ((x << 1) | 1)


@pytest.mark.parametrize("polarity", [(), (False,), (True, False), (False, True, False)])
def test_rotate_under_each_context(polarity):
    # swap2 emits swap, cswap or a cx/X/cx sandwich by context width
    b = Builder()
    ctl = b.alloc(len(polarity))
    bits = b.alloc(3)
    with b.controls(list(zip(ctl, polarity))):
        rotate_right1(b, bits)
    c = b.finish()
    k = len(polarity)
    fire = sum(1 << i for i, pos in enumerate(polarity) if pos)
    for st in range(1 << (k + 3)):
        x = st >> k
        if st & ((1 << k) - 1) == fire:
            x = (x >> 1) | ((x & 1) << 2)
        assert c.simulate_basis(st) == (x << k) | (st & ((1 << k) - 1))


def test_block_inverses_round_trip():
    rng = random.Random(23)
    for build in (
        lambda: build_adder(4),
        lambda: build_square(3),
        lambda: build_sqrt(4, 1, "garbage"),
        lambda: build_reciprocal(4, 2, "clean"),
        lambda: build_absolute(4),
    ):
        c = build()
        inv = c.inverse()
        for _ in range(50):
            st = rng.randrange(1 << c.n_qubits)
            assert inv.simulate_basis(c.simulate_basis(st)) == st


def test_random_wide_blocks():
    rng = random.Random(501)
    b = Builder()
    src, dst, anc = b.alloc(12), b.alloc(12), b.alloc(1)[0]
    add_into(b, src, dst, anc)
    c = b.finish()
    for _ in range(300):
        a, s = rng.randrange(1 << 12), rng.randrange(1 << 12)
        out = c.simulate_basis(a | (s << 12))
        assert (out >> 12) & 4095 == (a + s) % 4096
        assert out >> 24 == 0

    c = build_square(6)
    A, P = c.registers["A"], c.registers["P"]
    for a in range(64):
        out = c.simulate_basis(A.insert(0, a))
        assert P.extract(out) == a * a

    c = build_sqrt(10, 0, "garbage")
    A, B = c.registers["A"], c.registers["B"]
    for _ in range(150):
        a = rng.randrange(1 << 10)
        out = c.simulate_basis(A.insert(0, a))
        assert B.extract(out) == math.isqrt(a)


def div_end_frame(nn, dd, dw, shift, t, fw):
    """The frame div_stages leaves for numerator nn and the dw-bit
    divisor dd: nn - (quo|1) dd 2^shift in its low dw+shift+1 bits, and
    not quo[min(i+1, t-1)] in frame bit dw+shift+1+i above them."""
    quo, low = nn // (dd << shift), dw + shift + 1
    rem = (nn - (quo | 1) * (dd << shift)) % (1 << low)
    return rem | sum((~quo >> min(i + 1, t - 1) & 1) << low + i for i in range(fw - low))


def test_divider_stage_frame_sizing():
    rng = random.Random(77)
    for dw, t in ((3, 3), (4, 4), (5, 3)):
        num_w = dw + t - 1
        fw = div_frame_width(num_w, dw, t)
        b = Builder()
        frame, d, q = b.alloc(fw), b.alloc(dw), b.alloc(t)
        anc = b.alloc(1)[0]
        div_stages(b, frame, d, q, anc)
        c = b.finish()
        for _ in range(200):
            dd = rng.randrange(1, 1 << dw)
            nn = rng.randrange(0, min(dd << t, 1 << num_w))
            out = c.simulate_basis(nn | (dd << fw))
            got_q = (out >> (fw + dw)) & ((1 << t) - 1)
            assert got_q == nn // dd, (dw, t, nn, dd)
            assert (out >> fw) & ((1 << dw) - 1) == dd
            # the walk stops at the last quotient bit: nn - (q|1) dd in
            # frame[:dw+1], and at this exact width ~q >> 1 above it
            rem = out & ((1 << fw) - 1)
            assert rem & ((2 << dw) - 1) == (nn - (got_q | 1) * dd) % (2 << dw)
            assert rem >> dw + 1 == (~got_q >> 1) % (1 << t - 1)


def check_every_quotient(dw, t, shift, ctx=0, extra=0):
    """Run div_stages on every numerator and nonzero dw-bit divisor whose
    quotient fits t bits, in a frame extra bits wider than
    div_frame_width and under ctx context qubits, as one batch, and
    check the full end state.  Returns the number of cases."""
    num_w = dw + shift + t - 1
    fw = div_frame_width(num_w, dw + shift, t) + extra
    b = Builder()
    ctl = b.alloc(ctx)
    frame, d, q, anc = b.alloc(fw), b.alloc(dw), b.alloc(t), b.alloc(1)[0]
    with b.controls([(x, True) for x in ctl]):
        div_stages(b, frame, d, q, anc, shift)
    c = b.finish()
    cases = [(on, nn, dd) for on in range(1 << ctx) for dd in range(1, 1 << dw)
             for nn in range(min(dd << t + shift, 1 << num_w))]
    starts = [on | (nn | dd << fw) << ctx for on, nn, dd in cases]
    for (on, nn, dd), st, out in zip(cases, starts, c.simulate_batch(starts)):
        if ctx and not on:
            assert out == st, (dw, t, shift, extra, nn, dd)
            continue
        quo = nn // (dd << shift)
        # the windowed frame (div_end_frame), divisor kept, quotient,
        # anc 0
        rem = div_end_frame(nn, dd, dw, shift, t, fw)
        want = on | (rem | dd << fw | quo << fw + dw) << ctx
        assert out == want, (dw, t, shift, ctx, extra, nn, dd)
    return len(cases)


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("ctx", [0, 1])
def test_divider_every_quotient(ctx, shift):
    # every numerator and nonzero divisor whose quotient fits, dw, t <= 5,
    # one batch per shape; with a context qubit the block must fire only
    # where it is set
    for dw in range(1, 6):
        for t in range(1, 6):
            check_every_quotient(dw, t, shift, ctx)


@pytest.mark.parametrize("shift", [0, 1])
def test_divider_wider_frames(shift):
    # frames 1-3 bits wider than div_frame_width, dw, t <= 4: the windows
    # stay where they are, and every frame bit above the top stage's
    # window holds the sign that stage read, the complement of quo[t-1]
    cases = sum(check_every_quotient(dw, t, shift, extra=extra)
                for dw in range(1, 5) for t in range(1, 5) for extra in (1, 2, 3))
    assert cases == (10800, 21600)[shift]


def compiled_adds(c):
    """The register-add entries of c's compiled program."""
    def flat(prog):
        for e in prog:
            yield from flat(e[3]) if e[2] == _BLK else [e]
    return sum(e[2] == _RADD for e in flat(c._prepared(circuit._COMPILE_AFTER)))


def test_each_add_fuses():
    # one register-add entry per add the block emits: s - 1 for s sqrt
    # stages, k - 1 for a k-bit square, t for t quotient bits,
    # inside a context too; an add, a subtract and an add with its clean
    # uncompute replay under a context of one or two qubits
    for s in range(1, 9):
        b = Builder()
        frame, root = b.alloc(2 * s + 1), b.alloc(s)
        sqrt_stages(b, frame, root, s)
        assert compiled_adds(b.finish()) == s - 1
    for k in range(1, 9):
        b = Builder()
        src, dst, anc = b.alloc(k), b.alloc(2 * k), b.alloc(1)[0]
        square_into(b, src, dst, anc)
        assert compiled_adds(b.finish()) == k - 1
    for dw, t in ((3, 3), (4, 4), (5, 3)):
        for ctl in ((), ((0, False),)):
            b = Builder()
            b.alloc(len(ctl))
            frame, d, q, anc = b.alloc(dw + t + 1), b.alloc(dw), b.alloc(t), b.alloc(1)[0]
            with b.controls(ctl):
                div_stages(b, frame, d, q, anc, shift=1)
            assert compiled_adds(b.finish()) == t
    for ctl in (((0, True),), ((0, True), (1, False))):
        for emit, adds in ((add_into, 1), (sub_from, 1), (replayed_add, 2)):
            b = Builder("clean")
            b.alloc(len(ctl))
            src, dst, anc = b.alloc(3), b.alloc(5), b.alloc(1)[0]
            with b.controls(ctl):
                emit(b, src, dst, anc)
            assert compiled_adds(b.finish()) == adds, (ctl, emit)


def replayed_add(b, src, dst, anc):
    """add_into and its uncompute replay, the add reversed under clean."""
    with b.compute() as done:
        add_into(b, src, dst, anc)
    b.uncompute(done)


@pytest.mark.parametrize("sign", [1, -1])
def test_add_under_a_mixed_context_every_state(sign):
    # add_into (sub_from) under a context of qubit 0 set and qubit 1
    # clear, src of w = 1..3 qubits, dst of w and w + 2, on every basis
    # state, anc set or clear: dst +- (src + anc) where the context holds,
    # every state unchanged elsewhere, one register-add entry, and the
    # compiled program as generated code (codegen.kernel, the basis
    # kernel of the compiled stage) equal to the gates run one by one
    emit = add_into if sign > 0 else sub_from
    for w in range(1, 4):
        for wd in (w, w + 2):
            b = Builder()
            ctl = b.alloc(2)
            src, dst, anc = b.alloc(w), b.alloc(wd), b.alloc(1)[0]
            with b.controls([(ctl[0], True), (ctl[1], False)]):
                emit(b, src, dst, anc)
            c = b.finish()
            assert compiled_adds(c) == 1, (sign, w, wd)
            one_by_one, bit, conds = [], circuit._Memo((1).__lshift__).__getitem__, {}
            for g in c.gates:
                circuit._fuse([g], one_by_one, bit, conds)
            assert len(one_by_one) == len(c.gates)
            compiled = codegen.kernel(c._prepared(circuit._COMPILE_AFTER))
            for st in range(1 << c.n_qubits):
                a, y, cin = st >> 2 & (1 << w) - 1, st >> 2 + w & (1 << wd) - 1, st >> anc & 1
                want = st
                if st & 3 == 1:
                    want ^= (y ^ (y + sign * (a + cin)) % (1 << wd)) << dst[0]
                got = compiled(st)
                assert got == circuit._run(one_by_one, st) == want, (sign, w, wd, st)


def test_sqrt_stages_cost_is_closed_form():
    # no mcx, and s^2 + s - 1 Toffolis as the docstring derives: no
    # constant cascade or final correction can come back unnoticed
    for s in range(1, 13):
        b = Builder()
        frame, root = b.alloc(2 * s + 1), b.alloc(s)
        sqrt_stages(b, frame, root, s)
        rc = b.finish().resource_count()
        assert rc["by_kind"]["mcx"] == 0, s
        assert rc["toffoli_equivalent"] == s * s + s - 1, s


def test_square_into_cost_is_closed_form():
    # no mcx, 3k^2 - k - 1 gates and (k-1)(2k+1) Toffolis as the
    # docstring derives: 4 per source bit of each add under src[j].  The
    # signed top stage costs the same, and the known-set one 2k - 1
    # Toffolis less from k = 2
    for top, k in itertools.product(SQUARE_TOPS, range(1, 13)):
        b = Builder()
        src, dst, anc = b.alloc(k), b.alloc(2 * k), b.alloc(1)[0]
        square_into(b, src, dst, anc, top)
        rc = b.finish().resource_count()
        less = (2 * k - 1) * (k > 1) if top == "set" else 0
        assert rc["by_kind"]["mcx"] == 0, (top, k)
        assert rc["gates"] == 3 * k * k - k - 1, (top, k)
        assert rc["toffoli_equivalent"] == (k - 1) * (2 * k + 1) - less, (top, k)


def test_square_into_top_stages():
    # every k-bit word: "signed" squares it as two's complement, its top
    # bit weighted -2^(k-1), and "set" squares it with the top bit
    # taken as 1, so a word with that bit clear gets (src + 2^(k-1))^2;
    # src is kept and anc ends at 0 either way
    for top, k in itertools.product(SQUARE_TOPS, range(1, 9)):
        b = Builder()
        src, dst, anc = b.alloc(k), b.alloc(2 * k), b.alloc(1)[0]
        square_into(b, src, dst, anc, top)
        c = b.finish()
        half = 1 << k - 1
        for a, out in enumerate(c.simulate_batch(range(1 << k))):
            v = {"plain": a, "signed": a - 2 * (a & half), "set": a | half}[top]
            assert out == a | v * v << k, (top, k, a)
    with pytest.raises(CircuitError, match="^unknown square top stage 'low'$"):
        square_into(Builder(), (0,), (1, 2), 3, "low")
    with pytest.raises(CircuitError, match="^the reversed root walk squares unsigned words only$"):
        square(Builder(), "reversed_sqrt", (0,), (1, 2), (3,), None, "signed")


@pytest.mark.parametrize("k", range(5))
def test_lookup_xors_the_table_value(k):
    # random tables over k controls onto 3 targets, beside one spectator
    # qubit: on every basis state the targets get values[x] XORed on, x
    # the controls' integer, and nothing else changes
    rng = random.Random(f"lookup/{k}")
    for values in ([0] * (1 << k), [7] * (1 << k),
                   *([rng.randrange(8) for _ in range(1 << k)] for _ in range(4))):
        b = Builder()
        ctl, bits = b.alloc(k), b.alloc(3)
        b.alloc(1)
        lookup(b, ctl, values, bits)
        c = b.finish()
        assert all(len(g.controls) <= k for g in c.gates)
        for s in range(1 << c.n_qubits):
            assert c.simulate_basis(s) == s ^ values[s & ((1 << k) - 1)] << k, (values, s)


def test_builder_shape_errors():
    b = Builder()
    src, dst, anc = b.alloc(4), b.alloc(3), b.alloc(1)[0]
    with pytest.raises(CircuitError):
        add_into(b, src, dst, anc)
    with pytest.raises(CircuitError):
        build_square(3, out_width=5, drop_low=2)
    with pytest.raises(CircuitError):
        build_sqrt(4, 0, "lazy")
    with pytest.raises(CircuitError, match="unknown ancilla policy 'lazy'"):
        Builder("lazy")
    with pytest.raises(CircuitError):
        build_shift(4, 1, "up")
    with pytest.raises(CircuitError):
        build_shift(4, 4)
    with pytest.raises(CircuitError):
        lookup(b, src[:2], [0, 1, 2], dst)


def test_compute_uncompute_follow_the_policy():
    for policy, role in (("garbage", "garbage"), ("clean", "ancilla-clean")):
        b = Builder(policy)
        assert b.clean == (policy == "clean")
        assert b.scratch("S", 2).role == role
        src, dst, anc = b.alloc(2), b.alloc(3), b.alloc(1)[0]
        b.flip(anc)
        with b.compute() as done:
            add_into(b, src, dst, anc)
        assert done == b.gates[1:]
        b.uncompute(done)
        assert b.gates[1:] == done + (done[::-1] if b.clean else [])
    # inverted() emits the body reversed, under either policy
    fwd, inv = Builder(), Builder("clean")
    add_into(fwd, fwd.alloc(2), fwd.alloc(3), fwd.alloc(1)[0])
    with inv.inverted():
        add_into(inv, inv.alloc(2), inv.alloc(3), inv.alloc(1)[0])
    assert inv.gates == fwd.gates[::-1]
    # the policy is checked before the window
    with pytest.raises(CircuitError, match="unknown ancilla policy 'lazy'"):
        build_square(3, out_width=5, drop_low=2, policy="lazy")


# SHA-256 of the concatenated export_text of the 90 block-factory circuits
# below.  A change that alters them on purpose updates it and says so.
BLOCKS_DIGEST = "b3fb22fbc97c33ce45fd3cf0878b73c9401b2b9242986d005cdde19c77f4529e"


def test_block_factory_circuits_digest():
    digest = hashlib.sha256()
    for policy in ("garbage", "clean"):
        for w in range(1, 6):
            circuits = []
            for q in range(3):
                circuits.append(build_sqrt(w, q, policy))
                if q:
                    circuits.append(build_reciprocal(w, q, policy))
            for method in ("shift_add", "reversed_sqrt"):
                circuits.append(build_square(w, w, w // 2, method, policy))
                circuits.append(build_square(w, method=method, policy=policy))
            for c in circuits:
                digest.update(export_text(c).encode())
    assert len(circuits) == 9
    assert digest.hexdigest() == BLOCKS_DIGEST


def test_frame_width_helpers():
    assert sqrt_frame_width(4) == (5, 2)
    assert sqrt_frame_width(5) == (7, 3)
    assert div_frame_width(5, 3, 4) == 7
