"""Synthesized circuits against the classical recurrences."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from fbe import checks, circuit, synth
from fbe.blocks import Builder, increment, negate_bits, square
from fbe.circuit import CircuitError, Gate, export_text, import_text
from fbe.expansion import (
    DigitString,
    _absorb_raw,
    _expand_raw,
    fbe_expand_trace,
    get_spec,
    ifbe_evaluate,
    ifbe_evaluate_trace,
)
from fbe.fixedpoint import make, render
from fbe.synth import SQUARE_METHODS, SYNTH_SPEC, SynthConfig, SynthesizedCircuit, synthesize

FORWARD = ("log", "arccos", "arccot")
INVERSE = ("exp", "cos", "cot")


def run_forward(sc, raw):
    state = sc.circuit.simulate_basis(sc.encode_input(make(raw, sc.layout).value))
    return state, sc.decode_digits(state)


@pytest.mark.parametrize("fn", FORWARD)
@pytest.mark.parametrize("policy", ("garbage", "clean"))
def test_forward_exhaustive_bit_exact(fn, policy):
    sc = synthesize(SynthConfig(fn, 3, 6, policy))
    for raw in checks.valid_raws(sc):
        x = make(raw, sc.layout).value
        want, trace = fbe_expand_trace(sc.spec, x, 3, 6)
        state, got = run_forward(sc, raw)
        assert got.digits == want.digits, (fn, raw)
        # chain registers end on the classical trace a_0 .. a_{n-1}, for
        # arccos and arccot as chain_words folds its signs into the digits
        chain = sc.chain_values(state)
        ends = checks.chain_words(sc, [t.raw for t in trace[:3]], want.digits)[1]
        assert [c.raw for c in chain] == ends, (fn, raw)
        if policy == "clean":
            assert checks.clean_ancillae_zero(sc, state), (fn, raw)


@pytest.mark.parametrize("fn", INVERSE)
@pytest.mark.parametrize("policy", ("garbage", "clean"))
def test_inverse_exhaustive_bit_exact(fn, policy):
    # at n = 4 a digit table writes the one chain register, the output;
    # n = 7 has three computed steps after it
    for n, m in ((4, 6), (7, 8)):
        sc = synthesize(SynthConfig(fn, n, m, policy))
        for bits in itertools.product((0, 1), repeat=n):
            ds = DigitString(bits)
            want, want_inf = ifbe_evaluate(sc.spec, ds, m)
            state = sc.circuit.simulate_basis(sc.encode_digits(ds))
            got, got_inf = sc.decode_value(state)
            assert (got.raw, got_inf) == (want.raw, want_inf), (fn, ds.digits)
            if policy == "clean":
                assert checks.clean_ancillae_zero(sc, state), (fn, ds.digits)
        assert len(sc.chain) == n - synth.TABLE_DIGITS + 1, (fn, n)
        # every chain register against its step of the trace
        assert checks.exhaustive(sc)[3] is None, (fn, n)


@pytest.mark.parametrize("fn", FORWARD + INVERSE)
def test_square_methods_and_policies_agree(fn):
    n, m = 3, 6
    outs = []
    for policy in ("garbage", "clean"):
        for method in ("shift_add", "reversed_sqrt"):
            sc = synthesize(SynthConfig(fn, n, m, policy, method))
            if sc.group == 1:
                rows = [run_forward(sc, raw)[1].digits
                        for raw in list(checks.valid_raws(sc))[::5]]
            else:
                rows = []
                for bits in itertools.product((0, 1), repeat=n):
                    st = sc.circuit.simulate_basis(sc.encode_digits(DigitString(bits)))
                    fp, inf = sc.decode_value(st)
                    rows.append((fp.raw, inf))
            outs.append(rows)
    assert outs[0] == outs[1] == outs[2] == outs[3]


# ------------------------------------------------------------- golden rows

def test_log_golden_rows():
    sc = synthesize(SynthConfig("log", 4, 4))
    for x, text in ((1, "0.000"), (2, "1.000")):
        _, ds = run_forward(sc, sc.spec.encode(Fraction(x), sc.layout)[0])
        assert ds.text(1) == text


def test_arccos_golden_rows():
    sc = synthesize(SynthConfig("arccos", 2, 4))
    rows = [(Fraction(0), ".10"), (Fraction(1, 2), ".01"),
            (Fraction(1), ".00"), (Fraction(-1, 2), ".10")]
    for x, text in rows:
        state = sc.circuit.simulate_basis(sc.encode_input(x))
        assert sc.decode_digits(state).text() == text, x


def test_arccot_golden_row():
    sc = synthesize(SynthConfig("arccot", 2, 4))
    state = sc.circuit.simulate_basis(sc.encode_input(1))
    assert sc.decode_digits(state).text() == ".01"


def test_cos_golden_rows():
    sc = synthesize(SynthConfig("cos", 2, 5))
    rows = [((0, 0), "01.000"), ((0, 1), "00.101"),
            ((1, 0), "00.000"), ((1, 1), "11.011")]
    for bits, text in rows:
        state = sc.circuit.simulate_basis(sc.encode_digits(DigitString(bits)))
        fp, inf = sc.decode_value(state)
        assert (render(fp), inf) == (text, False), bits


def test_cot_trivial_angles():
    # cot(pi/4) = 1 and cot(pi/2) = 0; x = 0 stays on the infinity flag
    sc = synthesize(SynthConfig("cot", 2, 6))
    for bits, value, inf in (((0, 1), 1, False), ((1, 0), 0, False),
                             ((0, 0), None, True)):
        state = sc.circuit.simulate_basis(sc.encode_digits(DigitString(bits)))
        fp, got_inf = sc.decode_value(state)
        assert got_inf == inf, bits
        if value is not None:
            assert fp.value == value, bits


def test_log_worked_trace_m16():
    # log2(1.5) = 0.1001...; on the [1,4) layout the same digits follow
    # the leading integer bit and the chain passes through 1.265625 and
    # 1.601806640625 exactly
    sc = synthesize(SynthConfig("log", 5, 16))
    state, ds = run_forward(sc, sc.spec.encode(Fraction(3, 2), sc.layout)[0])
    assert ds.digits == (0, 1, 0, 0, 1)
    chain = sc.chain_values(state)
    assert chain[2].raw == 20736 and float(chain[2].value) == 1.265625
    assert chain[3].raw == 26244 and float(chain[3].value) == 1.601806640625


def test_exp_worked_trace_m16():
    # 2^0.1011 = 2^11/16: the recurrence passes through the printed
    # chain, and at n = 4 the circuit's one chain register is the table
    # that holds its end
    ds = DigitString((1, 0, 1, 1))
    sc = synthesize(SynthConfig("exp", 4, 16))
    _, trace = ifbe_evaluate_trace(sc.spec, ds, 16)
    for t, want in zip(trace[1:], (1.4142, 1.6818, 1.2968, 1.6105)):
        assert abs(float(t.value) - want) < 1e-4
    assert sc.chain == ["RegI4"]
    state = sc.circuit.simulate_basis(sc.encode_digits(ds))
    (reg4,) = sc.chain_values(state)
    assert abs(float(reg4.value) - 1.6105) < 1e-4
    fp, inf = sc.decode_value(state)
    assert not inf and fp.raw == reg4.raw == 52772


# ------------------------------------------------------- structural checks

@pytest.mark.parametrize("fn", FORWARD + INVERSE)
@pytest.mark.parametrize("policy", ("garbage", "clean"))
def test_inverse_circuit_round_trips(fn, policy):
    import random

    rng = random.Random(f"{fn}/{policy}")
    sc = synthesize(SynthConfig(fn, 3, 6, policy))
    assert checks.reversibility(sc, rng, 25, inputs=0)[0] == 0


def test_superposed_digits_split_into_two_branches():
    # an H on the low digit qubit must yield exactly the two basis
    # outcomes of the individual strings, both at amplitude 1/sqrt(2)
    from fbe.circuit import Circuit

    sc = synthesize(SynthConfig("cos", 2, 5))
    rego = sc.circuit.registers["RegO"]
    c = Circuit(sc.n_qubits)
    c.add(Gate("h", (rego.start,)))
    c.extend(sc.circuit.gates)
    amps = c.simulate_sparse(sc.encode_digits(DigitString((1, 0))))
    want = {sc.circuit.simulate_basis(sc.encode_digits(DigitString(bits)))
            for bits in ((1, 0), (1, 1))}
    assert set(amps) == want
    for a in amps.values():
        assert abs(abs(a) - 2 ** -0.5) < 1e-12


@pytest.mark.parametrize("fn, policy, square", [
    v for v in itertools.product(FORWARD + INVERSE, ("garbage", "clean"),
                                 ("shift_add", "reversed_sqrt"))
    # exp and cos never square, so reversed_sqrt repeats shift_add there
    if v[0] not in ("exp", "cos") or v[2] == "shift_add"])
def test_sparse_runs_every_input_like_basis(fn, policy, square):
    # every encoded valid input in one start dict, each with its own
    # amplitude, goes through the bit-sliced stretch kernel at once
    sc = synthesize(SynthConfig(fn, 3, 6, policy, square))
    if sc.group == 1:
        inputs = [sc.encode_input(make(raw, sc.layout).value) for raw in checks.valid_raws(sc)]
    else:
        inputs = [sc.encode_digits(DigitString(bits))
                  for bits in itertools.product((0, 1), repeat=3)]
    start = {s: complex(i + 1, -i) for i, s in enumerate(inputs)}
    assert len(start) == len(inputs) > 1
    want = {sc.circuit.simulate_basis(s): a for s, a in start.items()}
    assert sc.circuit.simulate_sparse(start) == want


# the distinct variants: exp and cos never square, so their
# reversed_sqrt circuits repeat shift_add
VARIANTS = [(fn, square) for fn in FORWARD + INVERSE
            for square in ("shift_add", "reversed_sqrt")
            if fn not in ("exp", "cos") or square == "shift_add"]


def test_clean_scratch_is_one_register_per_role():
    # Builder: one register per role under clean, one per step under garbage
    b = Builder("clean")
    w = b.scratch("AncW", 3, 0)
    assert b.scratch("AncW", 3, 1) is w and w.name == "AncW"
    sq = b.scratch("AncSq", 2, 0)
    assert sq.name == "AncSq" and not set(sq.bits) & set(w.bits)
    assert w.role == sq.role == "ancilla-clean"
    g = Builder()
    assert [g.scratch("AncW", 3, i).name for i in range(2)] == ["AncW0", "AncW1"]
    assert g.scratch("W", 1).name == "W" and g.n == 7

    # every step of a clean circuit computes into the one shared scratch
    # register: each valid input, run in one bit-sliced batch, gives the
    # recurrence's output and chain and leaves every clean ancilla at
    # zero, and the inverse takes the outputs back
    assert len(VARIANTS) == 10
    for fn, square in VARIANTS:
        n, m = (4, 8) if fn in FORWARD else (6, 8)
        clean = synthesize(SynthConfig(fn, n, m, "clean", square))
        garbage = synthesize(SynthConfig(fn, n, m, "garbage", square))
        role = "AncW" if fn in ("log", "arccos", "exp", "cos") else "AncSq"
        # the inverse evaluators' first TABLE_DIGITS steps are digit
        # tables, which take no scratch
        steps = range(n - 1) if fn in FORWARD else range(synth.TABLE_DIGITS, n)
        scratch = [[r for r in sc.circuit.registers.values()
                    if r.name.rstrip("0123456789") == role]
                   for sc in (clean, garbage)]
        assert [r.name for r in scratch[0]] == [role], (fn, square)
        assert scratch[0][0].role == "ancilla-clean"
        assert [r.name for r in scratch[1]] == [f"{role}{i}" for i in steps]
        assert clean.n_qubits < garbage.n_qubits, (fn, square)

        assert checks.exhaustive(clean) == (0, 0, True, None), (fn, square)


def test_clean_scratch_refuses_a_wider_later_step():
    # one register serves every step under clean, so the first call must
    # ask for the widest; a later call for more bits fails, not narrows
    b = Builder("clean")
    w = b.scratch("AncSq", 5, 4)
    assert b.scratch("AncSq", 3, 5) is w
    with pytest.raises(CircuitError, match="^scratch AncSq: 6 bits asked, "
                                          "the shared register holds 5$"):
        b.scratch("AncSq", 6, 6)
    g = Builder()
    assert [g.scratch("AncSq", k, i).size for i, k in ((4, 5), (5, 6))] == [5, 6]


@pytest.mark.parametrize("fn", FORWARD + INVERSE)
def test_every_allocated_qubit_is_touched(fn):
    # a register is allocated only if some gate reads or writes it.  The
    # exceptions: exp's and cos's AncC, which gives every circuit a clean
    # ancilla, bit 1 of each shift-and-add square, which holds x^2 mod 4
    # in {0, 1}, and at n = 1 the input and output, whose layout is fixed:
    # a forward evaluator's one digit reads only the sign of RegI0, and
    # exp's one-digit table writes bits that are 0 on both digits.  The
    # inverse evaluators' garbage frames stack at (8, 10)
    sizes = ((1, 6), (3, 6), (4, 8), (6, 10)) + (((8, 10),) if fn in INVERSE else ())
    for policy, square, (n, m) in itertools.product(("garbage", "clean"), SQUARE_METHODS, sizes):
        sc = synthesize(SynthConfig(fn, n, m, policy, square))
        touched = {q for g in sc.circuit.gates for q in g.qubits}
        idle = [(r.name, q - r.start) for r in sc.circuit.registers.values()
                for q in r.bits if q not in touched]
        allowed = {("AncC", 0)} if fn in ("exp", "cos") else set()
        if n == 1:
            allowed |= {(r.name, q - r.start) for r in sc.circuit.registers.values()
                        if r.role in ("input", "output") for q in r.bits}
        if square == "shift_add":
            role = "AncSq" if fn in ("arccot", "cot") else "AncW"
            allowed |= {(nm, 1) for nm in sc.circuit.registers
                        if nm.rstrip("0123456789") == role}
        assert set(idle) <= allowed, (policy, square, n, m)


def test_garbage_frames_are_consecutive_qubits():
    # under garbage step i's frame starts on its kept bits, AncW{i} or
    # AncSq{i}, and runs on through the later steps' kept bits into the
    # zero top register: one run of qubits, so a ripple add across the
    # seam stays one fused register-add entry.  The entry counts are
    # pinned at (6, 10): a layout that built each frame from fresh low
    # bits and a top register elsewhere took exp from 186 to 306 entries
    # and cot from 209 to 339
    entries = {("exp", "shift_add"): 186, ("cos", "shift_add"): 186,
               ("cot", "shift_add"): 209, ("cot", "reversed_sqrt"): 320}
    for (fn, square), want in entries.items():
        for n in (6, 8):
            sc, spans, borrowed = synth._build(SynthConfig(fn, n, 10, "garbage", square))
            regs = sc.circuit.registers
            role = "AncSq" if fn == "cot" else "AncW"
            kept = [regs[f"{role}{i}"] for i in spans] + [regs[f"{role}Top"]]
            assert [r.role for r in kept] == ["garbage"] * len(spans) + ["ancilla-clean"]
            assert [r.start for r in kept[1:]] == [r.start + r.size for r in kept[:-1]]
            for i, r in zip(spans, kept):
                assert borrowed[i][0][0] == r.start, (fn, square, n, i)
                for frame in borrowed[i]:
                    assert frame == tuple(range(frame[0], frame[0] + len(frame)))
                assert borrowed[i][0][-1] < kept[-1].start + kept[-1].size
            if n == 6:
                assert len(circuit._fuse_adders(sc.circuit.gates)) == want, (fn, square)


@pytest.mark.parametrize("n, m", ((8, 10), (12, 16)))
def test_every_frame_is_zero_where_its_step_borrows_it(n, m):
    # every valid input reaches each computed step with that step's
    # scratch frames at zero, which under garbage is the stacked frames'
    # contract: the walk before returned them to zero
    for (fn, square), policy in itertools.product(VARIANTS, ("garbage", "clean")):
        if fn in INVERSE:
            counts = checks.zero_at_borrow(*synth._build(SynthConfig(fn, n, m, policy, square)))
            assert counts == dict.fromkeys(range(synth.TABLE_DIGITS, n), 0), (fn, square, policy)


def test_chain_divergence_needs_a_compared_register():
    # a circuit that names no chain register would pass on any chain
    sc = synthesize(SynthConfig("log", 3, 6))
    unchained = SynthesizedCircuit(sc.config, sc.spec, sc.layout, sc.circuit, [])
    assert checks.exhaustive(sc) == (0, 0, True, None)
    assert checks.exhaustive(unchained) == (0, 0, True, "no chain register compared")


@pytest.mark.parametrize("fn, n, m", [(fn, 4, 8) for fn in FORWARD] + [("log", 6, 10)]
                         + [(fn, n, 10) for fn in INVERSE for n in (6, 8)])
def test_every_variant_at_the_workload_sizes_exhaustive(fn, n, m):
    # the benchmark's sizes: every valid input of each distinct variant
    # of fn, both policies and square methods, one batch per circuit:
    # outputs, every chain register against its image of the trace
    # (checks.chain_words for the forward families), clean ancillas and
    # the inverse
    for policy, square in itertools.product(
            ("garbage", "clean"), [sq for f, sq in VARIANTS if f == fn]):
        sc = synthesize(SynthConfig(fn, n, m, policy, square))
        assert checks.exhaustive(sc) == (0, 0, True, None), (policy, square)


@pytest.mark.parametrize("fn, n, m, inputs", [
    ("arccot", 6, 10, 1023), ("arccot", 8, 12, 4095), ("cot", 8, 12, 256),
    # (12, 8), whose cot chain wraps from step 5; the workload sizes are
    # in test_every_variant_at_the_workload_sizes_exhaustive
    ("cot", 12, 8, 4096)])
def test_writeback_control_exhaustive(fn, n, m, inputs):
    # arccot and cot run each step's scratch blocks with no freeze or
    # latch control.  cot controls only the writes into the next chain
    # register, and arccot's writes carry no freeze control either: its
    # trigger step divides 1.0, so a frozen step's quotient is 0.  Each
    # cot step also squares and roots only the bits cot_chain_bounds
    # lets the value it reads reach, so every chain register is checked
    # against the trace as well.  Every valid input, both policies and
    # both square methods
    for policy, square in itertools.product(("garbage", "clean"), SQUARE_METHODS):
        sc = synthesize(SynthConfig(fn, n, m, policy, square))
        assert sum(1 for _ in checks.valid_args(sc)) == inputs
        assert checks.exhaustive(sc) == (0, 0, True, None), (policy, square)


def arccot_flag_gates(sc):
    """(Anc1, AncZ, the qubit a[q] of each chain register) of an arccot
    circuit."""
    regs, q = sc.circuit.registers, sc.layout.frac_bits
    unit = {regs[nm].start + q: nm for nm in sc.chain}
    return regs["Anc1"].start, regs["AncZ"].start, unit


def drop_trigger_flips(sc) -> int:
    """Drop arccot's flips of a[q] under AncZ around each division from
    sc; returns how many went."""
    _, z, unit = arccot_flag_gates(sc)
    gates = sc.circuit.gates
    sc.circuit.gates = [g for g in gates if not (g.targets[0] in unit and g.controls == (z,))]
    return len(gates) - len(sc.circuit.gates)


def test_arccot_trigger_flip_shows_only_in_the_chain():
    # each step flips a[q] under AncZ around its division, so the
    # trigger step divides 1.0, not 0.  Without the two flips every
    # digit, clean ancilla and the inverse stay right on every input:
    # only the chain registers see them, since a frozen chain's digit
    # does not read its register's sign.  The mutant's a = 0 also breaks
    # the frame negation's reach (0 < |a| < 1 under AncS), and the wrong
    # quotient, negated under AncS, reaches RegI1
    n, m = 4, 8
    for policy, square in itertools.product(("garbage", "clean"), SQUARE_METHODS):
        sc = synthesize(SynthConfig("arccot", n, m, policy, square))
        assert drop_trigger_flips(sc) == 2 * (n - 1), (policy, square)
        assert checks.exhaustive(sc) == (
            0, 0, True, "input 0: step 1, RegI1 wanted raw 16, got 145"), (policy, square)


def whole_negations(monkeypatch, config, mutate=None):
    """(shipped, whole) final states of every valid input, in one batch
    per circuit: config's circuit as synthesized, and built again with
    every negation whole, carrying its +1 through every bit.  The whole
    build ignores reach, and it negates cos's 1 +- a scratch t with its
    low bit: the frame qubit below the t[1:] the shipped step negates.
    mutate, if given, edits both circuits before they run."""
    shipped = synthesize(config)

    def whole(b, bits, reach=None):
        if any(bits[0] in f and bits[0] - 1 in f for fs in b.borrowed.values() for f in fs):
            bits = (bits[0] - 1, *bits)
        negate_bits(b, bits)

    with monkeypatch.context() as patched:
        patched.setattr(synth, "negate_bits", whole)
        full = synthesize(config)
    # the two builds differ, in cascade gates only
    assert full.circuit.registers == shipped.circuit.registers
    assert len(full.circuit.gates) > len(shipped.circuit.gates)
    starts = list(checks._starts(shipped))
    if mutate:
        mutate(shipped)
        mutate(full)
    return shipped.circuit.simulate_batch(starts), full.circuit.simulate_batch(starts)


@pytest.mark.parametrize("fn, n, m", [(fn, n, m) for fn in ("arccos", "arccot")
                                      for n, m in ((4, 8), (6, 10))]
                         + [("cos", 6, 10), ("cos", 8, 10)])
def test_negation_reach_keeps_every_whole_state(monkeypatch, fn, n, m):
    # each narrowed negation (arccos's and arccot's of u_i under its
    # sign and step 0's restore, arccot's frame and u_{i+1}, cos's 1 +- a)
    # ends every valid input on the very state, garbage frames included,
    # that whole negations give; checks.exhaustive reads outputs, chain
    # registers and clean ancillas only.  Shift-add arccos squares u
    # signed and negates nothing, so arccos runs reversed-sqrt alone
    for policy, square in itertools.product(("garbage", "clean"), [
            sq for f, sq in VARIANTS if f == fn and (fn, sq) != ("arccos", "shift_add")]):
        shipped, full = whole_negations(monkeypatch, SynthConfig(fn, n, m, policy, square))
        assert shipped == full, (policy, square)


def test_negation_reach_differential_sees_a_broken_contract(monkeypatch):
    # without the trigger flips, a = 0 reaches arccot's narrowed frame
    # negation under AncS with an all-zero square: the carry the reach
    # drops would have left its low 2q bits, and the final states differ
    for policy, square in itertools.product(("garbage", "clean"), SQUARE_METHODS):
        shipped, full = whole_negations(monkeypatch, SynthConfig("arccot", 4, 8, policy, square),
                                        drop_trigger_flips)
        assert sum(a != b for a, b in zip(shipped, full)) > 0, (policy, square)


def test_arccot_freeze_flag_guards_only_the_sentinel():
    # Anc1 is set under AncZ once per digit and read by nothing but the
    # n - 1 sentinel flips onto RegI{i+1}[q], with no other control, and
    # the digits: digit i takes the sign of RegI{i} and, from i = 1, the
    # digit before, each only while Anc1 is clear
    n, m = 4, 8
    for policy, square in itertools.product(("garbage", "clean"), SQUARE_METHODS):
        sc = synthesize(SynthConfig("arccot", n, m, policy, square))
        anc1, z, _ = arccot_flag_gates(sc)
        where = {q: f"{r.name}[{q - r.start}]" for r in sc.circuit.registers.values()
                 for q in r.bits}
        gates = sc.circuit.gates
        reads = [(where[g.targets[0]], [where[c] for c in g.controls], g.neg_mask)
                 for g in gates if anc1 in g.controls]
        want = []
        for i in range(n):
            want.append((f"RegO[{i}]", [f"RegI{i}[{m - 1}]", "Anc1[0]"], 0b10))
            if i < n - 1:
                want.append((f"RegI{i + 1}[{sc.layout.frac_bits}]", ["Anc1[0]"], 0))
            if i:
                want.append((f"RegO[{i}]", [f"RegO[{i - 1}]", "Anc1[0]"], 0b10))
        assert reads == want, (policy, square)
        writes = [(g.controls, g.neg_mask) for g in gates if anc1 in g.targets]
        assert writes == [((z,), 0)] * n, (policy, square)


@pytest.mark.parametrize("fn", ("arccos", "arccot"))
def test_dropped_digit_fold_or_input_restore_is_caught(monkeypatch, fn):
    # each digit i >= 1 takes sign(u_i) xor d_{i-1} (arccot's only while
    # Anc1 is clear): without that gate the digits go wrong.  Step 0
    # alone restores RegI0 from |x|: without it every digit stays right,
    # and the chain check names RegI0.  Shift-add arccos never makes
    # |x|, so it has no restore to drop
    n, m = 4, 8
    for policy, square in itertools.product(("garbage", "clean"), SQUARE_METHODS):
        config = SynthConfig(fn, n, m, policy, square)
        sc = synthesize(config)
        rego = sc.circuit.registers["RegO"].bits
        fold = [g for g in sc.circuit.gates if g.targets[0] in rego[1:]
                and g.controls[:1] == (g.targets[0] - 1,)]
        assert len(fold) == n - 1, (policy, square)
        sc.circuit.gates = [g for g in sc.circuit.gates if g not in fold]
        assert checks.exhaustive(sc)[0] > 0, (policy, square)
        if (fn, square) == ("arccos", "shift_add"):
            continue

        calls = itertools.count()

        def skip_restore(b, bits, reach=None):
            # step 0's second negation of RegI0 is the restore
            reg0 = next(r for r in b.regs if r.name == "RegI0")
            if bits[0] != reg0.start or next(calls) != 1:
                negate_bits(b, bits, reach)

        with monkeypatch.context() as patched:
            patched.setattr(synth, "negate_bits", skip_restore)
            unrestored = synthesize(config)
        mismatches, dirty, inverse, witness = checks.exhaustive(unrestored)
        assert (mismatches, dirty, inverse) == (0, 0, True), (policy, square)
        assert witness.split(": ")[1].startswith("step 0, RegI0 wanted raw "), witness


def forward_traces(sc):
    """(raw, trace a_0 .. a_{n-1}, digits) for every valid input of a
    forward evaluator, from the raw-int recurrence."""
    for raw in checks.valid_raws(sc):
        trace = [raw]
        digits = _expand_raw(sc.spec, (raw, 0), sc.config.n, sc.layout, trace)
        yield raw, trace[:sc.config.n], digits


def test_arccos_chain_words_read_signed_from_their_low_bits():
    # fact (a): every word an arccos chain register holds is u_k in
    # [-1, 1], and its low m - 1 bits, bit q weighted -2^q, read as u_k,
    # or as -1 where u_k = 1, so the signed top stage squares them to
    # u_k^2.  Every valid input, m = 4 .. 12
    for m in range(4, 13):
        sc = synthesize(SynthConfig("arccos", 4, m))
        q, low = sc.layout.frac_bits, (1 << m - 1) - 1
        for raw, trace, digits in forward_traces(sc):
            held, ends = checks.chain_words(sc, trace, digits)
            assert held == ends, (m, raw)
            for word in held:
                u = word - (word >> m - 1 << m)
                v = (word & low) - 2 * (word & 1 << q)
                assert -1 << q <= u <= 1 << q, (m, raw, word)
                assert v == (-u if u == 1 << q else u), (m, raw, word)


def test_arccos_zero_rule_matches_enumeration():
    # fact (b): one isqrt says whether a step can write u = 0, against a
    # step from every magnitude (the sign only negates the next value),
    # at every m up to 20; no zero at m = 5 .. 17
    spec = get_spec("arccos")
    zeros = {}
    for m in range(spec.min_width, 21):
        lay = spec.layout(m)
        q = lay.frac_bits
        zeros[m] = any(not spec.step((r, 0), lay)[1][0] for r in range((1 << q) + 1))
        assert synth.arccos_zero_after_step0(q) == zeros[m], m
    assert [m for m in zeros if zeros[m]] == [4, 18, 19, 20]


def test_log_halved_register_has_bit_q_set():
    # fact (c): on every valid log input, m = 4 .. 12, each chain value,
    # halved where its digit (bit q + 1) is set, has bit q set: the top
    # bit of the window the known-set top stage squares
    for m in range(4, 13):
        sc = synthesize(SynthConfig("log", 6, m))
        q = sc.layout.frac_bits
        for raw, trace, _ in forward_traces(sc):
            for a in trace:
                assert (a >> (a >> q + 1 & 1)) >> q & 1, (m, raw, a)


def test_arccot_quotient_reach_matches_every_input():
    # fact (d): past step 0 every negative word an arccot chain register
    # holds is a -Q, from a step with 0 < |a| < 1, and has fewer than T
    # trailing zeros; some input reaches T - 1.  Every valid input,
    # m = 4 .. 12
    for m in range(4, 13):
        sc = synthesize(SynthConfig("arccot", 4, m))
        reach, most = synth.arccot_quotient_reach(sc.layout), 0
        for raw, trace, digits in forward_traces(sc):
            for word in checks.chain_words(sc, trace, digits)[0][1:]:
                if word >> m - 1:
                    most = max(most, (word & -word).bit_length() - 1)
        assert most == reach - 1, m


def test_cot_increment_reach_matches_every_digit_string():
    # fact (e): step i's increment width is one more than the most
    # trailing ones of a^2 >> 2q over the words step i reads, across
    # every digit string, m = 4 .. 12 at n = 8
    spec, n = get_spec("cot"), 8
    for m in range(spec.min_width, 13):
        lay = spec.layout(m, n)
        q, most = lay.frac_bits, [0] * n
        for bits in itertools.product((0, 1), repeat=n):
            trace = [spec.init(lay)[0]]
            _absorb_raw(spec, spec.init(lay), bits, lay, trace)
            for i, a in enumerate(trace[:n]):
                x = a * a >> 2 * q
                most[i] = max(most[i], (x + 1 & ~x).bit_length())
        assert synth.cot_increment_reach(lay, n, synth.REACH_STATES) == tuple(most), m


def test_cot_increment_cap_brings_back_the_whole_cascade(monkeypatch):
    # with fact (e)'s pass capped at one state per step, every computed
    # step's a^2 + 1 increment runs on the whole a^2 >> 2q, 2(s - q) bits,
    # and every digit string ends on the state the shipped circuit gives
    n, m = 8, 10
    lay = get_spec("cot").layout(m, n)
    q, bounds = lay.frac_bits, synth.cot_chain_bounds(lay, n)
    steps = range(synth.TABLE_DIGITS, n)
    whole = [2 * (synth._cot_step_widths(bounds[i - 1], q)[1] - q) for i in steps]
    reach = synth.cot_increment_reach(lay, n, synth.REACH_STATES)
    assert all(reach[i] < w for i, w in zip(steps, whole)), (reach, whole)

    def build(config, cap):
        widths = []
        with monkeypatch.context() as patched:
            patched.setattr(synth, "REACH_STATES", cap)
            patched.setattr(synth, "increment",
                            lambda b, bits: (widths.append(len(bits)), increment(b, bits)))
            sc = synthesize(config)
        return widths, sc.circuit.simulate_batch(checks._starts(sc))

    for policy in ("garbage", "clean"):
        config = SynthConfig("cot", n, m, policy)
        widths, ends = build(config, synth.REACH_STATES)
        assert widths == [reach[i] for i in steps], policy
        assert build(config, 1) == (whole, ends), policy


def test_arccos_unsigned_top_stage_is_caught(monkeypatch):
    # shift-add arccos negates no u: its square's top stage subtracts.
    # Put back on add_into, it squares a negative u as its low m - 1
    # bits unsigned, and the chain check names the first wrong register
    calls = []
    monkeypatch.setattr(synth, "negate_bits", lambda *a: calls.append(a))
    for policy in ("garbage", "clean"):
        assert checks.exhaustive(synthesize(SynthConfig("arccos", 4, 8, policy))) == (
            0, 0, True, None)
    assert calls == []

    def unsigned(b, method, src, dst, root_tmp, anc, top="plain"):
        square(b, method, src, dst, root_tmp, anc, "plain" if top == "signed" else top)

    monkeypatch.setattr(synth, "square", unsigned)
    for policy in ("garbage", "clean"):
        assert checks.exhaustive(synthesize(SynthConfig("arccos", 4, 8, policy))) == (
            81, 0, True, "input 3/32: step 2, RegI2 wanted raw 60, got 68"), policy


@pytest.mark.parametrize("fn", INVERSE)
def test_digit_tables_then_computed_steps_exhaustive(fn):
    # the first TABLE_DIGITS chain registers come from tables on the
    # digit qubits and the rest are computed: all tables (n <= 4), then
    # one and two computed steps, at the narrowest width and at 8.  Every
    # digit string, both policies: value, infinity flag, every chain
    # register, clean ancillas and the inverse
    narrowest = get_spec(SYNTH_SPEC[fn]).min_width
    for n, m, policy in itertools.product((1, 4, 5, 6), (narrowest, 8), ("garbage", "clean")):
        sc = synthesize(SynthConfig(fn, n, m, policy))
        assert checks.exhaustive(sc) == (0, 0, True, None), (n, m, policy)


@pytest.mark.parametrize("narrow", ("k", "s"))
def test_cot_step_one_bit_narrower_is_caught(monkeypatch, narrow):
    # a step whose square (k) or root walk (s) runs one bit narrower than
    # the bound gives ends on a wrong chain value for some digit string,
    # at every computed step of (8, 10): steps 4-7, past the digit
    # tables, the last of which reads a wrapped chain
    n, m = 8, 10
    widths = synth._cot_step_widths
    assert checks.exhaustive(synthesize(SynthConfig("cot", n, m))) == (0, 0, True, None)
    for step in range(synth.TABLE_DIGITS, n):
        def narrowed(bound, q, calls=itertools.count(synth.TABLE_DIGITS), step=step):
            k, s = widths(bound, q)
            if next(calls) != step:
                return k, s
            return (k - 1, s) if narrow == "k" else (k, s - 1)

        monkeypatch.setattr(synth, "_cot_step_widths", narrowed)
        mutant = synthesize(SynthConfig("cot", n, m))
        assert checks.exhaustive(mutant)[3] is not None, step



def step_cases(sc, i):
    """{start: want} for step i of sc over every valid input.  start
    holds the raw-int recurrence's state before step i: the chain value
    in the register the step reads (for a forward evaluator the word
    checks.chain_words says it holds), the digits so far in RegO (for an
    inverse evaluator up to digit i, which the step absorbs), the digit
    before in AncP and the freeze flag or latch in Anc1.  want adds what
    the step must leave: the next chain value, the word the register it
    read ends on, the digit and the flags."""
    spec, lay, regs = sc.spec, sc.layout, sc.circuit.registers
    k = i - (0 if sc.group == 1 else synth.TABLE_DIGITS)
    cur, nxt = (regs[nm] for nm in sc.chain[k:k + 2])
    rego, flag, par = regs["RegO"], regs.get("Anc1"), regs.get("AncP")

    def put(state, reg, raw):
        return state if reg is None else reg.insert(state, raw)

    cases = {}
    for arg in checks.valid_args(sc):
        if sc.group == 1:
            states, digits = [spec.encode(arg, lay)], []
            for _ in range(sc.config.n):
                d, st = spec.step(states[-1], lay)
                digits.append(d)
                states.append(st)
            held, ends = checks.chain_words(sc, [st[0] for st in states[:-1]], digits)
            before = sum(d << j for j, d in enumerate(digits[:i]))
            start = put(rego.insert(cur.insert(0, held[i]), before), flag, states[i][1])
            want = put(rego.insert(nxt.insert(cur.insert(start, ends[i]), held[i + 1]),
                                   before | digits[i] << i), flag, states[i + 1][1])
        else:
            bits = arg.digits[::-1]  # bits[j] is absorbed at step j
            st = spec.init(lay)
            for j in range(i):
                st = spec.absorb(st, bits[j], j, lay)
            after = spec.absorb(st, bits[i], i, lay)
            digits = sum(b << j for j, b in enumerate(bits[:i + 1]))
            start = rego.insert(cur.insert(0, st[0]), digits)
            start = put(put(start, flag, st[1] & 1), par, bits[i - 1])
            want = put(put(nxt.insert(start, after[0]), flag, after[1] & 1), par, bits[i])
        cases[start] = want
    return cases


@pytest.mark.parametrize("fn", FORWARD + INVERSE)
def test_each_step_alone_runs_its_recurrence_step(fn):
    # every computed step as a circuit of its own, from every distinct
    # state the recurrence holds before it, in one batch: the next chain
    # value, digit and flags, the register it read on its chain_words
    # end (restored, but for arccos's and arccot's |a_i| at i >= 1),
    # every other register but garbage scratch unchanged, so every clean
    # ancilla ends at 0 (AncP at the digit the step absorbed).  Its gates
    # are one contiguous run of the whole circuit's
    n, m = (6, 8) if fn in FORWARD else (10, 8)
    for policy, square in itertools.product(("garbage", "clean"),
                                            [sq for f, sq in VARIANTS if f == fn]):
        config = SynthConfig(fn, n, m, policy, square)
        sc = synthesize(config)
        care = sum(((1 << r.size) - 1) << r.start for r in sc.circuit.registers.values()
                   if r.role != "garbage" or r.name in sc.chain or r.name == "Anc1")
        steps = range(n - 1) if fn in FORWARD else range(synth.TABLE_DIGITS, n)
        for i in steps:
            c = synth.step_circuit(config, i)
            assert c.registers == sc.circuit.registers
            cases = step_cases(sc, i)
            finals = c.simulate_batch(cases)
            bad = [s for s, f in zip(cases, finals) if f & care != cases[s]]
            assert len(cases) > 1 and not bad, (policy, square, i, len(bad), len(cases))
            full, gates = sc.circuit.gates, c.gates
            assert gates and any(full[j:j + len(gates)] == gates
                                 for j, g in enumerate(full) if g == gates[0]), (policy, square, i)
        with pytest.raises(CircuitError, match=f"^{fn} has no computed step {steps.stop}, "):
            synth.step_circuit(config, steps.stop)
        if fn in INVERSE:
            with pytest.raises(CircuitError, match=f"^{fn} has no computed step 0, "):
                synth.step_circuit(config, 0)


@pytest.mark.parametrize("fn", FORWARD + INVERSE)
def test_qubit_count_affine_in_m(fn):
    n = 4
    counts = [synthesize(SynthConfig(fn, n, m)).n_qubits for m in (8, 12, 16)]
    assert counts[1] - counts[0] == counts[2] - counts[1]


def test_synthesis_is_deterministic():
    a = synthesize(SynthConfig("arccot", 3, 7, "clean")).export()
    b = synthesize(SynthConfig("arccot", 3, 7, "clean")).export()
    assert a == b


# SHA-256 of the concatenated export_text of the 288 circuits below.  A
# change that alters circuits on purpose updates it and says so.
BUILDER_DIGEST = "939ba823e063feacf79dfc675cafc8da8250665217dc95dee0b580d9d5c39abb"


def test_builder_circuits_digest_and_gate_checks():
    # Builder makes gates without Gate's checks: pin what it emits, and
    # put every distinct gate through the checked constructor
    digest = hashlib.sha256()
    for fn, policy, square in itertools.product(
            FORWARD + INVERSE, ("garbage", "clean"), ("shift_add", "reversed_sqrt")):
        for n in range(1, 4):
            for m in range(5, 9):
                c = synthesize(SynthConfig(fn, n, m, policy, square)).circuit
                text = export_text(c)
                digest.update(text.encode())
                # and the text round-trips
                back = import_text(text)
                assert back.gates == c.gates and back.registers == c.registers
                assert export_text(back) == text
                for g in set(c.gates):
                    assert Gate(*g) == g
                    assert max(g.qubits) < c.n_qubits
    assert digest.hexdigest() == BUILDER_DIGEST


# SHA-256 of the concatenated export() of the 48 circuits below: past
# the digit tables, where exp, cos and cot run computed steps.  A change
# that alters circuits on purpose updates it and says so.
COMPUTED_STEPS_DIGEST = "8b703f83b7481fa9fb9f5b48a603c8b74b776eefd8462d8f8845e6ac9bbb68af"


def test_computed_steps_text_is_pinned():
    digest = hashlib.sha256()
    configs = list(itertools.product(FORWARD + INVERSE, ("garbage", "clean"), SQUARE_METHODS,
                                     ((6, 10), (8, 12))))
    for fn, policy, square, (n, m) in configs:
        digest.update(synthesize(SynthConfig(fn, n, m, policy, square)).export().encode())
    assert len(configs) == 48
    assert digest.hexdigest() == COMPUTED_STEPS_DIGEST


def test_export_import_simulates_identically():
    sc = synthesize(SynthConfig("exp", 3, 6))
    c2 = import_text(sc.export())
    ds = DigitString((1, 1, 0))
    start = sc.encode_digits(ds)
    assert c2.simulate_basis(start) == sc.circuit.simulate_basis(start)


def test_config_validation():
    with pytest.raises(CircuitError):
        SynthConfig("tanh", 3, 6)
    with pytest.raises(CircuitError):
        SynthConfig("log", 3, 6, policy="lazy")
    with pytest.raises(CircuitError):
        SynthConfig("log", 3, 6, square_method="booth")
    with pytest.raises(CircuitError):
        SynthConfig("log", 0, 6)
    sc = synthesize(SynthConfig("log", 2, 6))
    with pytest.raises(CircuitError):
        sc.encode_digits(DigitString((0, 1)))
    with pytest.raises(CircuitError, match="^log writes digits, not a value$"):
        sc.decode_value(0)
    sc2 = synthesize(SynthConfig("cos", 2, 6))
    with pytest.raises(CircuitError):
        sc2.encode_input(Fraction(1, 2))
    with pytest.raises(CircuitError):
        sc2.encode_digits(DigitString((0, 1, 1)))
    # digits of another radix are refused, not read as binary: (2, 0) in
    # radix 3 would encode as binary 10, and radix 4's 13 as binary 11
    for digits in (DigitString((2, 0), 3), DigitString((1, 3), 4), DigitString((1, 0), 3)):
        with pytest.raises(CircuitError, match=f"^digits of radix {digits.radix}, "):
            sc2.encode_digits(digits)


def test_synth_spec_covers_all_six():
    assert sorted(SYNTH_SPEC) == sorted(FORWARD + INVERSE)
    for fn, spec_name in SYNTH_SPEC.items():
        sc = synthesize(SynthConfig(fn, 2, 6))
        assert sc.spec.name == spec_name
        assert "RegO" in sc.circuit.registers
        if fn in FORWARD:
            assert sc.chain[0] == "RegI0"
        else:
            # the chain starts at the digit table's register, which here
            # is the output
            assert sc.chain == [f"RegI{2 - (fn == 'cot')}"]
            assert sc.circuit.registers[sc.chain[-1]].role == "output"
