"""Synthesized circuits against the classical recurrences."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from fbe import checks, synth
from fbe.blocks import Builder
from fbe.circuit import CircuitError, Gate, export_text, import_text
from fbe.expansion import (
    DigitString,
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
        # chain registers hold a_0 .. a_{n-1} of the classical trace
        chain = sc.chain_values(state)
        assert [c.raw for c in chain] == [t.raw for t in trace[:3]], (fn, raw)
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
    # two exceptions: exp's and cos's AncC, which gives every circuit a
    # clean ancilla, and bit 1 of each shift-and-add square, which holds
    # x^2 mod 4 in {0, 1}
    for policy, square, (n, m) in itertools.product(
            ("garbage", "clean"), SQUARE_METHODS, ((3, 6), (4, 8), (6, 10))):
        sc = synthesize(SynthConfig(fn, n, m, policy, square))
        touched = {q for g in sc.circuit.gates for q in g.qubits}
        idle = [(r.name, q - r.start) for r in sc.circuit.registers.values()
                for q in r.bits if q not in touched]
        allowed = {("AncC", 0)} if fn in ("exp", "cos") else set()
        if square == "shift_add":
            role = "AncSq" if fn in ("arccot", "cot") else "AncW"
            allowed |= {(nm, 1) for nm in sc.circuit.registers
                        if nm.rstrip("0123456789") == role}
        assert set(idle) <= allowed, (policy, square, n, m)


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
    # outputs, every chain register against the trace, clean ancillas
    # and the inverse
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


def test_arccot_trigger_flip_shows_only_in_the_chain():
    # each step flips a[q] under AncZ around its division, so the
    # trigger step divides 1.0, not 0.  Without the two flips every
    # digit, clean ancilla and the inverse stay right on every input:
    # only the chain registers see them
    n, m = 4, 8
    for policy, square in itertools.product(("garbage", "clean"), SQUARE_METHODS):
        sc = synthesize(SynthConfig("arccot", n, m, policy, square))
        _, z, unit = arccot_flag_gates(sc)
        flips = [g for g in sc.circuit.gates if g.targets[0] in unit and g.controls == (z,)]
        assert len(flips) == 2 * (n - 1), (policy, square)
        sc.circuit.gates = [g for g in sc.circuit.gates if g not in flips]
        assert checks.exhaustive(sc) == (
            0, 0, True, "input 0: step 1, RegI1 wanted raw 16, got 110"), (policy, square)


def test_arccot_freeze_flag_guards_only_the_sentinel():
    # Anc1 is set under AncZ once per digit and read by nothing but the
    # n - 1 sentinel flips onto RegI{i+1}[q], with no other control
    n, m = 4, 8
    for policy, square in itertools.product(("garbage", "clean"), SQUARE_METHODS):
        sc = synthesize(SynthConfig("arccot", n, m, policy, square))
        anc1, z, unit = arccot_flag_gates(sc)
        gates = sc.circuit.gates
        reads = [(g.controls, g.neg_mask, unit.get(g.targets[0]))
                 for g in gates if anc1 in g.controls]
        assert reads == [((anc1,), 0, f"RegI{i}") for i in range(1, n)], (policy, square)
        writes = [(g.controls, g.neg_mask) for g in gates if anc1 in g.targets]
        assert writes == [((z,), 0)] * n, (policy, square)


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
    in the register the step reads, the digits so far in RegO (for an
    inverse evaluator up to digit i, which the step absorbs), the digit
    before in AncP and the freeze flag or latch in Anc1.  want adds what
    the step must leave: the next chain value, digit and flags."""
    spec, lay, regs = sc.spec, sc.layout, sc.circuit.registers
    k = i - (0 if sc.group == 1 else synth.TABLE_DIGITS)
    cur, nxt = (regs[nm] for nm in sc.chain[k:k + 2])
    rego, flag, par = regs["RegO"], regs.get("Anc1"), regs.get("AncP")

    def put(state, reg, raw):
        return state if reg is None else reg.insert(state, raw)

    cases = {}
    for arg in checks.valid_args(sc):
        if sc.group == 1:
            st, digits = spec.encode(arg, lay), 0
            for j in range(i):
                d, st = spec.step(st, lay)
                digits |= d << j
            d, after = spec.step(st, lay)
            start = put(rego.insert(cur.insert(0, st[0]), digits), flag, st[1])
            want = put(rego.insert(nxt.insert(start, after[0]), digits | d << i), flag, after[1])
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
    # value, digit and flags, the register it read restored, every other
    # register but garbage scratch unchanged, so every clean ancilla
    # ends at 0 (AncP at the digit the step absorbed).  Its gates are one
    # contiguous run of the whole circuit's
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
BUILDER_DIGEST = "92b21af55bc4dd49e961855aea96af42efc67e5ecf4a25bf95e677789c6c347e"


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
COMPUTED_STEPS_DIGEST = "a21010eda4638a2d57de87a7c07a32f0c2a56db5019c8648923f166da84207cc"


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
