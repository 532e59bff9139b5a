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
    fbe_expand,
    fbe_expand_trace,
    get_spec,
    ifbe_evaluate,
    ifbe_evaluate_trace,
)
from fbe.fixedpoint import make, render
from fbe.synth import SQUARE_METHODS, SYNTH_SPEC, SynthConfig, synthesize

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
    # at n = 4 every chain register comes from a digit table; n = 7 has
    # three computed steps after them
    for n, m in ((4, 6), (7, 8)):
        sc = synthesize(SynthConfig(fn, n, m, policy))
        for bits in itertools.product((0, 1), repeat=n):
            ds = DigitString(bits)
            (want, want_inf), trace = ifbe_evaluate_trace(sc.spec, ds, m)
            state = sc.circuit.simulate_basis(sc.encode_digits(ds))
            got, got_inf = sc.decode_value(state)
            assert (got.raw, got_inf) == (want.raw, want_inf), (fn, bits)
            chain = sc.chain_values(state)
            if fn == "cot":
                # RegI{i} holds the value after absorb step i, so the
                # chain is one step ahead of the trace and ends on the
                # finished value
                assert [c.raw for c in chain[:-1]] == \
                    [t.raw for t in trace[1:n]], (fn, bits)
            else:
                assert [c.raw for c in chain[:-1]] == \
                    [t.raw for t in trace[:n]], (fn, bits)
            if policy == "clean":
                assert checks.clean_ancillae_zero(sc, state), (fn, bits)


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
    # 2^0.1011 = 2^11/16; intermediate registers hold the printed chain
    sc = synthesize(SynthConfig("exp", 4, 16))
    state = sc.circuit.simulate_basis(sc.encode_digits(DigitString((1, 0, 1, 1))))
    chain = [float(c.value) for c in sc.chain_values(state)]
    for got, want in zip(chain[1:], (1.4142, 1.6818, 1.2968, 1.6105)):
        assert abs(got - want) < 1e-4
    fp, inf = sc.decode_value(state)
    assert not inf and fp.raw == 52772


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


def every_input(sc):
    """Every valid argument of sc, each with the recurrence's output:
    digits for group 1, (raw value, infinity flag) for group 2."""
    n, m = sc.config.n, sc.config.m
    if sc.group == 1:
        args = [make(raw, sc.layout).value for raw in checks.valid_raws(sc)]
        return args, [fbe_expand(sc.spec, x, n, m).digits for x in args]
    args = [DigitString(bits) for bits in itertools.product((0, 1), repeat=n)]
    want = [ifbe_evaluate(sc.spec, ds, m) for ds in args]
    return args, [(v.raw, inf) for v, inf in want]


def exhaustive_run(sc, args):
    """(start, out, final state of each argument) with every argument in
    one simulate_sparse start, each at its own amplitude."""
    encode = sc.encode_input if sc.group == 1 else sc.encode_digits
    start = {encode(x): complex(i + 1, -i) for i, x in enumerate(args)}
    out = sc.circuit.simulate_sparse(start)
    assert len(start) == len(out) == len(args)
    by_amp = {a: s for s, a in out.items()}
    return start, out, [by_amp[a] for a in start.values()]


def exhaustive_tally(sc, args, want, run=None):
    """(mismatches, dirty, inverse exact) over exhaustive_run, or over the
    run given: outputs that differ from want, outputs with a clean ancilla
    set, and whether the inverse circuit takes the outputs back to the
    start."""
    start, out, finals = run or exhaustive_run(sc, args)
    mismatches = dirty = 0
    for s, expected in zip(finals, want):
        if sc.group == 1:
            got = sc.decode_digits(s).digits
        else:
            v, inf = sc.decode_value(s)
            got = (v.raw, inf)
        mismatches += got != expected
        dirty += not checks.clean_ancillae_zero(sc, s)
    return mismatches, dirty, sc.circuit.inverse().simulate_sparse(out) == start


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
    # recurrence's output and leaves every clean ancilla at zero, and the
    # inverse takes the outputs back
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

        args, want = every_input(clean)
        assert exhaustive_tally(clean, args, want) == (0, 0, True), (fn, square)


def trace_chains(sc, args):
    """Per argument, the raw values the chain registers must end on: a_0
    .. a_{n-1} of the trace for a forward evaluator; for an inverse one
    the trace, and the finished value in the last register.  cot's
    RegI{i} holds the value after absorb step i, so its chain starts one
    step into the trace."""
    n, m = sc.config.n, sc.config.m
    if sc.group == 1:
        return [[t.raw for t in fbe_expand_trace(sc.spec, x, n, m)[1][:n]] for x in args]
    first = sc.config.function == "cot"
    chains = []
    for ds in args:
        (value, _), trace = ifbe_evaluate_trace(sc.spec, ds, m)
        chains.append([t.raw for t in trace[first:n]] + [value.raw])
    return chains


def chain_divergence(sc, args, chains, finals):
    """The first argument whose chain registers differ from chains,
    named with the step, the register and both raw values, or None."""
    regs = [sc.circuit.registers[nm] for nm in sc.chain]
    for x, want, state in zip(args, chains, finals):
        for i, (w, reg) in enumerate(zip(want, regs)):
            got = reg.extract(state)
            if got != w:
                name = f"digits {x.text()}" if sc.group == 2 else f"input {x}"
                return f"{name}: step {i}, {reg.name} wanted raw {w}, got {got}"
    return None


@pytest.mark.parametrize("fn, n, m", [(fn, 4, 8) for fn in FORWARD] + [("log", 6, 10)]
                         + [(fn, n, 10) for fn in INVERSE for n in (6, 8)])
def test_every_variant_at_the_workload_sizes_exhaustive(fn, n, m):
    # the benchmark's sizes: every valid input of each distinct variant
    # of fn, both policies and square methods, one batch per circuit:
    # outputs, every chain register against the trace, clean ancillas
    # and the inverse
    args = None
    for policy, square in itertools.product(
            ("garbage", "clean"), [sq for f, sq in VARIANTS if f == fn]):
        sc = synthesize(SynthConfig(fn, n, m, policy, square))
        if args is None:
            args, want = every_input(sc)  # once per size
            chains = trace_chains(sc, args)
        run = exhaustive_run(sc, args)
        assert chain_divergence(sc, args, chains, run[2]) is None, (policy, square)
        assert exhaustive_tally(sc, args, want, run) == (0, 0, True), (policy, square)


@pytest.mark.parametrize("fn, n, m, inputs", [
    ("arccot", 6, 10, 1023), ("cot", 8, 12, 256),
    # (12, 8), whose cot chain wraps from step 5; the workload sizes are
    # in test_every_variant_at_the_workload_sizes_exhaustive
    ("cot", 12, 8, 4096)])
def test_writeback_control_exhaustive(fn, n, m, inputs):
    # arccot and cot run each step's scratch blocks with no freeze or
    # latch control and control only the writes into the next chain
    # register.  Each cot step also squares and roots only the bits
    # cot_chain_bounds lets the value it reads reach, so every chain
    # register is checked against the trace as well.  Every valid input,
    # both policies and both square methods
    args = None
    for policy, square in itertools.product(("garbage", "clean"), SQUARE_METHODS):
        sc = synthesize(SynthConfig(fn, n, m, policy, square))
        if args is None:
            args, want = every_input(sc)  # once per size
            chains = trace_chains(sc, args)
        assert len(args) == inputs
        run = exhaustive_run(sc, args)
        assert chain_divergence(sc, args, chains, run[2]) is None, (policy, square)
        assert exhaustive_tally(sc, args, want, run) == (0, 0, True), (policy, square)


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
        args, want = every_input(sc)
        run = exhaustive_run(sc, args)
        assert chain_divergence(sc, args, trace_chains(sc, args), run[2]) is None, (n, m, policy)
        assert exhaustive_tally(sc, args, want, run) == (0, 0, True), (n, m, policy)


@pytest.mark.parametrize("narrow", ("k", "s"))
def test_cot_step_one_bit_narrower_is_caught(monkeypatch, narrow):
    # a step whose square (k) or root walk (s) runs one bit narrower than
    # the bound gives ends on a wrong chain value for some digit string,
    # at every computed step of (8, 10): steps 4-7, past the digit
    # tables, the last of which reads a wrapped chain
    n, m = 8, 10
    widths = synth._cot_step_widths
    sc = synthesize(SynthConfig("cot", n, m))
    args, _ = every_input(sc)
    chains = trace_chains(sc, args)
    finals = exhaustive_run(sc, args)[2]
    for step in range(synth.TABLE_DIGITS, n):
        def narrowed(bound, q, calls=itertools.count(synth.TABLE_DIGITS), step=step):
            k, s = widths(bound, q)
            if next(calls) != step:
                return k, s
            return (k - 1, s) if narrow == "k" else (k, s - 1)

        monkeypatch.setattr(synth, "_cot_step_widths", narrowed)
        mutant = synthesize(SynthConfig("cot", n, m))
        got = exhaustive_run(mutant, args)[2]
        assert got != finals, step
        assert chain_divergence(mutant, args, chains, got) is not None, step


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
BUILDER_DIGEST = "09fcd18169b7e13a6563558c9a66b67e2d0d55c814328bccabe914cf14375b1f"


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
        assert ("RegO" in sc.circuit.registers
                and sc.chain[0] == "RegI0")
