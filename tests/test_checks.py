"""The shared check bodies must see a fault: fed a circuit with one gate
dropped, one clean ancilla left flipped, a wrong inverse, a recurrence
whose output is off or a frame bit left set, each reports it in its
tally."""

import random

from fbe import checks, synth
from fbe.circuit import Circuit, Gate
from fbe.expansion import DigitString
from fbe.fixedpoint import make
from fbe.synth import SynthConfig, SynthesizedCircuit, synthesize


def without_last_output_gate(sc: SynthesizedCircuit) -> SynthesizedCircuit:
    """The same circuit minus the last gate that targets an output register."""
    out = {q for r in sc.circuit.registers.values() if r.role == "output"
           for q in range(r.start, r.start + r.size)}
    gates = sc.circuit.gates
    k = max(i for i, g in enumerate(gates) if out.intersection(g.targets))
    c = Circuit(sc.n_qubits)
    for reg in sc.circuit.registers.values():
        c.add_register(reg)
    c.extend(gates[:k] + gates[k + 1:])
    return SynthesizedCircuit(sc.config, sc.spec, sc.layout, c, sc.chain)


def test_group1_digits_see_a_dropped_gate():
    sc = synthesize(SynthConfig("log", 5, 5))
    cases, circuit_bad, oracle_bad = checks.group1_digits(sc)
    assert cases > 0 and circuit_bad == 0
    # the recurrence side does not involve the circuit
    broken = checks.group1_digits(without_last_output_gate(sc))
    assert broken[0] == cases and broken[1] > 0 and broken[2] == oracle_bad


def test_group1_values_see_a_wrong_digit(monkeypatch):
    sc = synthesize(SynthConfig("arccot", 5, 5))
    assert checks.group1_values(sc)[2] == 0
    expand = checks.fbe_expand

    def first_digit_flipped(spec, x, n, m):
        ds = expand(spec, x, n, m)
        return DigitString((1 - ds.digits[0],) + ds.digits[1:])

    monkeypatch.setattr(checks, "fbe_expand", first_digit_flipped)
    assert checks.group1_values(sc)[2] == len(list(checks.valid_raws(sc)))


def test_group2_errors_see_a_wrong_value(monkeypatch):
    budget, cases, under, _ = checks.group2_errors("exp2", 6, 12, 20, random.Random(2))
    assert under == cases == 23
    evaluate = checks.ifbe_evaluate

    def off_by_16_ulps(spec, ds, m):
        out, inf = evaluate(spec, ds, m)
        return make(out.raw + 16, out.layout), inf

    # the exp2 bound is 4 ulps, so every value now misses it
    monkeypatch.setattr(checks, "ifbe_evaluate", off_by_16_ulps)
    _, cases, under, worst = checks.group2_errors("exp2", 6, 12, 20, random.Random(2))
    assert (cases, under) == (23, 0) and worst > float(budget.bound)


def test_reversibility_sees_a_flipped_clean_ancilla():
    # exp at n = 6, where steps past the digit tables use clean scratch
    for family, n in (("log", 3), ("exp", 6)):
        sc = synthesize(SynthConfig(family, n, 6, "clean"))
        inverse_bad, inputs, ancilla_bad = checks.reversibility(sc, random.Random(1), 20)
        assert inverse_bad == ancilla_bad == 0 and inputs > 0
        anc = next(r for r in sc.circuit.registers.values()
                   if r.role == "ancilla-clean")
        sc.circuit.add(Gate("x", (anc.start,)))
        # still a permutation its inverse undoes, but no input ends clean
        assert checks.reversibility(sc, random.Random(1), 20) == (0, inputs, inputs)
        assert checks.reversibility(sc, random.Random(1), 0, 3) == (0, 3, 3)


def test_reversibility_sees_a_wrong_inverse(monkeypatch):
    sc = synthesize(SynthConfig("cos", 3, 6))
    inv = sc.circuit.inverse()
    inv.add(Gate("x", (0,)))
    monkeypatch.setattr(sc.circuit, "inverse", lambda: inv)
    assert checks.reversibility(sc, random.Random(1), 20, 0)[0] == 20


def test_exhaustive_sees_a_dropped_gate():
    for family, n in (("log", 3), ("cos", 3), ("cot", 6)):
        sc = synthesize(SynthConfig(family, n, 6))
        assert checks.exhaustive(sc) == (0, 0, True, None)
        assert checks.exhaustive(without_last_output_gate(sc))[0] > 0, family


def test_exhaustive_sees_a_flipped_clean_ancilla():
    for family, n in (("log", 3), ("exp", 6)):
        sc = synthesize(SynthConfig(family, n, 6, "clean"))
        anc = next(r for r in sc.circuit.registers.values()
                   if r.role == "ancilla-clean")
        sc.circuit.add(Gate("x", (anc.start,)))
        # every output and chain still right, but no input ends clean
        inputs = sum(1 for _ in checks.valid_args(sc))
        assert checks.exhaustive(sc) == (0, inputs, True, None), family


def test_exhaustive_sees_a_wrong_inverse(monkeypatch):
    sc = synthesize(SynthConfig("cos", 3, 6))
    inv = sc.circuit.inverse()
    inv.add(Gate("x", (0,)))
    monkeypatch.setattr(sc.circuit, "inverse", lambda: inv)
    assert checks.exhaustive(sc) == (0, 0, False, None)


def test_table2_rows_see_a_dropped_gate(monkeypatch):
    rows = list(checks.table2_rows())
    assert all(got == want for _, _, want, got, info in rows if not info)
    monkeypatch.setattr(checks, "synthesize",
                        lambda cfg: without_last_output_gate(synthesize(cfg)))
    broken = list(checks.table2_rows())
    assert [r[:3] for r in broken] == [r[:3] for r in rows]
    assert any(got != want for _, _, want, got, info in broken if not info)


def test_zero_at_borrow_sees_a_frame_bit_left_set():
    # exp's root walk returns its frame to zero from bit m + 2 up, where
    # step 5's frame starts under garbage.  Without the flip that clears
    # the sign bit step 4's last stage sheds, frame[m + 2], every output,
    # chain register and clean ancilla stays right, but 104 of the 256
    # inputs reach step 5 with that bit set
    m = 10
    sc, spans, borrowed = synth._build(SynthConfig("exp", 8, m))
    assert checks.zero_at_borrow(sc, spans, borrowed) == dict.fromkeys(range(4, 8), 0)
    (frame,) = borrowed[4]
    gates = sc.circuit.gates
    k = max(g for g in range(spans[4].start, spans[4].stop)
            if gates[g].kind == "cx" and gates[g].neg_mask and gates[g].targets[0] in frame)
    assert gates[k].targets == (frame[m + 2],) and borrowed[5][0][0] == frame[m + 2]
    sc.circuit.gates = gates[:k] + gates[k + 1:]
    spans = {i: slice(s.start - (s.start > k), s.stop - (s.stop > k)) for i, s in spans.items()}
    assert checks.exhaustive(sc) == (0, 0, True, None)
    assert checks.zero_at_borrow(sc, spans, borrowed) == {4: 0, 5: 104, 6: 0, 7: 0}


def test_never_fire_prices_the_gates_no_input_fires():
    # arccot (4, 8), garbage shift-add: 81 of its 1,019 Toffoli-
    # equivalents fire on no valid input.  Appended at the end, where
    # AncZ is back at zero on every input, a gate under AncZ joins them
    # at its price, and one under not-AncZ and a bit some input sets
    # does not
    sc = synthesize(SynthConfig("arccot", 4, 8))
    assert sc.circuit.resource_count()["toffoli_equivalent"] == 1019
    assert checks.never_fire(sc) == 81
    regs, gates = sc.circuit.registers, sc.circuit.gates
    z, a0, out = regs["AncZ"].start, regs["RegI0"].start, regs["RegO"].start
    sc.circuit.gates = gates + [Gate("mcx", (out,), (z, a0, a0 + 1))]
    assert checks.never_fire(sc) == 81 + 3
    sc.circuit.gates = gates + [Gate("ccx", (out,), (z, a0), 0b01)]
    assert checks.never_fire(sc) == 81
