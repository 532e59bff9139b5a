"""Check bodies shared by `fbe verify`, the acceptance tests, the tier-1
tests and CI.

Each body takes sizes, seeded generators and sample counts from its
caller and returns tallies; the caller writes the report line or the
assertion.  The inputs a body runs go through one Circuit.simulate_batch
call, and exhaustive is the one check of a whole circuit against its
recurrence.  No body asserts, so each holds under python -O.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from importlib.resources import files
from typing import Optional

from .expansion import (
    DigitString,
    _absorb_raw,
    _expand_raw,
    error_budget,
    fbe_expand,
    get_spec,
    group1_value_bound,
    group1_value_enclosure,
    ifbe_evaluate,
    parse_digits,
)
from .fixedpoint import make, parse, render
from .synth import SynthConfig, SynthesizedCircuit, synthesize


@lru_cache(maxsize=None)
def _valid_ranges(domain, lay) -> tuple[range, range]:
    """The raw patterns a spec with this domain encodes at lay, values >= 0
    then < 0: the domain ends in raw units, or with no domain (arccot)
    every pattern but the most negative."""
    full = 1 << lay.width
    if domain is None:
        lo, hi = 1 - full // 2, full // 2 - 1
    else:
        lo = (domain.lo << lay.frac_bits) + (not domain.lo_closed)
        hi = (domain.hi << lay.frac_bits) - (not domain.hi_closed)
    return range(max(lo, 0), hi + 1), range(full + lo, full + min(hi + 1, 0))


def is_valid_raw(sc: SynthesizedCircuit, raw: int) -> bool:
    """Whether the classical encoder accepts this raw input pattern."""
    raw %= 1 << sc.layout.width
    return any(raw in r for r in _valid_ranges(sc.spec.domain, sc.layout))


def valid_raws(sc: SynthesizedCircuit):
    """Every raw input pattern the encoder accepts, in increasing order."""
    return itertools.chain(*_valid_ranges(sc.spec.domain, sc.layout))


def valid_args(sc: SynthesizedCircuit):
    """Every valid argument of sc in order: each number the encoder
    accepts for a forward evaluator, each digit string for an inverse
    one."""
    if sc.group == 1:
        return (make(raw, sc.layout).value for raw in valid_raws(sc))
    return map(DigitString, itertools.product((0, 1), repeat=sc.config.n))


def _dirty(sc: SynthesizedCircuit, states) -> int:
    """How many of states have a clean ancilla set."""
    clean = sum(((1 << r.size) - 1) << r.start for r in sc.circuit.registers.values()
                if r.role == "ancilla-clean")
    return sum(bool(s & clean) for s in states)


def clean_ancillae_zero(sc: SynthesizedCircuit, state: int) -> bool:
    return not _dirty(sc, [state])


def table2_rows():
    """Run each row of the bundled golden table through its circuit,
    yielding (family, input, want, got, informational)."""
    cache: dict = {}
    text = files("fbe").joinpath("data/table2.txt").read_text()
    for line in text.splitlines():
        row = line.split("#", 1)[0].split()
        if not row:
            continue
        family, m, n, inp, want = row[:5]
        key = (family, int(n), int(m))
        if key not in cache:
            cache[key] = synthesize(SynthConfig(*key))
        sc = cache[key]
        if sc.group == 1:
            fp = parse(inp, signed=sc.layout.signed)
            state = sc.circuit.simulate_basis(sc.encode_input(fp.value))
            got = sc.decode_digits(state).text(sc.digits_point)
        else:
            state = sc.circuit.simulate_basis(sc.encode_digits(parse_digits(inp)))
            out, infinite = sc.decode_value(state)
            got = "infinite" if infinite else render(out)
        yield family, inp, want, got, row[5:] == ["informational"]


def group1_digits(sc: SynthesizedCircuit) -> tuple[int, int, int]:
    """(cases, circuit_bad, oracle_bad) over every valid input: inputs
    whose circuit digits differ from the recurrence's, and inputs whose
    recurrence digits differ from the same recurrence run at width 4m."""
    spec, n, m = sc.spec, sc.config.n, sc.config.m
    args = list(valid_args(sc))
    circuit_bad = oracle_bad = 0
    for x, state in zip(args, sc.circuit.simulate_batch(map(sc.encode_input, args))):
        digits = fbe_expand(spec, x, n, m).digits
        circuit_bad += sc.decode_digits(state).digits != digits
        oracle_bad += digits != fbe_expand(spec, x, n, 4 * m).digits
    return len(args), circuit_bad, oracle_bad


def group1_values(sc: SynthesizedCircuit):
    """(lo, hi, outside, err_lo, err_hi): group1_value_bound, the count
    of valid inputs whose value is not proven inside it, and the extreme
    ends of f(x) - value with f(x) enclosed by the bounded 4m-digit
    oracle.  The bound needs m >= 4 for log2-wide."""
    spec, n, m = sc.spec, sc.config.n, sc.config.m
    lo, hi = group1_value_bound(spec.name, n, m)
    outside = 0
    err_lo = err_hi = 0
    for raw in valid_raws(sc):
        x = make(raw, sc.layout).value
        value = fbe_expand(spec, x, n, m).value()
        f_lo, f_hi = group1_value_enclosure(spec.name, x, m)
        e_lo, e_hi = f_lo - value, f_hi - value
        outside += not (lo <= e_lo and e_hi <= hi)
        err_lo, err_hi = min(err_lo, e_lo), max(err_hi, e_hi)
    return lo, hi, outside, err_lo, err_hi


def _worst_strings(name: str, n: int) -> list[tuple[int, ...]]:
    if name == "exp2":
        return [(1,) * n, (0,) * (n - 1) + (1,), tuple(i % 2 for i in range(n))]
    return [(1,) + (0,) * (n - 1), (1,) * n, (0,) + (1,) * (n - 1)]


def group2_errors(name: str, n: int, m: int, samples: int, rng):
    """(budget, cases, under, worst) for |value - closed form| of the exp2
    or cos recurrence on its worst strings plus `samples` strings drawn
    from rng: the error_budget entry, how many errors lie strictly under
    its bound, and the largest error."""
    spec = get_spec(name)
    budget = error_budget(name, n, m)
    bound = float(budget.bound)
    strings = _worst_strings(name, n) + [
        tuple(rng.randrange(2) for _ in range(n)) for _ in range(samples)]
    under, worst = 0, 0.0
    for bits in strings:
        ds = DigitString(bits)
        out, _ = ifbe_evaluate(spec, ds, m)
        err = abs(float(out.value) - spec.closed_form(float(ds.value())))
        worst = max(worst, err)
        under += err < bound
    return budget, len(strings), under, worst


def reversibility(sc: SynthesizedCircuit, rng, trials: int,
                  inputs: Optional[int] = None) -> tuple[int, int, int]:
    """(inverse_bad, inputs, ancilla_bad): of `trials` random basis
    states, those inverse(c) after c does not restore; then of the first
    `inputs` encoded valid inputs (all if None), how many ran and how
    many left a clean ancilla set."""
    c, inv = sc.circuit, sc.circuit.inverse()
    inverse_bad = 0
    for _ in range(trials):
        start = rng.randrange(1 << sc.n_qubits)
        inverse_bad += inv.simulate_basis(c.simulate_basis(start)) != start
    encode = sc.encode_input if sc.group == 1 else sc.encode_digits
    ends = c.simulate_batch(map(encode, itertools.islice(valid_args(sc), inputs)))
    return inverse_bad, len(ends), _dirty(sc, ends)


def _reference(sc: SynthesizedCircuit):
    """Per valid argument, in order: the argument, the basis state it
    encodes to, the recurrence's output (digits for group 1, raw value
    and infinity flag for group 2) and the raw value each chain register
    RegI{i} must end on, at index i, from one pass of the recurrence on
    raw ints.  A forward evaluator's chain is a_0 .. a_{n-1}; an inverse
    one's is the trace with the finished value at the last index, and
    cot's RegI{i} holds the value after absorb step i, so its list
    starts one step into the trace."""
    spec, n, lay = sc.spec, sc.config.n, sc.layout
    rows = []
    if sc.group == 1:
        reg0 = sc.circuit.registers["RegI0"]
        for x in valid_args(sc):
            st = spec.encode(x, lay)
            trace = [st[0]]
            digits = _expand_raw(spec, st, n, lay, trace)
            # encode_input, with x encoded once
            rows.append((x, reg0.insert(0, st[0]), digits, trace[:n]))
        return rows
    first = sc.config.function == "cot"
    for ds in valid_args(sc):
        st = spec.init(lay)
        trace = [st[0]]
        value, infinite = spec.finish(_absorb_raw(spec, st, ds.digits, lay, trace),
                                      ds.digits, lay)
        rows.append((ds, sc.encode_digits(ds), (value.raw, infinite),
                     trace[first:n] + [value.raw]))
    return rows


def exhaustive(sc: SynthesizedCircuit) -> tuple[int, int, bool, Optional[str]]:
    """(mismatches, dirty, inverse_exact, witness) with every valid input
    of sc run in one simulate_batch against one pass of the recurrence:
    the outputs that differ from the recurrence's, the outputs with a
    clean ancilla set, whether the inverse circuit takes every output
    back to its start, and the first input whose chain registers differ
    from the recurrence's trace, each RegI{i} against step i, named with
    the step, the register and both raw values, or None.  A run that
    compares no chain register diverges: it would pass on any circuit."""
    rows = _reference(sc)
    c = sc.circuit
    starts = [row[1] for row in rows]
    finals = c.simulate_batch(starts)
    if sc.group == 1:
        outputs = (sc.decode_digits(s).digits for s in finals)
    else:
        outputs = ((v.raw, infinite) for v, infinite in map(sc.decode_value, finals))
    mismatches = sum(got != row[2] for got, row in zip(outputs, rows))
    return (mismatches, _dirty(sc, finals), c.inverse().simulate_batch(finals) == starts,
            _chain_divergence(sc, rows, finals))


def _chain_divergence(sc: SynthesizedCircuit, rows, finals) -> Optional[str]:
    regs = [(int(nm[4:]), sc.circuit.registers[nm]) for nm in sc.chain]
    compared = 0
    for (arg, _, _, chain), state in zip(rows, finals):
        for i, reg in regs:
            got = reg.extract(state)
            if got != chain[i]:
                name = f"input {arg}" if sc.group == 1 else f"digits {arg.text()}"
                return f"{name}: step {i}, {reg.name} wanted raw {chain[i]}, got {got}"
            compared += 1
    return None if compared else "no chain register compared"
