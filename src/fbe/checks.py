"""Check bodies shared by `fbe verify` and the acceptance tests.

Each body takes sizes, seeded generators and sample counts from its
caller and returns tallies; the caller writes the report line.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from importlib.resources import files
from typing import Optional

from .expansion import (
    DigitString,
    error_budget,
    fbe_expand,
    get_spec,
    group1_value_bound,
    group1_value_enclosure,
    ifbe_evaluate_trace,
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


def clean_ancillae_zero(sc: SynthesizedCircuit, state: int) -> bool:
    return all(reg.extract(state) == 0
               for reg in sc.circuit.registers.values()
               if reg.role == "ancilla-clean")


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
    cases = circuit_bad = oracle_bad = 0
    for raw in valid_raws(sc):
        x = make(raw, sc.layout).value
        cases += 1
        digits = fbe_expand(spec, x, n, m).digits
        state = sc.circuit.simulate_basis(sc.encode_input(x))
        circuit_bad += sc.decode_digits(state).digits != digits
        oracle_bad += digits != fbe_expand(spec, x, n, 4 * m).digits
    return cases, circuit_bad, oracle_bad


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
        (out, _), _ = ifbe_evaluate_trace(spec, ds, m)
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
    if sc.group == 1:
        starts = (sc.encode_input(make(raw, sc.layout).value)
                  for raw in valid_raws(sc))
    else:
        starts = (sc.encode_digits(DigitString(bits))
                  for bits in itertools.product((0, 1), repeat=sc.config.n))
    ran = ancilla_bad = 0
    for start in itertools.islice(starts, inputs):
        ran += 1
        ancilla_bad += not clean_ancillae_zero(sc, c.simulate_basis(start))
    return inverse_bad, ran, ancilla_bad
