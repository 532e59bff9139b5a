"""The three workloads, the checks every case must pass, the tracer and
the host clock.

Each workload is a set-up followed by rounds.  A round runs the same
operations every time (synth-grid reorders them and draws fresh inputs),
so a run is a whole number of rounds.  Every case is checked against a property the
method must have or a computation made apart from the program:

* the circuit's output register equals the classical recurrence
  (`fbe_expand` / `ifbe_evaluate`) bit for bit;
* every `ancilla-clean` register is back to zero;
* log and arccot digit values lie inside `group1_value_bound` of f(x),
  exp and cos values inside `error_budget`, with f taken from `math`;
* `import_text(export_text(c))` equals c gate for gate;
* a superposition over 2^k inputs ends in exactly 2^k branches of
  amplitude 2^(-k/2), each decoding to its own input's recurrence result.

The library is reached only through the functions `load_fbe` collects,
so the tracer can put one span around each call into a layer.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

FAMILIES = ("log", "arccos", "arccot", "exp", "cos", "cot")
FORWARD = ("log", "arccos", "arccot")
POLICIES = ("garbage", "clean")
SQUARES = ("shift_add", "reversed_sqrt")
# exp and cos build the same circuit under either square method
SQUARE_BLIND = ("exp", "cos")

# f(x) as the digits or the value register state it, from math alone
REFERENCE = {
    "log": lambda x: math.log2(x) / 2,
    "arccot": lambda x: math.atan2(1.0, x) / math.pi,
    "exp": lambda x: 2.0 ** x,
    "cos": lambda x: math.cos(math.pi * x),
}
# float error of the references above, far below any bound checked
SLACK = 1e-12

SETUP_REPS = 5
SETUP_MIN_S = 0.2  # per repetition, on average, before the median is taken

SWEEP = {"forward": (4, 8), "inverse": (6, 10)}
GRID = {"sizes": ((2, 6), (3, 6), (3, 8), (4, 7)), "inputs": 3}
SUPERPOSITION = {"inverse": (8, 10), "log": (6, 10), "k": 6}


def load_fbe(fresh: bool = True) -> SimpleNamespace:
    """Import the library (again, when fresh) and collect what the
    workloads call.  Re-importing lets every set-up pay the import."""
    if fresh:
        for name in [m for m in sys.modules if m == "fbe" or m.startswith("fbe.")]:
            del sys.modules[name]
    from fbe import circuit, expansion, fixedpoint, synth

    sc = synth.SynthesizedCircuit
    return SimpleNamespace(
        Circuit=circuit.Circuit, Gate=circuit.Gate,
        DigitString=expansion.DigitString, SynthConfig=synth.SynthConfig,
        errors=(fixedpoint.FixedPointError, circuit.CircuitError),
        synthesize=synth.synthesize,
        resource_count=circuit.Circuit.resource_count,
        export_text=circuit.export_text, import_text=circuit.import_text,
        simulate_basis=circuit.Circuit.simulate_basis,
        simulate_sparse=circuit.Circuit.simulate_sparse,
        encode_input=sc.encode_input, encode_digits=sc.encode_digits,
        decode_digits=sc.decode_digits, decode_value=sc.decode_value,
        fbe_expand=expansion.fbe_expand, ifbe_evaluate=expansion.ifbe_evaluate,
        error_budget=expansion.error_budget,
        group1_value_bound=expansion.group1_value_bound,
    )


# ------------------------------------------------------------- host speed

# a fixed mask program for the sparse-style part of the reference loop
_PROGRAM = [((1 << (i % 61)) | (1 << (i * 7 % 61)), 1 << (i % 61),
             1 << ((i * 13 + 5) % 67)) for i in range(14)]


def reference_loop():
    """Fixed interpreter work of the three kinds the library does: a
    mask loop over big ints (basis simulation), text parsed into tuples
    (import_text) and a dict of complex amplitudes (sparse simulation)."""
    s = 0
    for i in range(700):
        s ^= (i * 2654435761) & 0xFFFFFFFFFFFF
    s, d, parsed = (1 << 200) | 12345, {}, []
    for i in range(100):
        m = 1 << (i % 190)
        s ^= m << 3 if s & m else m
        d[s & 1023] = d.get(s & 1023, 0j) + 0.5
        kind, ops = f"ccx q[{i}],!q[{i + 1}],q[{i + 2}]".split()
        parsed.append((kind, tuple(int(t.lstrip("!")[2:-1]) for t in ops.split(","))))
    amps = {(j * 0x9E3779B97F4A7C15) & ((1 << 70) - 1): 0.125 + 0j for j in range(64)}
    for cm, cv, flip in _PROGRAM:
        nxt: dict = {}
        for st, a in amps.items():
            if st & cm == cv:
                st ^= flip
            nxt[st] = nxt.get(st, 0j) + a
        amps = nxt


# reference_loop's time on the reference host (see README)
REFERENCE_LOOP_S = 0.0007
# the host clock runs reference_loop once per this many seconds of work
SAMPLE_EVERY_S = 0.04


class HostClock:
    """Samples the reference loop while work runs, once per SAMPLE_EVERY_S
    seconds of work, so a measured time can be scaled to the reference
    host's speed.  The host this was built on runs the same code 20-40 %
    slower in phases tens of seconds long; the loop slows with it."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = 0.0

    def _sample(self) -> float:
        t0 = time.perf_counter()
        reference_loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return self._last - t0

    def tick(self):
        """Sample once per SAMPLE_EVERY_S gone by since the last sample,
        so a long library call is weighed like many short ones."""
        due = int((time.perf_counter() - self._last) / SAMPLE_EVERY_S)
        for _ in range(min(due, 10)):
            self.spent += self._sample()

    def begin(self) -> float:
        self.samples, self.spent = [], 0.0
        self._sample()
        return time.perf_counter()

    def end(self, t0: float) -> tuple[float, float]:
        """(work seconds since begin, outside the loop; host slowness,
        the loop's mean time over REFERENCE_LOOP_S)."""
        work = time.perf_counter() - t0 - self.spent
        self._sample()
        return work, statistics.mean(self.samples) / REFERENCE_LOOP_S


# ------------------------------------------------------------------ tracing

class Tracer:
    """Spans around the benchmark's calls into the library.

    A span is (id, name, start, end, parent id, case id).  When off,
    call() only forwards and group() records nothing.  Every call also
    gives the host clock its chance to sample.
    """

    def __init__(self, on: bool):
        self.on = on
        self.clock = HostClock()
        self.reset()

    def reset(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._parent = 0
        self._case = "setup"

    def call(self, name: str, fn, *args):
        if not self.on:
            try:
                return fn(*args)
            finally:
                self.clock.tick()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            name += ":raised"
            raise
        finally:
            self.spans.append((next(self._ids), name, t0, time.perf_counter(),
                               self._parent, self._case))
            self.clock.tick()

    @contextmanager
    def group(self, name: str, case: str):
        """Parent span for the calls made inside it, under one case id."""
        if not self.on:
            yield
            return
        sid, t0 = next(self._ids), time.perf_counter()
        outer = (self._parent, self._case)
        self._parent, self._case = sid, case
        try:
            yield
        finally:
            self._parent, self._case = outer
            self.spans.append((sid, name, t0, time.perf_counter(), outer[0], case))

    def count(self, key: str, n: int):
        if self.on:
            self.counts[key] += n


SPAN_METRIC = {
    "circuit.simulate_basis": "circuit.sim_basis_s",
    "circuit.simulate_sparse": "circuit.sim_sparse_s",
    "circuit.simulate_basis:first": "circuit.first_sim_s",
    "circuit.simulate_sparse:first": "circuit.first_sim_s",
    "circuit.export_text": "circuit.export_s",
    "circuit.import_text": "circuit.import_s",
    "circuit.resource_count": "circuit.resource_count_s",
    "synth.synthesize": "synth.synthesize_s",
    "synth.encode_input": "synth.encode_s",
    "synth.encode_digits": "synth.encode_s",
    "synth.encode_input:raised": "synth.encode_rejected_s",
    "synth.decode_digits": "synth.decode_s",
    "synth.decode_value": "synth.decode_s",
    "expansion.fbe_expand": "expansion.reference_s",
    "expansion.ifbe_evaluate": "expansion.reference_s",
    "bench.check": "bench.check_s",
}


def layer_metrics(tr: Tracer, costs: dict) -> dict:
    """Per-layer figures from the spans and counts of a traced run."""
    busy = Counter()
    for _, name, t0, t1, _, _ in tr.spans:
        if name in SPAN_METRIC:
            busy[SPAN_METRIC[name]] += t1 - t0
    c = tr.counts

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    out = {key: busy[key] for key in sorted(set(SPAN_METRIC.values()))}
    out.update({
        "circuit.gate_states": c["gate_states"],
        "circuit.ns_per_gate_state": per(busy["circuit.sim_basis_s"], c["gate_states"], 1e9),
        "circuit.term_gates": c["term_gates"],
        "circuit.ns_per_term_gate": per(busy["circuit.sim_sparse_s"], c["term_gates"], 1e9),
        "circuit.import_us_per_gate": per(busy["circuit.import_s"], c["imported_gates"], 1e6),
        "circuit.text_bytes": sum(r.get("text_bytes", 0) for r in costs.values()),
        "synth.us_per_gate": per(busy["synth.synthesize_s"], c["synthesized_gates"], 1e6),
        "synth.encode_accept_ratio": per(c["encode_accepted"], c["encode_offered"], 1),
        "expansion.reference_calls": sum(
            1 for s in tr.spans if SPAN_METRIC.get(s[1]) == "expansion.reference_s"),
        "synth.cx_equiv": sum(r["cx_equivalent"] for r in costs.values()),
        "synth.decomposition_ancillas": sum(
            r["decomposition_ancillas"] for r in costs.values()),
    })
    for fam in FAMILIES:
        out[f"synth.toffoli_equiv.{fam}"] = sum(
            r["toffoli_equivalent"] for cfg, r in costs.items() if cfg[0] == fam)
    return out


# ------------------------------------------------------------ case checks

@dataclass
class Target:
    """One synthesized circuit and the facts its checks judge it by."""

    config: tuple
    sc: object
    clean_mask: int
    in_reg: object
    out_reg: object
    bound: Optional[tuple]  # (lo, hi) on f - value, or (0, b) on |f - value|

    @property
    def family(self) -> str:
        return self.config[0]

    @property
    def forward(self) -> bool:
        return self.family in FORWARD


def make_target(api, config: tuple, sc) -> Target:
    family, n, m = config[:3]
    regs = sc.circuit.registers
    clean = 0
    for r in regs.values():
        if r.role == "ancilla-clean":
            clean |= ((1 << r.size) - 1) << r.start
    bound = None
    if family in ("log", "arccot"):
        lo, hi = api.group1_value_bound(sc.spec.name, n, m)
        bound = (float(lo) - SLACK, float(hi) + SLACK)
    elif family in ("exp", "cos"):
        bound = (0.0, float(api.error_budget(sc.spec.name, n, m).bound) + SLACK)
    forward = family in FORWARD
    return Target(config, sc, clean, regs["RegI0" if forward else "RegO"],
                  regs["RegO"] if forward else regs[sc.chain[-1]], bound)


def register_value(reg, raw: int) -> Fraction:
    """Two's-complement reading of a register, from its declared fields."""
    if reg.signed and raw >> (reg.size - 1):
        raw -= 1 << reg.size
    return Fraction(raw, 1 << reg.frac_bits)


def in_domain(family: str, reg, raw: int) -> bool:
    """The forward inputs the method is defined on: log2 on [1, 4),
    arccos on [-1, 1], arccot on every pattern that has a magnitude."""
    x = register_value(reg, raw)
    if family == "log":
        return 1 <= x < 4
    if family == "arccos":
        return -1 <= x <= 1
    return not (reg.signed and raw == 1 << (reg.size - 1))


def digits_of(raw: int, n: int) -> tuple:
    """The argument string held in RegO: qubit i carries the digit
    absorbed at step i, which is the string read from the right."""
    return tuple((raw >> (n - 1 - j)) & 1 for j in range(n))


def check_digits(t: Target, x: Fraction, digits: tuple, ref: tuple, state: int) -> bool:
    if digits != ref or state & t.clean_mask:
        return False
    if t.bound is None:
        return True
    value = sum(d / 2 ** (i + 1) for i, d in enumerate(digits))
    return t.bound[0] <= REFERENCE[t.family](float(x)) - value < t.bound[1]


def check_value(t: Target, digits: tuple, got: tuple, ref: tuple, state: int) -> bool:
    """got and ref are (value register raw, infinity flag)."""
    if got != ref or state & t.clean_mask:
        return False
    if t.bound is None:
        return True
    x = sum(d / 2 ** (i + 1) for i, d in enumerate(digits))
    v = float(register_value(t.out_reg, got[0]))
    return abs(REFERENCE[t.family](x) - v) < t.bound[1]


def check_amplitude(amp: complex, k: int) -> bool:
    return abs(amp - 2 ** (-k / 2)) < 1e-9


def same_circuit(a, b) -> bool:
    return (a.n_qubits == b.n_qubits and a.registers == b.registers
            and a.gates == b.gates)


def check_counts(rc: dict, c) -> bool:
    return (rc["qubits"] == c.n_qubits and rc["gates"] == len(c.gates)
            == sum(rc["by_kind"].values()))


# ------------------------------------------------------------------ cases

class Tally:
    """Cases attempted and failed.  A case fails on a wrong output and on
    a library error alike; either makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    def add(self, verdict):
        """verdict: True, False (wrong output), or "raised"."""
        self.attempted += 1
        self.failed += verdict is not True

    def run(self, api, tr: Tracer, case: str, fn, *args):
        with tr.group("bench.case", case):
            try:
                verdict = fn(*args)
            except api.errors:
                verdict = "raised"
        if verdict is not None:
            self.add(verdict)


def basis_case(api, tr: Tracer, t: Target, inp, circuit=None, first=False):
    """One input through simulate_basis.  inp is (raw, x) for a forward
    circuit and a DigitString for an inverse one.  Returns None for a raw
    the domain check rightly rejects: that is not a case."""
    circuit = circuit or t.sc.circuit
    n, m = t.config[1:3]
    if t.forward:
        raw, x = inp
        ok_domain = in_domain(t.family, t.in_reg, raw)
        tr.count("encode_offered", 1)
        try:
            state = tr.call("synth.encode_input", api.encode_input, t.sc, x)
        except api.errors:
            return None if not ok_domain else False
        tr.count("encode_accepted", 1)
        if not ok_domain:
            return False
    else:
        state = tr.call("synth.encode_digits", api.encode_digits, t.sc, inp)
    if first:
        out = tr.call("circuit.simulate_basis:first", api.simulate_basis, circuit, state)
    else:
        out = tr.call("circuit.simulate_basis", api.simulate_basis, circuit, state)
        tr.count("gate_states", len(circuit.gates))
    if t.forward:
        digits = tr.call("synth.decode_digits", api.decode_digits, t.sc, out).digits
        ref = tr.call("expansion.fbe_expand", api.fbe_expand, t.sc.spec, x, n, m).digits
        return tr.call("bench.check", check_digits, t, x, digits, ref, out)
    fp, inf = tr.call("synth.decode_value", api.decode_value, t.sc, out)
    rfp, rinf = tr.call("expansion.ifbe_evaluate", api.ifbe_evaluate, t.sc.spec, inp, m)
    return tr.call("bench.check", check_value, t, inp.digits, (fp.raw, inf),
                   (rfp.raw, rinf), out)


def synthesize_targets(api, tr: Tracer, configs) -> tuple[list, dict]:
    targets, costs = [], {}
    for cfg in configs:
        sc = tr.call("synth.synthesize", api.synthesize, api.SynthConfig(*cfg))
        tr.count("synthesized_gates", len(sc.circuit.gates))
        costs[cfg] = tr.call("circuit.resource_count", api.resource_count, sc.circuit)
        targets.append(make_target(api, cfg, sc))
    return targets, costs


def variants(families, n, m, squares=SQUARES):
    """(family, n, m, policy, square) for each distinct circuit."""
    for fam in families:
        for policy in POLICIES:
            for sq in squares if fam not in SQUARE_BLIND else squares[:1]:
                yield (fam, n, m, policy, sq)


@dataclass
class Workload:
    """What a set-up hands to the timed phase."""

    round: object  # round(index, tally) runs one whole round
    costs: dict  # config -> resource_count() of each distinct circuit
    setup_ok: bool = True


def setup_sweep(api, tr: Tracer, seed: int, sizes: dict) -> Workload:
    rng = random.Random(f"sweep/{seed}")
    fn, fm = sizes["forward"]
    iv_n, iv_m = sizes["inverse"]
    configs = list(variants(FORWARD, fn, fm)) + list(variants(("exp", "cos", "cot"), iv_n, iv_m))
    targets, costs = synthesize_targets(api, tr, configs)
    setup_ok = True
    plan = []  # (target, every input it is offered)
    for t in targets:
        if t.forward:
            inputs = [(raw, register_value(t.in_reg, raw)) for raw in range(1 << fm)]
        else:
            inputs = [api.DigitString(bits)
                      for bits in itertools.product((0, 1), repeat=iv_n)]
        rng.shuffle(inputs)
        plan.append((t, inputs))
        # the first simulation compiles the circuit; it belongs to set-up
        first = next(i for i in inputs
                     if not t.forward or in_domain(t.family, t.in_reg, i[0]))
        try:
            setup_ok &= basis_case(api, tr, t, first, first=True) is True
        except api.errors:
            setup_ok = False
    rng.shuffle(plan)

    def round_(r: int, tally: Tally):
        for ti, (t, inputs) in enumerate(plan):
            for ii, inp in enumerate(inputs):
                tally.run(api, tr, f"r{r}/c{ti}/i{ii}", basis_case, api, tr, t, inp)

    return Workload(round_, costs, setup_ok)


def grid_case(api, tr: Tracer, cfg: tuple, rng: random.Random, n_inputs: int, costs: dict):
    """synth -> resource_count -> export -> import -> simulate the import."""
    sc = tr.call("synth.synthesize", api.synthesize, api.SynthConfig(*cfg))
    tr.count("synthesized_gates", len(sc.circuit.gates))
    rc = tr.call("circuit.resource_count", api.resource_count, sc.circuit)
    text = tr.call("circuit.export_text", api.export_text, sc.circuit)
    costs[cfg] = dict(rc, text_bytes=len(text))
    c2 = tr.call("circuit.import_text", api.import_text, text)
    tr.count("imported_gates", len(c2.gates))
    ok = tr.call("bench.check", lambda: same_circuit(sc.circuit, c2)
                 and check_counts(rc, sc.circuit))
    t = make_target(api, cfg, sc)
    n, m = cfg[1:3]
    done = 0
    while done < n_inputs:
        if t.forward:
            raw = rng.randrange(1 << m)
            inp = (raw, register_value(t.in_reg, raw))
        else:
            inp = api.DigitString(tuple(rng.randrange(2) for _ in range(n)))
        verdict = basis_case(api, tr, t, inp, circuit=c2, first=done == 0)
        if verdict is None:
            continue  # a raw outside the domain, rightly refused: draw again
        ok &= verdict is True
        done += 1
    return ok


def setup_grid(api, tr: Tracer, seed: int, sizes: dict) -> Workload:
    # every configuration a user can ask for, the square-blind ones too
    grid = [(fam, n, m, pol, sq) for n, m in sizes["sizes"]
            for fam, pol, sq in itertools.product(FAMILIES, POLICIES, SQUARES)]
    costs: dict = {}

    def round_(r: int, tally: Tally):
        rng = random.Random(f"grid/{seed}/{r}")
        for ci, cfg in enumerate(rng.sample(grid, len(grid))):
            tally.run(api, tr, f"r{r}/g{ci}", grid_case, api, tr, cfg, rng,
                      sizes["inputs"], costs)

    return Workload(round_, costs)


def setup_superposition(api, tr: Tracer, seed: int, sizes: dict) -> Workload:
    rng = random.Random(f"superposition/{seed}")
    iv_n, iv_m = sizes["inverse"]
    ln, lm = sizes["log"]
    k = sizes["k"]
    configs = (list(variants(("exp", "cos", "cot"), iv_n, iv_m, SQUARES[:1]))
               + list(variants(("log",), ln, lm, SQUARES[:1])))
    targets, costs = synthesize_targets(api, tr, configs)
    setup_ok = True
    runs = []  # (target, base state, circuit of the H gates, superposed bits)
    for t in targets:
        n = t.config[1]
        reg = t.in_reg
        if t.forward:
            # an aligned block of 2^k raws, every one inside [1, 4)
            q = reg.frac_bits
            block = rng.randrange((1 << q) >> k, (1 << reg.size) >> k) << k
            base = tr.call("synth.encode_input", api.encode_input, t.sc,
                           register_value(reg, block))
            spread = list(range(k))
        else:
            spread = sorted(rng.sample(range(n), k))
            fixed = sum(rng.randrange(2) << i for i in range(n) if i not in spread)
            base = tr.call("synth.encode_digits", api.encode_digits, t.sc,
                           api.DigitString(digits_of(fixed, n)))
        prep = api.Circuit(t.sc.n_qubits)
        for i in spread:
            prep.add(api.Gate("h", (reg.start + i,)))
        free = sum(1 << i for i in spread)
        runs.append((t, base, prep, free))
        # the first simulations compile both circuits; the evaluator's
        # runs on the single base term
        try:
            tr.call("circuit.simulate_sparse:first", api.simulate_sparse, prep, base)
            one = tr.call("circuit.simulate_sparse:first", api.simulate_sparse,
                          t.sc.circuit, base)
            setup_ok &= branch_cases(api, tr, t, one, base, 0, Tally()) == 1
        except api.errors:
            setup_ok = False
    rng.shuffle(runs)

    def round_(r: int, tally: Tally):
        for ti, (t, base, prep, free) in enumerate(runs):
            with tr.group("bench.case", f"r{r}/s{ti}"):
                try:
                    amps = tr.call("circuit.simulate_sparse", api.simulate_sparse, prep, base)
                    out = tr.call("circuit.simulate_sparse", api.simulate_sparse,
                                  t.sc.circuit, amps)
                except api.errors:
                    for _ in range(1 << k):
                        tally.add("raised")
                    continue
                # the H layer handles 1, 2, .. 2^(k-1) terms
                tr.count("term_gates", (1 << k) - 1 + len(amps) * len(t.sc.circuit.gates))
                branch_cases(api, tr, t, out, base, free, tally)

    return Workload(round_, costs, setup_ok)


def branch_cases(api, tr: Tracer, t: Target, out: dict, base: int, free: int,
                 tally: Tally) -> int:
    """Judge the branches of one run that superposed the input-register
    bits in `free` over the base state: one case per input, 2^k of them.
    Returns the number of cases that passed."""
    n, m = t.config[1:3]
    reg = t.in_reg
    mask = (1 << reg.size) - 1
    k = bin(free).count("1")
    fixed = (base >> reg.start) & mask & ~free
    seen = set()
    passed = 0
    whole = len(out) == 1 << k
    for state, amp in out.items():
        raw = (state >> reg.start) & mask
        fresh = raw & ~free == fixed and raw not in seen
        seen.add(raw)
        if t.forward:
            x = register_value(reg, raw)
            digits = tr.call("synth.decode_digits", api.decode_digits, t.sc, state).digits
            ref = tr.call("expansion.fbe_expand", api.fbe_expand, t.sc.spec, x, n, m).digits
            ok = tr.call("bench.check", check_digits, t, x, digits, ref, state)
        else:
            ds = api.DigitString(digits_of(raw, n))
            fp, inf = tr.call("synth.decode_value", api.decode_value, t.sc, state)
            rfp, rinf = tr.call("expansion.ifbe_evaluate", api.ifbe_evaluate,
                                t.sc.spec, ds, m)
            ok = tr.call("bench.check", check_value, t, ds.digits, (fp.raw, inf),
                         (rfp.raw, rinf), state)
        ok = ok and fresh and whole and tr.call("bench.check", check_amplitude, amp, k)
        passed += ok
        tally.add(ok)
    for _ in range((1 << k) - len(out)):
        tally.add(False)  # an input whose branch never appeared
    return passed


SETUPS = {
    "sweep-exhaustive": (setup_sweep, SWEEP),
    "synth-grid": (setup_grid, GRID),
    "superposition": (setup_superposition, SUPERPOSITION),
}


# ------------------------------------------------------------------- runs

def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        sizes: Optional[dict] = None, setup_reps: int = SETUP_REPS,
        load=load_fbe) -> dict:
    """Set up at least setup_reps times (up to ten times more while they
    average under SETUP_MIN_S), then run whole rounds for `seconds`.

    Times are scaled to the reference host's speed by the host clock;
    the raw figures come back beside them.  Returns the end-to-end
    metrics, the per-layer ones when traced, the case tally and the spans.
    """
    setup, default_sizes = SETUPS[workload]
    sizes = sizes or default_sizes
    tr = Tracer(trace)
    clock = tr.clock
    setups, raw_setups = [], []
    # a cheap set-up repeats, up to tenfold, until the repetitions fill
    # setup_reps * SETUP_MIN_S seconds
    while len(setups) < setup_reps or (sum(raw_setups) < setup_reps * SETUP_MIN_S
                                       and len(setups) < 10 * setup_reps):
        tr.reset()  # the spans of the last set-up are the ones kept
        wl = None  # so the peak memory holds one set-up, not two
        t0 = clock.begin()
        api = load()
        with tr.group("bench.setup", "setup"):
            wl = setup(api, tr, seed, sizes)
        work, slow = clock.end(t0)
        setups.append(work / slow)
        raw_setups.append(work)

    tally = Tally()
    rates, raw_rates, slowness = [], [], []
    t_start = time.perf_counter()
    for r in itertools.count():
        before = tally.passed
        t0 = clock.begin()
        wl.round(r, tally)
        work, slow = clock.end(t0)
        # only cases that passed count: failing fast is no speed-up
        raw_rates.append((tally.passed - before) / work)
        rates.append(raw_rates[-1] * slow)
        slowness.append(slow)
        if time.perf_counter() - t_start >= seconds:
            break

    costs = wl.costs.values()
    end_to_end = {
        "setup_s": statistics.median(setups),
        "cases_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
        "qubits": sum(rc["qubits"] for rc in costs),
        "gates": sum(rc["gates"] for rc in costs),
        "toffoli_equiv": sum(rc["toffoli_equivalent"] for rc in costs),
    }
    return {
        "correct": wl.setup_ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": len(rates),
        "end_to_end": end_to_end,
        "raw": {"setup_s": statistics.median(raw_setups),
                "cases_per_s": statistics.median(raw_rates),
                "host_slowness": statistics.median(slowness)},
        "per_layer": layer_metrics(tr, wl.costs) if trace else None,
        "spans": tr.spans,
    }
