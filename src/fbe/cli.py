"""Command-line front end: evaluate, synthesize, simulate, verify, bench.

Output is deterministic for identical invocations; wall-clock figures
only appear behind --timing.  Exit codes: 0 success, 1 verification
failure, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional

from . import blocks, checks, fixedpoint
from .circuit import CircuitError, import_text
from .expansion import (
    DigitString,
    fbe_expand_trace,
    get_spec,
    ifbe_evaluate_trace,
    parse_digits,
)
from .fixedpoint import (
    DomainError,
    FixedPointError,
    Layout,
    _shown,
    make,
    parse,
    render,
)
from .synth import SYNTH_SPEC, SynthConfig, SynthesizedCircuit, synthesize

# spellings accepted for circuit families
FAMILY_ALIASES = {
    "log": "log", "log2": "log", "log2-wide": "log",
    "arccos": "arccos", "arccot": "arccot",
    "exp": "exp", "exp2": "exp", "cos": "cos", "cot": "cot",
}

RADIX_SPECS = {2: "log2", 3: "log2-ternary", 4: "log2-quaternary"}


def _family(name: str) -> str:
    try:
        return FAMILY_ALIASES[name]
    except KeyError:
        raise DomainError(f"no circuit family named {name!r}") from None


def _digit_point(spec) -> int:
    # how many emitted digits sit left of the point: only meaningful when
    # the value scale is a whole power of the digit radix
    point, s = 0, 1
    while s < spec.value_scale:
        s *= spec.radix
        point += 1
    return point if s == spec.value_scale else 0


def _fnum(x) -> str:
    return repr(float(x))


# -------------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    name = args.function
    if args.radix != 2:
        if name not in ("log2", "log2-wide"):
            raise DomainError(f"--radix only applies to log2, not {name!r}")
        name = RADIX_SPECS[args.radix]
    spec = get_spec(name)
    if args.n < 1:  # group 2 takes its digit count from the argument
        raise DomainError("need at least one digit")
    if spec.group == 1:
        ds, trace = fbe_expand_trace(spec, args.arg, args.n, args.m)
        print(f"digits {ds.text(_digit_point(spec))}")
        print(f"approx {_fnum(spec.value_scale * ds.value())}")
    else:
        ds = parse_digits(args.arg, spec.radix)
        (out, infinite), trace = ifbe_evaluate_trace(spec, ds, args.m)
        if infinite:
            print("value infinite")
        else:
            print(f"value {render(out)} = {_fnum(out.value)}")
    if args.trace:
        for i, fp in enumerate(trace):
            print(f"a{i} {render(fp)} = {_fnum(fp.value)}")
    return 0


# ------------------------------------------------------------------- synth

def _config(args, family: str) -> SynthConfig:
    return SynthConfig(family, args.n, args.m, args.policy, args.square.replace("-", "_"))


def _report_lines(sc: SynthesizedCircuit) -> list[str]:
    r = sc.circuit.resource_count()
    cfg = sc.config
    # exp and cos never square, whichever method the config names
    square = "none" if cfg.function in ("exp", "cos") else cfg.square_method
    lines = [
        f"# family {cfg.function} n {cfg.n} m {cfg.m} "
        f"policy {cfg.policy} square {square}",
        f"# qubits {r['qubits']} gates {r['gates']} "
        f"toffoli-equivalent {r['toffoli_equivalent']} "
        f"cx-equivalent {r['cx_equivalent']}",
    ]
    kinds = " ".join(f"{k}={v}" for k, v in sorted(r["by_kind"].items()) if v)
    roles = " ".join(f"{k}={v}" for k, v in sorted(r["qubits_by_role"].items()))
    lines.append(f"# by-kind {kinds}")
    lines.append(f"# qubits-by-role {roles}")
    return lines


def cmd_synth(args) -> int:
    sc = synthesize(_config(args, _family(args.function)))
    text = sc.export()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.report:
        print("\n".join(_report_lines(sc)))
    return 0


# --------------------------------------------------------------------- sim

def _load_synthesized(path: str):
    with open(path) as fh:
        c = import_text(fh.read())
    rego = c.registers.get("RegO")
    # digits out of RegO need a number in RegI0; digits into RegO put
    # the value in the last RegI* output
    if rego is None or (rego.role == "output" and "RegI0" not in c.registers):
        raise CircuitError(f"{path}: missing RegO/RegI0 register headers")
    if rego.role != "output" and _value_register(c) is None:
        raise CircuitError(f"{path}: RegO is not an output, and no RegI register is one")
    return c


def _value_register(c):
    """The output register RegI{i} of the highest i, or None."""
    outs = {int(nm[4:]): r for nm, r in c.registers.items()
            if nm[:4] == "RegI" and nm[4:].isdecimal() and r.role == "output"}
    return outs[max(outs)] if outs else None


def cmd_sim(args) -> int:
    c = _load_synthesized(args.circuit)
    rego = c.registers["RegO"]
    group = 1 if rego.role == "output" else 2
    if group == 1:
        reg = c.registers["RegI0"]
        fp = parse(args.input, signed=reg.signed)
        if (fp.layout.int_bits, fp.layout.frac_bits) != (reg.int_bits, reg.frac_bits):
            raise DomainError(
                f"input {_shown(repr(args.input))} is {fp.layout.int_bits}.{fp.layout.frac_bits}, "
                f"circuit wants {reg.int_bits}.{reg.frac_bits}")
        start = reg.insert(0, fp.raw)
    else:
        ds = parse_digits(args.input)
        if len(ds.digits) != rego.size:
            raise DomainError(f"expected {rego.size} digits, got {len(ds.digits)}")
        start = 0
        for i in range(rego.size):
            if ds.digits[rego.size - 1 - i]:
                start |= 1 << (rego.start + i)
    if args.mode == "sparse":
        amps = c.simulate_sparse(start)
        for s in sorted(amps):
            a = amps[s]
            print(f"state {s:0{c.n_qubits}b} amp {a.real:+.6f}{a.imag:+.6f}i")
        return 0
    state = c.simulate_basis(start)
    if group == 1:
        raw = rego.extract(state)
        ds = DigitString(tuple((raw >> i) & 1 for i in range(rego.size)))
        print(f"digits {ds.text(rego.int_bits)}")
    else:
        out = _value_register(c)
        fp = make(out.extract(state), Layout(out.int_bits, out.frac_bits, out.signed))
        flag = c.registers.get("Anc1")
        if flag is not None and flag.role == "output" and flag.extract(state):
            print("value infinite")
        else:
            print(f"value {render(fp)} = {_fnum(fp.value)}")
    return 0


# ------------------------------------------------------------------ verify

@dataclass
class VerificationReport:
    suite: str
    subject: str
    config: str
    cases: int
    matches: int
    passed: bool
    max_error: Optional[float] = None
    bound: Optional[float] = None
    note: str = ""
    wall_time: float = 0.0


def _print_report(rep: VerificationReport, timing: bool):
    head = "[PASS]" if rep.passed else "[FAIL]"
    line = f"{head} {rep.suite} {rep.subject} {rep.config}: {rep.matches}/{rep.cases}"
    if rep.max_error is not None:
        line += f" max-err {rep.max_error:.3e}"
        if rep.bound is not None:
            line += f" bound {rep.bound:.3e}"
    if rep.note:
        line += f" ({rep.note})"
    if timing:
        line += f" [{rep.wall_time:.2f}s]"
    print(line)


def verify_table2(args) -> list[VerificationReport]:
    t0 = time.perf_counter()
    cases = matches = 0
    for family, inp, want, got, info in checks.table2_rows():
        if info:
            print(f"  info {family} {inp} -> {got} (recorded, not asserted)")
            continue
        cases += 1
        ok = got == want
        matches += ok
        if not ok:
            print(f"  row {family} {inp}: want {want} got {got}")
    return [VerificationReport("table2", "golden-rows", "bundled fixture",
                               cases, matches, matches == cases,
                               wall_time=time.perf_counter() - t0)]


def verify_group1(args) -> list[VerificationReport]:
    # reports the strict digit claim; criterion 3 checks group1_value_bound
    m = args.m or 6
    reports = []
    for family in ("log", "arccot"):
        t0 = time.perf_counter()
        sc = synthesize(SynthConfig(family, m, m, args.policy or "garbage"))
        cases, circuit_bad, oracle_bad = checks.group1_digits(sc)
        reports.append(VerificationReport(
            "group1-exact", sc.spec.name, f"m=n={m}", cases,
            cases - max(circuit_bad, oracle_bad),
            circuit_bad == 0 and oracle_bad == 0,
            note=(f"circuit mismatches {circuit_bad}, "
                  f"wide-oracle digit mismatches {oracle_bad}"),
            wall_time=time.perf_counter() - t0))
    return reports


def verify_group2(args) -> list[VerificationReport]:
    m = args.m or 12
    if m < 5:
        raise DomainError(f"group2-bounds needs --m of at least 5, not {m}")
    n = min(args.n or 8, m - 4)
    rng = random.Random(args.seed)
    reports = []
    for name in ("exp2", "cos"):
        t0 = time.perf_counter()
        budget, cases, under, worst = checks.group2_errors(
            name, n, m, 200 if args.cases is None else args.cases, rng)
        reports.append(VerificationReport(
            "group2-bounds", name, f"n={n} m={m}", cases, under,
            under == cases, max_error=worst,
            bound=float(budget.bound), note=budget.bound_text,
            wall_time=time.perf_counter() - t0))
    return reports


def verify_blocks(args) -> list[VerificationReport]:
    t0 = time.perf_counter()
    cases = matches = 0

    def tally(got, want):
        nonlocal cases, matches
        cases += 1
        matches += got == want

    w = 4
    add = blocks.build_adder(w)
    a_reg, b_reg = add.registers["A"], add.registers["B"]
    for a in range(1 << w):
        for bb in range(1 << w):
            out = add.simulate_basis(a_reg.insert(b_reg.insert(0, bb), a))
            tally((a_reg.extract(out), b_reg.extract(out)), (a, (a + bb) % (1 << w)))
    for w_, k in ((5, 2), (5, 4)):
        for direction in ("left", "right"):
            sh = blocks.build_shift(w_, k, direction)
            reg = sh.registers["A"]
            for a in range(1 << w_):
                out = sh.simulate_basis(reg.insert(0, a))
                if direction == "left":
                    want = ((a << k) | (a >> (w_ - k))) % (1 << w_)
                else:
                    want = (a >> k) | ((a % (1 << k)) << (w_ - k))
                tally(reg.extract(out), want)
    ab = blocks.build_absolute(5)
    reg = ab.registers["A"]
    lay5 = Layout(2, 3, True)
    for a in range(1 << 5):
        if a == 1 << 4:
            continue
        out = ab.simulate_basis(reg.insert(0, a))
        tally(reg.extract(out), fixedpoint.absolute(make(a, lay5)).raw)
    for method in ("shift_add", "reversed_sqrt"):
        sq = blocks.build_square(3, method=method)
        a_reg, p_reg = sq.registers["A"], sq.registers["P"]
        for a in range(8):
            out = sq.simulate_basis(a_reg.insert(0, a))
            tally((a_reg.extract(out), p_reg.extract(out)), (a, a * a))
    for policy in ("garbage", "clean"):
        rt = blocks.build_sqrt(5, policy=policy)
        a_reg, b_reg = rt.registers["A"], rt.registers["B"]
        for a in range(1 << 5):
            out = rt.simulate_basis(a_reg.insert(0, a))
            tally(b_reg.extract(out), math.isqrt(a))
        rec = blocks.build_reciprocal(5, 2, policy=policy)
        a_reg, b_reg = rec.registers["A"], rec.registers["B"]
        for a in range(1, 1 << 4):
            out = rec.simulate_basis(a_reg.insert(0, a))
            tally(b_reg.extract(out), (1 << 4) // a)
    return [VerificationReport("blocks", "arith-factories", "width<=5",
                               cases, matches, cases == matches,
                               wall_time=time.perf_counter() - t0)]


def verify_reversibility(args) -> list[VerificationReport]:
    rng = random.Random(args.seed)
    m = args.m or 6
    trials = 25 if args.cases is None else args.cases
    reports = []
    for family in sorted(SYNTH_SPEC):
        t0 = time.perf_counter()
        # by default exp, cos and cot run two steps past their digit tables
        n = args.n or (3 if get_spec(SYNTH_SPEC[family]).group == 1 else 6)
        cases = matches = 0
        for policy in [args.policy] if args.policy else ["garbage", "clean"]:
            sc = synthesize(SynthConfig(family, n, m, policy))
            inverse_bad, inputs, ancilla_bad = checks.reversibility(
                sc, rng, trials, 8 if policy == "clean" else 0)
            cases += trials + inputs
            matches += trials - inverse_bad + inputs - ancilla_bad
        reports.append(VerificationReport(
            "reversibility", family, f"n={n} m={m}", cases, matches,
            cases == matches, wall_time=time.perf_counter() - t0))
    return reports


# each suite with the flags it reads; a flag left unset is None
SUITES = {
    "table2": (verify_table2, ()),
    "group1-exact": (verify_group1, ("m", "policy")),
    "group2-bounds": (verify_group2, ("n", "m", "cases", "seed")),
    "blocks": (verify_blocks, ()),
    "reversibility": (verify_reversibility, ("n", "m", "policy", "cases", "seed")),
}
VERIFY_SEED = 20240901


def _check_widths(args):
    for flag in ("n", "m"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise DomainError(f"--{flag} must be 1 or more, not {value}")


def cmd_verify(args) -> int:
    if args.cases is not None and args.cases < 0:
        raise DomainError(f"--cases must be 0 or more, not {args.cases}")
    _check_widths(args)
    if args.suite != "all":
        reads = SUITES[args.suite][1]
        for flag in ("n", "m", "policy", "cases", "seed"):
            if getattr(args, flag) is not None and flag not in reads:
                raise DomainError(f"verify {args.suite} does not read --{flag}")
    if args.seed is None:
        args.seed = VERIFY_SEED
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.extend(SUITES[name][0](args))
    for rep in reports:
        _print_report(rep, args.timing)
    failed = [r for r in reports if not r.passed]
    print(f"verdict: {'PASS' if not failed else 'FAIL'} "
          f"({len(reports) - len(failed)}/{len(reports)} suites green)")
    return 1 if failed else 0


# ------------------------------------------------------------------- bench

def cmd_bench(args) -> int:
    # every family is synthesized before the first line, so a refused
    # run prints nothing to stdout
    _check_widths(args)
    counts = [(family, synthesize(_config(args, family)).circuit.resource_count())
              for family in sorted(SYNTH_SPEC)]
    print(f"resource counts at n={args.n} m={args.m} "
          f"policy={args.policy} square={args.square}")
    for family, r in counts:
        print(f"{family:7s} qubits {r['qubits']:5d} gates {r['gates']:6d} "
              f"toffoli-equiv {r['toffoli_equivalent']:6d} "
              f"cx-equiv {r['cx_equivalent']:6d}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fbe",
        description="digit-recurrence evaluators and their reversible circuits")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, n_default=4, m_default=16):
        p.add_argument("--n", type=int, default=n_default,
                       help="digit count")
        p.add_argument("--m", type=int, default=m_default,
                       help="working register width")
        p.add_argument("--policy", choices=("garbage", "clean"),
                       default="garbage")
        p.add_argument("--square", choices=("shift-add", "reversed-sqrt"),
                       default="shift-add")

    p = sub.add_parser("eval", help="run a recurrence classically")
    p.add_argument("function")
    p.add_argument("arg", help="number (group 1) or digit string (group 2)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--radix", type=int, choices=(2, 3, 4), default=2)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="synthesize a circuit to text form")
    p.add_argument("function")
    common(p, n_default=3, m_default=6)
    p.add_argument("-o", "--output")
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sim", help="simulate a synthesized circuit file")
    p.add_argument("circuit")
    p.add_argument("input")
    p.add_argument("--mode", choices=("basis", "sparse"), default="basis")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--n", type=int, help="digit count (default per suite)")
    p.add_argument("--m", type=int,
                   help="register width (default per suite)")
    p.add_argument("--policy", choices=("garbage", "clean"),
                   help="ancilla policy (default: both for reversibility, "
                        "else garbage)")
    p.add_argument("--cases", type=int,
                   help="random cases (default 200 for group2-bounds, "
                        "25 for reversibility)")
    p.add_argument("--seed", type=int,
                   help=f"random seed (default {VERIFY_SEED})")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="print resource counts per family")
    common(p, n_default=4, m_default=8)
    p.set_defaults(func=cmd_bench)
    return ap


# the parser, built on the first call of main: building it takes about
# as long as a short command runs
_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (FixedPointError, CircuitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
