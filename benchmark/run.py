"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload sweep-exhaustive --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all

With `all` each workload runs in a process of its own, one after the
other, so each reports its own peak memory.
Run it from a checkout of the repository: it imports the library from
`src/` beside this directory.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics, the end-to-end
metrics untraced, the per-layer metrics with --trace 1.  A copy of that
result, and with --trace 1 the spans, go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"


def units(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares under kind."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def write_spans(path: Path, spans):
    with path.open("w") as f:
        f.write("id\tname\tstart\tend\tparent\tcase\n")
        for sid, name, t0, t1, parent, case in spans:
            f.write(f"{sid}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{case}\n")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    res = workloads.run(workload, seed, seconds, trace)
    e2e_units = units("end_to_end")
    declared = units("per_layer") if trace else e2e_units
    values = res["per_layer"] if trace else res["end_to_end"]
    if set(values) != set(declared):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(declared))} "
                         "are measured or declared, not both")
    metrics = {k: {"value": v, "unit": declared[k]} for k, v in values.items()}
    line = {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}

    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{res['attempted']} cases attempted, {res['failed']} failed, "
          f"{res['rounds']} rounds, correct {res['correct']}")
    for name, value in res["end_to_end"].items():
        print(f"  {name:14s} {value:14.6g} {e2e_units[name]}")
    raw = res["raw"]
    print(f"  unscaled: setup_s {raw['setup_s']:.6g} s, cases_per_s "
          f"{raw['cases_per_s']:.6g} 1/s, host slowness {raw['host_slowness']:.4g}")
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        write_spans(OUT / f"{stem}.spans.tsv", res["spans"])
    (OUT / f"{stem}.json").write_text(json.dumps(
        dict(line, end_to_end=res["end_to_end"], raw=res["raw"],
             rounds=res["rounds"]), indent=1))
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-exhaustive", "synth-grid", "superposition", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fbe" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no library sources at {SRC} or no {SPEC.name}; "
              "run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in ("sweep-exhaustive", "synth-grid", "superposition"):
            code = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            if code:
                return code
        return 0
    sys.path[:0] = [str(SRC), str(HERE)]
    line = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
