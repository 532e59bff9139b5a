"""Tests of the benchmark itself: tiny runs pass, corrupted outputs fail.

    python3 -m pytest benchmark -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

TINY = {
    "sweep-exhaustive": {"forward": (2, 5), "inverse": (2, 5)},
    "synth-grid": {"sizes": ((2, 5),), "inputs": 2},
    "superposition": {"inverse": (3, 5), "log": (3, 5), "k": 2},
}


def tiny_run(workload, api=None, seed=7, trace=False):
    api = api or workloads.load_fbe(fresh=False)
    return workloads.run(workload, seed, 0, trace, sizes=TINY[workload],
                         setup_reps=1, load=lambda: api)


def patched(**wrappers):
    """The library API with some calls replaced by corrupting wrappers."""
    api = workloads.load_fbe(fresh=False)
    return SimpleNamespace(**dict(vars(api), **{
        name: wrap(getattr(api, name)) for name, wrap in wrappers.items()}))


def low_bit(circuit, role):
    reg = next(r for r in circuit.registers.values() if r.role == role)
    return 1 << reg.start


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes(workload):
    res = tiny_run(workload, trace=True)
    assert res["correct"] and res["attempted"] > 0 and res["failed"] == 0
    assert all(v > 0 for v in res["end_to_end"].values())
    names = {s[1] for s in res["spans"]}
    assert {"synth.synthesize", "circuit.resource_count", "bench.check"} <= names


def test_same_seed_same_spans_shape():
    a = [s[1] for s in tiny_run("synth-grid", seed=3, trace=True)["spans"]]
    b = [s[1] for s in tiny_run("synth-grid", seed=3, trace=True)["spans"]]
    assert a == b


@pytest.mark.parametrize("workload", ("sweep-exhaustive", "synth-grid"))
def test_flipped_output_bit_fails(workload):
    def flip(sim):
        return lambda c, s: sim(c, s) ^ low_bit(c, "output")

    res = tiny_run(workload, patched(simulate_basis=flip))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0


@pytest.mark.parametrize("workload", ("sweep-exhaustive", "synth-grid"))
def test_dirty_clean_ancilla_fails(workload):
    def dirty(sim):
        return lambda c, s: sim(c, s) | low_bit(c, "ancilla-clean")

    res = tiny_run(workload, patched(simulate_basis=dirty))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0


def test_flipped_superposed_value_bit_fails():
    def flip(sim):
        def run(c, state):
            out = sim(c, state)
            if isinstance(state, int):  # the H layer and the set-up runs
                return out
            bit = low_bit(c, "output")
            return {s ^ bit: a for s, a in out.items()}
        return run

    res = tiny_run("superposition", patched(simulate_sparse=flip))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0


def test_wrong_branch_amplitude_fails():
    def skew(sim):
        def run(c, state):
            out = sim(c, state)
            if isinstance(state, int):
                return out
            first = min(out)
            out[first] = -out[first]
            return out
        return run

    res = tiny_run("superposition", patched(simulate_sparse=skew))
    assert not res["correct"]
    # one branch per superposed run is off: 8 circuits, one round
    assert res["failed"] == 8 and res["attempted"] == 8 * 4


def test_missing_branch_fails():
    def drop(sim):
        def run(c, state):
            out = sim(c, state)
            if isinstance(state, int):
                return out
            del out[min(out)]
            return out
        return run

    res = tiny_run("superposition", patched(simulate_sparse=drop))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == 8 * 4


def test_altered_text_line_fails():
    def alter(export):
        def run(c):
            lines = export(c).splitlines(keepends=True)
            i = next(i for i, ln in enumerate(lines) if ln.startswith("cx q["))
            lines[i] = lines[i].replace("cx q[", "cx !q[", 1)
            return "".join(lines)
        return run

    res = tiny_run("synth-grid", patched(export_text=alter))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == 24


@pytest.mark.parametrize("workload,call", (
    ("sweep-exhaustive", "simulate_basis"),
    ("synth-grid", "simulate_basis"),
    ("superposition", "simulate_sparse"),
))
def test_library_error_fails(workload, call):
    circuit_error = workloads.load_fbe(fresh=False).errors[1]

    def boom(sim):
        def run(c, state):
            raise circuit_error("injected")
        return run

    res = tiny_run(workload, patched(**{call: boom}))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0
    # a case that raises is not a completed case
    assert res["end_to_end"]["cases_per_s"] == 0


def test_wrong_reference_digit_fails_forward_check():
    api = workloads.load_fbe(fresh=False)
    cfg = ("log", 3, 6, "garbage", "shift_add")
    t = workloads.make_target(api, cfg, api.synthesize(api.SynthConfig(*cfg)))
    raw = 0b011000  # x = 1.5
    x = workloads.register_value(t.in_reg, raw)
    state = api.simulate_basis(t.sc.circuit, api.encode_input(t.sc, x))
    digits = api.decode_digits(t.sc, state).digits
    assert workloads.check_digits(t, x, digits, digits, state)
    wrong = (1 - digits[0],) + digits[1:]
    # a flipped leading digit breaks both equality and the value bound
    assert not workloads.check_digits(t, x, wrong, wrong, state)


def test_domain_check_disagreement_fails():
    errors = workloads.load_fbe(fresh=False).errors

    def accept_all(encode):
        def run(sc, x):
            try:
                return encode(sc, x)
            except errors:
                return 0
        return run

    res = tiny_run("sweep-exhaustive", patched(encode_input=accept_all))
    assert not res["correct"] and res["failed"] > 0


def test_command_prints_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "synth-grid",
         "--seed", "5", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300)
    line = json.loads(out.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert (HERE / "out" / "synth-grid-seed5-trace1.spans.tsv").is_file()


def test_all_runs_each_workload_in_its_own_process():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=600)
    lines = [json.loads(ln) for ln in out.stdout.splitlines() if ln.startswith("{")]
    assert len(lines) == 3
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for line in lines:
        assert line["correct"] and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    # synth-grid holds far less than sweep-exhaustive: its own peak, not the process's
    peaks = [line["metrics"]["peak_rss_mb"]["value"] for line in lines]
    assert peaks[1] < peaks[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "synth-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
