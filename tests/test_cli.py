"""Exercise the command line through main(argv); only the determinism
check also runs it in subprocesses."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fbe import cli
from fbe.cli import main
from fbe.expansion import builtin_specs
from fbe.synth import SynthConfig, synthesize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_log2_digits(capsys):
    code, out, _ = run(capsys, "eval", "log2", "1.5", "--n", "4")
    assert code == 0
    assert "digits .1001" in out
    assert "approx 0.5625" in out


def test_eval_trace_shows_chain_values(capsys):
    code, out, _ = run(capsys, "eval", "log2", "1.5", "--n", "4",
                       "--m", "16", "--trace")
    assert code == 0
    assert "= 1.265625" in out
    assert "= 1.601806640625" in out


def test_eval_inverse_value(capsys):
    code, out, _ = run(capsys, "eval", "exp2", ".1011", "--m", "16")
    assert code == 0
    assert "= 1.6104736328125" in out


def test_eval_ternary_radix(capsys):
    code, out, _ = run(capsys, "eval", "log2", "1.5", "--n", "7", "--radix", "3")
    assert code == 0
    assert "digits 0.120210" in out


# numbers for the group-1 recurrences: domain ends and their neighbours,
# the arccot range ends at m = 4, 8, 16, values representable at some
# widths only, non-dyadic ones and text that is no number
EVAL_NUMBERS = ("1", "1.5", "3/2", "2", "3.75", "4", "7.9375", "15", "16", "0",
                "-1", "-0.5", "-2", "-8", "-128", "127.5", "1/3", "1.0625",
                "0.1", "1e-3", "abc", "1/0", "")
EVAL_DIGITS = (".1", ".1011", "0.0110", ".11111111", ".1010101010101010", ".0",
               ".00000001", ".2", "1.1", "abc", "")
# SHA-256 over (argv, exit code, stdout, stderr) of every eval_grid run
EVAL_GRID_DIGEST = "c087f774be5f7125b2cab89125396fa8d705535d43d5822ad88b992eb32ba673"


def eval_grid():
    """fbe eval argv: every built-in function, then --radix 3 and 4 on
    log2, log2-wide and exp2, each at n, m in {4, 8, 16} with and
    without --trace."""
    sizes = list(itertools.product(("4", "8", "16"), ("4", "8", "16"), ((), ("--trace",))))
    for name, spec in sorted(builtin_specs().items()):
        for arg, (n, m, trace) in itertools.product(
                EVAL_NUMBERS if spec.group == 1 else EVAL_DIGITS, sizes):
            yield ("eval", name, arg, "--n", n, "--m", m) + trace
    for name, radix in itertools.product(("log2", "log2-wide", "exp2"), ("3", "4")):
        for arg, (n, m, trace) in itertools.product(EVAL_NUMBERS, sizes):
            yield ("eval", name, arg, "--n", n, "--m", m, "--radix", radix) + trace


def test_eval_output_is_pinned_over_a_grid(capsys, monkeypatch):
    # byte for byte what fbe eval printed and returned before the
    # classical drivers moved onto raw ints; one parser serves every run
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    digest, codes = hashlib.sha256(), []
    for argv in eval_grid():
        code, out, err = run(capsys, *argv)
        digest.update(repr((argv, code, out, err)).encode())
        codes.append(code)
    assert (len(codes), codes.count(0), codes.count(2)) == (6174, 1740, 4434)
    assert digest.hexdigest() == EVAL_GRID_DIGEST


def test_eval_radix_rejected_off_log(capsys):
    code, _, err = run(capsys, "eval", "exp2", ".1", "--radix", "3")
    assert code == 2
    assert "radix" in err


def test_eval_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "log2", "5.0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("arg", ["1/0", "0/0"])
def test_eval_zero_denominator_exits_2(capsys, arg):
    code, out, err = run(capsys, "eval", "log2", arg)
    assert code == 2 and out == ""
    assert err == f"error: {arg!r} has a zero denominator\n"


@pytest.mark.parametrize("n", ["-3", "0"])
def test_eval_needs_a_digit_like_synth(capsys, n):
    code, out, err = run(capsys, "eval", "log2", "1.5", "--n", n)
    assert code == 2 and out == ""
    assert err == "error: need at least one digit\n"
    assert run(capsys, "synth", "log", "--n", n, "--m", "5")[2] == err


@pytest.mark.parametrize("function", ["exp2", "cos", "cos-signed", "cot"])
def test_eval_group2_refuses_a_digit_count_below_one(capsys, function):
    # group 2 reads its digits off the argument, yet --n < 1 is refused
    # as for group 1; a valid --n stays ignored
    for n in ("-5", "0"):
        assert run(capsys, "eval", function, ".1011", "--n", n) == (
            2, "", "error: need at least one digit\n")
    assert (run(capsys, "eval", function, ".1011", "--n", "1")
            == run(capsys, "eval", function, ".1011", "--n", "16"))


def test_synth_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.fbe", tmp_path / "b.fbe"
    assert run(capsys, "synth", "arccot", "--n", "2", "--m", "5",
               "-o", str(a))[0] == 0
    assert run(capsys, "synth", "arccot", "--n", "2", "--m", "5",
               "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_report_comments(capsys):
    code, out, _ = run(capsys, "synth", "log", "--n", "2", "--m", "4",
                       "--report")
    assert code == 0
    assert "# family log n 2 m 4" in out
    assert "# qubits " in out
    # exported body still present alongside the comment lines
    assert "reg RegO output" in out


def test_synth_report_names_no_square_for_exp_and_cos(capsys):
    # exp and cos never square: both methods give one text, reported as none
    for fn, want in (("exp", "none"), ("cos", "none"), ("log", None)):
        texts = []
        for square in ("shift-add", "reversed-sqrt"):
            code, out, _ = run(capsys, "synth", fn, "--n", "2", "--m", "5",
                               "--square", square, "--report")
            assert code == 0
            report = [line for line in out.splitlines() if line.startswith("# family")]
            assert report == [f"# family {fn} n 2 m 5 policy garbage "
                              f"square {want or square.replace('-', '_')}"]
            texts.append(out[:out.index("# family")])
        assert (texts[0] == texts[1]) == (want == "none")


def test_synth_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "synth", "sinh", "--n", "2", "--m", "4")
    assert code == 2
    assert "sinh" in err


def test_sim_round_trips_golden_rows(capsys, tmp_path):
    log = tmp_path / "log.fbe"
    assert run(capsys, "synth", "log", "--n", "4", "--m", "4",
               "-o", str(log))[0] == 0
    for inp, want in (("01.00", "digits 0.000"), ("10.00", "digits 1.000")):
        code, out, _ = run(capsys, "sim", str(log), inp)
        assert code == 0 and want in out

    cos = tmp_path / "cos.fbe"
    assert run(capsys, "synth", "cos", "--n", "2", "--m", "5",
               "-o", str(cos))[0] == 0
    for inp, want in ((".01", "value 00.101"), (".11", "value 11.011")):
        code, out, _ = run(capsys, "sim", str(cos), inp)
        assert code == 0 and want in out


@pytest.mark.parametrize("family, n, m, inp", [
    ("log", 4, 4, "10.00"), ("cos", 2, 5, ".11"),
])
def test_sim_sparse_mode_prints_the_basis_result(capsys, tmp_path, family, n, m, inp):
    path = tmp_path / f"{family}.fbe"
    assert run(capsys, "synth", family, "--n", str(n), "--m", str(m),
               "-o", str(path))[0] == 0
    code, out, err = run(capsys, "sim", str(path), inp, "--mode", "sparse")
    sc = synthesize(SynthConfig(family, n, m))
    start = sc.encode_input(2) if family == "log" else sc.encode_digits(inp)
    want = sc.circuit.simulate_basis(start)
    assert want != start
    assert (code, err) == (0, "")
    assert out == f"state {want:0{sc.n_qubits}b} amp +1.000000+0.000000i\n"


def test_sim_reports_infinity(capsys, tmp_path):
    cot = tmp_path / "cot.fbe"
    assert run(capsys, "synth", "cot", "--n", "2", "--m", "5",
               "-o", str(cot))[0] == 0
    code, out, _ = run(capsys, "sim", str(cot), ".00")
    assert code == 0
    assert "value infinite" in out


def test_sim_width_mismatch_exits_2(capsys, tmp_path):
    log = tmp_path / "log.fbe"
    run(capsys, "synth", "log", "--n", "4", "--m", "4", "-o", str(log))
    code, _, err = run(capsys, "sim", str(log), "1.100")
    assert code == 2
    assert "wants" in err


def test_sim_refuses_digit_input_without_a_value_output(capsys, tmp_path):
    # RegO holds the digits, so the value is read off the last RegI*
    # output register, and this text has none
    path = tmp_path / "f.txt"
    path.write_text("qubits 2\nreg RegO input 0..0 int_bits 0 frac_bits 1\n"
                    "reg RegI0 garbage 1..1 int_bits 1 frac_bits 0\n")
    code, out, err = run(capsys, "sim", str(path), ".1")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: RegO is not an output, and no RegI register is one\n"


@pytest.mark.parametrize("line, where", [
    ("x q[1_0]", "line 4"), ("x q[+3]", "line 4"), ("x q[\u0664]", "line 4"),
    ("qubits \u0661\u0660", "line 1")],
    ids=["underscore", "plus", "arabic-indic-index", "arabic-indic-header"])
def test_sim_refuses_non_ascii_digit_indices(capsys, tmp_path, line, where):
    # int() alone would read each of these as a number
    text = ["qubits 12", "reg RegI0 input 0..3 int_bits 4 frac_bits 0",
            "reg RegO output 4..11 int_bits 8 frac_bits 0", "x q[0]"]
    if line.startswith("qubits"):
        text[0] = line
    else:
        text[3] = line
    path = tmp_path / "bad.fbe"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "sim", str(path), "0")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: bad qubit") and err.count("\n") == 1


LONG_TOKEN_LINES = {
    "index": ["x q[" + "9" * 5000 + "]"],
    "index-in-range-of-int": ["x q[" + "9" * 4000 + "]"],
    "operand": ["x " + "z" * 5000],
    "gate": ["g" * 5000 + " q[0]"],
    "role": ["reg R " + "r" * 5000 + " 0..3 int_bits 4 frac_bits 0"],
    "register-widths": ["reg " + "R" * 5000 + " input 0..3 int_bits 4 frac_bits 1"],
    "register-spill": ["reg " + "R" * 5000 + " input 0..99 int_bits 50 frac_bits 50"],
    "duplicate-register": ["reg " + "R" * 5000 + " garbage 0..3 int_bits 4 frac_bits 0"] * 2,
}


@pytest.mark.parametrize("lines", LONG_TOKEN_LINES.values(), ids=LONG_TOKEN_LINES)
def test_sim_quotes_long_tokens_by_their_ends(capsys, tmp_path, lines):
    # a token thousands of characters long is quoted cut to its ends, so
    # the error stays one short line
    text = ["qubits 12", "reg RegI0 input 0..3 int_bits 4 frac_bits 0",
            "reg RegO output 4..11 int_bits 8 frac_bits 0"] + lines
    path = tmp_path / "bad.fbe"
    path.write_text("\n".join(text) + "\n")
    code, out, err = run(capsys, "sim", str(path), "0")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {len(text)}: ") and err.count("\n") == 1
    assert len(err.encode()) < 120, err


def test_sim_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "sim", str(tmp_path / "nope.fbe"), ".0")
    assert code == 2


def test_verify_table2_passes(capsys):
    code, out, _ = run(capsys, "verify", "table2")
    assert code == 0
    assert "[PASS] table2 golden-rows" in out
    assert "11/11" in out


def test_verify_group1_fails_honestly(capsys):
    code, out, _ = run(capsys, "verify", "group1-exact")
    assert code == 1
    assert "[FAIL] group1-exact" in out
    assert "circuit mismatches 0" in out


def test_verify_fast_suites_pass(capsys):
    for suite in ("group2-bounds", "blocks", "reversibility"):
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0, suite
        assert "[FAIL]" not in out


@pytest.mark.parametrize("argv, names", [
    (("group2-bounds", "--cases", "-5"), "--cases"),
    (("reversibility", "--cases", "-3"), "--cases"),
    (("group2-bounds", "--m", "4"), "--m of at least 5"),
    (("group2-bounds", "--n", "-2"), "--n must be 1 or more, not -2"),
    (("group1-exact", "--m", "-3"), "--m must be 1 or more, not -3"),
    (("group1-exact", "--m", "0"), "--m must be 1 or more, not 0"),
    (("reversibility", "--n", "0"), "--n must be 1 or more, not 0"),
    # a flag the named suite never reads
    (("table2", "--n", "5", "--m", "9", "--cases", "3", "--policy", "clean"),
     "verify table2 does not read --n"),
    (("blocks", "--seed", "3"), "verify blocks does not read --seed"),
    (("group2-bounds", "--policy", "clean"), "verify group2-bounds does not read --policy"),
    (("group1-exact", "--cases", "3"), "verify group1-exact does not read --cases"),
    (("group1-exact", "--n", "6"), "verify group1-exact does not read --n"),
])
def test_verify_flag_out_of_range_exits_2(capsys, argv, names):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err


def test_verify_reversibility_honours_its_flags(capsys):
    # 10 random states per policy, plus 8 encoded inputs under clean
    code, out, _ = run(capsys, "verify", "reversibility", "--cases", "10")
    assert code == 0
    assert "[PASS] reversibility log n=3 m=6: 28/28" in out
    code, out, _ = run(capsys, "verify", "reversibility", "--cases", "4",
                       "--n", "2", "--m", "5", "--policy", "garbage")
    assert code == 0
    assert "[PASS] reversibility log n=2 m=5: 4/4" in out


def test_verify_all_takes_every_flag(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n", "2", "--m", "5",
                       "--policy", "clean", "--cases", "2", "--seed", "7")
    assert code == 1
    assert "[PASS] reversibility log n=2 m=5: 10/10" in out
    assert "group1-exact arccot m=n=5: 19/31" in out
    assert "[PASS] group2-bounds exp2 n=1 m=5: 5/5" in out


def test_verify_all_deterministic_and_exit_1(capsys):
    # the repeats run in fresh interpreters under two hash seeds, so a
    # dependence on hash randomization would show
    code, out, _ = run(capsys, "verify", "all")
    assert code == 1
    assert "verdict: FAIL" in out
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "fbe", "verify", "all"],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (code, out), seed


def test_bench_lists_all_families(capsys):
    code, out, _ = run(capsys, "bench", "--n", "2", "--m", "5")
    assert code == 0
    for family in ("log", "arccos", "arccot", "exp", "cos", "cot"):
        assert f"\n{family}" in "\n" + out


@pytest.mark.parametrize("argv, err", [
    (("--m", "3"), "error: cot needs m >= 4, got 3\n"),
    (("--n", "-1"), "error: --n must be 1 or more, not -1\n"),
    (("--n", "0", "--m", "6"), "error: --n must be 1 or more, not 0\n"),
    (("--m", "0"), "error: --m must be 1 or more, not 0\n"),
])
def test_bench_refuses_before_printing(capsys, argv, err):
    # every family is synthesized before the table starts
    assert run(capsys, "bench", *argv) == (2, "", err)


@pytest.mark.parametrize("arg", ["1e5000", "1e-1_000_000_000", "-2E+1234"])
def test_eval_refuses_long_exponents(capsys, arg):
    # Fraction would build 10**e first, however long e is
    code, out, err = run(capsys, "eval", "log2", "--", arg)
    assert (code, out) == (2, "")
    assert err == f"error: exponent of {arg!r} has more than 3 digits\n"


@pytest.mark.parametrize("arg, err", [
    ("1e400", "error: 100000000000...000000000000 (401 characters) outside the domain of log2\n"),
    ("9" * 5000, "error: 999999999999...999999999999 (5000 characters) is longer than 1000 characters\n"),
], ids=["1e400", "5000-nines"])
def test_eval_shortens_huge_numbers(capsys, arg, err):
    # the error quotes a shortened form, in one line, not the whole number
    assert run(capsys, "eval", "log2", arg) == (2, "", err)


@pytest.mark.parametrize("arg", [".1\u00b2", ".\u0661\u0660\u0661\u0661"])
def test_eval_digits_are_ascii(capsys, arg):
    # str.isdigit() holds for a superscript two and for Arabic-Indic
    # digits, which int() then refused or read as 0 and 1
    assert run(capsys, "eval", "exp2", arg) == (2, "", f"error: bad digit string {arg!r}\n")


ARGV_SEEDS = (
    ("eval", "log2", "1.5", "--n", "4", "--m", "8"),
    ("eval", "exp2", ".1011", "--m", "9", "--trace"),
    ("eval", "log2-wide", "3/2", "--n", "5", "--radix", "3"),
    ("eval", "cot", ".0110", "--m", "7"),
    ("eval", "arccos", "0.75", "--n", "3"),
    ("eval", "--n", "3", "arccot", "1/4"),
    ("eval", "--m", "6", "log2", "1.25"),
    ("synth", "arccot", "--n", "2", "--m", "5", "--policy", "clean", "--report"),
    ("synth", "cos", "--n", "2", "--m", "6", "--square", "reversed-sqrt"),
    ("bench", "--n", "2", "--m", "5", "--policy", "clean"),
)
ARGV_JUNK = ("1/0", ".", "nan", "!", "-", "--", "inf", "1e5000", "0x10", "..1",
             "", "-.5", "1/-2", "--n", "--m", "q[0]")


def mutate_argv(rng, argv):
    """Delete, repeat or swap a token, or put a small int or junk in
    its place."""
    i = rng.randrange(len(argv))
    how = rng.randrange(5)
    if how == 0:
        del argv[i]
    elif how == 1:
        argv.insert(i, argv[i])
    elif how == 2:
        j = rng.randrange(len(argv))
        argv[i], argv[j] = argv[j], argv[i]
    elif how == 3:
        argv[i] = str(rng.randint(-40, 40))
    else:
        argv[i] = rng.choice(ARGV_JUNK)


def test_argv_fuzz_exits_0_or_2_with_an_error_line(capsys):
    # mutants of valid eval, synth and bench argv, n and m capped at 12:
    # each exits 0, or 2 with nothing on stdout and the error last on
    # stderr, and none ends in a traceback
    rng = random.Random(2027)
    codes = set()
    for seed in ARGV_SEEDS * 40:
        argv = list(seed)
        for _ in range(rng.randint(1, 3)):
            if argv:
                mutate_argv(rng, argv)
        for j in range(1, len(argv)):
            if argv[j - 1] in ("--n", "--m") and argv[j].isdecimal():
                argv[j] = str(min(int(argv[j]), 12))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv}: {exc!r}")
        out, err = capsys.readouterr()
        codes.add(code)
        if code != 0:
            assert (code, out) == (2, ""), argv
            assert "error: " in err.splitlines()[-1], argv
    assert codes == {0, 2}


def test_bad_flags_raise_systemexit():
    with pytest.raises(SystemExit):
        main(["synth", "log", "--policy", "messy"])
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


LITERAL_CHARS = "01.10.2 9-+e_/x\t\u0663\u00b2\u00e9"


def mutate_literal(rng, text):
    """Up to four edits: insert, delete or replace a character, or
    double a stretch of the text."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        how = rng.randrange(4)
        if how == 0:
            text = text[:i] + rng.choice(LITERAL_CHARS) + text[i:]
        elif how == 1:
            text = text[:i - 1] + text[i:] if i else text[1:]
        elif how == 2:
            text = text[:i] + rng.choice(LITERAL_CHARS) + text[i + 1:]
        else:
            text = text[:i] + text[i:i + rng.randint(1, 40)] * rng.randint(2, 30) + text[i:]
    return text


def test_literal_fuzz_exits_0_or_2_with_one_line(capsys, tmp_path):
    # mutants of fixed-point literals (fixedpoint.parse, through fbe sim
    # on a log circuit) and of digit strings (parse_digits, through fbe
    # eval and fbe sim on an exp circuit): each exits 0, or 2 with
    # nothing on stdout and one error line, and none ends in a traceback
    log, exp = tmp_path / "log.fbe", tmp_path / "exp.fbe"
    run(capsys, "synth", "log", "--n", "2", "--m", "4", "-o", str(log))
    run(capsys, "synth", "exp", "--n", "3", "--m", "5", "-o", str(exp))
    rng = random.Random(2029)
    codes = set()
    for argv in [("sim", str(log), "--", "01.00"), ("sim", str(log), "--", "10.01"),
                 ("sim", str(exp), "--", ".101"), ("sim", str(exp), "--", "0.011"),
                 ("eval", "exp2", "--m", "6", "--", ".1011")] * 100:
        argv = list(argv[:-1]) + [mutate_literal(rng, argv[-1])]
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{argv}: {exc!r}")
        out, err = capsys.readouterr()
        codes.add(code)
        if code != 0:
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert len(err) < 200, argv
    assert codes == {0, 2}
