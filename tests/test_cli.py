"""End-to-end CLI tests: output formats, exit codes, oracle diffs, CSV."""

import os
import random
import subprocess
import sys

import pytest

from amckit import (ConfigError, compile_to_mods, default_labels,
                    make_semiring, parse_d4, read_dimacs, write_d4)
from amckit.bench import CSV_HEADER, measure, run_suite
from amckit.cli import main

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def data_path(name):
    return os.path.join(DATA, name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_amc_prob(capsys):
    code, out, _ = run_cli(capsys, "amc",
                           "--circuit", data_path("example2.nnf"),
                           "--weights", data_path("example1.w"),
                           "--semiring", "prob", "--smooth")
    assert code == 0
    assert abs(float(out.strip()) - 0.44) < 1e-12


def test_amc_nat_unit_weights(capsys):
    code, out, _ = run_cli(capsys, "amc",
                           "--circuit", data_path("example2.nnf"),
                           "--semiring", "nat", "--smooth")
    assert code == 0
    assert out.strip() == "3"


def test_amc_bool(capsys):
    code, out, _ = run_cli(capsys, "amc",
                           "--circuit", data_path("example2.nnf"),
                           "--semiring", "bool", "--smooth")
    assert code == 0
    assert out.strip() == "T"


def test_amc_log_prefix(capsys):
    code, out, _ = run_cli(capsys, "amc",
                           "--circuit", data_path("example2.nnf"),
                           "--weights", data_path("example1.w"),
                           "--semiring", "log", "--smooth")
    assert code == 0
    assert out.strip().startswith("log:")


def test_amc_gate_failure_exit_code(capsys):
    code, out, err = run_cli(capsys, "amc",
                             "--circuit", data_path("example2.nnf"),
                             "--weights", data_path("example1.w"),
                             "--semiring", "prob")
    assert code == 4
    assert "smooth" in err


@pytest.mark.parametrize("semiring, code, out", [
    ("nat", 4, ""), ("prob", 4, ""), ("bool", 0, "T\n"), ("fuzzy", 0, "1.0\n")])
def test_amc_refuses_a_refuted_d4_file(capsys, tmp_path, semiring, code, out):
    # x1 or x2 with arcs that share the model {x1, x2}: d4 files promise
    # determinism, and within the budget the promise is checked
    path = tmp_path / "or.nnf"
    path.write_text("o 1 0\nt 2 0\n1 2 1 0\n1 2 2 0\n")
    got = run_cli(capsys, "amc", "--circuit", str(path), "--semiring",
                  semiring, "--smooth")
    assert got[:2] == (code, out)
    assert ("not deterministic" in got[2]) == (code == 4)


def test_grad_lines(capsys):
    code, out, _ = run_cli(capsys, "grad",
                           "--circuit", data_path("example2.nnf"),
                           "--weights", data_path("example1.w"),
                           "--semiring", "prob", "--smooth")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    got = dict(line.split() for line in lines)
    assert abs(float(got["3"]) - 0.55) < 1e-12
    assert float(got["-3"]) == 0.0
    assert [line.split()[0] for line in lines] == ["1", "2", "3", "-1", "-2", "-3"]


def test_grad_per_variable(capsys):
    code, out, _ = run_cli(capsys, "grad",
                           "--circuit", data_path("example2.nnf"),
                           "--weights", data_path("example1.w"),
                           "--semiring", "prob", "--smooth", "--per-variable")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert abs(float(lines[0].split()[1]) - 0.72) < 1e-12


def test_grad_per_variable_non_ring_exit_code(capsys):
    code, _, err = run_cli(capsys, "grad",
                           "--circuit", data_path("example2.nnf"),
                           "--weights", data_path("example1.w"),
                           "--semiring", "fuzzy", "--smooth", "--per-variable")
    assert code == 5
    assert "inverse" in err


def test_grad_variants_agree_end_to_end(capsys):
    outputs = []
    for algo in ("naive", "cancel", "dynamic", "opt"):
        code, out, _ = run_cli(capsys, "grad",
                               "--circuit", data_path("example2.nnf"),
                               "--weights", data_path("example1.w"),
                               "--semiring", "prob", "--smooth",
                               "--algo", algo)
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1


def test_oracle_amc(capsys):
    code, out, _ = run_cli(capsys, "oracle",
                           "--cnf", data_path("example1.cnf"),
                           "--weights", data_path("example1.w"),
                           "--semiring", "prob")
    assert code == 0
    assert abs(float(out.strip()) - 0.44) < 1e-12


def test_oracle_grad_diffs_empty_against_engine(capsys, tmp_path):
    # compile the CNF to a DNF-of-models circuit; cube and model orders
    # match, so the recomputation variant associates its products exactly
    # like the oracle fold and text outputs diff empty
    phi, _ = read_dimacs(data_path("example1.cnf"))
    circuit = compile_to_mods(phi)
    nnf = tmp_path / "mods.nnf"
    write_d4(circuit, str(nnf))
    code, oracle_out, _ = run_cli(capsys, "oracle",
                                  "--cnf", data_path("example1.cnf"),
                                  "--weights", data_path("example1.w"),
                                  "--semiring", "prob", "--mode", "grad")
    assert code == 0
    code, engine_out, _ = run_cli(capsys, "grad",
                                  "--circuit", str(nnf),
                                  "--weights", data_path("example1.w"),
                                  "--semiring", "prob", "--algo", "naive")
    assert code == 0
    assert oracle_out == engine_out


def test_oracle_scale_guard(capsys, tmp_path):
    lines = [f"p cnf 30 1", "1 0"]
    big = tmp_path / "big.cnf"
    big.write_text("\n".join(lines) + "\n")
    # formula mentions one variable; force failure via a wide clause instead
    wide = tmp_path / "wide.cnf"
    clause = " ".join(str(v) for v in range(1, 26)) + " 0"
    wide.write_text("p cnf 25 1\n" + clause + "\n")
    code, _, err = run_cli(capsys, "oracle", "--cnf", str(wide),
                           "--semiring", "prob")
    assert code == 6
    assert "24" in err


def test_oracle_hessian_matches_matrix(capsys, tmp_path):
    import numpy as np
    from amckit import matrix_to_circuit
    m = np.array([[1, 0, 1, 0],
                  [0, 0, 1, 1],
                  [1, 1, 1, 0],
                  [0, 1, 0, 0]])
    circuit = matrix_to_circuit(m)
    nnf = tmp_path / "matrix.nnf"
    write_d4(circuit, str(nnf))
    code, out, _ = run_cli(capsys, "oracle", "--circuit", str(nnf),
                           "--semiring", "gf2", "--mode", "hessian")
    assert code == 0
    got = np.array([[int(tok) for tok in line.split()]
                    for line in out.strip().splitlines()])
    assert (got == m).all()


def test_validate_smooth_circuit(capsys):
    code, out, _ = run_cli(capsys, "validate",
                           "--circuit", data_path("example2_smooth.nnf"))
    assert code == 0
    assert "smooth: true" in out
    assert "decomposable: true" in out
    assert "deterministic: verified" in out


def test_validate_reports_unsmooth(capsys):
    code, out, _ = run_cli(capsys, "validate",
                           "--circuit", data_path("example2.nnf"))
    assert code == 4
    assert "smooth: false" in out


def test_validate_budget_flag(capsys):
    code, out, _ = run_cli(capsys, "validate",
                           "--circuit", data_path("example2_smooth.nnf"),
                           "--determinism-budget", "0")
    assert code == 0
    assert "deterministic: unverified" in out


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_validate_rejects_bad_budget_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("AMCKIT_DETERMINISM_BUDGET", value)
    code, _, err = run_cli(capsys, "validate",
                           "--circuit", data_path("example2_smooth.nnf"))
    assert code == 1
    assert f"AMCKIT_DETERMINISM_BUDGET must be a non-negative integer, " \
           f"got {value!r}" in err


def test_bad_budget_variable_spares_commands_without_the_check(
        capsys, monkeypatch):
    # an idempotent semiring needs no determinism and never reads the budget
    monkeypatch.setenv("AMCKIT_DETERMINISM_BUDGET", "abc")
    code, out, _ = run_cli(capsys, "amc",
                           "--circuit", data_path("example2.nnf"),
                           "--weights", data_path("example1.w"),
                           "--semiring", "fuzzy", "--smooth")
    assert code == 0
    assert float(out.strip()) == 0.5
    # a d4 file's promise is checked within the budget, so prob reads it
    code, out, err = run_cli(capsys, "amc",
                             "--circuit", data_path("example2.nnf"),
                             "--weights", data_path("example1.w"),
                             "--semiring", "prob", "--smooth")
    assert code == 1 and out == ""
    assert "AMCKIT_DETERMINISM_BUDGET must be a non-negative integer" in err
    with pytest.raises(SystemExit) as exit_:
        main(["validate", "--help"])
    assert exit_.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(default: $AMCKIT_DETERMINISM_BUDGET, else 20)" in help_text


@pytest.mark.parametrize("value", ["-5", "abc"])
def test_validate_budget_flag_rejects_bad_values(capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["validate", "--circuit", data_path("example2_smooth.nnf"),
              "--determinism-budget", value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"must be a non-negative integer, got {value!r}" in err


def test_validate_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.nnf"
    bad.write_text("nonsense\n")
    code, _, err = run_cli(capsys, "validate", "--circuit", str(bad))
    assert code == 3
    assert "bad.nnf" in err


@pytest.mark.parametrize("argv", [
    ("amc", "--circuit", "{tmp}/missing.nnf", "--semiring", "nat"),
    ("amc", "--circuit", data_path("example2.nnf"), "--weights",
     "{tmp}/missing.w", "--semiring", "prob", "--smooth"),
    ("oracle", "--cnf", "{tmp}/missing.cnf", "--semiring", "nat"),
    ("validate", "--circuit", "{tmp}"),
    ("oracle", "--cnf", "{tmp}/header.cnf", "--semiring", "nat"),
], ids=["circuit", "weights", "cnf", "directory", "bad-header"])
def test_unreadable_input_is_one_error_line(capsys, tmp_path, argv):
    (tmp_path / "header.cnf").write_text("p cnf a 1\n1 0\n")
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, name, line", [
    (("amc", "--circuit", data_path("example2.nnf"), "--weights",
      "{tmp}/bad.w", "--semiring", "prob", "--smooth"), "bad.w", 1),
    (("oracle", "--cnf", "{tmp}/bad.cnf", "--semiring", "nat"), "bad.cnf", 3),
], ids=["weights", "cnf"])
def test_input_that_is_not_utf8_is_one_error_line(capsys, tmp_path, argv,
                                                   name, line):
    (tmp_path / "bad.w").write_bytes(b"\xffv 1 0.5\n")
    (tmp_path / "bad.cnf").write_bytes(b"p cnf 2 2\r\n1 0\r\n2 \xff 0\r\n")
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (3, "")
    assert err == (f"error: {tmp_path / name}:{line}: "
                   "not UTF-8 text (byte 0xff)\n")


def test_oracle_on_many_clauses(capsys, tmp_path):
    # a formula nested once per clause would pass Python's recursion limit;
    # every clause holds under one planted assignment, so models exist
    rng = random.Random(7)
    planted = rng.getrandbits(10)

    def holds(clause, x):
        return any((x >> (abs(l) - 1) & 1) == (l > 0) for l in clause)

    clauses = []
    while len(clauses) < 1500:
        clause = [v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, 11), 3)]
        if holds(clause, planted):
            clauses.append(clause)
    path = tmp_path / "many.cnf"
    path.write_text("p cnf 10 1500\n"
                    + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    models = sum(all(holds(c, x) for c in clauses) for x in range(1 << 10))
    assert models
    code, out, _ = run_cli(capsys, "oracle", "--cnf", str(path),
                           "--semiring", "nat")
    assert (code, out) == (0, f"{models}\n")


def test_bench_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "bench",
                           "--circuit", data_path("example2_smooth.nnf"),
                           "--semiring", "prob",
                           "--algos", "naive,dynamic",
                           "--repeat", "3", "--warmup", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6  # 2 variants x 3 reps
    for row in rows:
        assert row[3] == "prob"
        assert float(row[7]) > 0.0  # backward_ms
        assert int(row[8]) > 0


@pytest.mark.parametrize("flag,value,low", [
    ("--repeat", "-3", 1), ("--repeat", "0", 1), ("--repeat", "x", 1),
    ("--warmup", "-5", 0), ("--warmup", "1.5", 0)])
def test_bench_rejects_counts_below_their_least(capsys, flag, value, low):
    with pytest.raises(SystemExit) as exit_:
        main(["bench", "--circuit", data_path("example2_smooth.nnf"),
              flag, value])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{flag}: must be an integer of at least {low}, got {value!r}" in err


def test_bench_runs_without_warmup(capsys):
    code, out, _ = run_cli(capsys, "bench",
                           "--circuit", data_path("example2_smooth.nnf"),
                           "--algos", "opt", "--repeat", "1", "--warmup", "0")
    assert code == 0 and len(out.strip().splitlines()) == 2


def test_bench_non_timing_columns_reproducible(capsys):
    def run():
        code, out, _ = run_cli(capsys, "bench",
                               "--circuit", data_path("example2_smooth.nnf"),
                               "--semiring", "nat", "--algos", "dynamic,opt",
                               "--repeat", "2", "--warmup", "0", "--seed", "99")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        # everything except the two timing fields must be bit-identical
        return [r[:6] + r[8:] for r in rows]

    assert run() == run()


def test_bench_error_rows_keep_running(capsys, tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "ok.nnf").write_text(
        open(data_path("example2_smooth.nnf")).read())
    (suite / "broken.nnf").write_text("garbage\n")
    code, out, _ = run_cli(capsys, "bench", "--suite", str(suite),
                           "--semiring", "prob", "--algos", "dynamic",
                           "--repeat", "2", "--warmup", "0")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    errors = [l for l in lines if l.split(",")[0] == "broken.nnf"]
    ok = [l for l in lines if l.split(",")[0] == "ok.nnf"]
    assert len(errors) == 1 and errors[0].split(",")[-1] != ""
    assert len(ok) == 2


def test_bench_unknown_variant_lists_the_variants(capsys):
    code, out, err = run_cli(capsys, "bench",
                             "--circuit", data_path("example2_smooth.nnf"),
                             "--algos", "naive,foo")
    assert (code, out) == (1, "")
    assert err == ("error: unknown variant 'foo'; valid: cancel, dynamic, "
                   "naive, opt\n")


def test_bench_api_names_the_valid_variants():
    circuit = parse_d4(data_path("example2_smooth.nnf"))
    prob = make_semiring("prob")
    labels = default_labels(prob, circuit.num_vars)
    for call in (lambda: measure("c", circuit, labels, prob, ["naive", "foo"]),
                 lambda: run_suite([("c", circuit)], prob, ["foo"])):
        with pytest.raises(ConfigError, match="valid: cancel, dynamic, naive"):
            call()


def test_cli_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "amckit.cli", "amc",
         "--circuit", data_path("example2.nnf"),
         "--weights", data_path("example1.w"),
         "--semiring", "prob", "--smooth"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert abs(float(result.stdout.strip()) - 0.44) < 1e-12


def test_bench_smooths_the_circuits_it_loads(capsys, tmp_path):
    # d4 output need not be smooth, as example2.nnf is not; a file that
    # cannot be smoothed is one error row, as one that does not parse
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "example2.nnf").write_text(open(data_path("example2.nnf")).read())
    (suite / "shared.nnf").write_text("a 1 0\nt 2 0\n1 2 1 0\n1 2 1 0\n")
    code, out, _ = run_cli(capsys, "bench", "--suite", str(suite),
                           "--algos", "opt,cancel", "--repeat", "2",
                           "--warmup", "0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    timed = [r for r in rows if r[0] == "example2.nnf"]
    assert len(timed) == 4 and all(r[-1] == "" for r in timed)
    # n and e are the smoothed circuit's
    assert {(r[1], r[2]) for r in timed} == {("10", "10")}
    assert [r[0] for r in rows if r[-1]] == ["shared.nnf"]
    assert rows[-1][-1] == "cannot smooth a non-decomposable circuit"


def test_bench_measure_keeps_a_failing_variant_as_an_error_row():
    circuit = parse_d4(data_path("example2_smooth.nnf"))
    fuzzy = make_semiring("fuzzy")
    cancel, opt = measure("c", circuit, default_labels(fuzzy, circuit.num_vars),
                          fuzzy, ["cancel", "opt"], repeat=1, warmup=0)
    assert (cancel.variant, cancel.backward_ms, cancel.peak_aux_bytes) == (
        "cancel", 0.0, 0)
    assert cancel.error == ("semiring 'fuzzy' provides no division; use the "
                            "dynamic or naive variant")
    assert (opt.variant, opt.error) == ("opt", "")


def test_bench_refuses_a_suite_without_nnf_files(capsys, tmp_path):
    (tmp_path / "notes.txt").write_text("no circuits here\n")
    code, out, err = run_cli(capsys, "bench", "--suite", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: no .nnf files under {str(tmp_path)!r}\n"


def test_nan_weight_is_a_parse_error(capsys, tmp_path):
    weights = tmp_path / "nan.w"
    weights.write_text("l 1 nan\n")
    code, out, err = run_cli(capsys, "amc", "--circuit",
                             data_path("example2.nnf"), "--weights",
                             str(weights), "--semiring", "log", "--smooth")
    assert (code, out) == (3, "")
    assert err == (f"error: {weights}:1: log-semiring weight must be "
                   "non-negative, got nan\n")
