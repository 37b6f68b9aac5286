"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from amckit import (BernoulliParams, SampleBatch,  # noqa: E402
                    conditional_entropy, em_conditionals, grad_amc,
                    indecater_estimate, parse_d4, smooth)

import check  # noqa: E402
import gen  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
METRIC_LINE = re.compile(r"(?P<name>\S+) = (?P<value>\S+) (?P<unit>\S+) \(n=\d+\)")


def _params(n, seed=0):
    rng = random.Random(seed)
    return BernoulliParams([rng.uniform(0.05, 0.95) for _ in range(n)])


def test_generators_are_deterministic(tmp_path):
    writers = {
        "layered": lambda path, seed: gen.layered_decision_d4(path, 20, 15, seed),
        "dnf": lambda path, seed: gen.wide_dnf_d4(path, 30, 40, seed),
    }
    for family, write in writers.items():
        a, b, c = (tmp_path / f"{family}-{i}.nnf" for i in range(3))
        write(a, 7)
        write(b, 7)
        write(c, 8)
        assert a.read_bytes() == b.read_bytes(), family
        assert a.read_bytes() != c.read_bytes(), family


def test_generated_circuits_have_the_intended_shape(tmp_path):
    path = tmp_path / "layered.nnf"
    gen.layered_decision_d4(path, 20, 15, 1)
    parsed = parse_d4(path)
    smoothed = smooth(parsed)
    assert smoothed.num_vars == 16 and smoothed.max_arity == 2
    assert smoothed.node_count > parsed.node_count  # skipped levels smoothed
    path = tmp_path / "dnf.nnf"
    gen.wide_dnf_d4(path, 30, 40, 1)
    dnf = smooth(parse_d4(path))
    assert dnf.edge_count == 30 * 40 + 30 and dnf.num_vars == 40


def test_checks_catch_one_corrupted_entry(tmp_path):
    path = tmp_path / "c.nnf"
    gen.layered_decision_d4(path, 10, 12, 3)
    circuit = smooth(parse_d4(path))
    scope = check.root_scope(circuit)
    params = _params(circuit.num_vars)
    for semiring in (check.PROB, check.FUZZY):
        labels = params.prob_labels()
        amc, grads = grad_amc(circuit, labels, semiring)
        assert check.split_identity(semiring, labels, amc, grads, scope)
        for lit in (5, -5):
            bad = grads.copy()
            bad.set(lit, grads.get(lit) * (1 + 1e-6) + 1e-12)
            assert not check.split_identity(semiring, labels, amc, bad, scope)

    _, prob_grads = grad_amc(circuit, params.prob_labels(), check.PROB)
    entropy, per_literal = conditional_entropy(circuit, params)
    assert check.entropy_identity(params, entropy, per_literal, prob_grads, scope)
    bad = per_literal.copy()
    bad.set(-3, bad.get(-3) + 1e-6)
    assert not check.entropy_identity(params, entropy, bad, prob_grads, scope)

    cond = em_conditionals(circuit, params)
    assert check.em_identity(cond, scope)
    bad = cond.copy()
    bad.set(4, bad.get(4) - 1e-6)
    assert not check.em_identity(bad, scope)

    samples = 4096
    amc, exact = grad_amc(circuit, params.prob_labels(), check.PROB)
    p_hat, g_hat, se = indecater_estimate(circuit, params,
                                          SampleBatch(11, samples))
    assert check.sampled_within(p_hat, g_hat, se, amc, exact, scope, samples)
    bad = g_hat.copy()
    bad.set(2, min(1.0, bad.get(2) + 0.2))
    assert not check.sampled_within(p_hat, bad, se, amc, exact, scope, samples)


def test_oracle_members_agree(tmp_path):
    for family, size in workload.ORACLE_MEMBERS:
        small = workload.Workload("small", family, size, 1, (), (), "")
        path = tmp_path / f"{family}.nnf"
        small.write(path, 5)
        assert check.oracle_check(path, _params(small.num_vars, 5)) == []


def _tiny(w):
    size = (6, 8) if w.family == "layered" else (20, 12)
    return dataclasses.replace(w, size=size, samples=256)


def test_printed_metric_names_match_benchmark_json(tmp_path, monkeypatch,
                                                  capsys):
    import run

    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    monkeypatch.setattr(workload, "WORKLOADS", {
        name: _tiny(w) for name, w in workload.WORKLOADS.items()})
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        spec = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in workload.WORKLOADS:
            assert run.main(["--workload", name, "--seed", "1",
                             "--seconds", "1", "--trace", trace]) == 0
            *lines, last = capsys.readouterr().out.strip().splitlines()
            result = json.loads(last)
            assert result["correct"] and result["failed"] == 0, name
            assert result["attempted"] > 0, name
            assert {n: m["unit"] for n, m in result["metrics"].items()} == spec
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()), name
            printed = {}
            for line in lines:
                if not line.startswith("#"):
                    match = METRIC_LINE.fullmatch(line)
                    assert match, line
                    printed[match["name"]] = match["unit"]
            assert printed == spec, name
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d4-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
