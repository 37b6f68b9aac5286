"""The seeds and the parent/change summary of scripts/bench_json.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_json.py"
_SPEC = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)

DIRECTIONS = {"setup_s": {"better": "lower", "bound": 0.25},
              "edges_per_s": {"better": "higher", "bound": 0.25}}


@pytest.mark.parametrize("spec,seeds", [("101-105", [101, 102, 103, 104, 105]),
                                        ("7-7", [7]),
                                        ("1,4,9", [1, 4, 9]),
                                        ("3", [3])])
def test_seeds(spec, seeds):
    assert bench_json._seeds(spec) == seeds


def _run(workload, seed, side, setup_s, edges_per_s=1.0):
    """One run as perfbench reports it; ``setup_s="failed"`` has no result."""
    result = None if setup_s == "failed" else {"metrics": {
        "setup_s": {"value": setup_s}, "edges_per_s": {"value": edges_per_s}}}
    return {"workload": workload, "seed": seed, "side": side, "result": result}


def _runs(workload, pairs):
    """Both runs of each (parent, change) pair of setup_s, one seed each."""
    return [run for seed, (p, c) in enumerate(pairs)
            for run in (_run(workload, seed, "parent", p),
                        _run(workload, seed, "change", c))]


def test_summary_counts_wins_in_each_direction():
    # the change is faster in 3 pairs, slower in 1 and tied in 1; its
    # edges_per_s is the inverse, so it wins the same 3 pairs there
    setup = [(1.0, 0.5), (2.0, 1.0), (3.0, 3.0), (4.0, 2.0), (5.0, 6.0)]
    runs = [_run("w", seed, side, s, 1 / s)
            for seed, pair in enumerate(setup)
            for side, s in zip(("parent", "change"), pair)]
    got = bench_json._summary(runs, DIRECTIONS)["w"]
    assert got["setup_s"]["change_wins"] == 3
    assert got["edges_per_s"]["change_wins"] == 3
    assert got["setup_s"]["better"] == "lower"
    assert got["edges_per_s"]["better"] == "higher"
    assert got["setup_s"]["pairs"] == got["edges_per_s"]["pairs"] == 5


def test_summary_quartiles():
    parent = [5.0, 1.0, 4.0, 2.0, 3.0]
    change = [10.0, 20.0, 40.0, 30.0, 50.0]
    got = bench_json._summary(_runs("w", zip(parent, change)),
                              DIRECTIONS)["w"]["setup_s"]
    assert got["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert got["change"] == {"q1": 20.0, "median": 30.0, "q3": 40.0}
    assert got["change_wins"] == 0


def test_summary_skips_failed_runs_and_missing_values():
    runs = _runs("w", [(1.0, 2.0), (1.0, 0.5), (1.0, "failed"), (1.0, None)])
    got = bench_json._summary(runs, DIRECTIONS)["w"]
    assert got["setup_s"]["pairs"] == 2
    assert got["setup_s"]["change_wins"] == 1
    assert got["setup_s"]["change"]["median"] == 1.25
    # the pair without a setup_s still has an edges_per_s
    assert got["edges_per_s"]["pairs"] == 3


def test_summary_leaves_out_metrics_with_fewer_than_two_pairs():
    runs = (_runs("a", [(1.0, 2.0), (1.0, None), (1.0, 0.5)])
            + _runs("b", [(1.0, 2.0)])
            + [_run("b", 1, "parent", 1.0)])  # a pair without its change run
    got = bench_json._summary(runs, DIRECTIONS)
    assert list(got) == ["a", "b"]
    assert got["a"]["setup_s"]["pairs"] == 2
    assert got["a"]["edges_per_s"]["pairs"] == 3
    assert got["b"] == {}


def test_summary_pairs_the_runs_of_a_repeated_seed_in_order():
    # one seed collected three times, the side that runs first alternating
    sides = [("parent", 1.0), ("change", 0.5), ("change", 3.0),
             ("parent", 2.0), ("parent", 3.0), ("change", 1.0)]
    runs = [_run("w", 2, side, s) for side, s in sides]
    got = bench_json._summary(runs, DIRECTIONS)["w"]["setup_s"]
    assert got["pairs"] == 3
    assert got["change_wins"] == 2
    assert got["change"]["median"] == 1.0


def _verdicts(pairs, better="lower"):
    specs = {"setup_s": {"better": better, "bound": 0.25}}
    return bench_json._summary(_runs("w", pairs), specs)["w"]["setup_s"]


def test_summary_reports_shift_spreads_and_bound():
    # parent 8, 10, 12 (quartiles 9 and 11); change 11, 11, 11
    got = _verdicts([(8.0, 11.0), (10.0, 11.0), (12.0, 11.0)])
    assert got["bound"] == 0.25
    assert got["shift"] == pytest.approx(0.1)  # 10% slower
    assert got["parent_spread"] == pytest.approx(0.2)
    assert got["change_spread"] == 0.0
    assert got["verdict"] == "ok"


def test_summary_shift_is_positive_when_worse_in_either_direction():
    pairs = [(10.0, 13.0), (10.0, 13.0)]
    assert _verdicts(pairs)["shift"] == pytest.approx(0.3)
    assert _verdicts(pairs)["verdict"] == "worse"
    # 30% more edges per second is better, not worse
    higher = _verdicts(pairs, better="higher")
    assert higher["shift"] == pytest.approx(-0.3)
    assert higher["verdict"] == "ok"


def test_summary_worse_beats_unresolved():
    got = _verdicts([(5.0, 20.0), (10.0, 20.0), (15.0, 20.0)])
    assert got["parent_spread"] > 0.25 and got["verdict"] == "worse"


def test_summary_unresolved_when_a_spread_exceeds_the_bound():
    # parent quartiles 7 and 13 around 10: 60% of the median
    assert _verdicts([(4.0, 9.0), (10.0, 9.5), (16.0, 10.0)])["verdict"] \
        == "unresolved"
    # a steady parent and a change spread as widely
    assert _verdicts([(10.0, 4.0), (10.0, 10.0), (10.0, 16.0)])["verdict"] \
        == "unresolved"


def test_summary_resolves_a_wide_spread_when_every_change_run_wins():
    # spread past the bound, yet each change run beats each parent run
    got = _verdicts([(10.0, 3.0), (16.0, 5.0), (22.0, 9.0)])
    assert got["parent_spread"] > 0.25 and got["change_spread"] > 0.25
    assert got["verdict"] == "ok"
    # one change run only ties the fastest parent run
    assert _verdicts([(10.0, 3.0), (16.0, 5.0), (22.0, 10.0)])["verdict"] \
        == "unresolved"
