"""Engine tests: forward values, the four backward variants, and gates."""

import math
import os
from unittest import mock

import pytest

from amckit import (CircuitBuilder, ConfigError, LiteralMap,
                    StructureError, UnsupportedOperationError,
                    backward_cancel, backward_dynamic, backward_naive,
                    backward_optimized, circuit_to_formula, compile_to_mods,
                    enumerate_models, forward, grad_amc, make_semiring,
                    models_to_circuit, oracle_amc, oracle_grad, parse_d4,
                    parse_weights, smooth, structural_gate, variable_gradient)
from amckit import circuits
from amckit.backprop import VARIANTS
from amckit.circuits import PROD

from conftest import (ALL_SEMIRINGS, formula_pool, maps_close, random_formula,
                      random_labels, values_close)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


@pytest.fixture(scope="module")
def example2_smooth():
    return smooth(parse_d4(os.path.join(DATA, "example2.nnf")))


@pytest.fixture(scope="module")
def example1_weights():
    prob = make_semiring("prob")
    return parse_weights(os.path.join(DATA, "example1.w"), prob)


def cancel_supported(name):
    return make_semiring(name).supports_division


def test_forward_examples(example2_smooth, example1_weights):
    prob = make_semiring("prob")
    assert abs(forward(example2_smooth, example1_weights, prob).root_value
               - 0.44) < 1e-12
    nat = make_semiring("nat")
    assert forward(example2_smooth, LiteralMap(3, 1), nat).root_value == 3
    log = make_semiring("log")
    log_weights = parse_weights(os.path.join(DATA, "example1.w"), log)
    got = forward(example2_smooth, log_weights, log).root_value
    assert abs(got - math.log(0.44)) < 1e-12


def test_forward_gate_refuses_unsmooth(example1_weights):
    c = parse_d4(os.path.join(DATA, "example2.nnf"))
    with pytest.raises(StructureError) as err:
        forward(c, example1_weights, make_semiring("prob"))
    assert err.value.report is not None
    assert not err.value.report.smooth


def test_forward_gate_determinism(example1_weights):
    # non-deterministic circuit: idempotent semirings fine, others refused
    b = CircuitBuilder()
    g1 = b.sum([b.literal(1), b.literal(-1)])
    g2 = b.sum([b.literal(2), b.literal(-2)])
    s = b.sum([b.product([b.literal(1), g2]),
               b.product([g1, b.literal(2)])])  # overlaps on model {x, y}
    c = b.build(s)
    assert c.is_smooth() and c.is_decomposable()
    labels = LiteralMap(2, True)
    assert forward(c, labels, make_semiring("bool")).root_value is True
    with pytest.raises(StructureError):
        forward(c, LiteralMap(2, 1), make_semiring("nat"))
    # the promise does not override a refuted check
    promised = b.build(s, deterministic_by_construction=True)
    with pytest.raises(StructureError, match="not deterministic"):
        forward(promised, LiteralMap(2, 1), make_semiring("nat"))


def test_forward_gate_trust_override(monkeypatch):
    b = CircuitBuilder()
    s = b.sum([b.literal(1), b.literal(-1)])
    c = b.build(s)
    monkeypatch.setenv("AMCKIT_DETERMINISM_BUDGET", "0")
    nat = make_semiring("nat")
    with pytest.raises(StructureError):
        forward(c, LiteralMap(1, 1), nat)
    promised = b.build(s, deterministic_by_construction=True)
    assert forward(promised, LiteralMap(1, 1), nat).root_value == 2


# x1 or x2 as a d4 file whose two arcs share the model {x1, x2}
OVERLAPPING_OR = "o 1 0\nt 2 0\n1 2 1 0\n1 2 2 0\n"


def test_promised_d4_file_is_refused_when_refuted(tmp_path):
    path = tmp_path / "or.nnf"
    path.write_text(OVERLAPPING_OR)
    c = smooth(parse_d4(str(path)))
    assert c.deterministic_by_construction and c.num_vars == 2
    for name in ("nat", "prob"):
        with pytest.raises(StructureError, match="not deterministic"):
            grad_amc(c, LiteralMap(2, 1), make_semiring(name))
    assert grad_amc(c, LiteralMap(2, True), make_semiring("bool"))[0] is True
    assert grad_amc(c, LiteralMap(2, 0.5), make_semiring("fuzzy"))[0] == 0.5


def test_promise_above_the_budget_is_not_scanned(monkeypatch):
    monkeypatch.setenv("AMCKIT_DETERMINISM_BUDGET", "2")
    c = models_to_circuit([[1, 2, 3], [-1, 2, -3]], 3)
    assert c.deterministic_by_construction
    with mock.patch.object(circuits, "_check_determinism",
                           side_effect=AssertionError("enumerated")):
        structural_gate(c, make_semiring("prob"))
        assert grad_amc(c, LiteralMap(3, 1), make_semiring("nat"))[0] == 2


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DATA)
                                        if n.endswith(".nnf")))
def test_data_files_pass_the_gate_and_match_the_oracle(name,
                                                       example1_weights):
    c = smooth(parse_d4(os.path.join(DATA, name)))
    phi = circuit_to_formula(c)
    for semiring, labels in ((make_semiring("nat"), LiteralMap(c.num_vars, 1)),
                             (make_semiring("prob"), example1_weights)):
        amc, grads = grad_amc(c, labels, semiring)
        assert values_close(semiring.name, amc,
                            oracle_amc(phi, labels, semiring))
        assert maps_close(semiring.name, grads,
                          oracle_grad(phi, labels, semiring))


def test_backward_naive_examples(example2_smooth, example1_weights):
    prob = make_semiring("prob")
    tape = forward(example2_smooth, example1_weights, prob)
    g = backward_naive(example2_smooth, tape, prob)
    assert abs(g.get(1) - 0.8) < 1e-12
    assert g.get(-3) == 0.0
    nat = make_semiring("nat")
    tape = forward(example2_smooth, LiteralMap(3, 1), nat)
    gn = backward_naive(example2_smooth, tape, nat)
    assert [gn.get(l) for l in (1, 2, 3, -1, -2, -3)] == [2, 2, 3, 1, 1, 0]


def test_backward_single_literal_circuit():
    b = CircuitBuilder()
    c = b.build(b.literal(1))
    prob = make_semiring("prob")
    labels = LiteralMap(1, 1.0)
    labels.set(1, 0.3)
    labels.set(-1, 0.7)
    for variant in VARIANTS.values():
        tape = forward(c, labels, prob)
        g = variant(c, tape, prob)
        assert g.get(1) == 1.0 and g.get(-1) == 0.0


def test_backward_cancel_matches_naive_and_counts_fallbacks(rng):
    prob = make_semiring("prob")
    for _ in range(20):
        phi = random_formula(rng, 5)
        c = compile_to_mods(phi)
        labels = random_labels("prob", c.num_vars, rng, zero_rate=0.2)
        tape = forward(c, labels, prob)
        want = backward_naive(c, tape, prob)
        stats = {}
        got = backward_cancel(c, tape, prob, stats=stats)
        assert maps_close("prob", got, want)
        assert stats["fallbacks"] >= 0


def test_backward_cancel_zero_child_exact():
    # single zero child: fallback reproduces the naive result exactly
    b = CircuitBuilder()
    p = b.product([b.literal(1), b.literal(2), b.literal(3)])
    c = b.build(p)
    prob = make_semiring("prob")
    labels = LiteralMap(3, 1.0)
    labels.set(1, 0.5)
    labels.set(2, 0.0)
    labels.set(3, 0.8)
    tape = forward(c, labels, prob)
    naive = backward_naive(c, tape, prob)
    stats = {}
    cancel = backward_cancel(c, tape, prob, stats=stats)
    assert [cancel.get(l) for l in cancel.literals()] == \
        [naive.get(l) for l in naive.literals()]
    assert cancel.get(2) == 0.4
    assert cancel.get(1) == 0.0 and cancel.get(3) == 0.0
    assert stats["fallbacks"] == 1


def test_backward_cancel_refuses_fuzzy(example2_smooth):
    fuzzy = make_semiring("fuzzy")
    labels = LiteralMap(3, 0.5)
    tape = forward(example2_smooth, labels, fuzzy)
    with pytest.raises(UnsupportedOperationError):
        backward_cancel(example2_smooth, tape, fuzzy)


def test_backward_dynamic_prefix_suffix_by_hand():
    b = CircuitBuilder()
    p = b.product([b.literal(1), b.literal(2), b.literal(3)])
    c = b.build(p)
    nat = make_semiring("nat")
    labels = LiteralMap(3, 1)
    labels.set(1, 2)
    labels.set(2, 3)
    labels.set(3, 5)
    tape = forward(c, labels, nat)
    g = backward_dynamic(c, tape, nat)
    assert [g.get(1), g.get(2), g.get(3)] == [15, 10, 6]
    g2 = backward_optimized(c, tape, nat)
    assert [g2.get(1), g2.get(2), g2.get(3)] == [15, 10, 6]


def test_backward_duplicated_child_accumulates():
    b = CircuitBuilder()
    x = b.literal(1)
    p = b._append(PROD, 0, (x, x))  # product with the same child twice
    c = b.build(p)
    nat = make_semiring("nat")
    labels = LiteralMap(1, 1)
    labels.set(1, 3)
    tape = forward(c, labels, nat, check=False)
    assert tape.root_value == 9
    for name, variant in VARIANTS.items():
        g = variant(c, tape, nat)
        assert g.get(1) == 6, name


def test_backward_optimized_fuzzy_second_extremal():
    b = CircuitBuilder()
    p = b.product([b.literal(1), b.literal(2), b.literal(3)])
    c = b.build(p)
    fuzzy = make_semiring("fuzzy")
    labels = LiteralMap(3, 1.0)
    labels.set(1, 0.7)
    labels.set(2, 0.4)
    labels.set(3, 0.9)
    tape = forward(c, labels, fuzzy)
    stats = {}
    g = backward_optimized(c, tape, fuzzy, stats=stats)
    assert [g.get(1), g.get(2), g.get(3)] == [0.4, 0.7, 0.4]
    assert stats["ordered_hits"] == 3
    naive = backward_naive(c, tape, fuzzy)
    assert [naive.get(l) for l in naive.literals()] == \
        [g.get(l) for l in g.literals()]


def test_backward_optimized_prob_zero_child():
    b = CircuitBuilder()
    p = b.product([b.literal(1), b.literal(2), b.literal(3)])
    c = b.build(p)
    prob = make_semiring("prob")
    labels = LiteralMap(3, 1.0)
    labels.set(1, 0.5)
    labels.set(2, 0.0)
    labels.set(3, 0.8)
    tape = forward(c, labels, prob)
    g = backward_optimized(c, tape, prob)
    assert g.get(2) == 0.4
    assert g.get(1) == 0.0 and g.get(3) == 0.0


def test_variant_agreement_random(rng):
    pool = formula_pool("agree", 12, [3, 4, 5])
    for name in ALL_SEMIRINGS:
        S = make_semiring(name)
        for phi, n in pool:
            c = compile_to_mods(phi)
            labels = random_labels(name, n, rng, zero_rate=0.15)
            tape = forward(c, labels, S)
            base = backward_naive(c, tape, S)
            for vname in ("dynamic", "opt", "cancel"):
                if vname == "cancel" and not cancel_supported(name):
                    continue
                got = VARIANTS[vname](c, tape, S)
                assert maps_close(name, got, base), (name, vname)


def test_grad_amc_examples(example2_smooth, example1_weights):
    prob = make_semiring("prob")
    amc, g = grad_amc(example2_smooth, example1_weights, prob)
    assert abs(amc - 0.44) < 1e-12
    assert abs(g.get(3) - 0.55) < 1e-12
    viterbi = make_semiring("viterbi")
    amc_v, g_v = grad_amc(example2_smooth, example1_weights, viterbi)
    assert abs(amc_v - 0.36) < 1e-12
    assert abs(g_v.get(3) - 0.45) < 1e-12
    boolean = make_semiring("bool")
    amc_b, g_b = grad_amc(example2_smooth, LiteralMap(3, True), boolean)
    assert amc_b is True
    assert g_b.get(-3) is False


def test_grad_amc_unknown_variant(example2_smooth, example1_weights):
    with pytest.raises(ConfigError):
        grad_amc(example2_smooth, example1_weights, make_semiring("prob"),
                 algo="fast")


def test_grad_amc_matches_oracle_all_semirings(rng):
    pool = formula_pool("oracle-mini", 6, [3, 4])
    for name in ALL_SEMIRINGS:
        S = make_semiring(name)
        for phi, n in pool:
            labels = random_labels(name, n, rng)
            c = compile_to_mods(phi)
            _, got = grad_amc(c, labels, S, algo="dynamic")
            want = oracle_grad(phi, labels, S)
            assert maps_close(name, got, want), name


def test_variable_gradient(example2_smooth, example1_weights):
    prob = make_semiring("prob")
    _, g = grad_amc(example2_smooth, example1_weights, prob)
    per_var = variable_gradient(g, prob)
    assert abs(per_var[2] - 0.55) < 1e-12           # z: 0.55 - 0
    assert abs(per_var[0] - (0.8 - 0.08)) < 1e-12   # x: 0.8 - 0.08
    gf2 = make_semiring("gf2")
    gmap = LiteralMap(1, 0)
    gmap.set(1, 1)
    gmap.set(-1, 1)
    assert variable_gradient(gmap, gf2) == [0]      # XOR of the polarities
    with pytest.raises(UnsupportedOperationError):
        variable_gradient(g, make_semiring("log"))


def test_bool_gradient_is_conditional_sat(rng):
    boolean = make_semiring("bool")
    from amckit import condition
    for _ in range(10):
        phi = random_formula(rng, 4)
        c = compile_to_mods(phi)
        n = c.num_vars
        _, g = grad_amc(c, LiteralMap(n, True), boolean)
        for lit in g.literals():
            vs = set(range(1, n + 1)) - {abs(lit)}
            sat = bool(enumerate_models(condition(phi, lit), vs))
            assert g.get(lit) == sat


def test_finite_difference_check(rng):
    prob = make_semiring("prob")
    for _ in range(8):
        phi = random_formula(rng, 4)
        c = compile_to_mods(phi)
        labels = LiteralMap(c.num_vars, 1.0)
        for v in range(1, c.num_vars + 1):
            labels.set(v, rng.uniform(0.1, 0.9))
            labels.set(-v, rng.uniform(0.1, 0.9))
        _, g = grad_amc(c, labels, prob)
        h = 1e-6
        for lit in g.literals():
            hi = labels.copy()
            hi.set(lit, labels.get(lit) + h)
            lo = labels.copy()
            lo.set(lit, labels.get(lit) - h)
            fd = (forward(c, hi, prob).root_value
                  - forward(c, lo, prob).root_value) / (2 * h)
            assert abs(fd - g.get(lit)) < 1e-4


def test_stats_reporting(example2_smooth, example1_weights):
    prob = make_semiring("prob")
    stats = {}
    grad_amc(example2_smooth, example1_weights, prob, algo="dynamic",
             stats=stats)
    n = example2_smooth.node_count
    assert stats["peak_aux_bytes"] == 8 * (n + example2_smooth.max_arity)
