"""The exhaustive determinism check against an independent formula oracle."""

import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amckit import (Circuit, StructureError, circuit_to_formula,
                    default_labels, grad_amc, layers, make_semiring,
                    models_to_circuit, smooth, structural_gate)
from amckit.circuits import FALSE, LIT, PROD, SUM, TRUE, determinism_budget
from amckit.formulas import evaluate


def oracle_status(circuit, budget):
    """Determinism by counting, per assignment, the true children of a sum.

    Each child is evaluated as the formula of the circuit re-rooted there;
    every sum counts, reachable from the root or not.
    """
    kinds, children = circuit.kinds, circuit.children
    sums = [i for i, k in enumerate(kinds) if k == SUM and len(children[i]) > 1]
    if not sums:
        return "verified"
    if circuit.num_vars > budget:
        return "unverified"
    for s in sums:
        phis = [circuit_to_formula(Circuit(kinds, circuit.lits, children, c,
                                           circuit.num_vars))
                for c in children[s]]
        for mask in range(1 << circuit.num_vars):
            if sum(evaluate(phi, mask) for phi in phis) > 1:
                return "refuted"
    return "verified"


@st.composite
def dags(draw):
    """Sums (some of them decisions), products, TRUE/FALSE and literals.

    Children repeat, and the root is any node, so sums above it are
    unreachable; one variable may be unmentioned.
    """
    nv = draw(st.integers(0, 5))
    kinds, lits, children = [TRUE, FALSE], [0, 0], [(), ()]
    for v in range(1, nv + 1):
        kinds += [LIT, LIT]
        lits += [v, -v]
        children += [(), ()]
    for _ in range(draw(st.integers(1, 12))):
        n = len(kinds)
        kind = draw(st.sampled_from((SUM, PROD)))
        if kind == SUM and nv and draw(st.booleans()):
            # (x and a) or (not x and b) never overlaps
            v = draw(st.integers(1, nv))
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            kinds += [PROD, PROD]
            lits += [0, 0]
            children += [(2 * v, a), (2 * v + 1, b)]
            ch = (n, n + 1)
        else:
            ch = tuple(draw(st.lists(st.integers(0, n - 1), max_size=4)))
        kinds.append(kind)
        lits.append(0)
        children.append(ch)
    root = draw(st.integers(0, len(kinds) - 1))
    return Circuit(kinds, lits, children, root, nv + draw(st.integers(0, 1)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(circuit=dags())
def test_determinism_matches_formula_oracle(circuit):
    # the larger budget first, so the smaller one reads a cached verdict
    for budget in (circuit.num_vars, circuit.num_vars - 1):
        want = oracle_status(circuit, budget)
        assert circuit.determinism_status(budget) == want, budget


def _circuit(nodes, root, num_vars):
    kinds, lits, children = zip(*nodes)
    return Circuit(kinds, lits, children, root, num_vars)


def test_determinism_without_variables():
    two_true = _circuit([(TRUE, 0, ()), (TRUE, 0, ()), (SUM, 0, (0, 1))], 2, 0)
    assert two_true.determinism_status(0) == "refuted"
    true_false = _circuit([(TRUE, 0, ()), (FALSE, 0, ()), (SUM, 0, (0, 1))],
                          2, 0)
    assert true_false.determinism_status(0) == "verified"


def test_determinism_overlap_in_last_word_block():
    # x7 x8 x1 and x7 x8 x2 share only assignments from 192 on, the last of
    # four words; with one word per block that is the last block
    def circuit(second):
        return _circuit([(LIT, 1, ()), (LIT, second, ()), (LIT, 7, ()),
                         (LIT, 8, ()), (PROD, 0, (3, 2, 0)),
                         (PROD, 0, (3, 2, 1)), (SUM, 0, (4, 5))], 6, 8)

    for block_words in (1, layers.BLOCK_WORDS):
        with mock.patch.object(layers, "BLOCK_WORDS", block_words):
            assert circuit(2).determinism_status(8) == "refuted"
            assert circuit(-1).determinism_status(8) == "verified"


def test_determinism_of_wide_dnf_is_verified():
    # 16 variables: 2^16 assignments over ~3,000 nodes, run as packed words
    rng = random.Random(16)
    nv = 16
    models = [[v if x >> (v - 1) & 1 else -v for v in range(1, nv + 1)]
              for x in rng.sample(range(1 << nv), 3000)]
    built = models_to_circuit(models, nv)
    c = Circuit(built.kinds, built.lits, built.children, built.root, nv)
    assert not c.deterministic_by_construction
    assert c.determinism_status(nv) == "verified"
    assert c.determinism_status(nv - 1) == "unverified"


def test_determinism_enumerates_only_mentioned_variables():
    # 12 mentioned variables declared over 20: 2^12 assignments, not 2^20
    rng = random.Random(12)
    nv = 12
    models = [[v if x >> (v - 1) & 1 else -v for v in range(1, nv + 1)]
              for x in rng.sample(range(1 << nv), 3000)]
    built = models_to_circuit(models, nv)
    c = Circuit(built.kinds, built.lits, built.children, built.root, 20)
    start = time.perf_counter()
    assert c.determinism_status(20) == "verified"
    assert time.perf_counter() - start < 1.0
    assert c.determinism_status(19) == "unverified"


def _random_dnf20(count):
    # an unpromised DNF of ``count`` random models over 20 variables
    rng = random.Random(20)
    models = [[v if x >> (v - 1) & 1 else -v for v in range(1, 21)]
              for x in rng.sample(range(1 << 20), count)]
    built = models_to_circuit(models, 20)
    return Circuit(built.kinds, built.lits, built.children, built.root, 20)


def test_determinism_check_memory_stays_near_its_block():
    # 46 nodes: all 2^14 words of 2^20 assignments run in one block, whose
    # node, gather and literal arrays take about 30 MiB; one int64 per
    # assignment bit would take 160 MiB
    c = _random_dnf20(5)
    blocks = layers._word_blocks(layers.layers_of(c), 1 << 14, c.node_count)
    assert blocks == [(0, 1 << 14)]
    tracemalloc.start()
    try:
        assert c.determinism_status(20) == "verified"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * layers.BLOCK_WORDS  # 64 MiB, one block-sized array


def test_determinism_blocks_follow_the_widest_gather():
    # 3,041 nodes allow 2,758 words per block, but the sum's 3,000 children
    # and the 16,380 edges of the widest product group gather a quarter of
    # BLOCK_WORDS at most: 2^14 words in 128 blocks of 128
    c = _random_dnf20(3000)
    lay = layers.layers_of(c)
    assert c.node_count == 3041
    assert max(g.children.size for g in lay.groups) == 16380
    blocks = layers._word_blocks(lay, 1 << 14, c.node_count)
    assert [hi - lo for lo, hi in blocks] == [128] * 128


def test_determinism_overlap_in_last_block_of_mentioned_variables():
    # every variable is mentioned, so 2^8 assignments make four one-word
    # blocks; x7 x8 x1 and x7 x8 x2 overlap only from assignment 192 on
    def circuit(second):
        nodes = [(LIT, 1, ()), (LIT, second, ()), (LIT, 7, ()), (LIT, 8, ()),
                 (PROD, 0, (3, 2, 0)), (PROD, 0, (3, 2, 1)), (SUM, 0, (4, 5))]
        nodes += [(LIT, v, ()) for v in range(3, 7)]
        return _circuit(nodes, 6, 8)

    forward = layers._bool_forward
    with mock.patch.object(layers, "BLOCK_WORDS", 1), \
            mock.patch.object(layers, "_bool_forward", wraps=forward) as calls:
        assert circuit(2).determinism_status(8) == "refuted"
        assert calls.call_count == 4
        assert circuit(-1).determinism_status(8) == "verified"


@pytest.mark.parametrize("block_words", [1, layers.BLOCK_WORDS])
def test_disjointness_edge_cases(block_words):
    # x1..x8 are mentioned, so 2^8 assignments make four words; x7 x8 x1
    # (node 11) and x7 x8 x2 (node 12) hold only in the last one
    nodes = [(LIT, v, ()) for v in range(1, 9)]
    nodes += [(LIT, -7, ()), (FALSE, 0, ()), (LIT, -1, ()),
              (PROD, 0, (6, 7, 0)), (PROD, 0, (6, 7, 1))]
    x1, not_x7, false, not_x1, a, b = 0, 8, 9, 10, 11, 12

    def node(kind, *children):
        return _circuit(nodes + [(kind, 0, children)], len(nodes), 8)

    with mock.patch.object(layers, "BLOCK_WORDS", block_words):
        # only the first and third children share a model
        assert node(SUM, a, not_x7, b).determinism_status(8) == "refuted"
        assert node(SUM, a, not_x7).determinism_status(8) == "verified"
        assert node(SUM, a, a).determinism_status(8) == "refuted"
        assert node(SUM, false, a, false).determinism_status(8) == "verified"
        assert not node(PROD, x1, x1).is_decomposable()
        over_x1 = _circuit(nodes + [(SUM, 0, (x1, not_x1)),
                                    (PROD, 0, (x1, len(nodes)))],
                           len(nodes) + 1, 8)
        assert not over_x1.is_decomposable()


def _dnf20(first_cube):
    """3,000 models over 20 variables, distinct on x1..x19, as a circuit not
    marked deterministic; the first cube drops its x20 (not smooth) or
    repeats its x1 (not decomposable), and no two cubes share a model."""
    rng = random.Random(20)
    nv = 20
    models = [[v if x >> (v - 1) & 1 else -v for v in range(1, nv + 1)]
              for x in rng.sample(range(1 << (nv - 1)), 3000)]
    built = models_to_circuit(models, nv)
    children = list(built.children)
    cube = built.kinds.index(PROD)
    children[cube] = first_cube(children[cube])
    return Circuit(built.kinds, built.lits, children, built.root, nv)


def test_refusals_enumerate_no_models():
    # a fuzzy gate does not check determinism and smooth() needs only
    # scopes, so their reports run none of the 2^20 assignments
    def enumerate_models(circuit, lits):
        raise AssertionError("determinism enumerated")

    fuzzy = make_semiring("fuzzy")
    unsmooth = _dnf20(lambda cube: cube[:-1])
    tangled = _dnf20(lambda cube: cube + cube[:1])
    with mock.patch.object(layers, "_bool_forward", enumerate_models):
        with pytest.raises(StructureError) as err:
            grad_amc(unsmooth, default_labels(fuzzy, 20), fuzzy)
        assert not err.value.report.smooth
        assert err.value.report.deterministic == "unverified"
        with pytest.raises(StructureError) as err:
            smooth(tangled)
        assert not err.value.report.decomposable
        assert err.value.report.deterministic == "unverified"


def test_gate_report_keeps_the_gate_budget(monkeypatch):
    monkeypatch.setenv("AMCKIT_DETERMINISM_BUDGET", "5")
    with pytest.raises(StructureError) as err:
        structural_gate(_dnf20(lambda cube: cube[:-1]), make_semiring("prob"))
    assert "unverified within budget 5" in str(err.value)
    assert err.value.report.deterministic == "unverified"


@pytest.mark.parametrize("first_cube", [lambda cube: cube[:-1],
                                        lambda cube: cube + cube[:1]],
                         ids=["unsmooth", "tangled"])
def test_scope_refusal_enumerates_no_models(first_cube):
    # smooth() is the fix for the first and returns a circuit that is
    # checked again, so enumerating this one's 2^20 assignments is waste
    def enumerate_models(circuit, lits):
        raise AssertionError("determinism enumerated")

    circuit = _dnf20(first_cube)
    with mock.patch.object(layers, "_bool_forward", enumerate_models):
        with pytest.raises(StructureError) as err:
            structural_gate(circuit, make_semiring("prob"))
    assert f"unverified within budget {determinism_budget()}" in str(err.value)
    assert err.value.report.deterministic == "unverified"
