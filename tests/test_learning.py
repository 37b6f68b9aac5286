"""EM, entropy, MPE, sampled gradients, Hessian rows, GF(2) embeddings."""

import math
import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from amckit import (AmckitError, And, BernoulliParams, Circuit,
                    CircuitBuilder, Lit, LiteralMap, SampleBatch,
                    compile_to_mods,
                    conditional_entropy, em_conditionals, enumerate_models,
                    forward, grad_amc, hessian_row, indecater_estimate,
                    make_semiring, matrix_to_circuit, matrix_vec_to_circuit,
                    mpe_gradient, oracle_amc, oracle_grad, oracle_hessian,
                    parse_d4, parse_weights, smooth, validate,
                    circuit_to_formula)
from amckit import layers
from amckit.circuits import FALSE, LIT, PROD, SUM, TRUE
from amckit.learning import _uniform_rows

from conftest import decision_dnnfs, random_formula

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

EXAMPLE_PARAMS = BernoulliParams([0.5, 0.1, 0.8])


@pytest.fixture(scope="module")
def example2_smooth():
    return smooth(parse_d4(os.path.join(DATA, "example2.nnf")))


def brute_model_probability(model, params):
    p = 1.0
    for lit in model:
        p *= params.p(lit)
    return p


def test_em_conditionals_example(example2_smooth):
    cond = em_conditionals(example2_smooth, EXAMPLE_PARAMS)
    assert abs(cond.get(1) - 0.5 * 0.8 / 0.44) < 1e-12
    assert cond.get(3) == 1.0
    assert cond.get(-3) == 0.0


def test_em_conditionals_consistency(rng):
    prob = make_semiring("prob")
    checked = 0
    for _ in range(15):
        phi = random_formula(rng, 5)
        c = compile_to_mods(phi)
        n = c.num_vars
        params = BernoulliParams([rng.uniform(0.1, 0.9) for _ in range(n)])
        labels = params.prob_labels()
        p_phi = oracle_amc(phi, labels, prob)
        if p_phi <= 1e-9:
            continue
        cond = em_conditionals(c, params)
        for lit in cond.literals():
            joint = oracle_amc(And(Lit(lit), phi), labels, prob)
            assert abs(cond.get(lit) * p_phi - joint) < 1e-9
        for v in range(1, n + 1):
            assert abs(cond.get(v) + cond.get(-v) - 1.0) < 1e-9
        checked += 1
    assert checked >= 5


def test_em_conditionals_zero_probability():
    b = CircuitBuilder()
    c = b.build(b.false(), num_vars=1)
    with pytest.raises(AmckitError):
        em_conditionals(c, BernoulliParams([0.5]))


def test_entropy_single_literal():
    b = CircuitBuilder()
    c = b.build(b.literal(1), num_vars=1)
    H, per_lit = conditional_entropy(c, BernoulliParams([0.5]))
    assert abs(H - (-0.5 * math.log(0.5))) < 1e-12
    # conditioning on x leaves the single empty model with weight 1
    assert abs(per_lit.get(1) - 0.0) < 1e-12


def test_entropy_tautology():
    b = CircuitBuilder()
    c = b.build(b.sum([b.literal(1), b.literal(-1)]), num_vars=1)
    H, _ = conditional_entropy(c, BernoulliParams([0.5]))
    assert abs(H - math.log(2.0)) < 1e-12


def test_entropy_deterministic_weights(example2_smooth):
    H, _ = conditional_entropy(example2_smooth, BernoulliParams([1.0, 0.0, 1.0]))
    assert abs(H) < 1e-12


def test_entropy_matches_brute_force(rng):
    for _ in range(15):
        phi = random_formula(rng, 5)
        c = compile_to_mods(phi)
        n = c.num_vars
        params = BernoulliParams([rng.uniform(0.05, 0.95) for _ in range(n)])
        H, _ = conditional_entropy(c, params)
        want = 0.0
        for model in enumerate_models(phi):
            p = brute_model_probability(model, params)
            if p > 0.0:
                want -= p * math.log(p)
        assert abs(H - want) < 1e-9
        # true bound for the unnormalized sum: p * (ln M - ln p) <= ln M + 1/e
        models = len(enumerate_models(phi))
        assert -1e-12 <= H <= (math.log(models) if models else 0.0) + 1.0 / math.e


def test_mpe_gradient_example(example2_smooth):
    g = mpe_gradient(example2_smooth, EXAMPLE_PARAMS)
    assert abs(g.get(3) - 0.45) < 1e-12
    assert g.get(-3) == 0.0
    g_log = mpe_gradient(example2_smooth, EXAMPLE_PARAMS, logspace=True)
    assert g_log.get(-3) == float("-inf")
    for lit in g.literals():
        if g.get(lit) > 0.0:
            assert abs(g_log.get(lit) - math.log(g.get(lit))) < 1e-9


def test_indecater_reproducible(example2_smooth):
    batch = SampleBatch(seed=7, count=2000)
    p1, g1, s1 = indecater_estimate(example2_smooth, EXAMPLE_PARAMS, batch)
    p2, g2, s2 = indecater_estimate(example2_smooth, EXAMPLE_PARAMS, batch)
    assert p1 == p2
    assert g1 == g2 and s1 == s2


def test_indecater_results_are_python_floats(example2_smooth):
    p_hat, g_hat, stderr = indecater_estimate(
        example2_smooth, EXAMPLE_PARAMS, SampleBatch(seed=7, count=500))
    assert type(p_hat) is float
    for est in (g_hat, stderr):
        assert all(type(v) is float for v in est.values_in_order())


def test_indecater_chunks_do_not_change_result(example2_smooth):
    a = indecater_estimate(example2_smooth, EXAMPLE_PARAMS,
                           SampleBatch(seed=7, count=3000, chunk=512))
    b = indecater_estimate(example2_smooth, EXAMPLE_PARAMS,
                           SampleBatch(seed=7, count=3000, chunk=3000))
    assert a[0] == b[0] and a[1] == b[1]


def odd_circuit():
    """Products of arity 3 and 4, TRUE and FALSE leaves, literal 2 on three
    leaves, and variables 4 and 5 that no leaf mentions."""
    kinds = [LIT] * 7 + [TRUE, FALSE, LIT, PROD, PROD, PROD, PROD, SUM]
    lits = [1, -1, 2, 2, -2, 3, -3, 0, 0, 2, 0, 0, 0, 0, 0]
    children = [()] * 10 + [(0, 3, 5, 7), (1, 9, 6, 8), (1, 4, 5), (1, 2, 6),
                            (10, 11, 12, 13)]
    return Circuit(kinds, lits, children, 14, 5)


# row counts around one 64-row word; a chunk of 100 rows cuts a word, and
# with one word per block every group's pass is split along the words
BLOCK = layers.BLOCK_WORDS
ROWS = ((1, 65536, BLOCK), (63, 65536, BLOCK), (64, 65536, BLOCK),
        (65, 65536, BLOCK), (200, 65536, BLOCK), (200, 100, BLOCK),
        (200, 100, 1))
PROBS = st.lists(st.sampled_from((0.0, 0.1, 0.5, 0.8, 1.0)), min_size=6,
                 max_size=6)


@pytest.mark.parametrize("words", [1, 2, 3, 7, 10, 64, 1024])
@pytest.mark.parametrize("rows", [1, 3, 4, 11])
def test_word_blocks_are_few_equal_and_cover_the_words(words, rows):
    # 11 words at most per block: no short remainder block after full ones
    lay = SimpleNamespace(groups=[])
    with mock.patch.object(layers, "BLOCK_WORDS", 11):
        blocks = layers._word_blocks(lay, words, rows)
    widths = [hi - lo for lo, hi in blocks]
    step = max(1, 11 // rows)
    assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == words
    assert len(blocks) == -(-words // step)
    assert max(widths) <= step and max(widths) - min(widths) <= 1


@pytest.mark.parametrize("rows", [2, 120])
def test_word_blocks_bound_gathers_by_a_quarter_of_node_rows(rows):
    # a group of 15 edges: its gather may take 240 // 4 words, so 4 words
    # per block, unless 120 node rows allow only 240 // 120 = 2
    lay = SimpleNamespace(groups=[SimpleNamespace(children=np.zeros((3, 5)))])
    with mock.patch.object(layers, "BLOCK_WORDS", 240):
        blocks = layers._word_blocks(lay, 100, rows)
    widths = [hi - lo for lo, hi in blocks]
    step = min(240 // rows, 60 // 15)
    assert max(widths) * 15 <= 240 // 4 and max(widths) * rows <= 240
    assert len(blocks) == -(-100 // step)
    assert blocks[0][0] == 0 and blocks[-1][1] == 100


@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(circuit=st.one_of(decision_dnnfs(True), decision_dnnfs(False)),
       probs=PROBS, seed=st.integers(0, 2 ** 32 - 1))
@example(circuit=smooth(parse_d4(os.path.join(DATA, "example2.nnf"))),
         probs=EXAMPLE_PARAMS.probs, seed=11)
@example(circuit=odd_circuit(), probs=[0.5, 0.8, 0.3, 0.5, 0.5, 1.0],
         seed=5)
def test_indecater_matches_scalar_bool_passes(circuit, probs, seed):
    # the bit-packed boolean pass must count what per-row engine runs count
    boolean = make_semiring("bool")
    nv = circuit.num_vars
    params = BernoulliParams(probs)
    for count, chunk, block_words in ROWS:
        batch = SampleBatch(seed=seed, count=count, chunk=chunk)
        with mock.patch.object(layers, "BLOCK_WORDS", block_words):
            p_hat, g_hat, _ = indecater_estimate(circuit, params, batch)
        draws = _uniform_rows(seed, 0, count, np.asarray(probs[:nv]))
        root = 0
        counts = {lit: 0 for lit in g_hat.literals()}
        for row in draws:
            labels = LiteralMap(nv, True)
            for v in range(1, nv + 1):
                labels.set(v, bool(row[v - 1]))
                labels.set(-v, not row[v - 1])
            sat, g = grad_amc(circuit, labels, boolean)
            root += sat
            for lit in counts:
                counts[lit] += bool(g.get(lit))
        assert p_hat == root / count, (count, chunk, block_words)
        for lit in counts:
            assert g_hat.get(lit) == counts[lit] / count, \
                (count, chunk, block_words, lit)


def test_indecater_degenerate_params_exact(example2_smooth):
    prob = make_semiring("prob")
    params = BernoulliParams([1.0, 0.0, 1.0])
    p_hat, g_hat, stderr = indecater_estimate(
        example2_smooth, params, SampleBatch(seed=3, count=1))
    _, want = grad_amc(example2_smooth, params.prob_labels(), prob)
    for lit in g_hat.literals():
        assert g_hat.get(lit) == want.get(lit)
        assert stderr.get(lit) == 0.0
    amc = forward(example2_smooth, params.prob_labels(), prob).root_value
    assert p_hat == amc


def test_indecater_empty_batch(example2_smooth):
    with pytest.raises(ValueError):
        indecater_estimate(example2_smooth, EXAMPLE_PARAMS,
                           SampleBatch(seed=1, count=0))


@pytest.mark.parametrize("chunk", [0, -5])
def test_indecater_rejects_nonpositive_chunk(example2_smooth, chunk):
    with pytest.raises(ValueError, match=f"chunk must be positive, got {chunk}"):
        indecater_estimate(example2_smooth, EXAMPLE_PARAMS,
                           SampleBatch(seed=1, count=10, chunk=chunk))


def test_hessian_row_example(example2_smooth):
    row_x = hessian_row(example2_smooth, EXAMPLE_PARAMS, 1)
    assert abs(row_x.get(3) - 1.0) < 1e-12
    assert row_x.get(-1) == 0.0
    assert row_x.get(1) == 0.0  # multilinear: pure second derivative vanishes


def test_hessian_rows_symmetric(rng):
    for _ in range(5):
        phi = random_formula(rng, 4)
        c = compile_to_mods(phi)
        n = c.num_vars
        params = BernoulliParams([rng.uniform(0.1, 0.9) for _ in range(n)])
        rows = {y: hessian_row(c, params, y)
                for y in list(range(1, n + 1)) + [-v for v in range(1, n + 1)]}
        for yi in rows:
            for yj in rows:
                assert abs(rows[yi].get(yj) - rows[yj].get(yi)) < 1e-9


def test_hessian_row_matches_oracle_off_diagonal(example2_smooth):
    prob = make_semiring("prob")
    labels = EXAMPLE_PARAMS.prob_labels()
    phi = circuit_to_formula(parse_d4(os.path.join(DATA, "example2.nnf")))
    h = oracle_hessian(phi, labels, prob)
    lits = [1, 2, 3, -1, -2, -3]
    idx = {l: i for i, l in enumerate(lits)}
    for y in lits:
        row = hessian_row(example2_smooth, EXAMPLE_PARAMS, y)
        for l in lits:
            if abs(l) == abs(y):
                continue
            assert abs(row.get(l) - h[idx[l]][idx[y]]) < 1e-9


def test_matrix_to_circuit_zero_matrix():
    c = matrix_to_circuit([[0, 0], [0, 0]])
    gf2 = make_semiring("gf2")
    assert forward(c, LiteralMap(2, 1), gf2).root_value == 0


def test_matrix_to_circuit_requires_symmetry():
    with pytest.raises(ValueError):
        matrix_to_circuit([[0, 1], [0, 0]])


def test_matrix_to_circuit_hessian(rng):
    gf2 = make_semiring("gf2")
    for _ in range(4):
        n = 5
        m = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(0, 1)
        c = matrix_to_circuit(m)
        labels = LiteralMap(n, 1)
        phi = circuit_to_formula(c)
        h = oracle_hessian(phi, labels, gf2, variables=set(range(1, n + 1)),
                           positive_only=True)
        got = np.array(h)
        assert (got == m).all()


def test_matrix_vec_to_circuit_grad_and_hessian(rng):
    gf2 = make_semiring("gf2")
    for _ in range(4):
        n = 5
        m = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(0, 1)
        v = np.array([rng.randint(0, 1) for _ in range(n)])
        c = matrix_vec_to_circuit(m, v)
        labels = LiteralMap(n, 1)
        phi = circuit_to_formula(c)
        grad = oracle_grad(phi, labels, gf2, variables=set(range(1, n + 1)))
        assert [grad.get(i) for i in range(1, n + 1)] == list(v)
        h = np.array(oracle_hessian(phi, labels, gf2,
                                    variables=set(range(1, n + 1)),
                                    positive_only=True))
        off = ~np.eye(n, dtype=bool)
        assert (h[off] == m[off]).all()
        # the diagonal is the gradient by conditioning idempotence
        assert (np.diag(h) == v).all()


def test_matrix_circuits_validate(rng):
    for n in (4, 6):
        m = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(0, 1)
        c = matrix_to_circuit(m)
        report = validate(c, budget=n)
        assert report.smooth and report.decomposable
        assert report.deterministic == "verified"


def test_matrix_circuit_size_quadratic():
    sizes = {}
    for n in (4, 8, 16, 32):
        m = np.ones((n, n), dtype=int)
        c = matrix_to_circuit(m)
        sizes[n] = c.node_count
        assert c.node_count <= 4 * n * n + 8
    # engine gradients agree with the construction on a small instance
    gf2 = make_semiring("gf2")
    c = matrix_to_circuit(np.ones((4, 4), dtype=int))
    _, g = grad_amc(c, LiteralMap(4, 1), gf2)
    assert [g.get(i) for i in range(1, 5)] == [1, 1, 1, 1]


def test_matrix_to_circuit_long_negative_runs():
    # one pair at the corners: the cubes' runs of negative literals span
    # 1,198 variables, more than Python's recursion limit
    n = 1200
    m = np.zeros((n, n), dtype=int)
    m[0, n - 1] = m[n - 1, 0] = 1
    c = matrix_to_circuit(m)
    count, g = grad_amc(c, LiteralMap(n, 1), make_semiring("gf2"))
    assert count == 1  # three models
    assert [g.get(v) for v in range(1, n + 1)] == [0] * n  # the diagonal


def test_bernoulli_labels_are_the_weight_file_encodings(rng, tmp_path):
    probs = [0.0, 1.0, 0.5] + [rng.uniform(0.05, 0.95) for _ in range(200)]
    path = tmp_path / "params.w"
    path.write_text("".join(f"v {v} {p!r}\n" for v, p in enumerate(probs, 1)))
    params = BernoulliParams(probs)
    for name, labels in (("prob", params.prob_labels()),
                         ("log", params.log_labels())):
        assert labels == parse_weights(str(path), make_semiring(name)), name


@pytest.mark.parametrize("call, message", [
    (lambda c: BernoulliParams([0.5, 1.5]), "probability 1.5 outside [0, 1]"),
    (lambda c: BernoulliParams([-0.25]), "probability -0.25 outside [0, 1]"),
    (lambda c: BernoulliParams([math.nan]), "probability nan outside [0, 1]"),
    (lambda c: em_conditionals(c, BernoulliParams([0.5, 0.5])),
     "params cover 2 variables, circuit mentions 3"),
    (lambda c: hessian_row(c, EXAMPLE_PARAMS, 4),
     "literal 4 outside the circuit's variables"),
    (lambda c: hessian_row(c, EXAMPLE_PARAMS, -4),
     "literal -4 outside the circuit's variables"),
    (lambda c: hessian_row(c, EXAMPLE_PARAMS, 0),
     "literal 0 outside the circuit's variables"),
], ids=["above-1", "below-0", "nan", "too-few", "hessian-high",
        "hessian-low", "hessian-0"])
def test_learning_refuses_params_and_literals_out_of_range(example2_smooth,
                                                           call, message):
    with pytest.raises(ValueError) as exc:
        call(example2_smooth)
    assert str(exc.value) == message


SYMMETRIC = [[0, 1], [1, 1]]


@pytest.mark.parametrize("build, message", [
    (lambda: matrix_to_circuit([[0, 1, 0], [1, 0, 1]]), "matrix must be square"),
    (lambda: matrix_to_circuit([0, 1]), "matrix must be square"),
    (lambda: matrix_to_circuit([[1]]), "matrix must be at least 2x2"),
    (lambda: matrix_to_circuit([[0, 2], [2, 0]]),
     "matrix entries must be bits"),
    (lambda: matrix_to_circuit([[0, 1], [0, 0]]),
     "matrix must be symmetric: entry (i, j) and (j, i) share their unique "
     "model"),
    (lambda: matrix_vec_to_circuit([[0, 1]], [1]), "matrix must be square"),
    (lambda: matrix_vec_to_circuit([[0, -1], [-1, 0]], [1, 0]),
     "matrix entries must be bits"),
    (lambda: matrix_vec_to_circuit([[0, 1], [0, 0]], [1, 0]),
     "matrix must be symmetric"),
    (lambda: matrix_vec_to_circuit(SYMMETRIC, [1, 0, 1]),
     "vector length must match the matrix size"),
    (lambda: matrix_vec_to_circuit(SYMMETRIC, [[1, 0]]),
     "vector length must match the matrix size"),
    (lambda: matrix_vec_to_circuit(SYMMETRIC, [1, 2]),
     "vector entries must be bits"),
], ids=["rows", "vector", "1x1", "bits", "symmetric", "vec-square",
        "vec-bits", "vec-symmetric", "vec-length", "vec-shape",
        "vec-entries"])
def test_matrix_embeddings_refuse_bad_input(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
