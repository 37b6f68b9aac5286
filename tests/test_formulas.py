"""Formula AST, conditioning, enumeration, and brute-force oracle tests."""

import pytest

from amckit import (And, Bottom, Lit, LiteralMap, Not, Or, ScaleError, Top,
                    condition, enumerate_models, evaluate, formula_variables,
                    make_semiring, oracle_amc, oracle_grad, oracle_hessian,
                    read_dimacs)

from conftest import random_formula, random_labels, values_close

PHI = And(Or(Lit(1), Lit(2)), Lit(3))  # (x or y) and z


def example1_labels():
    labels = LiteralMap(3, 1.0)
    for lit, w in [(1, 0.5), (-1, 0.5), (2, 0.1), (-2, 0.9), (3, 0.8), (-3, 0.2)]:
        labels.set(lit, w)
    return labels


def test_condition_substitutes_literals():
    assert condition(PHI, 1) == And(Or(Top(), Lit(2)), Lit(3))
    assert condition(PHI, -3) == And(Or(Lit(1), Lit(2)), Bottom())
    assert condition(Lit(1), -1) == Bottom()
    # substitution recurses through negation
    assert condition(Not(Lit(1)), 1) == Not(Top())


def test_enumerate_models_example():
    models = enumerate_models(PHI)
    assert models == [
        frozenset({-1, 2, 3}),
        frozenset({1, -2, 3}),
        frozenset({1, 2, 3}),
    ]
    assert enumerate_models(Bottom(), {1}) == []
    assert enumerate_models(Top(), {1}) == [frozenset({-1}), frozenset({1})]


def test_enumerate_models_budget():
    big = Top()
    with pytest.raises(ScaleError):
        enumerate_models(big, set(range(1, 26)))


def test_oracle_amc_examples():
    prob = make_semiring("prob")
    assert abs(oracle_amc(PHI, example1_labels(), prob) - 0.44) < 1e-12
    nat = make_semiring("nat")
    assert oracle_amc(PHI, LiteralMap(3, 1), nat) == 3
    viterbi = make_semiring("viterbi")
    assert abs(oracle_amc(PHI, example1_labels(), viterbi) - 0.36) < 1e-12


def test_oracle_grad_examples():
    prob = make_semiring("prob")
    g = oracle_grad(PHI, example1_labels(), prob)
    assert abs(g.get(1) - 0.8) < 1e-12
    assert g.get(-3) == 0.0
    nat = make_semiring("nat")
    gn = oracle_grad(PHI, LiteralMap(3, 1), nat)
    assert [gn.get(l) for l in (1, 2, 3, -1, -2, -3)] == [2, 2, 3, 1, 1, 0]


def test_oracle_hessian_examples():
    prob = make_semiring("prob")
    labels = example1_labels()
    h = oracle_hessian(PHI, labels, prob)
    g = oracle_grad(PHI, labels, prob)
    lits = [1, 2, 3, -1, -2, -3]
    idx = {l: i for i, l in enumerate(lits)}
    assert h[idx[1]][idx[1]] == g.get(1)
    assert h[idx[1]][idx[-1]] == 0.0
    assert abs(h[idx[1]][idx[3]] - 1.0) < 1e-12


def test_oracle_hessian_symmetry(rng):
    for name in ("prob", "nat", "gf2", "viterbi"):
        S = make_semiring(name)
        for _ in range(5):
            phi = random_formula(rng, 4)
            labels = random_labels(name, 4, rng)
            h = oracle_hessian(phi, labels, S)
            size = len(h)
            for i in range(size):
                for j in range(size):
                    assert values_close(name, h[i][j], h[j][i])


def test_complementary_weights_complement_rule(rng):
    prob = make_semiring("prob")
    for _ in range(20):
        phi = random_formula(rng, 5)
        n = max(formula_variables(phi))
        labels = LiteralMap(n, 1.0)
        for v in range(1, n + 1):
            p = rng.random()
            labels.set(v, p)
            labels.set(-v, 1.0 - p)
        total = oracle_amc(phi, labels, prob) + oracle_amc(Not(phi), labels, prob)
        assert abs(total - 1.0) < 1e-12


def test_product_rule_on_disjoint_formulas(rng):
    # conditioned count of a conjunction over disjoint variables follows the
    # product rule; the factor not mentioning the literal contributes zero
    for name in ("prob", "gf2"):
        S = make_semiring(name)
        for _ in range(10):
            left = random_formula(rng, 3)
            nl = max(formula_variables(left))
            right_raw = random_formula(rng, 3)
            shift = {v: v + nl for v in formula_variables(right_raw)}
            from conftest import _remap
            right = _remap(right_raw, shift)
            both = And(left, right)
            nr = max(formula_variables(right))
            labels = random_labels(name, nr, rng)
            amc_left = oracle_amc(left, labels, S)
            amc_right = oracle_amc(right, labels, S)
            g_both = oracle_grad(both, labels, S)
            g_left = oracle_grad(left, labels, S)
            for lit in (1, -1):
                expect = S.add(S.mul(g_left.get(lit), amc_right),
                               S.mul(amc_left, S.zero))
                assert values_close(name, g_both.get(lit), expect)


def test_condition_commutes_with_models(rng):
    for _ in range(20):
        phi = random_formula(rng, 4)
        vs = formula_variables(phi)
        v = rng.choice(sorted(vs))
        conditioned = enumerate_models(condition(phi, v), vs - {v})
        projected = sorted(
            frozenset(m - {v}) for m in enumerate_models(phi, vs) if v in m
        )
        assert sorted(conditioned) == projected


def test_evaluate_mask_convention():
    assert evaluate(Lit(2), 0b010)
    assert not evaluate(Lit(2), 0b101)
    assert evaluate(Not(Lit(2)), 0b001)


def test_read_dimacs(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("c comment\np cnf 3 2\n1 2 0\n3 0\n")
    phi, num_vars = read_dimacs(str(path))
    assert num_vars == 3
    assert sorted(enumerate_models(phi)) == sorted(enumerate_models(PHI))


def test_read_dimacs_errors(tmp_path):
    from amckit import ParseError
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 2\n")
    with pytest.raises(ParseError):
        read_dimacs(str(bad))
    bad.write_text("p cnf 2 1\n1 3 0\n")
    with pytest.raises(ParseError):
        read_dimacs(str(bad))


@pytest.mark.parametrize("text, line, message", [
    ("1 2 0\np cnf 2 1\n", 1, "clause before header"),
    ("p cnf 2 1\n1 x 0\n", 2, "non-integer token"),
    ("c no header\n", 1, "missing DIMACS header"),
    ("p cnf 2 2\n1 2 0\n", 1, "header declares 2 clauses, found 1"),
], ids=["before-header", "token", "no-header", "clause-count"])
def test_read_dimacs_refusals(tmp_path, text, line, message):
    from amckit import ParseError
    path = tmp_path / "bad.cnf"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_dimacs(str(path))
    assert str(exc.value) == f"{path}:{line}: {message}"
