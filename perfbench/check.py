"""Correctness checks run on every timed operation.

On a smooth circuit, splitting the models on a variable v of the root's
scope gives ``α(v)⊗g(v) ⊕ α(¬v)⊗g(¬v) = amc`` for the gradient g. The
check evaluates that identity per variable: exactly for fuzzy (max/min
round nothing) and to ``REL_TOL`` relative for prob and for both parts of
the dual numbers behind the entropy. EM conditionals must sum to one per
variable, and a sampled estimate must lie within ``SAMPLED_Z`` standard
errors of the exact probability gradient. A small member of each
generator family is also compared with the brute-force oracle.
"""

from __future__ import annotations

import math

from amckit import (circuit_to_formula, grad_amc, make_semiring, oracle_grad,
                    parse_d4, smooth)

REL_TOL = 1e-9
SAMPLED_Z = 5.0
# added to the estimate's allowance: an exact value of 1 - 1e-17 rounds
# to 1.0 and has no standard error of its own
SAMPLED_ABS = 1e-12

PROB = make_semiring("prob")
LOG = make_semiring("log")
FUZZY = make_semiring("fuzzy")
GRAD = make_semiring("grad")


def root_scope(circuit):
    """Variables in the root's scope, ascending."""
    scope = circuit.scopes()[circuit.root]
    return [v for v in range(1, scope.bit_length() + 1) if scope >> (v - 1) & 1]


def close(a: float, b: float, rel=REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300) or a == b


def split_identity(semiring, labels, amc, grads, scope) -> bool:
    """``α(v)⊗g(v) ⊕ α(¬v)⊗g(¬v) == amc`` for every v in scope.

    Exact for fuzzy, to ``REL_TOL`` relative for prob.
    """
    add, mul = semiring.add, semiring.mul
    for v in scope:
        got = add(mul(labels.get(v), grads.get(v)),
                  mul(labels.get(-v), grads.get(-v)))
        if not (got == amc if semiring is FUZZY else close(got, amc)):
            return False
    return True


def entropy_identity(params, entropy, per_literal, prob_grads, scope) -> bool:
    """Tangent part of the dual split identity, with primal g from prob.

    ``conditional_entropy`` returns only tangents, so the primal gradient
    comes from a prob pass over the same parameters.
    """
    labels = params.entropy_labels()
    for v in scope:
        got = 0.0
        for lit in (v, -v):
            a = labels.get(lit)
            got += (a.primal * per_literal.get(lit)
                    + a.tangent * prob_grads.get(lit))
        if not close(got, entropy):
            return False
    return True


def em_identity(conditionals, scope) -> bool:
    """``p(v|φ) + p(¬v|φ) = 1`` for every v in scope."""
    return all(
        abs(conditionals.get(v) + conditionals.get(-v) - 1.0) <= REL_TOL
        for v in scope
    )


def sampled_within(p_hat, g_hat, stderr, amc, exact, scope, samples) -> bool:
    """Estimate within ``SAMPLED_Z`` standard errors of the exact values.

    The allowance uses the larger of the reported standard error and the
    one implied by the exact probability, so an exact value strictly
    inside (0, 1) that the samples never hit is not a miss.
    """
    def ok(est, rep_se, p):
        true_se = math.sqrt(max(p * (1.0 - p), 0.0) / samples)
        return abs(est - p) <= SAMPLED_Z * max(rep_se, true_se) + SAMPLED_ABS

    root_se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    if not ok(p_hat, root_se, amc):
        return False
    return all(ok(g_hat.get(lit), stderr.get(lit), exact.get(lit))
               for v in scope for lit in (v, -v))


def oracle_check(path, params) -> list[str]:
    """Compare a small circuit's gradients with ``oracle_grad``.

    Returns one message per semiring that disagrees (or raises).
    """
    circuit = smooth(parse_d4(path))
    phi = circuit_to_formula(circuit)
    scope = root_scope(circuit)
    misses = []
    cases = ((PROB, params.prob_labels()), (LOG, params.log_labels()),
             (FUZZY, params.prob_labels()), (GRAD, params.entropy_labels()))
    for semiring, labels in cases:
        try:
            _, grads = grad_amc(circuit, labels, semiring)
            want = oracle_grad(phi, labels, semiring, set(scope))
        except Exception as exc:  # a raising oracle is recorded, not fatal
            misses.append(f"{semiring.name}: {type(exc).__name__}: {exc}")
            continue
        for v in scope:
            for lit in (v, -v):
                if not _same(semiring, grads.get(lit), want.get(lit)):
                    misses.append(f"{semiring.name}: literal {lit}: "
                                  f"{grads.get(lit)!r} != {want.get(lit)!r}")
                    break
    return misses


def _same(semiring, got, want) -> bool:
    if semiring is FUZZY:
        return got == want
    if semiring is GRAD:
        return close(got.primal, want.primal) and close(got.tangent, want.tangent)
    if semiring is LOG:
        # a log value's absolute error is the relative error of its count
        return got == want or abs(got - want) <= REL_TOL
    return close(got, want)
