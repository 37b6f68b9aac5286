"""Every backward variant against the brute-force oracle on deep circuits.

Circuits are random smooth decision-DNNFs with shared nodes, or non-smooth
ones passed through ``smooth()``; the oracle enumerates the models of
``circuit_to_formula`` of the same circuit. Weights are drawn per literal
from {0, 1, U(0.05, 1)} and encoded for each of the ten semirings. Each
variant runs on the semiring itself, which covers array-engine tapes and
the array ``opt`` in the semiring's own layout, and on ``PythonLoop`` of
it, which runs them on object arrays of its scalar functions. Subnormal and 1e±300 weights are left
out: a product that loses precision without reaching zero is still
divided (ROADMAP item 4).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from amckit import (LiteralMap, circuit_to_formula, forward, make_semiring,
                    oracle_amc, oracle_grad)
from amckit.backprop import VARIANTS

from conftest import (ALL_SEMIRINGS, PythonLoop, cases, labeling, maps_close,
                      values_close)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def check_variants_against_oracle(name, case):
    c, ws = case
    S = make_semiring(name)
    labels = labeling(name, c, ws)
    phi = circuit_to_formula(c)
    want = oracle_grad(phi, labels, S)
    # the oracle map only reaches the formula's largest variable
    want_full = LiteralMap(c.num_vars, S.zero)
    for lit in want.literals():
        want_full.set(lit, want.get(lit))
    # the semiring itself, and without array_ops so forward and opt run on
    # object arrays
    for sem in (S, PythonLoop(S)):
        tape = forward(c, labels, sem)
        assert values_close(name, tape.root_value, oracle_amc(phi, labels, S))
        for vname, backward in VARIANTS.items():
            if vname == "cancel" and not S.supports_division:
                continue
            got = backward(c, tape, sem)
            assert maps_close(name, got, want_full), (vname, got, want_full)


@pytest.mark.parametrize("name", ALL_SEMIRINGS)
@SETTINGS
@given(case=cases(smooth_only=True, extreme=False))
def test_variants_match_oracle_smooth(name, case):
    check_variants_against_oracle(name, case)


@pytest.mark.parametrize("name", ALL_SEMIRINGS)
@SETTINGS
@given(case=cases(smooth_only=False, extreme=False))
def test_variants_match_oracle_smoothed(name, case):
    check_variants_against_oracle(name, case)
