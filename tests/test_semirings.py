"""Semiring contract tests: identities, laws, and capability soundness."""

import math
import pickle
import random

import pytest

from amckit import (ConfigError, DualValue, Polynomial, UnsupportedOperationError,
                    logaddexp, make_semiring)
from amckit.semirings import LEFT, RIGHT, SEMIRING_NAMES

from conftest import ALL_SEMIRINGS, floats_close, random_value

NEG_INF = float("-inf")


def law_close(name, a, b):
    """Law-check tolerance: exact for discrete, 1e-9 otherwise."""
    if name in ("bool", "nat", "gf2"):
        return a == b
    if name in ("prob", "viterbi", "fuzzy"):
        return floats_close(a, b, rel=1e-9)
    if name in ("log", "tropical"):
        if a == NEG_INF or b == NEG_INF:
            return a == b
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    if name == "grad":
        return (floats_close(a.primal, b.primal, rel=1e-9)
                and floats_close(a.tangent, b.tangent, rel=1e-9))
    if name == "sens":
        keys = set(a.terms) | set(b.terms)
        return all(floats_close(a.terms.get(k, 0.0), b.terms.get(k, 0.0),
                                rel=1e-9) for k in keys)
    raise ValueError(name)


def test_make_semiring_known_names():
    assert set(SEMIRING_NAMES) == set(ALL_SEMIRINGS)
    for name in ALL_SEMIRINGS:
        assert make_semiring(name).name == name


def test_make_semiring_unknown_name_lists_valid_set():
    with pytest.raises(ConfigError) as err:
        make_semiring("boolean")
    for name in ALL_SEMIRINGS:
        assert name in str(err.value)


def test_identities():
    prob = make_semiring("prob")
    assert prob.zero == 0.0 and prob.one == 1.0
    log = make_semiring("log")
    assert log.zero == NEG_INF and log.one == 0.0
    gf2 = make_semiring("gf2")
    assert gf2.add(1, 1) == 0 and gf2.add(1, 0) == 1  # XOR
    assert gf2.mul(1, 1) == 1 and gf2.mul(1, 0) == 0  # AND
    trop = make_semiring("tropical")
    assert trop.zero == NEG_INF and trop.one == 0.0
    fuzzy = make_semiring("fuzzy")
    assert fuzzy.add(0.3, 0.7) == 0.7 and fuzzy.mul(0.3, 0.7) == 0.3


def test_determinism_flags():
    needs = {"nat", "prob", "log", "grad", "gf2", "sens"}
    for name in ALL_SEMIRINGS:
        S = make_semiring(name)
        assert S.needs_determinism == (name in needs)
        assert S.additively_idempotent == (name not in needs)


@pytest.mark.parametrize("name", ALL_SEMIRINGS)
def test_semiring_laws_on_random_triples(name):
    S = make_semiring(name)
    rng = random.Random(f"laws-{name}")
    for _ in range(1000):
        a = random_value(name, rng, zero_rate=0.1)
        b = random_value(name, rng, zero_rate=0.1)
        c = random_value(name, rng, zero_rate=0.1)
        assert law_close(name, S.add(S.add(a, b), c), S.add(a, S.add(b, c)))
        assert law_close(name, S.mul(S.mul(a, b), c), S.mul(a, S.mul(b, c)))
        assert law_close(name, S.add(a, b), S.add(b, a))
        assert law_close(name, S.mul(a, b), S.mul(b, a))
        assert law_close(name, S.mul(S.add(a, b), c),
                         S.add(S.mul(a, c), S.mul(b, c)))
        assert law_close(name, S.add(S.zero, a), a)
        assert law_close(name, S.mul(S.one, a), a)
        assert law_close(name, S.mul(S.zero, a), S.zero)


@pytest.mark.parametrize("name", ALL_SEMIRINGS)
def test_idempotency_flag_matches_behavior(name):
    S = make_semiring(name)
    rng = random.Random(99)
    idempotent = all(
        law_close(name, S.add(a, a), a)
        for a in (random_value(name, rng) for _ in range(200))
    )
    assert idempotent == S.additively_idempotent


@pytest.mark.parametrize("name", ("prob", "nat", "gf2", "log"))
def test_cancellation_soundness(name):
    S = make_semiring(name)
    rng = random.Random(7)
    hits = 0
    for _ in range(500):
        a = random_value(name, rng, zero_rate=0.15)
        b = random_value(name, rng, zero_rate=0.15)
        prod = S.mul(a, b)
        r = S.try_divide(prod, a)
        if r is not None:
            hits += 1
            assert law_close(name, S.mul(a, r), prod)
        else:
            assert a == S.zero  # only the absorbing element refuses here
    assert hits > 0


@pytest.mark.parametrize("name", ("fuzzy", "bool", "gf2"))
def test_fully_ordered_mul_always_decisive(name):
    S = make_semiring(name)
    assert S.fully_ordered_mul
    rng = random.Random(13)
    for _ in range(500):
        a = random_value(name, rng, zero_rate=0.2)
        b = random_value(name, rng, zero_rate=0.2)
        side = S.is_ordered_mul(a, b)
        assert side in (LEFT, RIGHT)
        m = S.mul(a, b)
        assert m == (a if side == LEFT else b)


@pytest.mark.parametrize("name", ("viterbi", "tropical"))
def test_ordering_consistent_where_decisive(name):
    # x and + are not selective operations, so ordering is only decisive on
    # pairs involving an identity; where reported it must match mul exactly
    S = make_semiring(name)
    rng = random.Random(17)
    for _ in range(500):
        a = random_value(name, rng, zero_rate=0.2)
        b = random_value(name, rng, zero_rate=0.2)
        side = S.is_ordered_mul(a, b)
        if side == LEFT:
            assert S.mul(a, b) == a
        elif side == RIGHT:
            assert S.mul(a, b) == b
    assert S.is_ordered_mul(S.zero, 0.5) == LEFT
    assert S.is_ordered_mul(0.5, S.one) == LEFT


def test_logaddexp_examples():
    assert logaddexp(NEG_INF, 1.25) == 1.25
    assert logaddexp(1.25, NEG_INF) == 1.25
    assert abs(logaddexp(math.log(0.3), math.log(0.14)) - math.log(0.44)) < 1e-12
    assert abs(logaddexp(0.0, 0.0) - math.log(2.0)) < 1e-15
    assert math.isnan(logaddexp(float("nan"), 0.0))


def test_grad_ops_examples():
    S = make_semiring("grad")
    p = DualValue(0.7, 0.3)
    assert S.mul(S.one, p) == p
    got = S.mul(DualValue(0.5, 1.0), DualValue(0.8, 0.0))
    assert floats_close(got.primal, 0.4) and floats_close(got.tangent, 0.8)
    # cross-check the tangent against finite differences of p*q in p
    h = 1e-7
    fd = ((0.5 + h) * 0.8 - (0.5 - h) * 0.8) / (2 * h)
    assert abs(got.tangent - fd) < 1e-6
    s = S.add(DualValue(0.3, 0.1), DualValue(0.14, 0.2))
    assert floats_close(s.primal, 0.44) and floats_close(s.tangent, 0.3)


def test_poly_mul_examples():
    x = Polynomial.indeterminate(1)
    one_minus_x = Polynomial.constant(1.0) + Polynomial({((1, 1),): -1.0})
    got = x * one_minus_x
    assert got == Polynomial({((1, 1),): 1.0, ((1, 2),): -1.0})
    y = Polynomial.indeterminate(2)
    assert (x + y) * Polynomial.constant(1.0) == x + y
    assert x * y == Polynomial({((1, 1), (2, 1)): 1.0})


def test_poly_canonical_no_zero_terms():
    x = Polynomial.indeterminate(1)
    minus_x = Polynomial({((1, 1),): -1.0})
    assert (x + minus_x) == Polynomial()
    assert (x + minus_x).is_zero()
    # dict-level canonical form: same polynomial from different builds
    assert Polynomial({((1, 1), (2, 1)): 2.0}) == \
        Polynomial.indeterminate(2) * Polynomial.indeterminate(1) * Polynomial.constant(2.0)


def test_negation_capability():
    assert make_semiring("prob").negate(0.25) == -0.25
    assert make_semiring("gf2").negate(1) == 1
    g = make_semiring("grad").negate(DualValue(1.0, -2.0))
    assert g == DualValue(-1.0, 2.0)
    with pytest.raises(UnsupportedOperationError):
        make_semiring("log").negate(0.0)


def test_weight_token_parsing():
    grad = make_semiring("grad")
    assert grad.parse_value("0.5:1.25") == DualValue(0.5, 1.25)
    assert grad.parse_value("0.5") == DualValue(0.5, 0.0)
    sens = make_semiring("sens")
    assert sens.parse_value("X4") == Polynomial.indeterminate(4)
    assert sens.parse_value("1-X2") == sens.default_label(-2)
    assert sens.parse_value("0.25") == Polynomial.constant(0.25)
    nat = make_semiring("nat")
    with pytest.raises(ValueError):
        nat.encode_prob(0.5)
    boolean = make_semiring("bool")
    assert boolean.encode_prob(1.0) == (True, False)
    with pytest.raises(ValueError):
        boolean.encode_prob(0.25)


def test_sens_default_labels():
    S = make_semiring("sens")
    assert S.default_label(3) == Polynomial.indeterminate(3)
    assert S.default_label(-3) == Polynomial.constant(1.0) + Polynomial({((3, 1),): -1.0})


# --- the public surface of every built-in, pinned -----------------------------

PROBS = (0, 0.25, 1, -0.1, 1.5, float("nan"))


def _outcome(fn, *args):
    """repr of fn(*args), or "Type: message" of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return f"{type(exc).__name__}: {exc}"


def _unit(what):
    """encode_prob outcomes over PROBS of a (p, 1 - p) encoding."""
    return ("(0, 1.0)", "(0.25, 0.75)", "(1, 0.0)",
            f"ValueError: {what} -0.1 outside [0, 1]",
            f"ValueError: {what} 1.5 outside [0, 1]",
            f"ValueError: {what} nan outside [0, 1]")


def _bits(name):
    return ("(0, 1)", f"ValueError: {name} weight must be 0 or 1, got 0.25",
            "(1, 0)", f"ValueError: {name} weight must be 0 or 1, got -0.1",
            f"ValueError: {name} weight must be 0 or 1, got 1.5",
            f"ValueError: {name} weight must be 0 or 1, got nan")


LOG_PAIRS = ("(-inf, 0.0)", "(-1.3862943611198906, -0.2876820724517809)",
             "(0.0, -inf)", *_unit("probability")[3:])
NO_FLOAT = "ValueError: could not convert string to float: 'x'"
NO_INT = "ValueError: invalid literal for int() with base 10: 'x'"


def _no_inverse(name):
    return (f"UnsupportedOperationError: semiring '{name}' has no additive "
            "inverses",) * 2


def _nonneg(what, log=False):
    return {"0.25": "-1.3862943611198906" if log else "0.25",
            "0": "-inf" if log else "0.0", "1": "0.0" if log else "1.0",
            "-0.5": f"ValueError: {what} must be non-negative, got -0.5",
            "x": NO_FLOAT}


# try_divide | is_ordered_mul on (zero, zero), (one, zero), (zero, one),
# (one, one), then the family's extra pairs
CANCEL = ("None | 'left'", "None | 'right'")
UFUNC, DUAL, NONE = "UfuncOps", "DualOps", "NoneType"

SURFACE = {
    "bool": dict(
        identities=("False", "True"), flags=(True, True, True, False, False),
        ops=UFUNC,
        encode=("(False, True)",
                "ValueError: bool weight must be 0 or 1, got 0.25",
                "(True, False)", "ValueError: bool weight -0.1 outside [0, 1]",
                "ValueError: bool weight 1.5 outside [0, 1]",
                "ValueError: bool weight nan outside [0, 1]"),
        parse={"t": "True", " True ": "True", "1": "True", "F": "False",
               "false": "False", "0": "False",
               "yes": "ValueError: bad bool weight 'yes'"},
        format=("'F'", "'T'"), negate=_no_inverse("bool"),
        label=("True", "True"), pairs=(),
        divide=(*CANCEL, "False | 'left'", "True | 'left'")),
    "nat": dict(
        identities=("0", "1"), flags=(False, True, False, False, True),
        ops=NONE, encode=_bits("nat"),
        parse={"0": "0", "7": "7", "x": NO_INT,
               "-2": "ValueError: nat weight must be non-negative, got -2",
               "1.5": "ValueError: invalid literal for int() with base 10: "
                      "'1.5'"},
        format=("'0'", "'1'"), negate=_no_inverse("nat"), label=("1", "1"),
        pairs=((5, 2), (6, 2)),
        divide=(*CANCEL, "0 | 'left'", "1 | 'left'", "None | None",
                "3 | None")),
    "prob": dict(
        identities=("0.0", "1.0"), flags=(False, True, False, True, True),
        ops=UFUNC, encode=_unit("probability"),
        parse={**_nonneg("prob weight"), "1e300": "1e+300"},
        format=("'0.0'", "'1.0'"), negate=("-0.0", "-1.0"),
        label=("1.0", "1.0"), pairs=((0.5, 0.25),),
        divide=(*CANCEL, "0.0 | 'left'", "1.0 | 'left'", "2.0 | None")),
    "log": dict(
        identities=("-inf", "0.0"), flags=(False, True, False, False, True),
        ops=UFUNC, encode=LOG_PAIRS,
        parse=_nonneg("log-semiring weight", log=True),
        format=("'log:-inf'", "'log:0.0'"), negate=_no_inverse("log"),
        label=("0.0", "0.0"), pairs=((-0.5, -0.25),),
        divide=(*CANCEL, "-inf | 'left'", "0.0 | 'left'", "-0.25 | None")),
    "viterbi": dict(
        identities=("0.0", "1.0"), flags=(True, True, False, False, False),
        ops=UFUNC, encode=_unit("probability"),
        parse=_nonneg("viterbi weight"),
        format=("'0.0'", "'1.0'"), negate=_no_inverse("viterbi"),
        label=("1.0", "1.0"), pairs=((0.5, 0.25),),
        divide=(*CANCEL, "0.0 | 'left'", "1.0 | 'left'", "2.0 | None")),
    "tropical": dict(
        identities=("-inf", "0.0"), flags=(True, True, False, False, False),
        ops=UFUNC, encode=LOG_PAIRS,
        parse=_nonneg("tropical weight", log=True),
        format=("'log:-inf'", "'log:0.0'"), negate=_no_inverse("tropical"),
        label=("0.0", "0.0"), pairs=((-0.5, -0.25),),
        divide=(*CANCEL, "-inf | 'left'", "0.0 | 'left'", "-0.25 | None")),
    "fuzzy": dict(
        identities=("0.0", "1.0"), flags=(True, False, True, False, False),
        ops=UFUNC, encode=_unit("fuzzy weight"),
        parse={"0.25": "0.25", "1": "1.0", "x": NO_FLOAT,
               "1.5": "ValueError: fuzzy weight 1.5 outside [0, 1]",
               "-0.1": "ValueError: fuzzy weight -0.1 outside [0, 1]"},
        format=("'0.0'", "'1.0'"), negate=_no_inverse("fuzzy"),
        label=("1.0", "1.0"), pairs=((0.5, 0.25),),
        divide=(*CANCEL, "None | 'left'", "None | 'left'", "None | 'right'")),
    "grad": dict(
        identities=("DualValue(primal=0.0, tangent=0.0)",
                    "DualValue(primal=1.0, tangent=0.0)"),
        flags=(False, False, False, True, True), ops=DUAL,
        encode=("(DualValue(primal=0, tangent=0.0), "
                "DualValue(primal=1.0, tangent=0.0))",
                "(DualValue(primal=0.25, tangent=0.0), "
                "DualValue(primal=0.75, tangent=0.0))",
                "(DualValue(primal=1, tangent=0.0), "
                "DualValue(primal=0.0, tangent=0.0))",
                *_unit("probability")[3:]),
        parse={"0.5": "DualValue(primal=0.5, tangent=0.0)",
               "0.5:1.25": "DualValue(primal=0.5, tangent=1.25)",
               "a:1": "ValueError: could not convert string to float: 'a'",
               "x": NO_FLOAT},
        format=("'(0.0, 0.0)'", "'(1.0, 0.0)'"),
        negate=("DualValue(primal=-0.0, tangent=-0.0)",
                "DualValue(primal=-1.0, tangent=-0.0)"),
        label=("DualValue(primal=1.0, tangent=0.0)",) * 2, pairs=(),
        divide=(*CANCEL, "None | 'left'", "None | 'left'")),
    "gf2": dict(
        identities=("0", "1"), flags=(False, True, True, True, True),
        ops=UFUNC, encode=_bits("gf2"),
        parse={"0": "0", "1": "1", "x": NO_INT,
               "2": "ValueError: gf2 weight must be 0 or 1, got '2'"},
        format=("'0'", "'1'"), negate=("0", "1"), label=("1", "1"), pairs=(),
        divide=(*CANCEL, "0 | 'left'", "1 | 'left'")),
    "sens": dict(
        identities=("0", "1.0"), flags=(False, False, False, False, True),
        ops=NONE, encode=("(0, 1.0)", "(0.25, 0.75)", "(1.0, 0)",
                          *_unit("probability")[3:]),
        parse={"X4": "1.0*X4", "1-X2": "1.0 + -1.0*X2", "0.25": "0.25",
               "Xa": "ValueError: invalid literal for int() with base 10: "
                     "'a'"},
        format=("'0'", "'1.0'"), negate=_no_inverse("sens"),
        label=("1.0*X3", "1.0 + -1.0*X3"), pairs=(),
        divide=(*CANCEL, "None | 'left'", "None | 'left'")),
}


def _surface(S, pairs, tokens):
    ends = [(S.zero, S.zero), (S.one, S.zero), (S.zero, S.one), (S.one, S.one)]
    return dict(
        identities=(repr(S.zero), repr(S.one)),
        flags=(S.additively_idempotent, S.supports_division,
               S.fully_ordered_mul, S.supports_negation, S.needs_determinism),
        ops=type(S.array_ops).__name__,
        encode=tuple(_outcome(S.encode_prob, p) for p in PROBS),
        parse={t: _outcome(S.parse_value, t) for t in tokens},
        format=(_outcome(S.format_value, S.zero),
                _outcome(S.format_value, S.one)),
        negate=(_outcome(S.negate, S.zero), _outcome(S.negate, S.one)),
        label=(_outcome(S.default_label, 3), _outcome(S.default_label, -3)),
        divide=tuple(f"{_outcome(S.try_divide, a, c)} | "
                     f"{_outcome(S.is_ordered_mul, a, c)}"
                     for a, c in ends + list(pairs)),
    )


@pytest.mark.parametrize("name", ALL_SEMIRINGS)
def test_builtin_surface(name):
    want = dict(SURFACE[name])
    pairs = want.pop("pairs")
    S = make_semiring(name)
    assert repr(S) == f"<semiring {name}>"
    assert _surface(S, pairs, want["parse"]) == want
    copy = pickle.loads(pickle.dumps(S))
    assert repr(copy) == repr(S)
    assert _surface(copy, pairs, want["parse"]) == want
