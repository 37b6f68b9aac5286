"""Shared helpers: random formulas and circuits, labelings, and tolerance-aware
compares."""

import math
import random

import pytest
from hypothesis import strategies as st

from amckit import (And, Bottom, CircuitBuilder, DualValue, Lit, LiteralMap,
                    Not, Or, Polynomial, Semiring, Top, compile_to_mods,
                    formula_variables, make_semiring, smooth)

ALL_SEMIRINGS = ("bool", "nat", "prob", "log", "viterbi", "tropical", "fuzzy",
                 "grad", "gf2", "sens")

NEG_INF = float("-inf")


# --- random formulas ---------------------------------------------------------

def _random_tree(rng, num_vars, budget):
    if budget <= 1 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.04:
            return Top()
        if r < 0.08:
            return Bottom()
        v = rng.randint(1, num_vars)
        return Lit(v if rng.random() < 0.5 else -v)
    r = rng.random()
    if r < 0.42:
        return And(_random_tree(rng, num_vars, budget // 2),
                   _random_tree(rng, num_vars, budget // 2))
    if r < 0.84:
        return Or(_random_tree(rng, num_vars, budget // 2),
                  _random_tree(rng, num_vars, budget // 2))
    return Not(_random_tree(rng, num_vars, budget - 1))


def _remap(phi, mapping):
    t = type(phi)
    if t is Lit:
        v = abs(phi.lit)
        new = mapping[v]
        return Lit(new if phi.lit > 0 else -new)
    if t is Not:
        return Not(_remap(phi.child, mapping))
    if t is And:
        return And(_remap(phi.left, mapping), _remap(phi.right, mapping))
    if t is Or:
        return Or(_remap(phi.left, mapping), _remap(phi.right, mapping))
    return phi


def random_formula(rng, max_vars, budget=None):
    """Random formula with a dense variable set 1..k, k >= 1."""
    budget = budget or max(6, 3 * max_vars)
    while True:
        phi = _random_tree(rng, max_vars, budget)
        vs = sorted(formula_variables(phi))
        if vs:
            mapping = {v: i + 1 for i, v in enumerate(vs)}
            return _remap(phi, mapping)


def formula_pool(seed, count, sizes):
    """Deterministic pool of (formula, num_vars) pairs."""
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        phi = random_formula(rng, rng.choice(sizes))
        pool.append((phi, max(formula_variables(phi))))
    return pool


# --- random circuits -----------------------------------------------------------

@st.composite
def decision_dnnfs(draw, smooth_only):
    """Decisions on a variable and decomposed products, over 1..6 vars."""
    n = draw(st.integers(1, 6))
    b = CircuitBuilder()
    made = {}

    def subset(vs):
        if smooth_only:
            return vs
        return tuple(v for v in vs if draw(st.integers(0, 3)))

    def split(vs, at_least=1):
        parts = {}
        for i, v in enumerate(vs):
            key = i if i < at_least else draw(st.integers(0, 2))
            parts.setdefault(key, []).append(v)
        return [build(tuple(sorted(p))) for p in parts.values()]

    def build(vs):
        if not vs:
            return b.true()
        pool = made.setdefault(vs, [])
        if pool and draw(st.integers(0, 2)) == 0:
            return pool[draw(st.integers(0, len(pool) - 1))]
        if len(vs) == 1:
            v = vs[0]
            choice = draw(st.integers(0, 2))
            node = (b.literal(v), b.literal(-v),
                    b.sum([b.literal(v), b.literal(-v)]))[choice]
        elif draw(st.booleans()):
            x = vs[draw(st.integers(0, len(vs) - 1))]
            rest = tuple(v for v in vs if v != x)
            node = b.sum([b.product([b.literal(x)] + split(subset(rest))),
                          b.product([b.literal(-x)] + split(subset(rest)))])
        else:
            node = b.product(split(vs, at_least=2))
        pool.append(node)
        return node

    root = build(tuple(range(1, n + 1)))
    c = b.build(root, num_vars=n, deterministic_by_construction=True)
    return c if smooth_only else smooth(c)


# --- random labelings --------------------------------------------------------

# weights that make products underflow and overflow
EXTREME = (0.0, 1.0, 5e-324, 1e-300, 1e300)


def weights(extreme):
    uniform = st.floats(0.05, 1.0)
    return st.one_of(st.sampled_from(EXTREME if extreme else (0.0, 1.0)),
                     uniform)


def as_label(name, w, t):
    """One drawn weight in the semiring's encoding (t: a dual's tangent)."""
    if name == "bool":
        return w != 0.0
    if name == "gf2":
        return int(w != 0.0)
    if name in ("viterbi", "fuzzy"):
        # probabilities: a max over products that overflowed next to a zero
        # (inf * 0 = nan) has no order-free answer
        return min(w, 1.0)
    if name in ("log", "tropical"):
        return math.log(w) if w > 0.0 else -math.inf
    if name == "grad":
        return DualValue(w, t)
    if name == "nat":
        return round(4 * w)
    if name == "sens":
        if w in (0.0, 1.0):
            return Polynomial.constant(w)
        return Polynomial({(): w, ((1, 1),): 1.0 - w})
    return w


@st.composite
def cases(draw, smooth_only, extreme):
    """(circuit, weights): two weights per literal, the second a tangent."""
    c = draw(decision_dnnfs(smooth_only))
    size = 4 * c.num_vars
    return c, draw(st.lists(weights(extreme), min_size=size, max_size=size))


def labeling(name, c, ws):
    n = c.num_vars
    labels = LiteralMap(n, make_semiring(name).one)
    for i, lit in enumerate(labels.literals()):
        labels.set(lit, as_label(name, ws[i], ws[2 * n + i]))
    return labels


def random_value(name, rng, zero_rate=0.0):
    if zero_rate and rng.random() < zero_rate:
        return make_semiring(name).zero
    if name == "bool":
        return rng.random() < 0.5
    if name == "nat":
        return rng.randint(1, 4)
    if name in ("prob", "viterbi"):
        return rng.uniform(0.05, 1.0)
    if name == "fuzzy":
        return rng.uniform(0.0, 1.0)
    if name in ("log", "tropical"):
        return math.log(rng.uniform(0.05, 1.0))
    if name == "grad":
        return DualValue(rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0))
    if name == "gf2":
        return rng.randint(0, 1)
    if name == "sens":
        r = rng.random()
        if r < 0.4:
            return Polynomial.constant(rng.uniform(0.1, 1.0))
        v = rng.randint(1, 3)
        if r < 0.7:
            return Polynomial.indeterminate(v)
        return Polynomial.constant(1.0) + Polynomial({((v, 1),): -1.0})
    raise ValueError(name)


def random_labels(name, num_vars, rng, zero_rate=0.0):
    S = make_semiring(name)
    labels = LiteralMap(num_vars, S.one)
    for v in range(1, num_vars + 1):
        labels.set(v, random_value(name, rng, zero_rate))
        labels.set(-v, random_value(name, rng, zero_rate))
    return labels


class PythonLoop(Semiring):
    """A semiring without ``array_ops``: forward and opt run it on object
    arrays of its scalar functions."""

    def __init__(self, base):
        for attr in ("name", "additively_idempotent", "supports_division",
                     "fully_ordered_mul", "supports_negation", "zero", "one",
                     "add", "mul", "try_divide", "is_ordered_mul"):
            setattr(self, attr, getattr(base, attr))


# --- tolerance-aware comparisons ----------------------------------------------

def floats_close(a, b, rel=1e-9, abs_tol=1e-12):
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def values_close(name, a, b, *, log_abs=1e-7):
    """Engine-vs-oracle comparison at the per-semiring tolerance."""
    if name in ("bool", "nat", "gf2"):
        return a == b
    if name in ("prob", "viterbi", "fuzzy"):
        return floats_close(a, b)
    if name in ("log", "tropical"):
        if a == NEG_INF or b == NEG_INF:
            return a == b
        return abs(a - b) <= log_abs
    if name == "grad":
        return (floats_close(a.primal, b.primal)
                and floats_close(a.tangent, b.tangent))
    if name == "sens":
        keys = set(a.terms) | set(b.terms)
        return all(
            floats_close(a.terms.get(k, 0.0), b.terms.get(k, 0.0))
            for k in keys
        )
    raise ValueError(name)


def maps_close(name, m1, m2, **kw):
    if m1.num_vars != m2.num_vars:
        return False
    return all(
        values_close(name, m1.get(l), m2.get(l), **kw) for l in m1.literals()
    )


def mods(phi):
    return compile_to_mods(phi)


@pytest.fixture
def rng():
    return random.Random(20240811)
