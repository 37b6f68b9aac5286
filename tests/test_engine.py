"""Array engine against its object layout and the reference sweeps.

Circuits are smooth decision-DNNFs with shared nodes, or non-smooth ones
passed through ``smooth()``; weights include 0, 1, the smallest subnormal,
1e-300 and 1e300, so products underflow and overflow. ``PythonLoop`` is the
same semiring without ``array_ops``: ``forward`` and ``opt`` run it on
object arrays of its scalar functions, which the native layouts must
match. ``naive`` and ``dynamic`` are the Python reference sweeps.
"""

import itertools
import math
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from amckit import (Circuit, CircuitBuilder, DualValue, LiteralMap, Polynomial,
                    Semiring, backward_cancel, backward_dynamic, backward_naive,
                    backward_optimized, circuits, default_labels, forward,
                    grad_amc, layers, learning, literal_order, make_semiring,
                    parse_d4, smooth, structural_gate)
from amckit.backprop import VARIANTS
from amckit.circuits import (LIT, PROD, SUM, _frontier_heights,
                             models_to_circuit)

from conftest import PythonLoop, cases, labeling
from test_circuits import (d4_corpus, data_path, fresh_copy,
                           random_decision_circuit, write_layered_d4)

ARRAY_SEMIRINGS = ("bool", "prob", "log", "viterbi", "tropical", "fuzzy",
                   "grad", "gf2")
# same strategy per edge as the object layout: the same floats, up to the
# order in which adjoints add up, which max and or do not see
SAME_AS_OPT = ("bool", "gf2", "fuzzy", "viterbi", "tropical")
# against recomputed or cumulative products: division rounds differently
SAME_AS_REFERENCE = ("bool", "gf2", "fuzzy")
REL = 1e-12

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def same(name, a, b, exact):
    """a == b for semirings in exact, else equal to REL relative."""
    if name in exact:
        return a == b
    if name == "grad":
        return same("prob", a.primal, b.primal, exact) and \
            same("prob", a.tangent, b.tangent, exact)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return False
    scale = max(abs(a), abs(b))
    if name in ("log", "tropical"):
        # a log value's absolute error is its count's relative error
        scale = max(scale, 1.0)
    return abs(a - b) <= REL * scale


def same_maps(name, got, want, exact):
    return got.num_vars == want.num_vars and all(
        same(name, got.get(l), want.get(l), exact) for l in got.literals())


def check_against_python_opt(name, c, labels):
    base = make_semiring(name)
    loop = PythonLoop(base)
    tape = forward(c, labels, base)
    want_root = forward(c, labels, loop).root_value
    assert same(name, tape.root_value, want_root, SAME_AS_OPT), \
        (tape.root_value, want_root)
    got_stats, want_stats = {}, {}
    got = backward_optimized(c, tape, base, stats=got_stats)
    want = backward_optimized(c, tape, loop, stats=want_stats)
    assert same_maps(name, got, want, SAME_AS_OPT), (got, want)
    assert got_stats == want_stats


@pytest.mark.parametrize("name", ARRAY_SEMIRINGS)
@SETTINGS
@given(case=cases(smooth_only=True, extreme=True))
def test_array_opt_matches_python_opt_smooth(name, case):
    c, ws = case
    check_against_python_opt(name, c, labeling(name, c, ws))


@pytest.mark.parametrize("name", ARRAY_SEMIRINGS)
@SETTINGS
@given(case=cases(smooth_only=False, extreme=True))
def test_array_opt_matches_python_opt_smoothed(name, case):
    c, ws = case
    check_against_python_opt(name, c, labeling(name, c, ws))


def check_against_reference_loops(name, c, labels):
    base = make_semiring(name)
    tape = forward(c, labels, base)
    got = backward_optimized(c, tape, base)
    for reference in (backward_naive, backward_dynamic):
        want = reference(c, tape, base)
        assert same_maps(name, got, want, SAME_AS_REFERENCE), \
            (reference.__name__, got, want)


@pytest.mark.parametrize("name", ARRAY_SEMIRINGS)
@SETTINGS
@given(case=cases(smooth_only=False, extreme=False))
def test_array_opt_matches_reference_loops(name, case):
    """No product leaves the normal range, so every strategy agrees."""
    c, ws = case
    check_against_reference_loops(name, c, labeling(name, c, ws))


@pytest.mark.parametrize("name", SAME_AS_REFERENCE)
@SETTINGS
@given(case=cases(smooth_only=False, extreme=True))
def test_array_opt_matches_reference_loops_extreme(name, case):
    """The exact semirings agree at any weight: the top-2 scan and the
    division of bool and gf2 against recomputed and cumulative products."""
    c, ws = case
    check_against_reference_loops(name, c, labeling(name, c, ws))


def test_tape_values_are_python_scalars():
    b = CircuitBuilder()
    c = b.build(b.sum([b.product([b.literal(1), b.literal(2)]),
                       b.product([b.literal(-1), b.literal(2)])]))
    for name, kind in (("prob", float), ("bool", bool), ("gf2", int),
                       ("grad", DualValue), ("nat", int),
                       ("sens", Polynomial)):
        S = make_semiring(name)
        tape = forward(c, LiteralMap(2, S.one), S)
        assert type(tape.root_value) is kind
        assert all(type(v) is kind for v in tape.values), name
        grads = VARIANTS["opt"](c, tape, S)
        assert all(type(v) is kind for v in grads.values_in_order()), name


def test_nat_counts_stay_exact_past_int64():
    # a count past 2^63 would wrap or round in any fixed-width dtype
    b = CircuitBuilder()
    c = b.build(b.product([b.literal(v) for v in range(1, 4)]))
    nat = make_semiring("nat")
    labels = LiteralMap(3, 1)
    weights = {1: 2 ** 40 + 1, 2: 2 ** 30 + 3, 3: 7}
    for v, w in weights.items():
        labels.set(v, w)
    tape = forward(c, labels, nat)
    assert tape.root_value == (2 ** 40 + 1) * (2 ** 30 + 3) * 7 > 2 ** 63
    for name, variant in VARIANTS.items():
        grads = variant(c, tape, nat)
        assert [grads.get(v) for v in (1, 2, 3)] == [
            (2 ** 30 + 3) * 7, (2 ** 40 + 1) * 7,
            (2 ** 40 + 1) * (2 ** 30 + 3)], name


def _odd_quotient(a, c):
    return None if c % 2 == 0 else a // c


def test_refused_division_takes_the_fallback():
    """A ``try_divide`` that answers None for a nonzero child sends that
    child to the fallback, as a zero child is."""
    odd = Semiring("odd-nat", 0, 1, operator.add, operator.mul,
                   divide=_odd_quotient)
    c = three_arities()
    labels = LiteralMap(4, 1)
    for lit, w in zip(labels.literals(), (3, 2, 5, 4, 1, 0, 6, 9)):
        labels.set(lit, w)
    tape = forward(c, labels, odd)
    values, kinds, children = tape.values, c.kinds, c.children
    products = [children[i] for i in range(c.node_count) if kinds[i] == PROD]
    refused = [sum(values[ch] % 2 == 0 for ch in chs) for chs in products]
    assert any(values[ch] % 2 == 0 < values[ch] for chs in products
               for ch in chs)
    want = backward_naive(c, tape, odd)
    stats = {}
    assert backward_optimized(c, tape, odd, stats=stats) == want
    assert stats["divisions"] == sum(map(len, products)) - sum(refused) > 0
    assert stats["fallbacks"] == sum(1 for r in refused if r) > 0
    stats = {}
    assert backward_cancel(c, tape, odd, stats=stats) == want
    assert stats["fallbacks"] == sum(refused)


def test_layers_are_compiled_once_per_circuit():
    b = CircuitBuilder()
    c = b.build(b.product([b.literal(1), b.literal(2)]))
    prob = make_semiring("prob")
    forward(c, LiteralMap(2, 0.5), prob)
    compiled = c._layers
    assert compiled is not None
    groups = compiled.groups
    assert [(g.children.shape, g.run) for g in groups] == [((2, 1), [0])]
    log = make_semiring("log")
    tape = forward(c, LiteralMap(2, 0.25), log)
    backward_optimized(c, tape, log)
    backward_optimized(c, forward(c, LiteralMap(2, 0.5), prob), prob)
    assert c._layers is compiled and compiled.groups is groups


def three_arities():
    """A smooth decision-DNNF over x1..x4 with products of arity 2, 3, 4,
    several per arity and at several heights."""
    b = CircuitBuilder()
    x = {l: b.literal(l) for v in range(1, 5) for l in (v, -v)}
    u = b.sum([b.product([x[3], x[4]]), b.product([x[-3], x[4]]),
               b.product([x[-3], x[-4]])])
    t = b.sum([b.product([x[2], x[3], x[4]]), b.product([x[-2], u])])
    return b.build(b.sum([b.product([x[1], x[2], x[3], x[4]]),
                          b.product([x[1], x[-2], x[3], x[4]]),
                          b.product([x[-1], t])]), num_vars=4)


@pytest.mark.parametrize("bound", [1, 4, 6, layers.GROUP_EDGES])
def test_runs_cover_each_bucket_within_the_bound(bound, monkeypatch):
    monkeypatch.setattr(layers, "GROUP_EDGES", bound)
    groups = layers.layers_of(three_arities()).groups
    runs = [g.run for g in groups if g.run is not None]
    for g in groups:
        assert g.run is None or g is groups[g.run[-1]]

    def edges(run):
        return sum(groups[i].children.size for i in run)

    arities = {len(g.children) for g in groups if g.kind == PROD}
    assert len(arities) == 3
    for m in arities:
        bucket = [i for i, g in enumerate(groups)
                  if g.kind == PROD and len(g.children) == m]
        own = [run for run in runs if len(groups[run[0]].children) == m]
        # in group order, each product group of the arity in one run
        assert [i for run in own for i in run] == bucket
        for run, after in zip(own, own[1:] + [None]):
            assert len(run) == 1 or edges(run) <= bound
            if after:  # the cut is greedy: the next group did not fit
                assert edges(run) + edges(after[:1]) > bound


@pytest.mark.parametrize("name", ARRAY_SEMIRINGS)
@pytest.mark.parametrize("bound", [1, 2, 5])
def test_leave_one_out_chunks_keep_results(name, bound, monkeypatch):
    # a zero child, a product that underflows, a tie at the extremal child
    ws = [0.5, 0.0, 1e-200, 1e-200, 0.5, 0.7, 0.5, 0.25,
          1.0, -1.0, 0.5, 2.0, 0.0, 1.0, -0.5, 0.5]
    S = make_semiring(name)
    variants = [backward_optimized]
    if S.supports_division:
        variants.append(backward_cancel)

    def run():
        # groups and runs are compiled at the bound of the first pass
        c = three_arities()
        labels = labeling(name, c, ws)
        tape = forward(c, labels, S)
        out = []
        for backward in variants:
            stats = {}
            grads = backward(c, tape, S, stats=stats)
            out.append(([repr(v) for v in grads.values_in_order()], stats))
        return out, c, labels

    want, _, _ = run()
    monkeypatch.setattr(layers, "GROUP_EDGES", bound)
    got, c, labels = run()
    assert got == want
    check_against_python_opt(name, c, labels)


@pytest.mark.parametrize("backward", [backward_optimized, backward_cancel])
def test_walk_holds_one_run_per_arity(backward, monkeypatch):
    monkeypatch.setattr(layers, "GROUP_EDGES", 1024)
    rng = random.Random(3)
    models = [[v if rng.random() < 0.5 else -v for v in range(1, 65)]
              for _ in range(256)]
    c = models_to_circuit(models, 64)  # 16 runs of 1,024 product edges
    prob = make_semiring("prob")
    tape = forward(c, LiteralMap(64, 0.5), prob, check=False)
    every_loo = 8 * 256 * 64  # one float per product edge
    tracemalloc.start()
    try:
        backward(c, tape, prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < every_loo / 2


def longest_path_heights(c):
    """Each node's longest path down to a leaf, and its parent edge count."""
    arity = np.diff(c.offsets)
    parent = np.repeat(np.arange(c.node_count), arity)
    height = _frontier_heights(c.node_count, parent, c.flat)
    return height, np.bincount(c.flat, minlength=c.node_count)


def asap_keys(c):
    """(height, kind, arity) of every inner node at its longest path down
    to a leaf: the keys of the leveling before any node is lifted."""
    arity = np.diff(c.offsets)
    height, _ = longest_path_heights(c)
    inner = np.flatnonzero(arity > 0)
    return set(zip(height[inner].tolist(), c.kind[inner].tolist(),
                   arity[inner].tolist()))


def check_leveling(c):
    """Every inner node is in one group, after and above the groups of its
    inner children. A node of one parent edge sits just below its parent's
    longest-path height, and every other inner node at its own. Returns the
    compiled groups."""
    lay = layers.layers_of(c)
    arity = np.diff(c.offsets)
    height, parent_edges = longest_path_heights(c)
    placed = height.copy()
    for p in range(c.node_count):
        for ch in c.flat[c.offsets[p]:c.offsets[p + 1]].tolist():
            if parent_edges[ch] == 1 and arity[ch] > 0:
                placed[ch] = height[p] - 1
    group_of = np.full(c.node_count, -1)
    for i, g in enumerate(lay.groups):
        assert (group_of[g.ids] == -1).all()
        group_of[g.ids] = i
        assert (c.kind[g.ids] == g.kind).all()
        assert (arity[g.ids] == g.children.shape[0]).all()
        assert (placed[g.ids] == g.height).all()
        inner_children = g.flat[arity[g.flat] > 0]
        assert (group_of[inner_children] >= 0).all()  # an earlier group
        assert all(lay.groups[j].height < g.height
                   for j in set(group_of[inner_children].tolist()))
    assert (group_of[arity > 0] >= 0).all()
    leaves = np.flatnonzero(arity == 0)
    assert set(lay.leaf_ids.tolist()) <= set(leaves.tolist())
    assert set(lay.one_ids.tolist()) <= set(leaves.tolist())
    assert [g.height for g in lay.groups] == \
        sorted(g.height for g in lay.groups)
    return lay.groups


def layered_decision(width, depth, seed, skip=0.125):
    """``(x ∧ a) ∨ (¬x ∧ b)`` per node of level k, ``a`` and ``b`` drawn from
    level k - 1 and ``b`` with probability ``skip`` from level k - 2, over
    ``width`` literals of x1: perfbench's d4-shaped circuit, smoothed."""
    rng = random.Random(seed)
    b = CircuitBuilder()
    levels = [[b.literal(rng.choice((1, -1))) for _ in range(width)]]
    for k in range(1, depth + 1):
        var, prev = k + 1, levels[-1]
        level = []
        for _ in range(1 if k == depth else width):
            a = rng.choice(prev)
            src = levels[-2] if k >= 2 and rng.random() < skip else prev
            else_ = rng.choice(src)
            level.append(b.sum([b.product([b.literal(var), a]),
                                b.product([b.literal(-var), else_])]))
        levels.append(level)
    return smooth(b.build(levels[-1][0]))


def test_leveling_of_three_arities():
    check_leveling(three_arities())


def test_leveling_lifts_smoothing_wrappers():
    # smooth wraps a skip edge's child in a product with the skipped
    # variable's gadget: the wrapper's one parent, a sum, reads it a height
    # below its other product child, where the wrapper's key also occurs
    c = layered_decision(10, 10, seed=3)
    groups = check_leveling(c)
    assert len(groups) < len(asap_keys(c))


def test_leveling_of_gf2_embeddings(rng):
    for n in (2, 3, 5, 8):
        for _ in range(5):
            m = np.triu(np.array([[rng.random() < 0.5 for _ in range(n)]
                                  for _ in range(n)], dtype=np.int64))
            check_leveling(learning.matrix_to_circuit(m | m.T))


def test_gf2_cubes_sit_in_one_group_per_arity_below_the_root(rng):
    # the cubes' shared negative runs give them longest paths of every
    # length, but each cube has the root as its one parent
    for n in (16, 32):
        m = np.triu(np.array([[rng.random() < 0.5 for _ in range(n)]
                              for _ in range(n)], dtype=np.int64))
        c = learning.matrix_to_circuit(m | m.T)
        groups = check_leveling(c)
        root = c.flat[c.offsets[c.root]:c.offsets[c.root + 1]]
        cubes = [g for g in groups if np.isin(g.ids, root).any()]
        assert all(np.isin(g.ids, root).all() for g in cubes)
        assert {g.height for g in cubes} == {groups[-1].height - 1}
        arities = [g.children.shape[0] for g in cubes]
        assert len(arities) == len(set(arities))
        assert sum(g.ids.size for g in cubes) == root.size


def test_leveling_of_random_decision_circuits(rng):
    for _ in range(60):
        raw, _ = random_decision_circuit(rng, [1, 2, 3, 4, 5, 6])
        check_leveling(raw)
        check_leveling(smooth(raw))


def test_leveling_puts_a_node_of_one_parent_just_below_it():
    # x1..x4; a chain of single-parent products 4 -> 5 -> 6, the product 7
    # of one parent (the root) three heights below it, the sum 8 of one
    # parent, and the unreachable product 9
    c = Circuit([LIT] * 4 + [PROD] * 4 + [SUM, PROD, PROD],
                [1, 2, 3, 4] + [0] * 7,
                [(), (), (), (), (0, 1), (4, 2), (5, 3), (2, 3), (0, 1),
                 (0, 1), (6, 7, 8)], 10, 4)
    groups = check_leveling(c)
    by_height = sorted((g.height, sorted(g.ids.tolist())) for g in groups)
    # 7 joins the chain's product at height 3, the sum 8 sits there alone,
    # and the unreachable 9 has no parent to sit below
    assert by_height == [(1, [4, 9]), (2, [5]), (3, [6, 7]), (3, [8]),
                         (4, [10])]
    prob = make_semiring("prob")
    labels = labeling("prob", c, [0.3, 0.6, 0.7, 0.2] + [0.5] * 4 + [1.0] * 8)
    # neither smooth nor decomposable: the gate would refuse it
    tape = forward(c, labels, prob, check=False)
    assert tape.root_value == \
        forward(c, labels, PythonLoop(prob), check=False).root_value
    assert same_maps("prob", backward_optimized(c, tape, prob),
                     backward_naive(c, tape, prob), SAME_AS_REFERENCE)


def compiled(c):
    return [(g.height, g.kind, g.ids.tolist(), g.children.tolist())
            for g in layers.layers_of(c).groups]


def test_handed_over_heights_compile_the_groups_of_a_fresh_copy(rng,
                                                                 tmp_path):
    for path in d4_corpus(tmp_path, rng):
        parsed = parse_d4(path)
        both = [parsed, smooth(parsed)] if parsed.is_decomposable() \
            else [parsed]
        for c in both:
            assert compiled(c) == compiled(fresh_copy(c)), path


def test_set_up_walks_the_frontier_once(monkeypatch, tmp_path):
    # parse_d4 walks the file's graph once, for its order and the cycle
    # check; the parsed and the smoothed circuit's compiles and the gate
    # take the heights and scopes handed to them
    walks = []

    def counted(*args):
        walks.append(args[0])
        return _frontier_heights(*args)

    monkeypatch.setattr(circuits, "_frontier_heights", counted)
    path = tmp_path / "layered.nnf"
    write_layered_d4(path, 8, 12, seed=2)
    prob = make_semiring("prob")
    parsed = parse_d4(path)
    c = smooth(parsed)
    structural_gate(c, prob)
    grad_amc(c, default_labels(prob, c.num_vars), prob)
    assert c.node_count > parsed.node_count  # skip edges were wrapped
    assert len(walks) == 1


@pytest.mark.parametrize("name", ["layered.nnf", "example2.nnf"])
def test_set_up_compiles_only_the_smoothed_circuit(monkeypatch, tmp_path,
                                                   name):
    # parse_d4 and smooth hand their circuits heights and scope rows: the
    # parsed circuit is never compiled, and the one frontier walk is
    # parse_d4's over the file's graph
    walks, compiles = [], []

    def counted(*args):
        walks.append(args[0])
        return _frontier_heights(*args)

    class Counted(layers.Layers):
        __slots__ = ()

        def __init__(self, circuit):
            compiles.append(circuit)
            super().__init__(circuit)

    monkeypatch.setattr(circuits, "_frontier_heights", counted)
    monkeypatch.setattr(layers, "Layers", Counted)
    path = data_path(name)
    if name == "layered.nnf":
        path = tmp_path / name
        write_layered_d4(path, 8, 12, seed=2)
    with open(path) as fh:
        declared = sum(line[0] in "oatf" for line in fh)
    prob = make_semiring("prob")
    parsed = parse_d4(path)
    c = smooth(parsed)
    structural_gate(c, prob)
    grad_amc(c, default_labels(prob, c.num_vars), prob)
    assert c is not parsed
    assert compiles == [c]
    assert walks == [declared]


def test_built_circuits_check_scopes_without_a_compile(monkeypatch):
    # a built circuit's scope checks level it on one frontier walk and
    # compile nothing; its first gradient compiles once on the heights
    # kept. An unchecked forward levels nothing
    walks, compiles = [], []

    def counted(*args):
        walks.append(args[0])
        return _frontier_heights(*args)

    class Counted(layers.Layers):
        __slots__ = ()

        def __init__(self, circuit):
            compiles.append(circuit)
            super().__init__(circuit)

    monkeypatch.setattr(circuits, "_frontier_heights", counted)
    monkeypatch.setattr(layers, "Layers", Counted)
    c = three_arities()
    assert c.is_smooth() and c.is_decomposable()
    assert len(circuits.compute_scopes(c)) == c.node_count
    assert compiles == [] and walks == [c.node_count]
    prob = make_semiring("prob")
    grad_amc(c, default_labels(prob, c.num_vars), prob)
    assert compiles == [c] and walks == [c.node_count]
    other = three_arities()
    forward(other, default_labels(prob, other.num_vars), prob, check=False)
    assert other._rows is None and compiles == [c, other]


@pytest.mark.parametrize("arity", [2, 5])
def test_underflowed_product_is_not_divided(arity):
    # the product of the weights underflows to 0.0, and dividing it by a
    # child would give 0.0 where the gradient is the product of the others
    b = CircuitBuilder()
    c = b.build(b.product([b.literal(v) for v in range(1, arity + 1)]))
    prob = make_semiring("prob")
    labels = LiteralMap(arity, 1.0)
    for v in range(1, arity + 1):
        labels.set(v, 1e-200 if v <= 2 else 0.5)
    tape = forward(c, labels, prob)
    assert tape.root_value == 0.0
    want = backward_naive(c, tape, prob)
    assert want.get(1) == 1e-200 * 0.5 ** (arity - 2)
    for semiring in (prob, PythonLoop(prob)):
        stats = {}
        got = backward_optimized(c, tape, semiring, stats=stats)
        assert got == want
        assert stats["divisions"] == 0 and stats["fallbacks"] == 1
    stats = {}
    assert backward_cancel(c, tape, prob, stats=stats) == want
    assert stats["fallbacks"] == arity
    assert backward_dynamic(c, tape, prob) == want


@pytest.mark.parametrize("name", ["bool", "prob", "log", "viterbi",
                                  "tropical", "gf2", "loop", "nat"])
@pytest.mark.parametrize("weight", [0.0, 0.5])
def test_cancel_on_products_of_one_child(name, weight):
    """Products of one child, which ``CircuitBuilder`` never makes: the
    sibling product is ``one``, divided out or recomputed."""
    # x1 * x2 as the product of two one-child products
    c = Circuit([LIT, LIT, PROD, PROD, PROD], [1, 2, 0, 0, 0],
                [(), (), (0,), (1,), (2, 3)], 4, 2)
    S = make_semiring(name if name != "loop" else "prob")
    if name == "loop":
        S = PythonLoop(S)
    tape = forward(c, labeling(S.name, c, [weight, 0.5] + [1.0] * 6), S)
    stats = {}
    got = backward_cancel(c, tape, S, stats=stats)
    want = backward_naive(c, tape, S)
    assert [repr(v) for v in got.values_in_order()] == \
        [repr(v) for v in want.values_in_order()]
    # a zero x1 is refused in its own product, and its product in the root
    zero_children = 2 if weight == 0.0 else 0
    assert stats["fallbacks"] == zero_children
    assert stats["divisions"] == 4 - zero_children


@pytest.mark.parametrize("name", ["bool", "gf2"])
def test_cancel_takes_no_top2_scan(name):
    """``bool`` and ``gf2`` divide and are fully ordered: ``opt`` sends
    their zero children to the top-2 scan, and ``cancel`` recomputes the
    sibling products of the same children."""
    c = three_arities()
    ws = [0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5] + [0.0] * 8
    S = make_semiring(name)
    tape = forward(c, labeling(name, c, ws), S)
    cancel, opt = {}, {}
    assert backward_cancel(c, tape, S, stats=cancel) == \
        backward_naive(c, tape, S)
    backward_optimized(c, tape, S, stats=opt)
    assert cancel["ordered_hits"] == 0
    assert cancel["fallbacks"] == opt["ordered_hits"] > 0
    assert cancel["divisions"] == opt["divisions"]


@pytest.mark.parametrize("name", ["log", "tropical"])
def test_recomputed_siblings_fold_in_child_order(name):
    """Two products of 12 children in one group, each with a zero child:
    ``cancel`` recomputes that child's 11 siblings child after child, as
    ``naive`` does, where numpy would add along a contiguous axis pairwise."""
    c = models_to_circuit([[1, *range(2, 13)], [-1, *range(-2, -13, -1)]],
                          12)
    rng = random.Random(3)
    ws = [0.0, *(rng.uniform(0.05, 1.0) for _ in range(11)), 0.0,
          *(rng.uniform(0.05, 1.0) for _ in range(11))] + [1.0] * 24
    S = make_semiring(name)
    tape = forward(c, labeling(name, c, ws), S)
    stats = {}
    got = backward_cancel(c, tape, S, stats=stats)
    assert stats["fallbacks"] == 2
    assert [repr(v) for v in got.values_in_order()] == \
        [repr(v) for v in backward_naive(c, tape, S).values_in_order()]


def test_overflowed_dual_product_matches_python_loop():
    # the inner product's primal overflows to inf, and the Python loop
    # multiplies it into one, where its tangent meets inf * 0
    b = CircuitBuilder()
    c = b.build(b.product([b.product([b.literal(1), b.literal(2)]),
                           b.literal(3)]))
    labels = LiteralMap(3, DualValue(1.0, 0.0))
    for v, primal in ((1, 1e300), (2, 1e300), (3, 0.5)):
        labels.set(v, DualValue(primal, 1.0))
    assert math.isnan(forward(c, labels, make_semiring("grad")).root_value
                      .tangent)
    check_against_python_opt("grad", c, labels)


def shared_children(k):
    """x1 is a child of k products and, next to x2, of k sums, each as the
    first child in half of them and the second in the other half. With x1
    and x2 at 0.5 every division by a child is exact."""
    b = CircuitBuilder()
    s, z = b.literal(1), b.literal(2)
    tops = []
    for i in range(k):
        y, w = b.literal(3 + i), b.literal(3 + k + i)
        tops.append(b.product([y, s] if i % 2 == 0 else [s, y]))
        tops.append(b.product([w, b.sum([z, s] if i % 2 == 0 else [s, z])]))
    return b.build(b.sum(tops))


def python_walk(c, values, column_major=False):
    """Leaf adjoints of a top-down walk over the groups that adds one edge
    at a time, in ``children.ravel()`` order or column by column."""
    adj = [0.0] * c.node_count
    adj[c.root] = 1.0
    for g in reversed(layers.layers_of(c).groups):
        kids, ids = g.children.tolist(), g.ids.tolist()
        edges = [(r, j) for r in range(len(kids)) for j in range(len(ids))]
        if column_major:
            edges.sort(key=lambda e: (e[1], e[0]))
        for r, j in edges:  # no parent is a child in its own group
            a = adj[ids[j]]
            if g.kind == PROD:
                a *= math.prod(values[kid[j]] for q, kid in enumerate(kids)
                               if q != r)
            adj[kids[r][j]] += a
    return {c.lits[i]: adj[i] for i in layers.layers_of(c).leaf_ids.tolist()}


def test_scatter_adds_adjoints_in_edge_order():
    # x1's adjoint sums 0.75s and 3e-16s, each 3e-16 below half an ulp of
    # the running sum, so the order of the additions decides the rounding
    # (a per-child sum before the add would round differently again)
    k = 8
    c = shared_children(k)
    prob = make_semiring("prob")
    labels = LiteralMap(c.num_vars, 1.0)
    labels.set(1, 0.5)
    labels.set(2, 0.5)
    for i in range(k):
        labels.set(3 + i, 3e-16 if i % 2 else 0.75)
        labels.set(3 + k + i, 0.75 if i % 2 else 3e-16)
    ops = layers.ops_of(prob)
    values = layers.forward(c, labels, ops)
    grads, _ = layers.backward_opt(c, values, prob, ops)
    want = python_walk(c, values.tolist())
    assert {l: grads.get(l).hex() for l in want} == \
        {l: v.hex() for l, v in want.items()}
    assert python_walk(c, values.tolist(), column_major=True)[1] != want[1]


def float_bits(x):
    return "nan" if math.isnan(x) else x.hex()


@pytest.mark.parametrize("arity", [1, 2, 300])
def test_dual_mul_scan_matches_dual_value_loop(arity):
    extreme = (0.0, 1.0, 5e-324, 1e300, math.inf, math.nan)
    rng = random.Random(arity)

    def tangent():
        return rng.choice(extreme + (-1.0, -math.inf)) if rng.random() < 0.3 \
            else rng.uniform(-1.0, 1.0)

    if arity <= 2:
        primals = list(itertools.product(extreme, repeat=arity))
    else:  # rare extremes, so products stay finite for a while
        primals = [[rng.choice(extreme) if rng.random() < 0.02
                    else rng.uniform(0.5, 2.0) for _ in range(arity)]
                   for _ in range(16)]
    columns = [[DualValue(p, tangent()) for p in col] for col in primals]
    m = np.array([[[x.primal for x in col] for col in columns],
                  [[x.tangent for x in col] for col in columns]])
    with np.errstate(all="ignore"):  # as the passes run it
        got = layers.DualOps.mul_scan(m.transpose(0, 2, 1))
    want = []
    for col in columns:
        acc, row = DualValue(1.0, 0.0), []
        for x in col:
            acc = acc * x
            row.append(acc)
        want.append(row)
    assert [[float_bits(v) for v in col] for col in got[0].T.tolist()] == \
        [[float_bits(x.primal) for x in col] for col in want]
    assert [[float_bits(v) for v in col] for col in got[1].T.tolist()] == \
        [[float_bits(x.tangent) for x in col] for col in want]


def cell_bits(x):
    """A float or a dual, bit for bit."""
    if isinstance(x, DualValue):
        return float_bits(x.primal), float_bits(x.tangent)
    return float_bits(x)


def wide_sums(nodes, width=16):
    """``nodes`` sums of ``width`` literals each, joined by one product."""
    b = CircuitBuilder()
    sums = [b.sum([b.literal(i * width + v) for v in range(1, width + 1)])
            for i in range(nodes)]
    return b.build(b.product(sums))


@pytest.mark.parametrize("nodes", [1, 2])
@pytest.mark.parametrize("name", ["prob", "grad"])
def test_forward_adds_children_in_order(name, nodes):
    # each sum adds 1.0 and then 1e-16s, each below half an ulp of 1.0: in
    # child order they all round away, added pairwise (as numpy reduces a
    # single column) they do not
    c = wide_sums(nodes)
    width = c.num_vars // nodes
    base = make_semiring(name)
    labels = LiteralMap(c.num_vars, base.one)
    for v in range(1, c.num_vars + 1):
        w = 1.0 if v % width == 1 else 1e-16
        labels.set(v, DualValue(w, w) if name == "grad" else w)

    def forward_bits(semiring):
        ops = layers.ops_of(semiring)
        return [cell_bits(x)
                for x in ops.to_list(layers.forward(c, labels, ops))]

    got = forward_bits(base)
    assert got == forward_bits(PythonLoop(base))
    # every sum is 1.0; a dual product of the sums adds their tangents
    root = DualValue(1.0, float(nodes)) if name == "grad" else 1.0
    assert got[c.root] == cell_bits(root)


def separate_scans_loo(ops, child):
    """Leave-one-out products from a prefix scan and a suffix scan."""
    one = ops.full(child.shape[-1], ops.one)
    prefix = np.empty_like(child)
    prefix[..., 0, :] = one
    prefix[..., 1:, :] = ops.mul_scan(child[..., :-1, :].copy())
    suffix = np.empty_like(child)
    suffix[..., -1, :] = one
    suffix[..., :-1, :] = ops.mul_scan(child[..., :0:-1, :].copy())[..., ::-1, :]
    return ops.mul(suffix, prefix)


@pytest.mark.parametrize("arity", [1, 2, 3, 300])
@pytest.mark.parametrize("name", ["prob", "log", "grad", "loop-grad"])
def test_joint_scan_matches_separate_scans(name, arity):
    extreme = (0.0, 5e-324, 1e300, math.inf, math.nan)
    rng = random.Random(arity)
    if arity <= 3:
        columns = list(itertools.product(extreme, repeat=arity))
    else:  # rare extremes, so products stay finite for a while
        columns = [[rng.choice(extreme) if rng.random() < 0.02
                    else rng.uniform(0.5, 2.0) for _ in range(arity)]
                   for _ in range(16)]
    if name.endswith("grad"):
        columns = [[DualValue(p, rng.choice(extreme + (rng.uniform(-1, 1),)))
                    for p in col] for col in columns]
    base = make_semiring(name.removeprefix("loop-"))
    ops = layers.ops_of(PythonLoop(base) if name.startswith("loop-")
                        else base)
    child = np.stack([ops.from_list(list(row)) for row in zip(*columns)],
                     axis=-2)

    def rows(loo):
        return [[cell_bits(x) for x in ops.to_list(loo[..., j, :])]
                for j in range(arity)]

    with np.errstate(all="ignore"):  # as the passes run it
        assert rows(layers._cumulative_loo(ops, child)) == \
            rows(separate_scans_loo(ops, child))


def test_sat_counts_reuse_their_scatter_plans():
    # shared children: targets repeat, so the plans have OR trees
    rng = np.random.default_rng(5)
    nv = shared_children(8).num_vars
    draws = [rng.random((rows, nv)) < 0.5 for rows in (100, 700)]

    def count(c, d):
        sat, counts = layers.sat_counts(c, d)
        return sat, counts.tolist()

    fresh = [count(shared_children(8), d) for d in draws]
    c = shared_children(8)
    assert [count(c, d) for d in draws] == fresh
    plans = layers.layers_of(c).scatters
    assert count(c, draws[0]) == fresh[0]
    assert layers.layers_of(c).scatters is plans


@pytest.mark.parametrize("map_vars", [2, 3, 5])
def test_forward_reads_labels_of_the_circuit_variables(map_vars):
    # variables beyond the map's read as its fill value; a map's variables
    # beyond the circuit's are not read
    b = CircuitBuilder()
    x = {l: b.literal(l) for v in range(1, 4) for l in (v, -v)}
    c = b.build(b.sum([b.product([x[1], x[2], x[3]]),
                       b.product([x[-1], b.sum([x[2], x[-2]]), x[-3]])]))
    fill = 0.375
    labels = LiteralMap(map_vars, fill)
    for v in range(1, map_vars + 1):
        labels.set(v, 0.5 ** v)
        labels.set(-v, 1.0 - 0.5 ** v)
    prob = make_semiring("prob")
    want = [labels.get(l) for l in literal_order(c.num_vars)]
    assert labels.values_in_order(c.num_vars) == want
    got = forward(c, labels, prob, check=False).values
    x3, not_x3 = (0.125, 0.875) if map_vars >= 3 else (fill, fill)
    assert got[c.root] == 0.5 * 0.25 * x3 + 0.5 * (0.25 + 0.75) * not_x3
