"""Circuit parsing, weights, scopes, smoothing, and validation tests."""

import os
import random
import re
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from amckit import (And, BernoulliParams, Bottom, Circuit, CircuitBuilder,
                    ConfigError, Lit, LiteralMap, Not, Or, ParseError,
                    StructureError, Top, circuit_to_formula, compile_to_mods,
                    compute_scopes, enumerate_models, formula_variables,
                    forward, grad_amc, make_semiring, models_to_circuit,
                    oracle_amc, oracle_grad, parse_d4, parse_weights,
                    prune_unreachable, smooth, validate, write_d4)
from amckit import layers, matrix_to_circuit
from amckit.bench import star_circuit
from amckit.circuits import (FALSE, LIT, PROD, SUM, TRUE, _frontier_heights,
                             determinism_budget)

from conftest import (cases, labeling, maps_close, random_formula,
                      random_labels, values_close)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def data_path(name):
    return os.path.join(DATA, name)


def example1_labels(name="prob"):
    S = make_semiring(name)
    return parse_weights(data_path("example1.w"), S), S


def test_parse_example2_structure():
    c = parse_d4(data_path("example2.nnf"))
    # the drawing's seven nodes and six edges, rooted at a product
    assert c.node_count == 7
    assert c.edge_count == 6
    assert c.kinds[c.root] == PROD
    assert c.num_vars == 3


def test_parse_example2_values():
    c = parse_d4(data_path("example2.nnf"))
    labels, prob = example1_labels()
    assert abs(forward(c, labels, prob, check=False).root_value - 0.44) < 1e-12
    # the raw circuit undercounts in nat (sum children scopes differ);
    # smoothing restores the true model count
    nat = make_semiring("nat")
    assert forward(c, LiteralMap(3, 1), nat, check=False).root_value == 2
    assert forward(smooth(c), LiteralMap(3, 1), nat).root_value == 3


def test_parse_single_true_node(tmp_path):
    path = tmp_path / "t.nnf"
    path.write_text("t 1 0\n")
    c = parse_d4(str(path))
    assert c.node_count == 1 and c.kinds[c.root] == TRUE


def test_parse_arc_litersilver_wrapping(tmp_path):
    # arc with a literal inserts the literal between the nodes
    path = tmp_path / "w.nnf"
    path.write_text("o 1 0\nt 2 0\n1 2 -3 0\n")
    c = parse_d4(str(path))
    prob = make_semiring("prob")
    labels = LiteralMap(3, 1.0)
    labels.set(-3, 0.25)
    got = forward(c, labels, prob, check=False).root_value
    from amckit import Not
    want = oracle_amc(Not(Lit(3)), labels, prob, {3})
    assert abs(got - want) < 1e-12


def test_parse_errors(tmp_path):
    path = tmp_path / "bad.nnf"
    path.write_text("o 1 0\nnonsense here\n")
    with pytest.raises(ParseError) as err:
        parse_d4(str(path))
    assert err.value.line == 2

    path.write_text("o 1 0\n1 7 0\n")
    with pytest.raises(ParseError) as err:
        parse_d4(str(path))
    assert "undeclared" in str(err.value)

    path.write_text("o 1 0\no 2 0\n1 2 0\n2 1 0\n”")
    with pytest.raises(ParseError) as err:
        parse_d4(str(path))
    assert "cycle" in str(err.value) or err.value.line in (3, 4, 5)


@pytest.mark.parametrize("text, line, message", [
    ("o 1 0\ngarbage\n", 2, "malformed line"),
    ("o 1 0\nx 2 0\n", 2, "malformed line"),
    ("o 1 0\no 2\n", 2, "malformed line"),
    ("o 1 0\nt 2 0\n1 2 x 0\n", 3, "malformed line"),
    ("o 1 0\nt 2 0\n1 2 3\n", 3, "arc not terminated by 0"),
    ("o 1 0\nt 2 0\n1 2\n", 3, "arc not terminated by 0"),
    ("o 1 0\n1\n", 2, "arc not terminated by 0"),
    ("o 1 0\n7 1 0\n", 2, "undeclared parent id 7"),
    ("o 1 0\n1 7 0\n", 2, "undeclared child id 7"),
    ("o 1 0\n1 2 0\nt 2 0\n", 2, "undeclared child id 2"),
    ("o 1 0\n2 1 0\no 2 0\n", 2, "undeclared parent id 2"),
    ("o 1 0\nt 2 0\nt 1 0\n", 3, "node 1 declared twice"),
    ("o 1 0\nt 2 0\n1 2 3 0 0\n", 3, "literal 0 on arc"),
    ("o 1 0\no 2 0\n1 2 0\n2 1 0\n", 4, "cycle through node 1"),
    ("o 1 0\n1 1 0\n", 2, "cycle through node 1"),
    ("o 1 0\no 2 0\no 3 0\nt 4 0\n1 2 0\n1 4 0\n2 3 0\n3 2 0\n", 8,
     "cycle through node 2"),
    ("", 1, "no nodes declared"),
    ("c only a comment\n\n", 1, "no nodes declared"),
], ids=["garbage", "unknown-kind", "short-node", "bad-token", "unterminated",
        "two-tokens", "one-token", "undeclared-parent", "undeclared-child",
        "child-declared-later", "parent-declared-later", "declared-twice",
        "literal-zero", "cycle", "self-loop", "cycle-below-root", "empty",
        "comments-only"])
def test_parse_error_cases(tmp_path, text, line, message):
    path = tmp_path / "bad.nnf"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_d4(str(path))
    assert err.value.line == line
    assert str(err.value) == f"{path}:{line}: {message}"


def test_parse_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.nnf"
    path.write_text("c header\n\no 1 0\n   \nt 2 0\nc between\n1 2 -3 0\n"
                    "1 2 3 0\n\n")
    c = parse_d4(str(path))
    assert c.num_vars == 3 and c.kinds[c.root] == SUM
    path.write_text("c header\n\no 1 0\nc x\n1 9 0\n")
    with pytest.raises(ParseError) as err:
        parse_d4(str(path))
    assert err.value.line == 5


def test_parse_reports_first_error_line(tmp_path):
    path = tmp_path / "many.nnf"
    for text, line in [
            ("o 1 0\nt 2 0\n1 9 0\nt 1 0\nnonsense\n", 3),
            ("o 1 0\nt 2 0\nnonsense\nt 1 0\n1 9 0\n", 3),
            ("o 1 0\nt 2 0\nt 2 0\n1 2 0 3 0\n", 3),
            # lines are checked before the structure, so a malformed line
            # after a cycle is the one reported
            ("o 1 0\no 2 0\n1 2 0\n2 1 0\nnonsense\n", 5)]:
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            parse_d4(str(path))
        assert err.value.line == line, text


def test_parse_weights_examples(tmp_path):
    prob = make_semiring("prob")
    labels = parse_weights(data_path("example1.w"), prob)
    assert labels.get(1) == 0.5 and labels.get(-1) == 0.5
    log = make_semiring("log")
    log_labels = parse_weights(data_path("example1.w"), log)
    import math
    assert abs(log_labels.get(3) - math.log(0.8)) < 1e-12
    assert abs(log_labels.get(-3) - math.log(0.2)) < 1e-12
    empty = tmp_path / "empty.w"
    empty.write_text("# nothing\n")
    labels = parse_weights(str(empty), prob)
    assert labels.num_vars == 0 and labels.get(5) == 1.0


def test_parse_weights_errors(tmp_path):
    prob = make_semiring("prob")
    dup = tmp_path / "dup.w"
    dup.write_text("v 1 0.5\nl 1 0.25\n")
    with pytest.raises(ParseError):
        parse_weights(str(dup), prob)
    fuzzy = make_semiring("fuzzy")
    toolarge = tmp_path / "big.w"
    toolarge.write_text("l 1 1.5\n")
    with pytest.raises(ParseError):
        parse_weights(str(toolarge), fuzzy)


@pytest.mark.parametrize("text, message", [
    ("v 1\n", "expected '<v|l> <id> <value>'"),
    ("v 1 x\n", "could not convert string to float: 'x'"),
    ("l 2 x\n", "could not convert string to float: 'x'"),
    ("v 0 0.5\n", "bad variable 0"),
    ("v -2 0.5\n", "bad variable -2"),
    ("l 0 0.5\n", "literal 0"),
    ("w 1 0.5\n", "unknown line tag 'w'"),
], ids=["fields", "v-value", "l-value", "var-0", "var-negative", "literal-0",
        "tag"])
def test_parse_weights_refuses_malformed_lines(tmp_path, text, message):
    path = tmp_path / "bad.w"
    path.write_text("# one comment line\n" + text)
    with pytest.raises(ParseError) as exc:
        parse_weights(str(path), make_semiring("prob"))
    assert str(exc.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("name, what", [
    ("prob", "prob weight"), ("log", "log-semiring weight"),
    ("viterbi", "viterbi weight"), ("tropical", "tropical weight")])
def test_parse_weights_refuses_nan(tmp_path, name, what):
    # NaN fails every comparison, so a test of w < 0 let it through
    path = tmp_path / "nan.w"
    path.write_text("l 1 nan\n")
    with pytest.raises(ParseError) as exc:
        parse_weights(str(path), make_semiring(name))
    assert str(exc.value) == f"{path}:1: {what} must be non-negative, got nan"


def test_literal_map_keeps_canonical_order():
    values = ["x1", "x2", "x3", "-x1", "-x2", "-x3"]
    m = LiteralMap.from_order(3, "fill", values)
    assert m.literals() == [1, 2, 3, -1, -2, -3]
    assert m.values_in_order() == values
    assert list(m.items_in_order()) == list(zip(m.literals(), values))
    assert [m.get(lit) for lit in m.literals()] == values
    built = LiteralMap(3, "fill")
    for lit, value in zip(built.literals(), values):
        built.set(lit, value)
    assert built == m
    twin = m.copy()
    assert twin == m and twin is not m
    twin.set(-2, "changed")
    assert twin != m and m.get(-2) == "-x2"
    assert m.get(4) == m.get(-9) == "fill"


@pytest.mark.parametrize("num_vars", [0, 3])
def test_literal_map_refuses_literal_zero(num_vars):
    m = LiteralMap(num_vars, 1.0)
    message = re.escape(f"literal 0 outside 1..{num_vars}")
    with pytest.raises(IndexError, match=message):
        m.get(0)
    with pytest.raises(IndexError, match=message):
        m.set(0, 2.0)
    for lit in (num_vars + 1, -num_vars - 1):
        with pytest.raises(IndexError, match="outside"):
            m.set(lit, 2.0)


def test_prune_unreachable_keeps_order_and_promise():
    # x3 and the product over it sit below the root, the sum above it
    nodes = [(LIT, 1, ()), (LIT, 3, ()), (LIT, 2, ()), (PROD, 0, (1,)),
             (PROD, 0, (0, 2)), (SUM, 0, (4, 1))]
    kinds, lits, children = zip(*nodes)
    c = Circuit(kinds, lits, children, 4, 3,
                deterministic_by_construction=True)
    pruned = prune_unreachable(c)
    assert pruned.kinds == [LIT, LIT, PROD]
    assert pruned.lits == [1, 2, 0]
    assert pruned.children == [(), (), (0, 1)]
    assert pruned.root == 2 and pruned.num_vars == 3
    assert pruned.deterministic_by_construction
    assert prune_unreachable(pruned) is pruned


def test_compute_scopes():
    c = parse_d4(data_path("example2.nnf"))
    scopes = compute_scopes(c)
    assert scopes[c.root] == 0b111
    b = CircuitBuilder()
    t = b.true()
    ct = b.build(t)
    assert compute_scopes(ct) == [0]
    b = CircuitBuilder()
    p = b.product([b.literal(1), b.literal(-2)])
    cp = b.build(p)
    assert compute_scopes(cp)[p] == 0b11


def test_smooth_fixpoint_keeps_nodes():
    c = parse_d4(data_path("example2_smooth.nnf"))
    assert c.is_smooth()
    again = smooth(c)
    assert again.node_count == c.node_count
    assert again.kinds == c.kinds


def test_smooth_fills_missing_variable(rng):
    # sum of (x and y) with plain x: the second child gains a (y or not y)
    # gadget; with complementary weights the value is unchanged
    b = CircuitBuilder()
    both = b.product([b.literal(1), b.literal(2)])
    s = b.sum([both, b.literal(1)])
    c = b.build(s)
    assert not c.is_smooth()
    sm = smooth(c)
    assert sm.is_smooth()
    assert sm.node_count > c.node_count
    prob = make_semiring("prob")
    for _ in range(5):
        labels = LiteralMap(2, 1.0)
        for v in (1, 2):
            p = rng.random()
            labels.set(v, p)
            labels.set(-v, 1.0 - p)
        before = forward(c, labels, prob, check=False).root_value
        after = forward(sm, labels, prob, check=False).root_value
        assert abs(before - after) < 1e-12


def test_smooth_example2_adds_gadget():
    c = parse_d4(data_path("example2.nnf"))
    assert not c.is_smooth()  # sum children mention {x} vs {x, y}
    sm = smooth(c)
    assert sm.is_smooth()
    labels, prob = example1_labels()
    assert abs(forward(sm, labels, prob).root_value - 0.44) < 1e-12


def test_smooth_requires_decomposable():
    b = CircuitBuilder()
    p = b._append(PROD, 0, (b.literal(1), b.literal(1)))
    c = b.build(p)
    with pytest.raises(StructureError):
        smooth(c)


def random_decision_circuit(rng, variables):
    """Random decision DAG: deterministic and decomposable, rarely smooth."""
    b = CircuitBuilder()

    def go(vars_left):
        if not vars_left or rng.random() < 0.25:
            return (b.true(), Top()) if rng.random() < 0.8 else (b.false(), Bottom())
        v, rest = vars_left[0], vars_left[1:]
        hi, hi_f = go(rest)
        lo, lo_f = go(rest)
        parts = []
        phi = Bottom()
        if b.kind_of(hi) != FALSE:
            parts.append(b.literal(v) if b.kind_of(hi) == TRUE
                         else b.product([b.literal(v), hi]))
            phi = Or(phi, And(Lit(v), hi_f))
        if b.kind_of(lo) != FALSE:
            parts.append(b.literal(-v) if b.kind_of(lo) == TRUE
                         else b.product([b.literal(-v), lo]))
            phi = Or(phi, And(Lit(-v), lo_f))
        if not parts:
            return b.false(), Bottom()
        return b.sum(parts), phi

    root, phi = go(list(variables))
    return b.build(root), phi


def test_smooth_preserves_amc_all_labelings(rng):
    # on deterministic circuits the smoothed forward value equals the
    # model-space count over the mentioned variables, in every semiring
    checked = 0
    for trial in range(30):
        raw, phi = random_decision_circuit(rng, [1, 2, 3, 4])
        if not formula_variables(phi):
            continue
        sm = smooth(raw)
        assert sm.is_smooth()
        for name in ("prob", "nat", "viterbi", "gf2"):
            S = make_semiring(name)
            labels = random_labels(name, raw.num_vars, rng)
            got = forward(sm, labels, S, check=False).root_value
            want = oracle_amc(circuit_to_formula(raw), labels, S)
            assert values_close(name, got, want)
            checked += 1
    assert checked >= 20


def write_layered_d4(path, width, depth, seed, skip=0.25):
    """A layered decision-DNNF as a d4 file, shaped as d4 writes one: the
    or-node of level k has the arcs x_{k+1} and -x_{k+1} to two nodes of
    level k - 1, the second with probability ``skip`` of level k - 2 (a
    skip edge, whose child ``smooth`` wraps), over ``width`` literals of
    x1. The top level is the root alone."""
    rng = random.Random(seed)
    nodes, arcs, levels = ["o 1 0", "t 2 0"], [], [[]]
    for _ in range(width):
        nodes.append(f"a {len(nodes) + 1} 0")
        arcs.append(f"{len(nodes)} 2 {rng.choice((1, -1))} 0")
        levels[0].append(len(nodes))
    for k in range(1, depth + 1):
        levels.append([])
        for _ in range(1 if k == depth else width):
            if k < depth:
                nodes.append(f"o {len(nodes) + 1} 0")
            nid = len(nodes) if k < depth else 1
            src = levels[k - 2] if k >= 2 and rng.random() < skip \
                else levels[k - 1]
            arcs += [f"{nid} {rng.choice(levels[k - 1])} {k + 1} 0",
                     f"{nid} {rng.choice(src)} {-k - 1} 0"]
            levels[k].append(nid)
    path.write_text("\n".join(nodes + arcs) + "\n")


def write_dnf_d4(path, cubes, num_vars, seed, keep=1.0):
    """A DNF of ``cubes`` distinct random cubes as a d4 file: an or-node
    over and-nodes whose one arc to true carries the cube. Each variable
    stays in a cube with probability ``keep``, so below 1 the DNF is not
    smooth; a cube left empty is x1."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < cubes:
        seen.add(tuple(v * rng.choice((1, -1)) for v in range(1, num_vars + 1)
                       if rng.random() < keep) or (1,))
    true = cubes + 2
    nodes = ["o 1 0"] + [f"a {j} 0" for j in range(2, true)] + [f"t {true} 0"]
    arcs = []
    for j, cube in enumerate(sorted(seen), start=2):
        arcs += [f"1 {j} 0", f"{j} {true} {' '.join(map(str, cube))} 0"]
    path.write_text("\n".join(nodes + arcs) + "\n")


def d4_corpus(tmp_path, rng):
    """d4 files: data/*.nnf; layered decision-DNNFs with skip edges and
    DNFs, total and partial, written here; random decision circuits and
    GF(2) embeddings round-tripped through ``write_d4``."""
    paths = [data_path(name) for name in sorted(os.listdir(DATA))
             if name.endswith(".nnf")]
    for i, (width, depth, skip) in enumerate([(1, 3, 0.5), (3, 6, 0.25),
                                              (6, 12, 0.25), (8, 20, 0.5)]):
        paths.append(tmp_path / f"layered{i}.nnf")
        write_layered_d4(paths[-1], width, depth, seed=i, skip=skip)
    for i, (cubes, nv, keep) in enumerate([(1, 3, 1.0), (12, 6, 1.0),
                                           (10, 8, 0.6), (30, 40, 0.5)]):
        paths.append(tmp_path / f"dnf{i}.nnf")
        write_dnf_d4(paths[-1], cubes, nv, seed=i, keep=keep)
    for i in range(40):
        paths.append(tmp_path / f"decision{i}.nnf")
        raw, _ = random_decision_circuit(rng, range(1, rng.randint(1, 7) + 1))
        write_d4(raw, paths[-1])
    for i, n in enumerate([2, 3, 4, 5, 6, 8] * 2):
        m = np.triu(np.array([[rng.random() < 0.5 for _ in range(n)]
                              for _ in range(n)], dtype=np.int64))
        paths.append(tmp_path / f"gf2_{i}.nnf")
        write_d4(matrix_to_circuit(m | m.T), paths[-1])
    return paths


def frontier_heights(c):
    """``_frontier_heights`` of the circuit's own arcs."""
    parent = np.repeat(np.arange(c.node_count), np.diff(c.offsets))
    return _frontier_heights(c.node_count, parent, c.flat)


def fresh_copy(c):
    """The circuit's arrays in a new ``Circuit``, which knows nothing yet."""
    return Circuit._from_arrays(c.kind, c.lit, c.offsets, c.flat, c.root,
                                c.num_vars, c.deterministic_by_construction)


def test_parse_and_smooth_hand_over_exact_heights(rng, tmp_path):
    handed = 0
    for path in d4_corpus(tmp_path, rng):
        parsed = parse_d4(path)
        assert (parsed._heights == frontier_heights(parsed)).all(), path
        sm = smooth(parsed)
        handed += sm is not parsed
        assert (sm._heights == frontier_heights(sm)).all(), path
    assert handed >= 10  # smoothed circuits, not only returned ones


def test_smooth_hands_over_scope_rows_and_verdicts(rng, tmp_path):
    smoothed = 0
    for path in d4_corpus(tmp_path, rng):
        parsed = parse_d4(path)
        sm = smooth(parsed)
        if sm is parsed:
            continue
        smoothed += 1
        assert sm._rows is not None and sm._smooth and sm._decomposable
        copy = fresh_copy(sm)
        assert (sm._scope_rows() == copy._scope_rows()).all(), path
        assert copy.is_smooth() and copy.is_decomposable(), path
    assert smoothed >= 20


def or_fold(c):
    """Scope rows by a Python loop: a literal's variable bit, OR-ed up
    ``c.children``."""
    scopes = []
    for kind, lit, children in zip(c.kinds, c.lits, c.children):
        scope = 1 << abs(lit) - 1 if kind == LIT else 0
        for child in children:
            scope |= scopes[child]
        scopes.append(scope)
    rows = np.zeros((len(scopes), -(-c.num_vars // 64)), dtype=np.uint64)
    for (i, w), _ in np.ndenumerate(rows):
        rows[i, w] = scopes[i] >> 64 * w & (1 << 64) - 1
    return rows


@pytest.mark.parametrize("group_edges", [layers.GROUP_EDGES, 3])
def test_parse_and_smooth_level_heights_and_scope_rows(monkeypatch, rng,
                                                       tmp_path, group_edges):
    # every circuit parse_d4 or smooth returns, and built circuits that
    # level by their frontier heights, against the frontier and a Python
    # fold. smooth's inputs also come from CircuitBuilder; one has a
    # childless product and a sum of one child. With 3 edges a level is
    # cut into many slices
    from test_engine import three_arities  # test_engine imports this module
    monkeypatch.setattr(layers, "GROUP_EDGES", group_edges)
    b = CircuitBuilder()
    x1, x2 = b.literal(1), b.literal(2)
    both = b.product([x1, b._append(SUM, 0, (x2,)), b._append(PROD, 0, ())])
    built = [b.build(b.sum([both, b.literal(-1)]))]
    built += [random_decision_circuit(rng, range(1, 7))[0] for _ in range(20)]
    copies = [fresh_copy(c) for c in built]  # the built ones stay unleveled
    out = [smooth(c) for c in copies]
    assert sum(sm is not c for sm, c in zip(out, copies)) >= 10
    for c in built[1:11]:
        # rooted at an inner node below the root, so some nodes go
        inner = np.flatnonzero(np.diff(c.offsets) > 0)
        if len(inner) > 1:
            out.append(prune_unreachable(Circuit._from_arrays(
                c.kind, c.lit, c.offsets, c.flat, int(inner[-2]), c.num_vars)))
            assert out[-1].node_count < c.node_count
    for n in [2, 3, 5, 8]:
        m = np.triu(np.array([[rng.random() < 0.5 for _ in range(n)]
                              for _ in range(n)], dtype=np.int64))
        out.append(matrix_to_circuit(m | m.T))
    # over 64 variables a row is two words; a star is in height order
    wide = [[v * rng.choice((1, -1)) for v in range(1, 71)] for _ in range(4)]
    out += built + [three_arities(), models_to_circuit(wide, 70),
                    star_circuit(70)]
    for path in d4_corpus(tmp_path, rng):
        parsed = parse_d4(path)
        out.append(parsed)
        if parsed.is_decomposable():
            out.append(smooth(parsed))
    for c in out:
        rows = c._scope_rows()
        assert (c._heights == frontier_heights(c)).all(), c
        assert rows.shape == (c.node_count, -(-c.num_vars // 64)), c
        assert (rows == or_fold(c)).all(), c


def test_smooth_hands_over_exact_heights_where_a_wrapper_reaches_its_sum():
    # the sum x1 or (-x1 and x2) has height 2; the wrapper x1 and (x2 or
    # -x2) has height 2 too, so the sum grows to 3 and the root to 4
    sm = smooth(parse_d4(data_path("example2.nnf")))
    assert (sm._heights == frontier_heights(sm)).all()
    assert sm._heights[sm.root] == 4


def test_validate_example2():
    c = parse_d4(data_path("example2.nnf"))
    report = validate(c)
    assert not report.smooth
    assert report.decomposable
    assert report.deterministic == "verified"
    report2 = validate(smooth(c))
    assert report2.smooth and report2.decomposable
    assert report2.deterministic == "verified"


def test_validate_refutes_overlapping_sum():
    # children x and (x or y) share the model {x, y}
    b = CircuitBuilder()
    s = b.sum([b.literal(1), b.sum([b.literal(1), b.literal(2)])])
    c = b.build(s)
    assert validate(c, budget=2).deterministic == "refuted"


def test_validate_budget_rule():
    b = CircuitBuilder()
    s = b.sum([b.literal(1), b.literal(-1)])
    c = b.build(s)
    assert validate(c, budget=0).deterministic == "unverified"
    assert validate(c, budget=1).deterministic == "verified"


def test_validate_budget_env_var(monkeypatch):
    b = CircuitBuilder()
    s = b.sum([b.literal(1), b.literal(-1)])
    c = b.build(s)
    monkeypatch.setenv("AMCKIT_DETERMINISM_BUDGET", "0")
    assert validate(c).deterministic == "unverified"


@pytest.mark.parametrize("env, explicit, source", [
    ("abc", None, "AMCKIT_DETERMINISM_BUDGET"),
    ("-3", None, "AMCKIT_DETERMINISM_BUDGET"),
    ("2.5", None, "AMCKIT_DETERMINISM_BUDGET"),
    ("7", -1, "determinism budget"),
    (None, "abc", "determinism budget"),
    (None, 2.5, "determinism budget")])
def test_determinism_budget_rejects_bad_values(monkeypatch, env, explicit,
                                               source):
    if env is not None:
        monkeypatch.setenv("AMCKIT_DETERMINISM_BUDGET", env)
    value = env if explicit is None else explicit
    with pytest.raises(ConfigError,
                       match=re.escape(f"{source} must be a non-negative "
                                       f"integer, got {value!r}")):
        determinism_budget(explicit)


def test_determinism_budget_sources(monkeypatch):
    monkeypatch.delenv("AMCKIT_DETERMINISM_BUDGET", raising=False)
    assert determinism_budget() == 20
    monkeypatch.setenv("AMCKIT_DETERMINISM_BUDGET", "7")
    assert determinism_budget() == 7
    assert determinism_budget(0) == 0


def test_scopes_over_many_declared_variables_stay_small():
    # scope rows take nodes x ceil(num_vars / 64) words; nothing may take
    # num_vars rows of that width, which is quadratic in the variables
    nv = 20000
    c = Circuit([LIT, LIT, PROD], [1, nv, 0], [(), (), (0, 1)], 2, nv)
    tracemalloc.start()
    try:
        assert c.is_decomposable()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bool_evaluation_matches_sat_on_bundled_pairs():
    bool_s = make_semiring("bool")
    from amckit import read_dimacs
    for cnf_name, nnf_name in [("example1.cnf", "example2.nnf"),
                               ("unsat.cnf", "unsat.nnf"),
                               ("taut.cnf", "taut.nnf")]:
        phi, _ = read_dimacs(data_path(cnf_name))
        circuit = parse_d4(data_path(nnf_name))
        labels = LiteralMap(circuit.num_vars, True)
        sat_engine = forward(circuit, labels, bool_s, check=False).root_value
        sat_oracle = bool(enumerate_models(phi))
        assert sat_engine == sat_oracle


def test_topological_contract_enforced():
    with pytest.raises(ValueError):
        Circuit(kinds=[SUM, LIT], lits=[0, 1], children=[(1,), ()],
                root=0, num_vars=1)


@pytest.mark.parametrize("args, message", [
    (([LIT], [1, 2], [()], 0, 2), "node arrays must have equal length"),
    (([], [], [], 0, 0), "circuit must have at least one node"),
    (([LIT], [1], [()], 1, 1), "root 1 out of range"),
    (([LIT], [1], [()], -1, 1), "root -1 out of range"),
    (([LIT, 5], [1, 0], [(), (0,)], 1, 1), "node 1: unknown kind"),
    (([TRUE, LIT], [0, 0], [(), ()], 1, 1), "node 1: literal 0"),
    (([LIT, FALSE], [1, 0], [(), (0,)], 1, 1), "node 1: leaf with children"),
    (([LIT, LIT], [1, -3], [(), ()], 1, 2), "num_vars 2 below mentioned 3"),
], ids=["lengths", "empty", "root-high", "root-negative", "kind", "literal-0",
        "leaf-children", "num-vars"])
def test_circuit_refuses_malformed_arrays(args, message):
    with pytest.raises(ValueError) as exc:
        Circuit(*args)
    assert str(exc.value) == message


def test_builders_refuse_literal_0_and_partial_models():
    with pytest.raises(ValueError, match="^literal 0$"):
        CircuitBuilder().literal(0)
    with pytest.raises(ValueError, match="^model misses variable 2$"):
        models_to_circuit([[1, 2, 3], [-1, -3]], 3)


@pytest.mark.parametrize("text, kinds, lits, children", [
    # or -> or -> and, whose arc to true carries x1 and x2
    ("o 1 0\no 2 0\na 3 0\nt 4 0\n1 2 0\n2 3 0\n3 4 1 2 0\n",
     [LIT, LIT, PROD], [1, 2, 0], [(), (), (0, 1)]),
    # or -> and -> or -> and, whose one arc to true carries -x1
    ("o 1 0\na 2 0\no 3 0\na 4 0\nt 5 0\n1 2 0\n2 3 0\n3 4 0\n"
     "4 5 -1 0\n", [LIT], [-1], [()]),
], ids=["to-product", "to-leaf"])
def test_parse_follows_chains_of_one_part_nodes(tmp_path, text, kinds, lits,
                                                children):
    # each node of one part is that part, through a chain of them
    path = tmp_path / "chain.nnf"
    path.write_text(text)
    c = parse_d4(path)
    assert (c.kinds, c.lits, c.children) == (kinds, lits, children)
    assert c.root == len(kinds) - 1


def test_duplicate_children_preserved():
    b = CircuitBuilder()
    x = b.literal(1)
    p = b._append(PROD, 0, (x, x))
    c = b.build(p)
    assert c.children[p] == (x, x)
    assert c.edge_count == 2


def test_models_to_circuit_roundtrip(rng):
    for _ in range(10):
        phi = random_formula(rng, 4)
        c = compile_to_mods(phi)
        assert c.is_smooth() and c.is_decomposable()
        assert c.determinism_status(budget=4) == "verified"
        nat = make_semiring("nat")
        n = c.num_vars
        count = forward(c, LiteralMap(n, 1), nat).root_value
        assert count == len(enumerate_models(phi))


@pytest.mark.parametrize("phi,leaf", [(Or(Top(), Bottom()), TRUE),
                                      (And(Top(), Not(Top())), FALSE)])
def test_compile_to_mods_without_variables(phi, leaf):
    b = CircuitBuilder()
    want = b.build(b.true() if leaf == TRUE else b.false(), num_vars=0,
                   deterministic_by_construction=True)
    got = compile_to_mods(phi)
    for field in ("kind", "lit", "offsets", "flat"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
        assert getattr(got, field).dtype == getattr(want, field).dtype
    assert got.kinds == [leaf]
    assert (got.root, got.num_vars) == (want.root, want.num_vars) == (0, 0)
    assert got.deterministic_by_construction


def test_write_then_parse_preserves_semantics(rng, tmp_path):
    prob = make_semiring("prob")
    for i in range(5):
        phi = random_formula(rng, 4)
        c = compile_to_mods(phi)
        path = tmp_path / f"rt{i}.nnf"
        write_d4(c, str(path))
        c2 = parse_d4(str(path))
        labels = random_labels("prob", c.num_vars, rng)
        a1 = forward(c, labels, prob, check=False).root_value
        a2 = forward(c2, labels, prob, check=False).root_value
        assert abs(a1 - a2) <= 1e-9 * max(1.0, abs(a1))


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_circuit_to_formula_of_wide_dnf_stays_shallow():
    # chained Or nodes over 200 cubes nest 200 deep, which is how a
    # 12-variable DNF of 3000 models overflowed the oracle's recursion;
    # a balanced tree nests 8 deep, so 100 frames to spare are plenty
    rng = random.Random(12)
    nv = 8
    models = [[v if x >> (v - 1) & 1 else -v for v in range(1, nv + 1)]
              for x in rng.sample(range(1 << nv), 200)]
    c = models_to_circuit(models, nv)
    prob = make_semiring("prob")
    labels = random_labels("prob", nv, rng)
    phi = circuit_to_formula(c)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        want = oracle_grad(phi, labels, prob)
    finally:
        sys.setrecursionlimit(limit)
    _, got = grad_amc(c, labels, prob)
    assert maps_close("prob", got, want)


def _close(name, a, b):
    if name in ("fuzzy", "bool") or a == b:
        return a == b
    if name == "grad":
        return _close("prob", a.primal, b.primal) and _close(
            "prob", a.tangent, b.tangent)
    # log values are compared relative to the probabilities they encode
    floor = 1.0 if name == "log" else 0.0
    return abs(a - b) <= 1e-12 * max(floor, abs(a), abs(b))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(False, False))
def test_csr_round_trip_keeps_semantics(case):
    c, ws = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rt.nnf")
        write_d4(c, path)
        parsed = parse_d4(path)
    n = parsed.node_count
    arity = np.diff(parsed.offsets)
    assert (parsed.flat < np.repeat(np.arange(n), arity)).all()
    assert parsed.kinds == parsed.kind.tolist()
    assert parsed.lits == parsed.lit.tolist()
    assert parsed.children == [tuple(parsed.flat[a:b].tolist()) for a, b
                               in zip(parsed.offsets[:-1], parsed.offsets[1:])]
    assert all(type(ch) is tuple for ch in parsed.children)
    for name in ("prob", "log", "grad", "fuzzy", "bool"):
        S = make_semiring(name)
        labels = labeling(name, c, ws)
        want_root, want = grad_amc(c, labels, S)
        got_root, got = grad_amc(parsed, labels, S)
        assert _close(name, got_root, want_root), name
        for lit in want.literals():
            have = got.get(lit) if abs(lit) <= parsed.num_vars else S.zero
            assert _close(name, have, want.get(lit)), (name, lit)
    smoothed = smooth(parsed)
    assert smoothed.is_smooth() and smoothed.is_decomposable()
    prob = make_semiring("prob")
    labels = BernoulliParams([w or 0.5 for w in ws[:parsed.num_vars]]
                             ).prob_labels()
    assert _close("prob", grad_amc(smoothed, labels, prob)[0],
                  grad_amc(parsed, labels, prob, check=False)[0])
