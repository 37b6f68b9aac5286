"""Layered array evaluation: forward, ``opt`` and ``cancel`` on numpy arrays.

A circuit is compiled once into groups of nodes that share a height, a
kind and an arity, split where they would exceed ``GROUP_EDGES`` edges. A
node's height is its longest path down to a leaf (``circuits.heights_of``),
except that a node of one parent edge sits one below its parent's longest
path: any height between the two keeps the order of a pass, and so the
one-parent children of parents of one height share their groups. Each group
holds a ``(arity, nodes)`` matrix of child ids, so a forward pass is one
gather and one reduction per group in ascending height. The product groups of one
arity are also joined, in that order, into runs of up to ``GROUP_EDGES``
edges. The backward pass is one walk down the groups: a gather of adjoints
per group, for a product group a multiply by its leave-one-out values, and
a ``ufunc.at`` scatter into the adjoints; then leaves fold per literal. A
leave-one-out value reads only forward values, so the walk computes a
run's all at once on reaching the run's last group, and drops them after
its first: an arity holds one run at a time. The scatter goes through the
group's child matrix as one flat row of edges (``Group.flat``), in the
matrix's order, so adjoints add up in the same order as through the matrix:
``ufunc.at`` has a fast path (numpy 1.25 and later) for a 1-D index only,
several times faster for ``add`` and ``maximum``.
The compiled groups are cached on the immutable circuit. (After
Maene, Derkinderen & Zuidberg Dos Martires, *KLay: Accelerating Arithmetic
Circuits for Neurosymbolic AI*, ICLR 2025.)

Every semiring runs here. One that declares ``array_ops`` gets its own
layout (``UfuncOps``, ``DualOps``); any other runs its scalar ``add``,
``mul`` and ``try_divide`` on object arrays (``ObjectOps``). The forward
folds each group straight into its nodes' values (``add_fold``,
``mul_fold``), child after child in child order, as a loop over the
children would; a one-node group takes the last row of a scan instead,
since numpy adds a single column of floats pairwise. The cumulative
fallback scans a group's children beside the same children reversed, so one
scan yields both prefix and suffix products. The forward values and every
leave-one-out product are thus the same values in either layout;
``backprop``'s ``naive`` sweep is the reference.

``sat_counts`` runs the Boolean forward and backward on the same groups for
a batch of assignments at once, 64 per ``uint64`` word, and counts which
literal-conditioned circuits each assignment satisfies. One fold over
packed ``uint64`` rows (``_bool_forward``) is that forward and the
determinism check's forward over every assignment. Passes take every word
they are given; their callers cut the words into blocks (``_word_blocks``).
"""

from __future__ import annotations

import numpy as np

from .circuits import LIT, PROD, SUM, TRUE, heights_of
from .literals import LiteralMap


class UfuncOps:
    """Semiring arithmetic on arrays of one dtype, one ufunc per operation.

    Element arrays have the node (or child) axis last; ``divide`` is given
    for semirings with cancellation, whose only non-cancellative element is
    ``zero`` (``refused``).
    """

    def __init__(self, dtype, add, mul, zero, one, divide=None):
        self.dtype = dtype
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.divide = divide

    def full(self, shape, value):
        return np.full(shape, value, self.dtype)

    def from_list(self, xs):
        return np.array(xs, dtype=self.dtype)

    def to_list(self, arr):
        return arr.tolist()

    def item(self, arr, i):
        return arr[i].item()

    def add_fold(self, m):
        return _fold_children(self.add, m)

    def mul_fold(self, m):
        return _fold_children(self.mul, m)

    def mul_scan(self, m):
        """Running products down the child axis, in place."""
        return self.mul.accumulate(m, axis=0, out=m)

    def add_at(self, acc, idx, vals):
        self.add.at(acc, idx, vals)

    @staticmethod
    def refused(zero_child, loo):
        """Where ``divide`` gave no leave-one-out value: the zero children."""
        return zero_child


class ObjectOps(UfuncOps):
    """A semiring's own scalar functions on object arrays.

    The layout of a semiring that declares no ``array_ops``: ``add``, ``mul``
    and, where it supports division, ``try_divide`` as ``np.frompyfunc``
    ufuncs. ``try_divide`` answers ``None`` for any child that does not
    cancel, not only ``zero``. Folds and scans start from the identity, as
    a loop over the children does: ``one * x`` need not be ``x`` (a dual's
    tangent picks up ``inf * 0``), and each child costs one operation.
    """

    def __init__(self, semiring):
        divide = (np.frompyfunc(semiring.try_divide, 2, 1)
                  if semiring.supports_division else None)
        super().__init__(object, np.frompyfunc(semiring.add, 2, 1),
                         np.frompyfunc(semiring.mul, 2, 1), semiring.zero,
                         semiring.one, divide)

    def item(self, arr, i):
        return arr[i]

    def add_fold(self, m):
        return self.add.reduce(m, axis=0, initial=self.zero)

    def mul_fold(self, m):
        return self.mul.reduce(m, axis=0, initial=self.one)

    def mul_scan(self, m):
        self.mul(self.one, m[:1], out=m[:1])
        return self.mul.accumulate(m, axis=0, out=m)

    @staticmethod
    def refused(zero_child, loo):
        return np.equal(loo, None)


def _fold_children(ufunc, m):
    """``ufunc`` over the child axis (``-2``), child after child.

    ``ufunc.reduce`` folds a matrix row by row, as a loop over the children
    would, but a single column it folds as a 1-D array, where numpy adds
    floats pairwise; a one-node group takes the last row of its scan.
    """
    if m.shape[-1] == 1:
        return ufunc.accumulate(m, axis=-2)[..., -1, :]
    return ufunc.reduce(m, axis=-2)


def ops_of(semiring):
    """The array layout ``forward`` and ``backward_opt`` run the semiring in:
    its ``array_ops``, or else an ``ObjectOps`` of its scalar functions."""
    return getattr(semiring, "array_ops", None) or ObjectOps(semiring)


class DualOps:
    """Dual numbers as a ``(2, ...)`` float array of primals and tangents."""

    divide = None

    def __init__(self, element):
        self.element = element
        self.zero = element(0.0, 0.0)
        self.one = element(1.0, 0.0)

    def full(self, shape, value):
        return np.stack([np.full(shape, value.primal), np.full(shape, value.tangent)])

    def from_list(self, xs):
        return np.array([[x.primal for x in xs], [x.tangent for x in xs]],
                        dtype=np.float64).reshape(2, len(xs))

    def to_list(self, arr):
        return [self.element(p, t) for p, t in zip(arr[0].tolist(), arr[1].tolist())]

    def item(self, arr, i):
        return self.element(arr[0, i].item(), arr[1, i].item())

    @staticmethod
    def mul(x, y):
        # the product rule in DualValue's operand order, so results match it
        out = np.empty(np.broadcast(x, y).shape)
        np.multiply(x[0], y[0], out=out[0])
        np.multiply(x[0], y[1], out=out[1])
        out[1] += y[0] * x[1]
        return out

    @staticmethod
    def add_fold(m):
        return _fold_children(np.add, m)

    @staticmethod
    def mul_fold(m):
        # the forward's gather is a copy, which the scan may overwrite
        return DualOps.mul_scan(m)[:, -1]

    @staticmethod
    def mul_scan(m):
        # in place, from one, as the Python loops: one * x differs from x
        # where the primal is infinite (its tangent picks up inf * 0). Row
        # j's tangent is prev_p * t[j] + p[j] * prev_t: the primals and the
        # first terms take one call each, and only the second runs row by row.
        p, t = m
        prefix = np.multiply.accumulate(p, axis=0)  # one * p[0] is p[0]
        np.multiply(prefix[:-1], t[1:], out=t[1:])
        prev_t = np.zeros(m.shape[-1])
        for j, row in enumerate(t):
            row += p[j] * prev_t
            prev_t = row
        p[...] = prefix
        return m

    @staticmethod
    def add_at(acc, idx, vals):
        np.add.at(acc[0], idx, vals[0])
        np.add.at(acc[1], idx, vals[1])


# edges per group at most, where a node's arity allows: a pass holds a few
# arrays of this size at once, so wide circuits do not raise peak memory
GROUP_EDGES = 1 << 14


class Group:
    """Sum or product nodes of one height and arity, children as a matrix.

    ``flat`` is the matrix as one row of edges, a view, and ``parents`` a
    sum group's parent per edge in that order (``None`` for products).
    ``run`` is, on the last product group of a run, the positions of the
    run's groups in ``Layers.groups``, and ``None`` on every other group.
    """

    __slots__ = ("height", "kind", "ids", "children", "flat", "parents", "run")

    def __init__(self, height, kind, ids, children, parents):
        self.height = height
        self.kind = kind
        self.ids = ids
        self.children = children  # (arity, len(ids)) node ids
        self.flat = children.ravel()
        self.parents = parents
        self.run = None  # positions, not groups: no group refers to itself


class Layers:
    """A circuit compiled for the array engine (see the module docstring).

    ``groups`` run in ascending height, each child below its parent: a
    node of one parent edge at its parent's longest-path height less one,
    any other at its own. The product groups of one arity are joined, in
    that order, into runs of at most ``GROUP_EDGES`` edges (or a group
    alone), each held by its last group (``Group.run``). ``scatters`` holds
    ``sat_counts``' OR plans, built on its first call. The heights come
    from ``circuits.heights_of``, and a compile computes no scope rows.
    """

    __slots__ = ("groups", "leaf_ids", "leaf_slots", "one_ids", "scatters")

    def __init__(self, circuit):
        kind, offsets, flat = circuit.kind, circuit.offsets, circuit.flat
        n = circuit.node_count
        arity = np.diff(offsets)
        parent = np.repeat(np.arange(n), arity)  # of each edge in flat
        height = heights_of(circuit)

        inner = np.flatnonzero(arity > 0)
        h, k, a = height[inner], kind[inner], arity[inner]
        # a node of one parent edge may sit at any height below its parent:
        # it sits just below. Its children stay below it, and its parent
        # is lifted, if at all, above its own longest-path height
        one = np.flatnonzero(np.bincount(flat, minlength=n)[inner] == 1)
        up = np.empty(n, dtype=np.int64)
        up[flat] = parent
        h[one] = height[up[inner[one]]] - 1
        order = np.lexsort((inner, a, k, h))
        inner, h, k, a = inner[order], h[order], k[order], a[order]
        cut = np.flatnonzero((np.diff(h) != 0) | (np.diff(k) != 0)
                             | (np.diff(a) != 0)) + 1
        bounds = [0, *cut.tolist(), len(inner)] if inner.size else [0]
        self.groups, runs = [], {}  # arity -> its open run and run edges
        for start, stop in zip(bounds, bounds[1:]):
            m, kd, ht = int(a[start]), int(k[start]), int(h[start])
            step = max(1, GROUP_EDGES // m)
            for lo in range(start, stop, step):
                ids = inner[lo:min(lo + step, stop)]
                slots = offsets[ids][None, :] + np.arange(m)[:, None]
                parents = parent[slots].ravel() if kd == SUM else None
                self.groups.append(Group(ht, kd, ids, flat[slots], parents))
                if kd == PROD:
                    run, edges = runs.get(m, ([], 0))
                    if run and edges + slots.size > GROUP_EDGES:
                        self.groups[run[-1]].run = run
                        run, edges = [], 0
                    run.append(len(self.groups) - 1)
                    runs[m] = run, edges + slots.size
        for run, _ in runs.values():
            self.groups[run[-1]].run = run

        self.leaf_ids = np.flatnonzero(kind == LIT)
        nv = circuit.num_vars
        leaf_lits = circuit.lit[self.leaf_ids]
        # canonical literal order x1..xn, -x1..-xn
        self.leaf_slots = np.where(leaf_lits > 0, leaf_lits - 1, nv - leaf_lits - 1)
        # false leaves and childless sums keep the zero values start with
        self.one_ids = np.flatnonzero((kind == TRUE) | ((kind == PROD) & (arity == 0)))
        self.scatters = None


def layers_of(circuit) -> Layers:
    """The circuit's compiled groups, built on first use and cached.

    Circuits are immutable; two threads racing the first use both build
    the same arrays and one result is kept.
    """
    layers = circuit._layers
    if layers is None:
        layers = circuit._layers = Layers(circuit)
    return layers


def forward(circuit, labels, ops):
    """Per-node values of the circuit under the labeling, as an array."""
    lay = layers_of(circuit)
    lit_values = ops.from_list(labels.values_in_order(circuit.num_vars))
    values = ops.full(circuit.node_count, ops.zero)
    with np.errstate(all="ignore"):
        values[..., lay.leaf_ids] = lit_values[..., lay.leaf_slots]
        values[..., lay.one_ids] = ops.full(len(lay.one_ids), ops.one)
        for g in lay.groups:
            fold = ops.add_fold if g.kind == SUM else ops.mul_fold
            values[..., g.ids] = fold(values[..., g.children])
    return values


def backward_opt(circuit, values, semiring, ops, recompute=False):
    """The ``opt`` backward pass on arrays, and with ``recompute`` ``cancel``.

    One walk down the groups: each gathers its adjoints, a product group
    multiplies them by its leave-one-out values, and the result scatters
    into the children. The walk computes a run's values (``_run_loo``) at
    the run's last group (``Group.run``) and keeps them for the arity; each
    product group takes the last ones not yet taken.
    Returns the gradient and the counts ``divisions`` and ``ordered_hits``
    per child, and ``fallbacks`` per child with ``recompute``, else per node.
    """
    lay = layers_of(circuit)
    counts = {"divisions": 0, "ordered_hits": 0, "fallbacks": 0}
    left = {}  # arity -> its run's leave-one-out values not yet taken
    with np.errstate(all="ignore"):
        adj = ops.full(circuit.node_count, ops.zero)
        adj[..., [circuit.root]] = ops.full(1, ops.one)
        for g in reversed(lay.groups):
            if g.kind == PROD:
                m, n = g.children.shape
                if g.run is not None:
                    run = [lay.groups[j] for j in g.run]
                    left[m] = _run_loo(ops, values, run, semiring, recompute, counts)
                loo = left.pop(m)
                if loo.shape[-1] > n:
                    left[m] = loo[..., :-n]
                a = ops.mul(adj[..., None, g.ids], loo[..., -n:])
                a = a.reshape(*a.shape[:-2], -1)
                del loo  # the run goes with its first group's values
            else:
                a = adj[..., g.parents]
            ops.add_at(adj, g.flat, a)
        grads = ops.full(2 * circuit.num_vars, ops.zero)
        ops.add_at(grads, lay.leaf_slots, adj[..., lay.leaf_ids])
    out = LiteralMap.from_order(circuit.num_vars, ops.zero, ops.to_list(grads))
    return out, counts


def _run_loo(ops, values, run, semiring, recompute, counts):
    """A run's leave-one-out values, ``(..., arity, nodes)`` in group order.

    Per child: the node value divided by the child where the child is
    cancellative (``ops.refused``) and the node did not underflow; else with
    ``recompute`` its siblings' product (``_recomputed_loo``); else under
    fully ordered multiplication the node value, or the second extremal
    child for a unique extremal one (a top-2 scan by ``mul``); else the
    node's cumulative prefix/suffix products. Adds to ``counts``.
    """
    ids, children = _joined(run)
    node = values[..., None, ids]
    child = values[..., children]
    if semiring.supports_division:
        zero_child = child == ops.zero
        loo = ops.divide(node, child)
        # a zero product of nonzero children underflowed
        rest = ops.refused(zero_child, loo) | (
            (node == ops.zero) & ~zero_child.any(axis=0))
    else:
        rest, loo = np.ones(child.shape[-2:], dtype=bool), None
    hits = int(np.count_nonzero(rest))
    counts["divisions"] += rest.size - hits
    if hits and recompute:
        counts["fallbacks"] += hits
        _recomputed_loo(ops, child, rest, loo)
    elif hits and semiring.fully_ordered_mul:
        counts["ordered_hits"] += hits
        alt = _ordered_loo(ops, node, child)
        loo = alt if loo is None else np.where(rest, alt, loo)
    elif hits:
        cols = rest.any(axis=0)
        counts["fallbacks"] += int(np.count_nonzero(cols))
        if loo is None:
            loo = _cumulative_loo(ops, child)
        else:
            alt = _cumulative_loo(ops, child[:, cols])
            loo[:, cols] = np.where(rest[:, cols], alt, loo[:, cols])
    return loo


def _joined(run):
    if len(run) == 1:
        return run[0].ids, run[0].children
    return (np.concatenate([g.ids for g in run]),
            np.concatenate([g.children for g in run], axis=1))


def _ordered_loo(ops, node, child):
    """Node value, or the second extremal child for a unique extremal one."""
    first = ops.mul.reduce(child, axis=0)
    is_first = child == first
    unique = is_first & (np.count_nonzero(is_first, axis=0) == 1)
    second = ops.mul.reduce(np.where(is_first, ops.one, child), axis=0)
    return np.where(unique, second, node)


def _recomputed_loo(ops, child, rest, loo):
    """Set ``loo`` where ``rest`` is to the child's siblings folded from
    ``one`` in child order, as ``naive`` does: arity - 1 multiplies each."""
    for j in np.flatnonzero(rest.any(axis=-1)):
        cols = rest[j]
        if child.shape[-2] == 1:  # an empty ufunc fold gives the ufunc's identity, not one
            loo[..., j, cols] = ops.full(int(np.count_nonzero(cols)), ops.one)
            continue
        # in C order: a fold runs row after row only where the child axis is
        # not the contiguous one (numpy adds floats pairwise along that one)
        siblings = np.ascontiguousarray(np.delete(child, j, axis=-2)[..., cols])
        loo[..., j, cols] = ops.mul_fold(siblings)


def _cumulative_loo(ops, child):
    """Product of each child's siblings: exclusive suffix times prefix.

    One scan in one buffer gives both: below a row of ``one``, the children
    but the last beside the children but the first in reverse (columns are
    independent). Row j then holds the product of the first j children in
    its left half and of the last j in its right half.
    """
    *lead, a, n = child.shape
    scans = np.empty((*lead, a, 2 * n), child.dtype)
    scans[..., 0, :] = ops.full(2 * n, ops.one)
    scans[..., 1:, :n] = child[..., :-1, :]
    scans[..., 1:, n:] = child[..., :0:-1, :]
    ops.mul_scan(scans[..., 1:, :])
    return ops.mul(scans[..., ::-1, n:], scans[..., :n])


# words per block at most (64 MiB) in one node array, and a quarter of it in
# one group's gather (``_word_blocks``): unbounded, a chunk of 65,536
# assignments holds 8 KiB per node, and a group of GROUP_EDGES edges gathers
# 128 MiB
BLOCK_WORDS = 1 << 23
_ALL = ~np.uint64(0)


def sat_counts(circuit, draws):
    """Boolean pass over a batch of assignments, with bits as samples.

    ``draws`` is a ``(rows, num_vars)`` bool array, one assignment per row.
    Returns the number of rows that satisfy the circuit and an int64 array
    holding, for each literal in canonical order, the number of rows whose
    Boolean gradient is true there: the literal-conditioned circuit is
    satisfied. The rows run in blocks of words (``_word_blocks``), and every
    node holds one bit per row of a block for values and one for adjoints.
    Products take their leave-one-out values from prefix and suffix ANDs,
    and adjoints are OR-ed into children. The root adjoint covers only the
    real rows, so the padding bits of the last word count for nothing.
    """
    lay = layers_of(circuit)
    rows, nv = draws.shape
    lits = _pack_rows(draws)
    real = _pack_rows(np.ones((rows, 1), dtype=bool))[0]
    if lay.scatters is None:  # apply changes only the rows it is given
        lay.scatters = ([(g, _OrScatter(g.flat)) for g in reversed(lay.groups)],
                        _OrScatter(lay.leaf_slots))
    scatters, leaves = lay.scatters
    sat, counts = 0, np.zeros(2 * nv, dtype=np.int64)
    for lo, hi in _word_blocks(lay, len(real), circuit.node_count):
        values = _bool_forward(circuit, lits[:, lo:hi])
        adj = np.zeros_like(values)
        adj[circuit.root] = real[lo:hi]
        for g, scatter in scatters:
            contrib = adj.take(g.ids[scatter.order % len(g.ids)], axis=0)
            if g.kind == PROD:
                loo = _siblings_and(values.take(g.children, axis=0))
                contrib &= loo.reshape(contrib.shape).take(scatter.order, axis=0)
            scatter.apply(adj, contrib)
        by_literal = np.zeros((2 * nv, hi - lo), dtype=np.uint64)
        leaves.apply(by_literal, adj.take(lay.leaf_ids[leaves.order], axis=0))
        sat += int(_popcount(values[[circuit.root]] & real[lo:hi])[0])
        counts += _popcount(by_literal)
    return sat, counts


def _word_blocks(lay, words, rows):
    """``(lo, hi)`` ranges of ``words`` words, in as few blocks as keep an
    array of ``rows`` node rows at ``BLOCK_WORDS`` words and each group's
    gather at ``BLOCK_WORDS // 4`` (a word at least).

    A pass holds its node arrays for the whole block, so they get the larger
    bound, and a chunk of sampled rows runs in few blocks. A gather lives
    for one group only, and a pass makes one per group: at 2^21 words
    (16 MiB) it stays below glibc's mmap threshold ceiling (32 MiB), so the
    gathers reuse heap memory instead of mapping and unmapping fresh pages
    each time. Widths differ by one word at most, so no block is a short
    remainder: a pass's node arrays are all about one size, and where that
    size is above the ceiling each is mapped and unmapped whole, where a
    remainder below it would be left in the heap.
    """
    width = max([rows] + [4 * g.children.size for g in lay.groups])
    count = -(-words // max(1, BLOCK_WORDS // width))
    cuts = [words * i // count for i in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def _bool_forward(circuit, lits):
    """``(node_count, words)`` bits of a Boolean forward pass from the
    positive literals ``lits``, ``(num_vars, words)`` uint64: sums OR their
    children's rows and products AND them, group by group."""
    lay = layers_of(circuit)
    rows = np.zeros((circuit.node_count, lits.shape[1]), dtype=np.uint64)
    both = np.concatenate([lits, ~lits])  # canonical literal order
    rows[lay.leaf_ids] = both.take(lay.leaf_slots, axis=0)
    rows[lay.one_ids] = _ALL
    for g in lay.groups:
        op = np.bitwise_or if g.kind == SUM else np.bitwise_and
        rows[g.ids] = op.reduce(rows.take(g.children, axis=0), axis=0)
    return rows


def _pack_rows(bits):
    """``(rows, cols)`` bools as ``(cols, words)`` uint64, zero-padded."""
    rows, cols = bits.shape
    words = -(-rows // 64)
    packed = np.zeros((cols, 8 * words), dtype=np.uint8)
    packed[:, :-(-rows // 8)] = np.packbits(np.ascontiguousarray(bits.T), axis=1)
    return packed.view(np.uint64)


def _popcount(words):
    """Set bits in each row of a ``(n, words)`` uint64 array."""
    # per word: bit counts of pairs, nibbles, then bytes, summed by a multiply
    x = words - ((words >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = ((x & np.uint64(0x3333333333333333))
         + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333)))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
    return x.sum(axis=1, dtype=np.int64)


def _siblings_and(child):
    """AND of each child's siblings: its exclusive prefix AND suffix."""
    # row by row: ufunc.accumulate over the child axis is several times
    # slower on these arrays
    loo = np.empty_like(child)
    loo[0] = _ALL
    for j in range(1, len(child)):
        np.bitwise_and(loo[j - 1], child[j - 1], out=loo[j])
    suffix = child[-1].copy()
    for j in range(len(child) - 2, -1, -1):
        loo[j] &= suffix
        suffix &= child[j]
    return loo


class _OrScatter:
    """OR rows into targets that may repeat.

    Rows come sorted by target (``order``); each run of equal targets is
    OR-ed into its first row in a pairwise tree, ceil(log2(run)) steps of
    ``(src, d)``: row ``src + d`` into row ``src``. The run heads are then
    OR-ed into their targets, which are distinct; where no target repeats,
    every row is a head and ``heads`` is ``None``. On rows of many words
    ``ufunc.at`` and ``ufunc.reduceat`` are several times slower.
    """

    __slots__ = ("order", "targets", "heads", "steps")

    def __init__(self, targets):
        self.order = np.argsort(targets, kind="stable")
        ordered = targets[self.order]
        n = len(ordered)
        first = np.ones(n, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        self.steps = []
        if first.all():
            self.targets, self.heads = ordered, None
            return
        self.heads = np.flatnonzero(first)
        self.targets = ordered[self.heads]
        runs = np.diff(np.append(self.heads, n))
        rank = np.arange(n) - np.repeat(self.heads, runs)
        left = np.repeat(runs, runs) - rank  # rows from here to the run's end
        d = 1
        while d < runs.max():
            src = np.flatnonzero((rank % (2 * d) == 0) & (left > d))
            self.steps.append((src, d))
            d *= 2

    def apply(self, acc, rows):
        """OR each row into its target's row of ``acc``.

        ``rows`` are in ``order``, so sorted by target; they are overwritten.
        """
        for src, d in self.steps:
            rows[src] |= rows[src + d]
        acc[self.targets] |= rows if self.heads is None else rows[self.heads]
