"""Circuit representation, d4-style NNF parsing, smoothing, and validation.

Circuits are flat, immutable DAGs stored in forward evaluation order: every
child id is strictly smaller than its parent's position, so one left-to-right
pass never reads an uncomputed value. Child lists keep order and multiplicity.

Parsing, pruning, smoothing and the scope checks are numpy passes over the
circuit's CSR arrays; where an order matters they go one frontier of nodes
at a time (``_frontier_heights``, ``_reachable``), or one level of an order
already known (``_level``), which fills every circuit's heights and scope
rows. ``CircuitBuilder`` and ``write_d4`` stay Python.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, ParseError, StructureError
from .formulas import (And, Bottom, Lit, Or, Top, _balanced, _text_lines,
                       enumerate_models, formula_variables)
from .literals import LiteralMap, literal_order, var_of

LIT, TRUE, FALSE, SUM, PROD = range(5)

DEFAULT_DETERMINISM_BUDGET = 20
_BUDGET_ENV = "AMCKIT_DETERMINISM_BUDGET"


def determinism_budget(explicit=None) -> int:
    """The most variables the exhaustive determinism check enumerates:
    ``explicit``, else ``AMCKIT_DETERMINISM_BUDGET``, else 20. A budget
    that is not a non-negative integer raises ``ConfigError``."""
    source, value = "determinism budget", explicit
    if explicit is None:
        source = _BUDGET_ENV
        value = os.environ.get(_BUDGET_ENV, str(DEFAULT_DETERMINISM_BUDGET))
    if not str(value).isdecimal():
        raise ConfigError(f"{source} must be a non-negative integer, "
                          f"got {value!r}")
    return int(value)


@dataclass
class StructureReport:
    smooth: bool
    decomposable: bool
    deterministic: str  # "verified" | "refuted" | "unverified"


class Circuit:
    """Topologically ordered DAG of literal/true/false/sum/product nodes.

    The nodes are stored as one CSR form of int64 arrays: ``kind`` and
    ``lit`` per node, and the children of node ``i`` at
    ``flat[offsets[i]:offsets[i + 1]]``. The lists ``kinds``, ``lits`` and
    ``children`` (of tuples) are built from the arrays on first read, for
    the Python reference loops.
    """

    __slots__ = ("kind", "lit", "offsets", "flat", "root", "num_vars",
                 "deterministic_by_construction", "_kinds", "_lits",
                 "_children", "_max_arity", "_rows", "_smooth",
                 "_decomposable", "_sums", "_determinism", "_layers",
                 "_heights")

    def __init__(self, kinds, lits, children, root, num_vars,
                 deterministic_by_construction=False):
        if not (len(kinds) == len(lits) == len(children)):
            raise ValueError("node arrays must have equal length")
        arity = np.fromiter(map(len, children), dtype=np.int64,
                            count=len(children))
        offsets = np.zeros(len(children) + 1, dtype=np.int64)
        np.cumsum(arity, out=offsets[1:])
        flat = np.fromiter(chain.from_iterable(children), dtype=np.int64,
                           count=int(offsets[-1]))
        self._init(np.array(kinds, dtype=np.int64).reshape(-1),
                   np.array(lits, dtype=np.int64).reshape(-1), offsets, flat,
                   root, num_vars, deterministic_by_construction)

    @classmethod
    def _from_arrays(cls, kind, lit, offsets, flat, root, num_vars,
                     deterministic_by_construction=False):
        self = cls.__new__(cls)
        self._init(kind, lit, offsets, flat, root, num_vars,
                   deterministic_by_construction)
        return self

    def _init(self, kind, lit, offsets, flat, root, num_vars,
              deterministic_by_construction):
        n = len(kind)
        if n == 0:
            raise ValueError("circuit must have at least one node")
        if not (0 <= root < n):
            raise ValueError(f"root {root} out of range")
        arity = np.diff(offsets)
        parent = np.repeat(np.arange(n), arity)
        for bad, what in (
                ((kind < LIT) | (kind > PROD), "unknown kind"),
                ((kind == LIT) & (lit == 0), "literal 0"),
                ((kind <= FALSE) & (arity > 0), "leaf with children")):
            if bad.any():
                raise ValueError(f"node {np.argmax(bad)}: {what}")
        late = (flat < 0) | (flat >= parent)
        if late.any():
            e = int(np.argmax(late))
            raise ValueError(f"node {parent[e]}: child {flat[e]} not an "
                             "earlier position")
        mentioned = int(np.abs(lit[kind == LIT]).max(initial=0))
        if num_vars < mentioned:
            raise ValueError(f"num_vars {num_vars} below mentioned {mentioned}")
        self.kind, self.lit, self.offsets, self.flat = kind, lit, offsets, flat
        self.root = int(root)
        self.num_vars = num_vars
        self.deterministic_by_construction = deterministic_by_construction
        self._kinds = self._lits = self._children = None
        self._max_arity = int(arity.max(initial=0))
        self._rows = None  # packed scopes, filled by _level
        self._smooth = None
        self._decomposable = None
        self._sums = None  # sums of two or more children, once listed
        self._determinism = None  # the exhaustive check's verdict, once run
        self._layers = None  # compiled by layers.layers_of on first use
        self._heights = None  # longest paths to a leaf, see heights_of

    @property
    def kinds(self) -> list:
        if self._kinds is None:
            self._kinds = self.kind.tolist()
        return self._kinds

    @property
    def lits(self) -> list:
        if self._lits is None:
            self._lits = self.lit.tolist()
        return self._lits

    @property
    def children(self) -> list:
        if self._children is None:
            flat, bounds = self.flat.tolist(), self.offsets.tolist()
            self._children = [tuple(flat[a:b])
                              for a, b in zip(bounds, bounds[1:])]
        return self._children

    @property
    def node_count(self) -> int:
        return len(self.kind)

    @property
    def edge_count(self) -> int:
        return len(self.flat)

    @property
    def max_arity(self) -> int:
        return self._max_arity

    def scopes(self):
        return compute_scopes(self)

    def _scope_rows(self):
        if self._rows is None:
            _level(self)
        return self._rows

    def is_smooth(self) -> bool:
        if self._smooth is None:
            self._check_scopes()
        return self._smooth

    def is_decomposable(self) -> bool:
        if self._decomposable is None:
            self._check_scopes()
        return self._decomposable

    def _check_scopes(self):
        """Smooth: every sum child's scope row equals its sum's. Decomposable:
        every product's children have disjoint scope rows."""
        rows = self._scope_rows()
        slots, owner = _edges(self.offsets, np.flatnonzero(self.kind == SUM))
        self._smooth = bool((rows[self.flat[slots]] == rows[owner]).all())
        prods = np.flatnonzero(self.kind == PROD)
        self._decomposable = bool(_disjoint(self, rows, prods).all())

    def determinism_status(self, budget=None) -> str:
        """Whether no two children of a sum share a model.

        "verified" without a sum of two or more children; otherwise
        "unverified" above ``budget`` variables (default: env or 20), else
        the exhaustive check's "verified" or "refuted", run once and cached.
        """
        if self._sums is None:
            self._sums = np.flatnonzero((self.kind == SUM)
                                        & (np.diff(self.offsets) > 1))
        if not self._sums.size:
            return "verified"
        if self.num_vars > (determinism_budget() if budget is None else budget):
            return "unverified"
        if self._determinism is None:
            self._determinism = _check_determinism(self, self._sums)
        return self._determinism

    def __repr__(self):
        return (f"<Circuit nodes={self.node_count} edges={self.edge_count} "
                f"vars={self.num_vars}>")


class CircuitBuilder:
    """Append-only construction with shared leaves and validated build."""

    def __init__(self):
        self._kinds = []
        self._lits = []
        self._children = []
        self._lit_ids = {}
        self._true_id = None
        self._false_id = None

    def _append(self, kind, lit, children) -> int:
        self._kinds.append(kind)
        self._lits.append(lit)
        self._children.append(tuple(children))
        return len(self._kinds) - 1

    def literal(self, lit: int) -> int:
        if lit == 0:
            raise ValueError("literal 0")
        nid = self._lit_ids.get(lit)
        if nid is None:
            nid = self._append(LIT, lit, ())
            self._lit_ids[lit] = nid
        return nid

    def true(self) -> int:
        if self._true_id is None:
            self._true_id = self._append(TRUE, 0, ())
        return self._true_id

    def false(self) -> int:
        if self._false_id is None:
            self._false_id = self._append(FALSE, 0, ())
        return self._false_id

    def sum(self, children) -> int:
        children = list(children)
        if not children:
            return self.false()
        if len(children) == 1:
            return children[0]
        return self._append(SUM, 0, children)

    def product(self, children) -> int:
        children = list(children)
        if not children:
            return self.true()
        if len(children) == 1:
            return children[0]
        return self._append(PROD, 0, children)

    def kind_of(self, nid: int) -> int:
        return self._kinds[nid]

    def build(self, root: int, num_vars=None,
              deterministic_by_construction=False) -> Circuit:
        if num_vars is None:
            num_vars = max((var_of(l) for l in self._lits if l != 0), default=0)
        return Circuit(self._kinds, self._lits, self._children, root, num_vars,
                       deterministic_by_construction)


def compute_scopes(circuit: Circuit):
    """Per-node variable bitmask (bit v-1 = variable v) as Python ints."""
    rows = circuit._scope_rows().astype("<u8")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _check_determinism(circuit: Circuit, sums) -> str:
    """Whether two children of one of the ``sums`` share one of the
    assignments to the variables that leaves mention (the others cannot
    change a node's value), enumerated 64 to a word in blocks of words
    (``layers._word_blocks``). Assignment ``i`` gives the ``j``-th mentioned
    variable bit ``j`` of ``i``: the first six vary within a word, packed
    once as sampled rows are, and the others from word to word, so a block
    holds no more than its literal rows. With fewer than six mentioned
    variables one word repeats the 2^k assignments, so its padding refutes
    nothing falsely."""
    from .layers import _ALL, _bool_forward, _pack_rows, _word_blocks, layers_of
    mentioned = np.unique(np.abs(circuit.lit[circuit.kind == LIT])) - 1
    low, high = mentioned[:6], mentioned[6:]
    in_word = _pack_rows(np.arange(64)[:, None] >> np.arange(low.size) & 1 == 1)
    words = max(1, (1 << len(mentioned)) // 64)
    for lo, hi in _word_blocks(layers_of(circuit), words, circuit.node_count):
        lits = np.zeros((circuit.num_vars, hi - lo), dtype=np.uint64)
        lits[low] = in_word
        by_word = np.arange(lo, hi) >> np.arange(high.size)[:, None] & 1
        lits[high] = np.where(by_word == 1, _ALL, np.uint64(0))
        if not _disjoint(circuit, _bool_forward(circuit, lits), sums).all():
            return "refuted"
    return "verified"


def _disjoint(circuit: Circuit, rows, nodes):
    """Whether the children of each of ``nodes`` have pairwise disjoint
    ``rows``. A node's row is the OR of its children's, so they are
    disjoint exactly when its set bits are as many as theirs together."""
    from .layers import _popcount
    bits = _popcount(rows)
    below = np.zeros(circuit.edge_count + 1, dtype=np.int64)
    np.cumsum(bits[circuit.flat], out=below[1:])
    total = below[circuit.offsets[nodes + 1]] - below[circuit.offsets[nodes]]
    return total == bits[nodes]


def validate(circuit: Circuit, budget=None) -> StructureReport:
    """Exact smoothness/decomposability plus ``determinism_status(budget)``."""
    return StructureReport(
        smooth=circuit.is_smooth(),
        decomposable=circuit.is_decomposable(),
        deterministic=circuit.determinism_status(budget),
    )


# --- array passes -------------------------------------------------------------

def _ranges(starts, ends):
    """The concatenated ``arange(s, e)`` of each pair."""
    lengths = ends - starts
    out = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    out += np.arange(len(out))
    return out


def _edges(offsets, nodes):
    """The positions in ``flat`` of the children of ``nodes``, and the node
    of each."""
    ends = offsets[nodes + 1]
    return (_ranges(offsets[nodes], ends),
            np.repeat(nodes, ends - offsets[nodes]))


def _frontier_heights(n, parent, child):
    """Longest path from each of ``n`` nodes down to a node without arcs,
    over the arcs ``parent[i] -> child[i]``.

    Nodes are placed one frontier at a time: a node joins the next frontier
    once all its children are placed. Nodes on or above a cycle are never
    placed and keep -1.
    """
    by_child = np.argsort(child)
    up = parent[by_child]  # the parents of each child, grouped by child
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(child, minlength=n), out=start[1:])
    left = np.bincount(parent, minlength=n)
    height = np.full(n, -1, dtype=np.int64)
    level, h = np.flatnonzero(left == 0), 0
    while level.size:
        height[level] = h
        ups, hits = np.unique(up[_ranges(start[level], start[level + 1])],
                              return_counts=True)
        left[ups] -= hits
        level, h = ups[left[ups] == 0], h + 1
    return height


def heights_of(circuit):
    """The circuit's ``_heights``, walked once if no level pass filled them."""
    if circuit._heights is None:
        n = circuit.node_count
        parent = np.repeat(np.arange(n), np.diff(circuit.offsets))
        circuit._heights = _frontier_heights(n, parent, circuit.flat)
    return circuit._heights


def _reachable(offsets, flat, root):
    """Nodes reachable from ``root`` in a DAG: the others are peeled off one
    frontier at a time, starting from the nodes without parents."""
    n = len(offsets) - 1
    parents = np.bincount(flat, minlength=n)
    keep = np.ones(n, dtype=bool)
    level = np.flatnonzero(parents == 0)
    level = level[level != root]
    while level.size:
        keep[level] = False
        kids, hits = np.unique(flat[_ranges(offsets[level], offsets[level + 1])],
                               return_counts=True)
        parents[kids] -= hits
        level = kids[(parents[kids] == 0) & (kids != root)]
    return keep


def _relabelled(kind, lit, offsets, flat, order, root, num_vars,
                deterministic_by_construction):
    """The circuit of the nodes ``order``, in that order, children and root
    renumbered to match."""
    where = np.full(len(kind), -1, dtype=np.int64)
    where[order] = np.arange(len(order))
    new_offsets = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(np.diff(offsets)[order], out=new_offsets[1:])
    new_flat = where[flat[_ranges(offsets[order], offsets[order + 1])]]
    return Circuit._from_arrays(kind[order], lit[order], new_offsets,
                                new_flat, where[root], num_vars,
                                deterministic_by_construction)


def prune_unreachable(circuit: Circuit) -> Circuit:
    """Drop nodes not reachable from the root, preserving relative order."""
    keep = _reachable(circuit.offsets, circuit.flat, circuit.root)
    if keep.all():
        return circuit
    return _relabelled(circuit.kind, circuit.lit, circuit.offsets,
                       circuit.flat, np.flatnonzero(keep), circuit.root,
                       circuit.num_vars, circuit.deterministic_by_construction)


# --- d4-style NNF files ----------------------------------------------------

_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True  # as str.split()
_KIND_OF = np.full(256, -1, dtype=np.int64)
_KIND_OF[[ord("o"), ord("a"), ord("t"), ord("f")]] = SUM, PROD, TRUE, FALSE
_MESSAGES = (None, "malformed line", "arc not terminated by 0",
             "undeclared parent id {}", "undeclared child id {}",
             "literal 0 on arc")


def _tokens(data):
    """The whitespace-separated tokens of ``data`` as arrays.

    Returns, per line with tokens, its first token and its number (1-based;
    a line ends at \\n, \\r\\n or \\r), and per token its first byte,
    length and value, and whether it is an integer of at most 18 digits
    with an optional sign.
    """
    # padded with spaces: no token starts at 0 and every one is read in
    # full (19 bytes) at most
    buf = np.full(len(data) + 20, ord(" "), dtype=np.uint8)
    buf[1:-19] = np.frombuffer(data, dtype=np.uint8)
    cr = buf == 13
    cr[:-1] &= buf[1:] != 10
    breaks = np.flatnonzero(cr | (buf == 10))
    inside = ~_SPACE[buf]
    start = np.flatnonzero(inside[1:] & ~inside[:-1])
    start += 1
    length = np.flatnonzero(inside[:-1] & ~inside[1:])
    length += 1
    length -= start
    after = np.searchsorted(start, breaks)  # the token after each break
    first = np.zeros(len(start) + 1, dtype=bool)
    first[0] = True
    first[after] = True
    first = np.flatnonzero(first[:-1])
    line = np.searchsorted(after, first, "right") + 1
    head = buf[start]
    sign = (head == ord("-")) | (head == ord("+"))
    ok = (length > sign) & (length - sign <= 18)
    value = np.zeros(len(start), dtype=np.int64)
    for j in range(min(int(length.max(initial=0)), 19)):
        digit = buf[start] - np.uint8(ord("0"))  # wraps below "0"
        start += 1
        live = j < length
        if j == 0:
            live &= ~sign
        ok &= ~live | (digit <= 9)
        value = np.where(live, value * 10 + digit, value)
    value[head == ord("-")] *= -1
    return first, line, head, length, value, ok


def parse_d4(path) -> Circuit:
    """Parse a d4-convention NNF file.

    Node lines are ``o|a|t|f <id> 0``; arc lines are
    ``<parent> <child> [<literal> ...] 0`` with listed literals conjoined
    onto the arc. Arc literals under an or-node become a product wrapping
    the child; an and-node absorbs its arcs' literals directly; an arc that
    carries literals drops a true child. A sum or product of one part is
    that part. The first declared node is the root; nodes it does not reach
    are dropped, and the rest are ordered by the height of their node in
    the file's graph.

    The file is read as bytes and checked in array passes over all its
    tokens; the first line in file order with an error raises
    ``ParseError``, and cycles are looked for once every line has passed.
    The one frontier pass (``_frontier_heights``) runs on the file's graph,
    for the order and the cycle check. The circuit's own heights, which
    ``layers.Layers`` groups by, and its scope rows follow from that order
    in one pass over its levels (``_level``), so neither its compile nor
    its scope checks walk a frontier.
    """
    kind, ids, parent, child, at, m, lits = _d4_graph(path)
    height = _frontier_heights(len(ids), parent, child)
    if (height < 0).any():
        # nodes that reach a cycle and are reached from one; every cycle
        # among them has an arc back to a node declared no later
        core = (height < 0) & (_frontier_heights(len(ids), child, parent) < 0)
        back = np.flatnonzero(core[parent] & core[child] & (child <= parent))[0]
        raise ParseError(path, int(at[back]),
                         f"cycle through node {ids[child[back]]}")
    live = kind[parent] >= SUM  # the arcs of true and false nodes add nothing
    lits = lits[np.repeat(live, m)]
    kinds, lit, offsets, flat, key, root = _assemble(
        kind, height, parent[live], child[live], m[live], lits)
    order = np.flatnonzero(_reachable(offsets, flat, root))
    order = order[np.argsort(key[order], kind="stable")]
    circuit = _relabelled(kinds, lit, offsets, flat, order, root,
                          int(np.abs(lits).max(initial=0)), True)
    _level(circuit, key[order])
    return circuit


def _level(circuit, key=None):
    """Fill the circuit's ``_heights`` (longest paths down to a leaf) and
    ``_rows`` (its scope rows) from ascending ``key``s under which every
    child lies below its parent and the leaves are the nodes of the lowest
    key. The nodes of one key, and so their children in ``flat``, are
    contiguous: each key is one ``maximum.reduceat`` over the heights and
    one ``bitwise_or.reduceat`` over the rows of the keys below it. A key
    is cut every ``GROUP_EDGES`` edges as well, which bounds the gathers as
    the compiled groups bound a pass's. Without a key the heights are the
    key (``heights_of``): a circuit not in their order levels a twin that
    is, and takes its rows."""
    if key is None:
        key = heights_of(circuit)
        if (np.diff(key) < 0).any():
            order = np.argsort(key, kind="stable")
            twin = _relabelled(circuit.kind, circuit.lit, circuit.offsets,
                               circuit.flat, order, circuit.root,
                               circuit.num_vars, False)
            _level(twin, key[order])
            circuit._rows = np.empty_like(twin._rows)
            circuit._rows[order] = twin._rows
            return
    from .layers import GROUP_EDGES  # layers imports the kinds from here
    offsets, flat = circuit.offsets, circuit.flat
    height = np.zeros(len(key), dtype=np.int64)
    rows = np.zeros((len(key), -(-circuit.num_vars // 64)), dtype=np.uint64)
    leaves = np.flatnonzero(circuit.kind == LIT)
    var = np.abs(circuit.lit[leaves]) - 1  # a leaf's row has its variable's bit
    rows[leaves, var // 64] = np.uint64(1) << (var % 64).astype(np.uint64)
    cut = (np.diff(key) != 0) | (np.diff(offsets[:-1] // GROUP_EDGES) != 0)
    bounds = (np.flatnonzero(cut) + 1).tolist()
    for lo, hi in zip(bounds, bounds[1:] + [len(key)]):
        a, b = offsets[lo], offsets[hi]
        at = offsets[lo:hi] - a
        height[lo:hi] = np.maximum.reduceat(height[flat[a:b]], at)
        height[lo:hi] += 1
        # take gathers whole rows faster than fancy indexing does
        rows[lo:hi] = np.bitwise_or.reduceat(rows.take(flat[a:b], axis=0), at,
                                             axis=0)
    circuit._heights, circuit._rows = height, rows


def _d4_graph(path):
    """The nodes and arcs of a d4 file, checked line by line in arrays.

    Returns each node's circuit kind and id in declaration order, and each
    arc's parent and child (node indices), line, number of literals, and
    the literals of all arcs in file order.
    """
    with open(path, "rb") as fh:
        first, line, head, length, value, ok = _tokens(fh.read())
    t = len(head)
    count = np.diff(first, append=t)
    nxt, third = np.minimum(first + 1, t - 1), np.minimum(first + 2, t - 1)
    node = ((count == 3) & (length[first] == 1) & (_KIND_OF[head[first]] >= 0)
            & ok[nxt] & (head[nxt] >= ord("0"))
            & (length[third] == 1) & (head[third] == ord("0")))
    arc = (head[first] != ord("c")) & ~node  # comment lines start with "c"

    kind = _KIND_OF[head[first[node]]]
    ids, declared_at = value[nxt[node]], line[node]
    by_id = np.argsort(ids, kind="stable")
    again = np.zeros(len(ids), dtype=bool)
    again[1:] = ids[by_id[1:]] == ids[by_id[:-1]]
    known, known_node = ids[by_id[~again]], by_id[~again]

    def declared(x, before):
        """Node index of each id in ``x`` declared before its line, or -1."""
        out = np.full(len(x), -1, dtype=np.int64)
        if len(known):
            k = np.minimum(np.searchsorted(known, x), len(known) - 1)
            hit = (known[k] == x) & (declared_at[known_node[k]] < before)
            out[hit] = known_node[k[hit]]
        return out

    def lines_with(tokens):
        """Whether each arc line holds one of the ``tokens`` (a mask)."""
        at_line = np.searchsorted(first, np.flatnonzero(tokens), "right") - 1
        return np.isin(np.flatnonzero(arc), at_line)

    a_first, a_count, at = first[arc], count[arc], line[arc]
    # literals run from the third token of an arc line to its last but one
    full = a_count >= 3
    mark = np.zeros(t, dtype=np.int8)
    mark[a_first[full] + 2] = 1
    mark[(a_first + a_count - 1)[full]] -= 1
    lit_token = np.cumsum(mark, dtype=np.int8).view(bool)
    parent = declared(value[a_first], at)
    child = declared(value[np.minimum(a_first + 1, t - 1)], at)
    code = np.select(
        [lines_with(~ok), (a_count < 3) | (value[a_first + a_count - 1] != 0),
         parent < 0, child < 0, lines_with(lit_token & (value == 0))],
        [1, 2, 3, 4, 5])
    errors = []
    bad = np.flatnonzero(code)
    if bad.size:
        i = bad[0]
        named = value[a_first[i] + (code[i] == 4)]  # the undeclared id
        errors.append((at[i], _MESSAGES[code[i]].format(named)))
    if again.any():
        i = by_id[again].min()
        errors.append((declared_at[i], f"node {ids[i]} declared twice"))
    if errors:
        lineno, message = min(errors)
        raise ParseError(path, int(lineno), message)
    if not len(ids):
        raise ParseError(path, 1, "no nodes declared")

    return kind, ids, parent, child, at, a_count - 3, value[lit_token]


def _assemble(kind, height, parent, child, m, lits):
    """The circuit of an acyclic d4 graph, rooted at its node 0, as arrays.

    Node ``u`` has circuit kind ``kind[u]`` and height ``height[u]``; arc
    ``i`` runs from ``parent[i]`` to ``child[i]`` and carries ``m[i]`` of
    the ``lits``, which are in arc order. Returns the kinds, literals,
    offsets and children of true, false, one leaf per literal and every
    sum or product of two or more parts, an order key (children have
    smaller keys), and the root.
    """
    n = len(kind)
    # an or-node's arc with literals runs through a product of its own, just
    # below the or-node; the arc keeps its literals and the product's place
    wrap = np.flatnonzero((kind[parent] == SUM) & (m > 0))
    kind = np.concatenate([kind, np.full(len(wrap), PROD)])
    key = np.concatenate([2 * height + 1, 2 * height[parent[wrap]]])
    slot = np.concatenate([np.arange(len(parent)), wrap])
    above, parent = parent[wrap], parent.copy()
    parent[wrap] = n + np.arange(len(wrap))
    parent = np.concatenate([parent, above])
    child = np.concatenate([child, n + np.arange(len(wrap))])
    m = np.concatenate([m, np.zeros(len(wrap), dtype=np.int64)])

    n, arcs = len(kind), len(parent)
    deg = np.bincount(parent, minlength=n)
    only = np.zeros(n, dtype=np.int64)
    only[parent] = np.arange(arcs)  # the arc of a node that has one
    # a sum or product with one arc and no literal on it is its child
    alias = (deg == 1) & (kind >= SUM)
    alias[alias] = m[only[alias]] == 0
    target = np.arange(n)
    target[alias] = child[only[alias]]
    while True:
        jump = target[target]
        if (jump == target).all():
            break
        target = jump
    is_true = ((kind == TRUE) | ((kind == PROD) & (deg == 0)))[target]
    # an arc's parts: its literals, then its child unless the arc carries
    # literals and the child is true
    has_child = (m == 0) | ~is_true[child]
    size = m + has_child
    parts = np.bincount(parent, weights=size, minlength=n).astype(np.int64)
    main = ~alias & (parts >= 2)

    uniq = np.unique(lits)
    leaf = 2 + np.searchsorted(uniq, lits)
    res = np.where((kind == FALSE) | ((kind == SUM) & (deg == 0)), 1, 0)
    one = ~alias & (parts == 1)  # a product of one literal
    res[one] = leaf[(np.cumsum(m) - m)[only[one]]]
    res[main] = 2 + len(uniq) + np.arange(np.count_nonzero(main))
    res = res[target]

    bounds = np.zeros(arcs + 1, dtype=np.int64)
    np.cumsum(size, out=bounds[1:])
    parts_of = np.empty(bounds[-1], dtype=np.int64)
    parts_of[_ranges(bounds[:-1], bounds[:-1] + m)] = leaf
    parts_of[(bounds[:-1] + m)[has_child]] = res[child[has_child]]
    by_parent = np.lexsort((slot, parent))
    by_parent = by_parent[main[parent[by_parent]]]
    top = 2 + len(uniq)
    arity = np.concatenate([np.zeros(top, dtype=np.int64), parts[main]])
    offsets = np.zeros(len(arity) + 1, dtype=np.int64)
    np.cumsum(arity, out=offsets[1:])
    return (np.concatenate([[TRUE, FALSE], np.full(len(uniq), LIT), kind[main]]),
            np.concatenate([[0, 0], uniq, np.zeros(len(arity) - top,
                                                   dtype=np.int64)]),
            offsets,
            parts_of[_ranges(bounds[by_parent], bounds[by_parent + 1])],
            np.concatenate([np.full(top, -1), key[main]]), res[0])


def write_d4(circuit: Circuit, path) -> None:
    """Serialize to the d4 convention parsed by :func:`parse_d4`.

    Literal leaves are carried on arcs; structure may simplify on
    round-trip but evaluation semantics are preserved.
    """
    kinds, lits, children = circuit.kinds, circuit.lits, circuit.children
    ids = {}
    node_lines = []
    arc_lines = []

    def declare(kind_letter):
        node_lines.append(f"{kind_letter} {len(node_lines) + 1} 0")
        return len(node_lines)

    # root first (parse_d4 takes the first declaration as root), then the
    # other non-literals in reverse forward order so parents precede
    # children; a literal root is an or-node with one literal arc, alone
    decl_order = [circuit.root]
    if kinds[circuit.root] != LIT:
        decl_order += [i for i in reversed(range(circuit.node_count))
                       if kinds[i] != LIT and i != circuit.root]
    for i in decl_order:
        ids[i] = declare({LIT: "o", TRUE: "t", FALSE: "f", SUM: "o",
                          PROD: "a"}[kinds[i]])
    # literal arcs run to this true node; parse_d4 merges true nodes and
    # drops it when nothing uses it
    true_id = declare("t")

    for i in decl_order:
        k = kinds[i]
        if k == PROD:
            # the literals ride on the arc to the first other child, or to
            # the true node
            arc_lits = [lits[c] for c in children[i] if kinds[c] == LIT]
            others = [ids[c] for c in children[i] if kinds[c] != LIT] or [true_id]
            arc_lines.append(" ".join(map(str, [ids[i], others[0], *arc_lits, 0])))
            arc_lines += [f"{ids[i]} {c} 0" for c in others[1:]]
        elif k == SUM:
            for c in children[i]:
                if kinds[c] == LIT:
                    arc_lines.append(f"{ids[i]} {true_id} {lits[c]} 0")
                else:
                    arc_lines.append(f"{ids[i]} {ids[c]} 0")
        elif k == LIT:
            arc_lines.append(f"{ids[i]} {true_id} {lits[i]} 0")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(node_lines + arc_lines) + "\n")


# --- weight files -----------------------------------------------------------

def parse_weights(path, semiring) -> LiteralMap:
    """Read a weight file into a labeling for the given semiring.

    Lines are ``v <var> <p>`` (Bernoulli pair in the semiring's encoding) or
    ``l <lit> <value>`` (explicit literal weight); ``#`` starts a comment.
    Unspecified literals default to the multiplicative identity.
    """
    assigned = {}
    for lineno, raw in _text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise ParseError(path, lineno, "expected '<v|l> <id> <value>'")
        tag, ident, token = parts
        if tag == "v":
            try:
                var = int(ident)
                pos, neg = semiring.encode_prob(float(token))
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from None
            if var <= 0:
                raise ParseError(path, lineno, f"bad variable {ident}")
            pairs = [(var, pos), (-var, neg)]
        elif tag == "l":
            try:
                lit = int(ident)
                value = semiring.parse_value(token)
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from None
            if lit == 0:
                raise ParseError(path, lineno, "literal 0")
            pairs = [(lit, value)]
        else:
            raise ParseError(path, lineno, f"unknown line tag {tag!r}")
        for lit, value in pairs:
            if lit in assigned:
                raise ParseError(path, lineno,
                                 f"literal {lit} assigned twice")
            assigned[lit] = value
    num_vars = max((var_of(l) for l in assigned), default=0)
    return LiteralMap.from_order(num_vars, semiring.one, [
        assigned[lit] if lit in assigned else semiring.default_label(lit)
        for lit in literal_order(num_vars)])


def default_labels(semiring, num_vars: int) -> LiteralMap:
    """Semiring-default labeling (neutral, except sens' indeterminates)."""
    return LiteralMap.from_order(num_vars, semiring.one, [
        semiring.default_label(lit) for lit in literal_order(num_vars)])


# --- transformations --------------------------------------------------------

def smooth(circuit: Circuit) -> Circuit:
    """Return a smooth, model-equivalent circuit.

    Every sum child missing variables relative to the sum's scope is wrapped
    in a product with (v OR NOT v) gadgets; gadgets are built once per
    variable and shared, on the circuit's own literal leaves where it has
    them. Requires a decomposable input. The missing variables of each
    (sum, child) edge are read from the packed scope rows, and the nodes
    are relabelled once; a circuit that misses nothing is returned as is.

    The result is ordered by levels of the input's heights: the leaves,
    the gadgets, then the nodes of each height with that height's wrappers
    together just below them. One pass over those levels (``_level``)
    fills its heights and scope rows, and it is known to be smooth and
    decomposable. So the gate levels nothing and compiles nothing above
    the determinism budget: the result's compile runs in its first pass.
    """
    if not circuit.is_decomposable():
        raise StructureError("cannot smooth a non-decomposable circuit",
                             validate(circuit, 0))
    rows = circuit._scope_rows()
    height = circuit._heights  # _level fills them with the rows
    kind, lit, offsets, flat = (circuit.kind, circuit.lit, circuit.offsets,
                                circuit.flat)
    n = circuit.node_count
    edge, parent = _edges(offsets, np.flatnonzero(kind == SUM))
    missing = rows[parent] & ~rows[flat[edge]]
    need = missing.any(axis=1)
    if not need.any():
        return circuit
    edge, parent, missing = edge[need], parent[need], missing[need]
    bits = np.unpackbits(missing.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little")
    wrapper, var = np.nonzero(bits)  # ascending variables (0-based) per edge
    gadget_vars = np.unique(var) + 1
    g = len(gadget_vars)

    have, first = np.unique(lit[kind == LIT], return_index=True)
    want = np.concatenate([gadget_vars, -gadget_vars])
    k = np.minimum(np.searchsorted(have, want), len(have) - 1)
    new = np.flatnonzero(have[k] != want)
    leaf = np.flatnonzero(kind == LIT)[first][k]
    leaf[new] = n + np.arange(len(new))
    gadget = n + len(new)
    # each wrapper's child, then its gadgets
    owner = np.concatenate([np.arange(len(edge)), wrapper])
    wrap_flat = np.concatenate([flat[edge], gadget + np.searchsorted(
        gadget_vars, var + 1)])[np.argsort(owner, kind="stable")]
    new_flat = flat.copy()
    new_flat[edge] = gadget + g + np.arange(len(edge))

    kinds = np.concatenate([kind, np.full(len(new), LIT), np.full(g, SUM),
                            np.full(len(edge), PROD)])
    lits = np.concatenate([lit, want[new], np.zeros(g + len(edge),
                                                    dtype=np.int64)])
    arity = np.concatenate([np.diff(offsets), np.zeros(len(new), np.int64),
                            np.full(g, 2), np.bincount(owner)])
    new_offsets = np.zeros(len(kinds) + 1, dtype=np.int64)
    np.cumsum(arity, out=new_offsets[1:])
    # the leaves, the gadgets, then each height h at 2h + 1 above its
    # wrappers at 2h: a wrapper's child lies below its sum
    key = np.concatenate([np.where(height > 0, 2 * height + 1, 0),
                          np.zeros(len(new), np.int64), np.ones(g, np.int64),
                          2 * height[parent]])
    order = np.argsort(key, kind="stable")
    out = _relabelled(
        kinds, lits, new_offsets,
        np.concatenate([new_flat, leaf.reshape(2, g).T.ravel(), wrap_flat]),
        order, circuit.root, circuit.num_vars,
        circuit.deterministic_by_construction)
    _level(out, key[order])
    out._smooth = out._decomposable = True
    return out


def models_to_circuit(models, num_vars: int) -> Circuit:
    """Smooth deterministic DNF circuit with one cube per model.

    Models are iterables of signed literals, total over 1..num_vars. The
    resulting circuit is trivially smooth, decomposable, and deterministic;
    over no variables it is TRUE for the one empty model and FALSE for none.
    """
    b = CircuitBuilder()
    cubes = []
    for model in models:
        got = set(model)
        cube = []
        for v in range(1, num_vars + 1):
            if v in got:
                cube.append(b.literal(v))
            elif -v in got:
                cube.append(b.literal(-v))
            else:
                raise ValueError(f"model misses variable {v}")
        cubes.append(b.product(cube))
    root = b.sum(cubes) if cubes else b.false()
    return b.build(root, num_vars=num_vars, deterministic_by_construction=True)


def compile_to_mods(phi, variables=None) -> Circuit:
    """Enumerate a small formula's models and lay them out as a DNF circuit."""
    if variables is None:
        variables = formula_variables(phi)
    return models_to_circuit(enumerate_models(phi, variables),
                             max(variables, default=0))


def circuit_to_formula(circuit: Circuit):
    """Structural formula of the circuit (shared subtrees stay shared).

    Wide sums and products become balanced ``Or``/``And`` trees, so the
    recursive formula functions stay far from the recursion limit.
    """
    kinds, lits, children = circuit.kinds, circuit.lits, circuit.children
    out = [None] * circuit.node_count
    for i, k in enumerate(kinds):
        if k == LIT:
            out[i] = Lit(lits[i])
        elif k == TRUE:
            out[i] = Top()
        elif k == FALSE:
            out[i] = Bottom()
        elif not children[i]:
            out[i] = Bottom() if k == SUM else Top()
        else:
            out[i] = _balanced(Or if k == SUM else And,
                               [out[c] for c in children[i]])
    return out[circuit.root]
