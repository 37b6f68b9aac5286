"""Circuit representation, d4-style NNF parsing, smoothing, and validation.

Circuits are flat, immutable DAGs stored in forward evaluation order: every
child id is strictly smaller than its parent's position, so one left-to-right
pass never reads an uncomputed value. Child lists keep order and multiplicity.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .errors import ParseError, StructureError
from .formulas import (And, Bottom, Lit, Or, Top, enumerate_models,
                       formula_variables)
from .literals import LiteralMap, var_of

LIT, TRUE, FALSE, SUM, PROD = range(5)

DEFAULT_DETERMINISM_BUDGET = 20
_BUDGET_ENV = "AMCKIT_DETERMINISM_BUDGET"


def determinism_budget(explicit=None) -> int:
    if explicit is not None:
        return int(explicit)
    return int(os.environ.get(_BUDGET_ENV, DEFAULT_DETERMINISM_BUDGET))


@dataclass
class StructureReport:
    smooth: bool
    decomposable: bool
    deterministic: str  # "verified" | "refuted" | "unverified"
    scopes: list


class Circuit:
    """Topologically ordered DAG of literal/true/false/sum/product nodes."""

    __slots__ = ("kinds", "lits", "children", "root", "num_vars",
                 "deterministic_by_construction", "_scopes", "_smooth",
                 "_decomposable", "_determinism", "_max_arity", "_edge_count",
                 "_layers")

    def __init__(self, kinds, lits, children, root, num_vars,
                 deterministic_by_construction=False):
        n = len(kinds)
        if not (len(lits) == len(children) == n):
            raise ValueError("node arrays must have equal length")
        if n == 0:
            raise ValueError("circuit must have at least one node")
        if not (0 <= root < n):
            raise ValueError(f"root {root} out of range")
        for i in range(n):
            k = kinds[i]
            if k == LIT:
                if lits[i] == 0:
                    raise ValueError(f"node {i}: literal 0")
                if children[i]:
                    raise ValueError(f"node {i}: leaf with children")
            elif k in (TRUE, FALSE):
                if children[i]:
                    raise ValueError(f"node {i}: leaf with children")
            elif k in (SUM, PROD):
                for c in children[i]:
                    if not (0 <= c < i):
                        raise ValueError(
                            f"node {i}: child {c} not an earlier position"
                        )
            else:
                raise ValueError(f"node {i}: unknown kind {k}")
        mentioned = max((var_of(lits[i]) for i in range(n) if kinds[i] == LIT),
                        default=0)
        if num_vars < mentioned:
            raise ValueError(f"num_vars {num_vars} below mentioned {mentioned}")
        self.kinds = list(kinds)
        self.lits = list(lits)
        self.children = [tuple(c) for c in children]
        self.root = root
        self.num_vars = num_vars
        self.deterministic_by_construction = deterministic_by_construction
        self._scopes = None
        self._smooth = None
        self._decomposable = None
        self._determinism = None  # the exhaustive check's verdict, once run
        self._max_arity = max((len(c) for c in self.children), default=0)
        self._edge_count = sum(len(c) for c in self.children)
        self._layers = None  # compiled by layers.layers_of on first use

    @property
    def node_count(self) -> int:
        return len(self.kinds)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def max_arity(self) -> int:
        return self._max_arity

    def scopes(self):
        if self._scopes is None:
            self._scopes = compute_scopes(self)
        return self._scopes

    def is_smooth(self) -> bool:
        if self._smooth is None:
            self._check_scopes()
        return self._smooth

    def is_decomposable(self) -> bool:
        if self._decomposable is None:
            self._check_scopes()
        return self._decomposable

    def _check_scopes(self):
        scopes = self.scopes()
        smooth = True
        decomposable = True
        for i, k in enumerate(self.kinds):
            ch = self.children[i]
            if k == SUM:
                target = scopes[i]
                if any(scopes[c] != target for c in ch):
                    smooth = False
            elif k == PROD:
                acc = 0
                for c in ch:
                    if acc & scopes[c]:
                        decomposable = False
                        break
                    acc |= scopes[c]
        self._smooth = smooth
        self._decomposable = decomposable

    def determinism_status(self, budget=None) -> str:
        """Whether no two children of a sum share a model.

        "verified" without a sum of two or more children; otherwise
        "unverified" above ``budget`` variables (default: env or 20), else
        the exhaustive check's "verified" or "refuted", run once and cached.
        """
        from .layers import layers_of  # layers imports the kinds from here
        sums = [g.children for g in layers_of(self).groups
                if g.kind == SUM and len(g.children) > 1]
        if not sums:
            return "verified"
        if self.num_vars > determinism_budget(budget):
            return "unverified"
        if self._determinism is None:
            self._determinism = _check_determinism(self, sums)
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
    """Per-node variable bitmask (bit v-1 = variable v), one bottom-up pass."""
    scopes = [0] * circuit.node_count
    kinds, lits, children = circuit.kinds, circuit.lits, circuit.children
    for i, k in enumerate(kinds):
        if k == LIT:
            scopes[i] = 1 << (var_of(lits[i]) - 1)
        elif k in (SUM, PROD):
            acc = 0
            for c in children[i]:
                acc |= scopes[c]
            scopes[i] = acc
    return scopes


def scope_variables(scope: int):
    out = []
    v = 1
    while scope:
        if scope & 1:
            out.append(v)
        scope >>= 1
        v += 1
    return out


def _check_determinism(circuit: Circuit, sums) -> str:
    """Whether two children of a sum (``sums``: child-id matrices) share one
    of the 2^num_vars assignments, enumerated 64 to a word in blocks that
    keep the node values near ``layers.BLOCK_WORDS`` words."""
    from .layers import BLOCK_WORDS, _assignment_words, _bool_forward
    words = max(1, (1 << circuit.num_vars) // 64)
    step = max(1, BLOCK_WORDS // circuit.node_count)
    for lo in range(0, words, step):
        lits = _assignment_words(circuit.num_vars, lo, min(lo + step, words))
        values = _bool_forward(circuit, lits)
        for children in sums:
            seen = values[children[0]]  # OR of the children so far
            for c in children[1:]:
                child = values[c]
                if (seen & child).any():
                    return "refuted"
                seen |= child
    return "verified"


def validate(circuit: Circuit, budget=None) -> StructureReport:
    """Exact smoothness/decomposability plus ``determinism_status(budget)``."""
    return StructureReport(
        smooth=circuit.is_smooth(),
        decomposable=circuit.is_decomposable(),
        deterministic=circuit.determinism_status(budget),
        scopes=circuit.scopes(),
    )


def prune_unreachable(circuit: Circuit) -> Circuit:
    """Drop nodes not reachable from the root, preserving relative order."""
    keep = [False] * circuit.node_count
    keep[circuit.root] = True
    for i in range(circuit.node_count - 1, -1, -1):
        if keep[i]:
            for c in circuit.children[i]:
                keep[c] = True
    if all(keep):
        return circuit
    remap = {}
    kinds, lits, children = [], [], []
    for i in range(circuit.node_count):
        if keep[i]:
            remap[i] = len(kinds)
            kinds.append(circuit.kinds[i])
            lits.append(circuit.lits[i])
            children.append(tuple(remap[c] for c in circuit.children[i]))
    return Circuit(kinds, lits, children, remap[circuit.root],
                   circuit.num_vars,
                   circuit.deterministic_by_construction)


# --- d4-style NNF files ----------------------------------------------------

_NODE_RE = re.compile(r"^([oatf])\s+(\d+)\s+0$")


def parse_d4(path) -> Circuit:
    """Parse a d4-convention NNF file.

    Node lines are ``o|a|t|f <id> 0``; arc lines are
    ``<parent> <child> [<literal> ...] 0`` with listed literals conjoined
    onto the arc. Arc literals under an or-node become a product wrapping
    the child; an and-node absorbs its arcs' literals directly. The first
    declared node is the root. Ids are remapped to a dense forward order.
    """
    declared = {}
    arcs = {}
    order = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            m = _NODE_RE.match(line)
            if m:
                kind, nid = m.group(1), int(m.group(2))
                if nid in declared:
                    raise ParseError(path, lineno, f"node {nid} declared twice")
                declared[nid] = kind
                arcs[nid] = []
                order.append(nid)
                continue
            try:
                ints = [int(t) for t in line.split()]
            except ValueError:
                raise ParseError(path, lineno, "malformed line") from None
            if len(ints) < 3 or ints[-1] != 0:
                raise ParseError(path, lineno, "arc not terminated by 0")
            parent, child, lits = ints[0], ints[1], ints[2:-1]
            if parent not in declared:
                raise ParseError(path, lineno, f"undeclared parent id {parent}")
            if child not in declared:
                raise ParseError(path, lineno, f"undeclared child id {child}")
            if any(l == 0 for l in lits):
                raise ParseError(path, lineno, "literal 0 on arc")
            arcs[parent].append((child, tuple(lits), lineno))
    if not order:
        raise ParseError(path, 1, "no nodes declared")

    builder = CircuitBuilder()
    emitted = {}
    state = {}  # 0 = in progress, 1 = done

    def emit_tree(start):
        state[start] = 0
        stack = [(start, 0)]
        while stack:
            nid, idx = stack[-1]
            node_arcs = arcs[nid]
            if idx < len(node_arcs):
                stack[-1] = (nid, idx + 1)
                cid, _lits, lineno = node_arcs[idx]
                st = state.get(cid)
                if st == 0:
                    raise ParseError(path, lineno, f"cycle through node {cid}")
                if st is None:
                    state[cid] = 0
                    stack.append((cid, 0))
                continue
            stack.pop()
            state[nid] = 1
            kind = declared[nid]
            if kind == "t":
                emitted[nid] = builder.true()
            elif kind == "f":
                emitted[nid] = builder.false()
            elif kind == "a":
                parts = []
                for cid, lits, _ in node_arcs:
                    for l in lits:
                        parts.append(builder.literal(l))
                    # a true child is absorbed when the arc carries literals
                    if not (lits and builder.kind_of(emitted[cid]) == TRUE):
                        parts.append(emitted[cid])
                emitted[nid] = builder.product(parts)
            else:  # "o"
                parts = []
                for cid, lits, _ in node_arcs:
                    if not lits:
                        parts.append(emitted[cid])
                        continue
                    wrap = [builder.literal(l) for l in lits]
                    if builder.kind_of(emitted[cid]) != TRUE:
                        wrap.append(emitted[cid])
                    parts.append(builder.product(wrap))
                emitted[nid] = builder.sum(parts)

    for nid in order:
        if state.get(nid) != 1:
            emit_tree(nid)
    built = builder.build(emitted[order[0]], deterministic_by_construction=True)
    return prune_unreachable(built)


def write_d4(circuit: Circuit, path) -> None:
    """Serialize to the d4 convention parsed by :func:`parse_d4`.

    Literal leaves are carried on arcs; structure may simplify on
    round-trip but evaluation semantics are preserved.
    """
    kinds, lits, children = circuit.kinds, circuit.lits, circuit.children
    internal = [i for i in range(circuit.node_count) if kinds[i] != LIT]
    root_is_lit = kinds[circuit.root] == LIT
    need_true = root_is_lit or any(kinds[i] == TRUE for i in internal)
    if not need_true:
        for i in internal:
            if kinds[i] == PROD and all(kinds[c] == LIT for c in children[i]):
                need_true = True
                break
            if kinds[i] == SUM and any(kinds[c] == LIT for c in children[i]):
                need_true = True
                break

    ids = {}
    node_lines = []
    arc_lines = []

    def declare(kind_letter):
        node_lines.append(f"{kind_letter} {len(node_lines) + 1} 0")
        return len(node_lines)

    if root_is_lit:
        wrapper = declare("o")
        true_id = declare("t")
        arc_lines.append(f"{wrapper} {true_id} {lits[circuit.root]} 0")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(node_lines + arc_lines) + "\n")
        return

    # root first (parse_d4 takes the first declaration as root), then the
    # rest in reverse forward order so parents precede children
    decl_order = [circuit.root] + [
        i for i in reversed(internal) if i != circuit.root
    ]
    true_id = None
    for i in decl_order:
        k = kinds[i]
        letter = {TRUE: "t", FALSE: "f", SUM: "o", PROD: "a"}[k]
        ids[i] = declare(letter)
        if k == TRUE and true_id is None:
            true_id = ids[i]
    if need_true and true_id is None:
        true_id = declare("t")

    for i in decl_order:
        k = kinds[i]
        if k == PROD:
            arc_lits = [str(lits[c]) for c in children[i] if kinds[c] == LIT]
            others = [c for c in children[i] if kinds[c] != LIT]
            if others:
                first, rest = others[0], others[1:]
                arc_lines.append(
                    " ".join([str(ids[i]), str(ids[first])] + arc_lits + ["0"])
                )
                for c in rest:
                    arc_lines.append(f"{ids[i]} {ids[c]} 0")
            else:
                arc_lines.append(
                    " ".join([str(ids[i]), str(true_id)] + arc_lits + ["0"])
                )
        elif k == SUM:
            for c in children[i]:
                if kinds[c] == LIT:
                    arc_lines.append(f"{ids[i]} {true_id} {lits[c]} 0")
                else:
                    arc_lines.append(f"{ids[i]} {ids[c]} 0")
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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
    labels = LiteralMap(num_vars, semiring.one)
    for lit in range(1, num_vars + 1):
        labels.set(lit, assigned.get(lit, semiring.default_label(lit)))
        labels.set(-lit, assigned.get(-lit, semiring.default_label(-lit)))
    return labels


def default_labels(semiring, num_vars: int) -> LiteralMap:
    """Semiring-default labeling (neutral, except sens' indeterminates)."""
    labels = LiteralMap(num_vars, semiring.one)
    for v in range(1, num_vars + 1):
        labels.set(v, semiring.default_label(v))
        labels.set(-v, semiring.default_label(-v))
    return labels


# --- transformations --------------------------------------------------------

def smooth(circuit: Circuit) -> Circuit:
    """Return a smooth, model-equivalent circuit.

    Every sum child missing variables relative to the sum's scope is wrapped
    in a product with (v OR NOT v) gadgets; gadgets are built once per
    variable and shared. Requires a decomposable input.
    """
    if not circuit.is_decomposable():
        raise StructureError("cannot smooth a non-decomposable circuit",
                             validate(circuit))
    scopes = circuit.scopes()
    kinds, lits, children = circuit.kinds, circuit.lits, circuit.children

    b = CircuitBuilder()
    mapping = [0] * circuit.node_count
    leaf_ids = {}
    gadgets = {}

    def gadget(v):
        gid = gadgets.get(v)
        if gid is None:
            pos = leaf_ids.get(v)
            if pos is None:
                pos = leaf_ids[v] = b._append(LIT, v, ())
            neg = leaf_ids.get(-v)
            if neg is None:
                neg = leaf_ids[-v] = b._append(LIT, -v, ())
            gid = gadgets[v] = b._append(SUM, 0, (pos, neg))
        return gid

    for i, k in enumerate(kinds):
        if k == SUM:
            target = scopes[i]
            new_children = []
            for c in children[i]:
                missing = target & ~scopes[c]
                if not missing:
                    new_children.append(mapping[c])
                    continue
                parts = [mapping[c]]
                for v in scope_variables(missing):
                    parts.append(gadget(v))
                new_children.append(b._append(PROD, 0, tuple(parts)))
            mapping[i] = b._append(SUM, 0, tuple(new_children))
        else:
            mapping[i] = b._append(k, lits[i],
                                   tuple(mapping[c] for c in children[i]))
            if k == LIT and lits[i] not in leaf_ids:
                leaf_ids[lits[i]] = mapping[i]
    return b.build(mapping[circuit.root], num_vars=circuit.num_vars,
                   deterministic_by_construction=circuit.deterministic_by_construction)


def models_to_circuit(models, num_vars: int,
                      cube_extra=None) -> Circuit:
    """Smooth deterministic DNF circuit with one cube per model.

    Models are iterables of signed literals, total over 1..num_vars. The
    resulting circuit is trivially smooth, decomposable, and deterministic.
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
    num_vars = max(variables, default=0)
    if num_vars == 0:
        b = CircuitBuilder()
        sat = bool(enumerate_models(phi, variables))
        return b.build(b.true() if sat else b.false(), num_vars=0,
                       deterministic_by_construction=True)
    return models_to_circuit(enumerate_models(phi, variables), num_vars)


def _balanced(op, parts):
    """op folded over parts as a balanced tree, so its depth is logarithmic."""
    while len(parts) > 1:
        paired = [op(parts[j], parts[j + 1]) for j in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            paired.append(parts[-1])
        parts = paired
    return parts[0]


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
