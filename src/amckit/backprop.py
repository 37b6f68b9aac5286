"""Forward evaluation and the backward pass over a circuit.

All gradients are leaf adjoints folded per literal: on a smooth,
decomposable circuit (deterministic too when the semiring is not additively
idempotent) the entry for literal l equals the model count of the circuit
conditioned on l. With ``check`` (the default) ``forward`` and
``grad_amc`` first pass the circuit through ``structural_gate``, whose
determinism rule has no per-call override. The four variants differ
only in how a product-node child gets the product of its siblings. A child
is divided out of the node value where the variant divides, the child is
cancellative and the node did not underflow (its value is zero although
none of its children is, so dividing it would lose the product of the
other children). Every other child takes the variant's fallback:

* ``naive``     never divides; recomputes each sibling product, O(e * maxArity);
* ``cancel``    divides; recomputes the sibling product per child otherwise;
* ``dynamic``   never divides; cumulative prefix/suffix products, computed
                once per node: O(e) time, one buffer of max arity;
* ``opt``       divides; a top-2 extremal scan, once per node, where
                multiplication is fully ordered, cumulative products otherwise.

``forward`` and the two dividing variants run on the layered array engine
(``layers``) for every semiring, in its ``array_ops`` or on object arrays
of its scalar functions, so the rule for dividing lives in
``layers.backward_opt`` alone. ``naive`` and ``dynamic`` are one Python sweep over the tape's values
(``_sweep``) that never divides: the two references every dividing variant
is tested against, and ``naive`` the engine's oracle. One evaluation runs on
one thread.

With ``stats=`` a pass reports ``divisions`` and ``ordered_hits`` per child,
``fallbacks`` per child for recomputation and per node for cumulative
products, and ``peak_aux_bytes``: 8 bytes for each adjoint and slot of the
variant's leave-one-out buffers (none for recomputation, one of max arity
for ``dynamic``, and two of max arity for ``opt``). That models a sequential
pass. On the arrays a pass holds instead the adjoints and, per product
arity, one run of at most ``layers.GROUP_EDGES`` leave-one-out values and
its temporaries; the README gives the measured peaks.

Thread safety: evaluations over the same immutable circuit may run in
parallel threads, each with its own tape. The circuit's compiled layers are
filled lazily on first use; threads that race the fill each build the same
arrays and one of them is kept, so no lock is needed.
"""

from __future__ import annotations

from . import layers
from .circuits import LIT, PROD, SUM, Circuit, determinism_budget, validate
from .errors import ConfigError, StructureError, UnsupportedOperationError
from .literals import LiteralMap


class ForwardTape:
    """Per-node values in forward order; the root value is the model count.

    The values are an array in the layout of the semiring ``forward`` ran
    (``layers.ops_of``); the list of Python scalars is built only when
    ``values`` is first read.
    """

    __slots__ = ("root", "_array", "_ops", "_semiring", "_values")

    def __init__(self, array, root, ops, semiring):
        self.root = root
        self._array, self._ops, self._semiring = array, ops, semiring
        self._values = None

    @property
    def values(self) -> list:
        if self._values is None:
            self._values = self._ops.to_list(self._array)
        return self._values

    @property
    def root_value(self):
        return self._ops.item(self._array, self.root)

    def array(self, semiring):
        """The node values and their ops in ``semiring``'s layout; the tape
        of that semiring's own ``forward`` is not converted."""
        if semiring is not self._semiring:
            ops = layers.ops_of(semiring)
            if ops is not self._ops:
                self._array, self._ops = ops.from_list(self.values), ops
            self._semiring = semiring
        return self._array, self._ops


def structural_gate(circuit: Circuit, semiring):
    """Refuse evaluation when structure cannot justify the semiring.

    Smoothness and decomposability are always required. Determinism is
    required for non-idempotent semirings: the gate reads ``validate``'s
    report, with determinism asked at the budget (``determinism_budget()``)
    once the circuit is smooth and decomposable and at 0 otherwise, so a
    circuit refused for its scopes enumerates no models. A ``refuted``
    circuit is refused whatever it promises; an ``unverified`` one, above
    the budget the exhaustive check reaches, is refused unless it was built
    with ``deterministic_by_construction=True`` (d4 parses, the DNF and
    GF(2) builders). A refusal carries that report.
    """
    budget = determinism_budget() if semiring.needs_determinism else 0
    scoped = circuit.is_smooth() and circuit.is_decomposable()
    report = validate(circuit, budget if scoped else 0)
    problems = []
    if not report.smooth:
        problems.append("circuit is not smooth (apply smooth())")
    if not report.decomposable:
        problems.append("circuit is not decomposable")
    if semiring.needs_determinism:
        if report.deterministic == "refuted":
            problems.append("circuit is not deterministic")
        elif (report.deterministic == "unverified"
              and not circuit.deterministic_by_construction):
            problems.append(
                f"determinism unverified within budget {budget} (build the"
                " circuit with deterministic_by_construction=True to "
                "proceed)")
    if problems:
        raise StructureError("; ".join(problems), report)


def forward(circuit: Circuit, labels: LiteralMap, semiring, *,
            check=True) -> ForwardTape:
    """Evaluate every node bottom-up; the root equals the model count."""
    if check:
        structural_gate(circuit, semiring)
    ops = layers.ops_of(semiring)
    return ForwardTape(layers.forward(circuit, labels, ops), circuit.root,
                       ops, semiring)


def _note_stats(stats, circuit, extra_slots, **counts):
    if stats is None:
        return
    stats["peak_aux_bytes"] = 8 * (circuit.node_count + extra_slots)
    for key, val in counts.items():
        stats[key] = val


def _sweep(circuit, tape, semiring, stats, cumulative):
    """The reference backward pass, which never divides: adjoints top-down,
    folded per literal. A product gives each child its prefix times suffix
    product with ``cumulative``, else the recomputed product of its siblings.
    """
    add, mul = semiring.add, semiring.mul
    zero, one = semiring.zero, semiring.one
    values = tape.values
    kinds, children = circuit.kinds, circuit.children
    adj = [zero] * circuit.node_count
    adj[circuit.root] = one
    # suffix products of the current node, cumulative fallback
    suffix = [one] * circuit.max_arity
    fallbacks = 0
    for i in range(circuit.node_count - 1, -1, -1):
        k, a, ch = kinds[i], adj[i], children[i]
        if k == SUM:
            for c in ch:
                adj[c] = add(adj[c], a)
        elif k == PROD and cumulative:
            t = one
            for j in range(len(ch) - 1, -1, -1):
                suffix[j] = t
                t = mul(t, values[ch[j]])
            prefix = one
            for idx, c in enumerate(ch):
                adj[c] = add(adj[c], mul(a, mul(suffix[idx], prefix)))
                prefix = mul(prefix, values[c])
            fallbacks += bool(ch)
        elif k == PROD:
            fallbacks += len(ch)
            for idx, c in enumerate(ch):
                loo = one
                for j, d in enumerate(ch):
                    if j != idx:
                        loo = mul(loo, values[d])
                adj[c] = add(adj[c], mul(a, loo))
    _note_stats(stats, circuit, circuit.max_arity if cumulative else 0,
                divisions=0, ordered_hits=0, fallbacks=fallbacks)
    # several leaves may carry the same literal; their adjoints accumulate
    grads = LiteralMap(circuit.num_vars, zero)
    lits = circuit.lits
    for i, k in enumerate(kinds):
        if k == LIT:
            l = lits[i]
            grads.set(l, add(grads.get(l), adj[i]))
    return grads


def backward_naive(circuit: Circuit, tape: ForwardTape, semiring,
                   stats=None) -> LiteralMap:
    """Leave-one-out products recomputed per child; the engine's own oracle."""
    return _sweep(circuit, tape, semiring, stats, False)


def backward_cancel(circuit: Circuit, tape: ForwardTape, semiring,
                    stats=None) -> LiteralMap:
    """Divide the node value by each child where the child is cancellative.

    Falls back to a per-child recomputation for non-cancellative children
    (e.g. zero-valued children under prob) and for every child of an
    underflowed product; fallbacks are counted.
    """
    if not semiring.supports_division:
        raise UnsupportedOperationError(
            f"semiring '{semiring.name}' provides no division; "
            "use the dynamic or naive variant"
        )
    return _on_arrays(circuit, tape, semiring, stats, recompute=True)


def backward_dynamic(circuit: Circuit, tape: ForwardTape, semiring,
                     stats=None) -> LiteralMap:
    """Cumulative prefix/suffix products; O(e) time, O(n) auxiliary memory.

    The buffer is sized once to the maximum product arity and reused across
    nodes.
    """
    return _sweep(circuit, tape, semiring, stats, True)


def backward_optimized(circuit: Circuit, tape: ForwardTape, semiring,
                       stats=None) -> LiteralMap:
    """Cancellation and ordering where available, cumulative products otherwise.

    Per product child: (a) divide the node value by a cancellative child,
    unless the node underflowed; (b) under fully ordered multiplication the
    node value itself is the leave-one-out product for every child except a
    unique extremal one, which takes the second extremal instead; (c)
    otherwise fill in from the node's cumulative prefix/suffix products,
    computed at most once.
    """
    return _on_arrays(circuit, tape, semiring, stats, recompute=False)


def _on_arrays(circuit, tape, semiring, stats, recompute):
    values, ops = tape.array(semiring)
    grads, counts = layers.backward_opt(circuit, values, semiring, ops,
                                        recompute)
    _note_stats(stats, circuit, 0 if recompute else 2 * circuit.max_arity,
                **counts)
    return grads


VARIANTS = {
    "naive": backward_naive,
    "cancel": backward_cancel,
    "dynamic": backward_dynamic,
    "opt": backward_optimized,
}


def _variant(algo):
    """The backward pass named ``algo``, read from ``VARIANTS`` when called
    (perfbench's tracer swaps its entries), or a ``ConfigError`` naming them."""
    try:
        return VARIANTS[algo]
    except KeyError:
        valid = ", ".join(sorted(VARIANTS))
        raise ConfigError(f"unknown variant {algo!r}; valid: {valid}") from None


def grad_amc(circuit: Circuit, labels: LiteralMap, semiring, algo="opt", *,
             check=True, stats=None):
    """Model count and per-literal conditioned counts in one round trip.

    Returns ``(amc, gradient)``. Literals with no leaf in the circuit get
    the additive identity unless smoothing introduced their gadget.
    """
    backward = _variant(algo)
    tape = forward(circuit, labels, semiring, check=check)
    grads = backward(circuit, tape, semiring, stats=stats)
    return tape.root_value, grads


def variable_gradient(gradient: LiteralMap, semiring):
    """Per-variable gradient grad[v] + (-grad[-v]) for complementary labels.

    Only well defined with additive inverses; refused otherwise.
    """
    if not semiring.supports_negation:
        raise UnsupportedOperationError(
            f"variable gradients need additive inverses; semiring "
            f"'{semiring.name}' has none"
        )
    add, neg = semiring.add, semiring.negate
    return [
        add(gradient.get(v), neg(gradient.get(-v)))
        for v in range(1, gradient.num_vars + 1)
    ]
