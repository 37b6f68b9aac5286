"""Forward evaluation and the backward pass over a circuit.

All gradients are leaf adjoints folded per literal: on a smooth,
decomposable circuit (deterministic too when the semiring is not additively
idempotent) the entry for literal l equals the model count of the circuit
conditioned on l. With ``check`` (the default) ``forward`` and
``grad_amc`` first pass the circuit through ``structural_gate``, whose
determinism rule has no per-call override. The four variants are one
backward sweep; they differ only in how a product-node child gets the
product of its siblings. A child
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

With ``stats=`` a pass reports ``divisions`` and ``ordered_hits`` per child,
``fallbacks`` per child for recomputation and per node for cumulative
products, and ``aux_slots``/``peak_aux_bytes`` for the adjoints plus the
variant's leave-one-out buffers (none for recomputation, one of max arity
for ``dynamic``, and two of max arity for ``opt``). Both ``opt`` engines
report the same counts. The Python sweep needs one such buffer, and the
array engine holds instead one leave-one-out value per product edge for the
pass, computed in runs of at most ``layers.GROUP_EDGES`` edges, which bound
its temporaries.

``forward`` and ``opt`` run on the layered array engine (``layers``) when
the semiring declares ``array_ops``, and as the Python loops below
otherwise; ``naive``, ``cancel`` and ``dynamic`` always run the Python
sweep, the reference the engine is tested against. Either way one evaluation runs
on one thread.

Thread safety: evaluations over the same immutable circuit may run in
parallel threads, each with its own tape. The circuit's compiled layers are
filled lazily on first use; threads that race the fill each build the same
arrays and one of them is kept, so no lock is needed.
"""

from __future__ import annotations

from . import layers
from .circuits import LIT, PROD, SUM, TRUE, Circuit, determinism_budget, validate
from .errors import ConfigError, StructureError, UnsupportedOperationError
from .literals import LiteralMap
from .semirings import LEFT


class ForwardTape:
    """Per-node values in forward order; the root value is the model count.

    A tape from the array engine holds its values as an array and builds the
    list of Python scalars only when ``values`` is first read.
    """

    __slots__ = ("root", "_values", "_array", "_ops")

    def __init__(self, values, root, *, array=None, ops=None):
        self.root = root
        self._values = values
        self._array = array
        self._ops = ops

    @property
    def values(self) -> list:
        if self._values is None:
            self._values = self._ops.to_list(self._array)
        return self._values

    @property
    def root_value(self):
        if self._values is None:
            return self._ops.item(self._array, self.root)
        return self._values[self.root]

    def array(self, ops):
        """The node values as an array of ``ops``' layout."""
        if self._ops is not ops:
            self._array, self._ops = ops.from_list(self.values), ops
        return self._array


def structural_gate(circuit: Circuit, semiring):
    """Refuse evaluation when structure cannot justify the semiring.

    Smoothness and decomposability are always required. Determinism is
    required for non-idempotent semirings and checked exhaustively within
    the budget (``determinism_budget()``): the verdict is cached on the
    circuit, and a ``refuted`` circuit is refused whatever it promises.
    Above the budget the check cannot reach, and its ``unverified`` is
    waived only for a circuit built with ``deterministic_by_construction=
    True`` (d4 parses, the DNF and GF(2) builders); for such a circuit the
    gate compares ``num_vars`` with the budget and scans nothing. A circuit already refused as not smooth or not
    decomposable enumerates no models: determinism is asked for at budget
    0. A refusal's report holds what the gate checked, determinism under
    the budget it asked for.
    """
    problems = []
    if not circuit.is_smooth():
        problems.append("circuit is not smooth (apply smooth())")
    if not circuit.is_decomposable():
        problems.append("circuit is not decomposable")
    checked = 0  # not checked, so the report enumerates nothing
    if semiring.needs_determinism:
        budget = determinism_budget()
        promised = circuit.deterministic_by_construction
        if not promised or circuit.num_vars <= budget:
            checked = 0 if problems else budget
            status = circuit.determinism_status(checked)
            if status == "refuted":
                problems.append("circuit is not deterministic")
            elif status == "unverified" and not promised:
                problems.append(
                    f"determinism unverified within budget {budget} (build the"
                    " circuit with deterministic_by_construction=True to "
                    "proceed)")
    if problems:
        raise StructureError("; ".join(problems), validate(circuit, checked))


def forward(circuit: Circuit, labels: LiteralMap, semiring, *,
            check=True) -> ForwardTape:
    """Evaluate every node bottom-up; the root equals the model count."""
    if check:
        structural_gate(circuit, semiring)
    ops = getattr(semiring, "array_ops", None)
    if ops is not None:
        return ForwardTape(None, circuit.root,
                           array=layers.forward(circuit, labels, ops), ops=ops)
    add, mul = semiring.add, semiring.mul
    zero, one = semiring.zero, semiring.one
    kinds, lits, children = circuit.kinds, circuit.lits, circuit.children
    values = [None] * circuit.node_count
    for i, k in enumerate(kinds):
        if k == LIT:
            values[i] = labels.get(lits[i])
        elif k == SUM:
            acc = zero
            for c in children[i]:
                acc = add(acc, values[c])
            values[i] = acc
        elif k == PROD:
            acc = one
            for c in children[i]:
                acc = mul(acc, values[c])
            values[i] = acc
        else:
            values[i] = one if k == TRUE else zero
    return ForwardTape(values, circuit.root)


# the fallback a product child takes when it is not divided
_RECOMPUTE, _CUMULATIVE, _ORDERED = range(3)


def _note_stats(stats, circuit, extra_slots, **counts):
    if stats is None:
        return
    slots = circuit.node_count + extra_slots
    stats["aux_slots"] = slots
    stats["peak_aux_bytes"] = 8 * slots
    for key, val in counts.items():
        stats[key] = val


def _extremal_pair(semiring, values, ch):
    """(smallest value, its multiplicity, second smallest) in the mul order."""
    ordered = semiring.is_ordered_mul
    m1 = None
    m1_count = 0
    m2 = None
    for c in ch:
        v = values[c]
        if m1 is None:
            m1, m1_count = v, 1
        elif v == m1:
            m1_count += 1
        elif ordered(v, m1) == LEFT:
            m2 = m1
            m1, m1_count = v, 1
        elif m2 is None or ordered(v, m2) == LEFT:
            m2 = v
    return m1, m1_count, (semiring.one if m2 is None else m2)


def _sweep(circuit, tape, semiring, stats, divide, fallback, extra_slots):
    """The backward pass: adjoints top-down, then folded per literal.

    A product child takes the node value divided by the child when
    ``divide`` is set, the child is cancellative and the node did not
    underflow; otherwise its sibling product comes from ``fallback``.
    """
    add, mul, div = semiring.add, semiring.mul, semiring.try_divide
    zero, one = semiring.zero, semiring.one
    values = tape.values
    kinds, children = circuit.kinds, circuit.children
    adj = [zero] * circuit.node_count
    adj[circuit.root] = one
    # suffix products of the current node, cumulative fallback
    suffix = [one] * circuit.max_arity
    cumulative, ordered = fallback == _CUMULATIVE, fallback == _ORDERED
    divisions = ordered_hits = fallbacks = 0
    for i in range(circuit.node_count - 1, -1, -1):
        k = kinds[i]
        if k == SUM:
            a = adj[i]
            for c in children[i]:
                adj[c] = add(adj[c], a)
        elif k == PROD:
            a = adj[i]
            ch = children[i]
            node_val = values[i]
            # a zero product of nonzero children underflowed
            can_div = divide and not (
                node_val == zero and all(values[c] != zero for c in ch))
            scan = prefix = None
            for idx, c in enumerate(ch):
                cval = values[c]
                if can_div and (loo := div(node_val, cval)) is not None:
                    divisions += 1
                    if prefix is not None:
                        prefix = mul(prefix, cval)
                elif cumulative:
                    if prefix is None:
                        # suffix products into the buffer; the prefix runs
                        # along with the children from here on
                        t = one
                        for j in range(len(ch) - 1, -1, -1):
                            suffix[j] = t
                            t = mul(t, values[ch[j]])
                        prefix = one
                        if idx:  # dynamic's nodes always start at 0
                            for j in range(idx):
                                prefix = mul(prefix, values[ch[j]])
                        fallbacks += 1
                    loo = mul(suffix[idx], prefix)
                    prefix = mul(prefix, cval)
                elif ordered:
                    if scan is None:
                        scan = _extremal_pair(semiring, values, ch)
                    m1, m1_count, m2 = scan
                    loo = m2 if (cval == m1 and m1_count == 1) else node_val
                    ordered_hits += 1
                else:
                    fallbacks += 1
                    loo = one
                    for j, d in enumerate(ch):
                        if j != idx:
                            loo = mul(loo, values[d])
                adj[c] = add(adj[c], mul(a, loo))
    _note_stats(stats, circuit, extra_slots, divisions=divisions,
                ordered_hits=ordered_hits, fallbacks=fallbacks)
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
    return _sweep(circuit, tape, semiring, stats, False, _RECOMPUTE, 0)


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
    return _sweep(circuit, tape, semiring, stats, True, _RECOMPUTE, 0)


def backward_dynamic(circuit: Circuit, tape: ForwardTape, semiring,
                     stats=None) -> LiteralMap:
    """Cumulative prefix/suffix products; O(e) time, O(n) auxiliary memory.

    The buffer is sized once to the maximum product arity and reused across
    nodes.
    """
    return _sweep(circuit, tape, semiring, stats, False, _CUMULATIVE,
                  circuit.max_arity)


def backward_optimized(circuit: Circuit, tape: ForwardTape, semiring,
                       stats=None) -> LiteralMap:
    """Cancellation and ordering where available, cumulative products otherwise.

    Per product child: (a) divide the node value by a cancellative child,
    unless the node underflowed; (b) under fully ordered multiplication the
    node value itself is the leave-one-out product for every child except a
    unique extremal one, which takes the second extremal instead; (c)
    otherwise fill in from the node's cumulative prefix/suffix products,
    computed at most once.
    Runs on the array engine when the semiring declares ``array_ops``.
    """
    ops = getattr(semiring, "array_ops", None)
    if ops is not None:
        grads, counts = layers.backward_opt(circuit, tape.array(ops), semiring,
                                            ops)
        _note_stats(stats, circuit, 2 * circuit.max_arity, **counts)
        return grads
    fallback = _ORDERED if semiring.fully_ordered_mul else _CUMULATIVE
    return _sweep(circuit, tape, semiring, stats, semiring.supports_division,
                  fallback, 2 * circuit.max_arity)


VARIANTS = {
    "naive": backward_naive,
    "cancel": backward_cancel,
    "dynamic": backward_dynamic,
    "opt": backward_optimized,
}


def grad_amc(circuit: Circuit, labels: LiteralMap, semiring, algo="opt", *,
             check=True, stats=None):
    """Model count and per-literal conditioned counts in one round trip.

    Returns ``(amc, gradient)``. Literals with no leaf in the circuit get
    the additive identity unless smoothing introduced their gadget.
    """
    try:
        backward = VARIANTS[algo]
    except KeyError:
        valid = ", ".join(sorted(VARIANTS))
        raise ConfigError(f"unknown variant {algo!r}; valid: {valid}") from None
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
