"""Learning signals built on circuit gradients.

Variables carry independent Bernoulli weights: alpha(v) = p(v) and
alpha(-v) = 1 - p(v). On top of one gradient pass this module derives EM
conditionals, conditional Shannon entropies, max-gradient (MPE) signals,
an unbiased sampled gradient estimator, and Hessian rows via dual numbers,
plus the GF(2) matrix-to-circuit embeddings used to stress-test second-order
quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backprop import grad_amc, structural_gate
from .circuits import PROD, Circuit, CircuitBuilder
from .errors import AmckitError
from .layers import sat_counts
from .literals import LiteralMap, _from_pairs, literal_order
from .semirings import NEG_INF, DualValue, make_semiring

_BOOL = make_semiring("bool")
_PROB = make_semiring("prob")
_LOG = make_semiring("log")
_GRAD = make_semiring("grad")
_VITERBI = make_semiring("viterbi")
_TROPICAL = make_semiring("tropical")


@dataclass
class BernoulliParams:
    """Per-variable success probabilities; index v-1 holds p(v)."""

    probs: list[float]

    def __post_init__(self):
        for p in self.probs:
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability {p!r} outside [0, 1]")

    @classmethod
    def uniform(cls, num_vars: int, p: float) -> "BernoulliParams":
        return cls([p] * num_vars)

    @property
    def num_vars(self) -> int:
        return len(self.probs)

    def p(self, lit: int) -> float:
        v = lit if lit > 0 else -lit
        base = self.probs[v - 1]
        return base if lit > 0 else 1.0 - base

    def _labels(self, fill, encode) -> LiteralMap:
        """Every variable's ``encode(p)``, a (positive, negative) pair."""
        return _from_pairs(fill, [encode(float(p)) for p in self.probs])

    def prob_labels(self) -> LiteralMap:
        return self._labels(_PROB.one, _PROB.encode_prob)

    def log_labels(self) -> LiteralMap:
        return self._labels(_LOG.one, _LOG.encode_prob)

    def entropy_labels(self) -> LiteralMap:
        # (p, -p ln p), with 0 ln 0 = 0 by continuity
        def dual(p):
            return DualValue(p, -p * math.log(p) if p > 0.0 else 0.0)
        return self._labels(dual(1.0), lambda p: (dual(p), dual(1.0 - p)))

    def seeded_dual_labels(self, seed_literal: int) -> LiteralMap:
        return LiteralMap.from_order(self.num_vars, DualValue(1.0, 0.0), [
            DualValue(self.p(lit), 1.0 if lit == seed_literal else 0.0)
            for lit in literal_order(self.num_vars)])


@dataclass
class SampleBatch:
    """Reproducible sampling plan: counter-based generator keyed by seed."""

    seed: int
    count: int
    chunk: int = 65536


def _require_params(circuit: Circuit, params: BernoulliParams):
    if params.num_vars < circuit.num_vars:
        raise ValueError(
            f"params cover {params.num_vars} variables, circuit mentions "
            f"{circuit.num_vars}"
        )


def em_conditionals(circuit: Circuit, params: BernoulliParams) -> LiteralMap:
    """Conditional probabilities p(l | circuit) for every literal.

    One log-domain gradient pass: exp(grad_log[l] + log alpha(l) - amc_log),
    clamped to [0, 1] against round-off.
    """
    _require_params(circuit, params)
    labels = params.log_labels()
    amc_log, grads = grad_amc(circuit, labels, _LOG)
    if amc_log == NEG_INF:
        raise AmckitError("conditionals undefined: the circuit has probability 0")
    return LiteralMap.from_order(circuit.num_vars, 0.0, [
        min(1.0, max(0.0, math.exp(grad + labels.get(lit) - amc_log)))
        for lit, grad in grads.items_in_order()])


def _tangents(grads: LiteralMap) -> LiteralMap:
    """The tangent of each literal's dual gradient entry."""
    return LiteralMap.from_order(grads.num_vars, 0.0,
                                 [g.tangent for g in grads.values_in_order()])


def conditional_entropy(circuit: Circuit, params: BernoulliParams):
    """Shannon entropy of the model distribution and its conditioned values.

    Returns ``(H, per_literal)`` in nats, where H = -sum over models of
    p(I) ln p(I) and the entry for literal l is the same sum over the models
    of the circuit conditioned on l (unnormalized).
    """
    _require_params(circuit, params)
    amc, grads = grad_amc(circuit, params.entropy_labels(), _GRAD)
    return amc.tangent, _tangents(grads)


def mpe_gradient(circuit: Circuit, params: BernoulliParams,
                 logspace=False) -> LiteralMap:
    """Maximum model probability (or its log) after conditioning on each literal."""
    _require_params(circuit, params)
    if logspace:
        _, grads = grad_amc(circuit, params.log_labels(), _TROPICAL)
    else:
        _, grads = grad_amc(circuit, params.prob_labels(), _VITERBI)
    return grads


_SAMPLE_BLOCK = 4096


def _uniform_rows(seed: int, start: int, rows: int, probs):
    """Rows [start, start+rows) of the Bernoulli draws for a given seed.

    Entry (r, v) is the r-th uniform draw for variable v + 1 compared with
    ``probs[v]``. The stream is laid out in fixed blocks of
    ``_SAMPLE_BLOCK`` samples, each drawn from a counter-based generator
    keyed by (seed, block index) and compared as it is drawn, so any
    chunking of the same (seed, count) sees identical draws.
    """
    key_lo = seed & 0xFFFFFFFFFFFFFFFF
    out = np.empty((rows, len(probs)), dtype=bool)
    for blk in range(start // _SAMPLE_BLOCK,
                     (start + rows - 1) // _SAMPLE_BLOCK + 1):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([key_lo, blk], dtype=np.uint64))
        )
        base = blk * _SAMPLE_BLOCK
        lo, hi = max(start, base), min(start + rows, base + _SAMPLE_BLOCK)
        np.less(gen.random((_SAMPLE_BLOCK, len(probs)))[lo - base:hi - base],
                probs, out=out[lo - start:hi - start])
    return out


def indecater_estimate(circuit: Circuit, params: BernoulliParams,
                       batch: SampleBatch):
    """Unbiased sampled gradient via Boolean passes on Bernoulli draws.

    For each sample the Boolean gradient marks which conditioned circuits
    are satisfied; averaging over samples estimates the probability
    gradient. Returns ``(p_hat, g_hat, stderr)``. Each chunk of samples is
    one bit-packed Boolean forward and backward on the circuit's compiled
    groups (``layers.sat_counts``): cost is linear in circuit size per
    64 samples, and memory is about nodes x chunk/4 bytes. Fixed seeds give
    bit-identical results regardless of chunking.
    """
    if batch.count <= 0:
        raise ValueError("sample batch is empty")
    if batch.chunk <= 0:
        raise ValueError(f"sample chunk must be positive, got {batch.chunk}")
    _require_params(circuit, params)
    structural_gate(circuit, _BOOL)
    nv = circuit.num_vars
    probs = np.asarray(params.probs[:nv], dtype=np.float64)
    total = batch.count
    counts = np.zeros(2 * nv, dtype=np.int64)
    root_count = 0
    start = 0
    while start < total:
        rows = min(batch.chunk, total - start)
        r, c = sat_counts(circuit, _uniform_rows(batch.seed, start, rows, probs))
        root_count += r
        counts += c
        start += rows
    g_hat = counts / total
    stderr = np.sqrt(g_hat * (1.0 - g_hat) / total)
    return (root_count / total, LiteralMap.from_order(nv, 0.0, g_hat.tolist()),
            LiteralMap.from_order(nv, 0.0, stderr.tolist()))


def hessian_row(circuit: Circuit, params: BernoulliParams,
                y: int) -> LiteralMap:
    """Row y of the second-derivative matrix of the weighted model count.

    One dual-number gradient pass with the tangent seeded at literal y;
    entry l is d^2 AMC / (d alpha(l) d alpha(y)). The count is multilinear,
    so the diagonal entry and the complementary-literal entry are 0.
    """
    _require_params(circuit, params)
    if y == 0 or abs(y) > circuit.num_vars:
        raise ValueError(f"literal {y} outside the circuit's variables")
    _, grads = grad_amc(circuit, params.seeded_dual_labels(y), _GRAD)
    return _tangents(grads)


# --- GF(2) matrix embeddings -------------------------------------------------

def _as_bit_matrix(matrix):
    m = np.asarray(matrix, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] < 2:
        raise ValueError("matrix must be at least 2x2")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("matrix entries must be bits")
    return m


class _CubeFactory:
    """DNF cubes over n variables with shared negative-literal runs.

    run(a, b) is the conjunction of the negative literals of variables
    a..b, built as cumulative chains so total size stays quadratic.
    """

    def __init__(self, n: int):
        self.n = n
        self.b = CircuitBuilder()
        self._runs = {}

    def run(self, a: int, b: int):
        if a > b:
            return None
        # extend the longest run a..c built so far, one variable at a time
        c = b
        while c >= a and (a, c) not in self._runs:
            c -= 1
        nid = self._runs.get((a, c))
        for d in range(c + 1, b + 1):
            nid = (self.b.literal(-a) if d == a else
                   self.b._append(PROD, 0, (nid, self.b.literal(-d))))
            self._runs[(a, d)] = nid
        return nid

    def cube(self, *positive: int):
        """Unique model with the given ascending variables positive,
        everything else negative."""
        parts = [self.b.literal(i) for i in positive]
        bounds = (0,) + positive + (self.n + 1,)
        for lo, hi in zip(bounds, bounds[1:]):
            r = self.run(lo + 1, hi - 1)
            if r is not None:
                parts.append(r)
        return self.b._append(PROD, 0, tuple(parts))

    def build(self, cubes):
        root = self.b.sum(cubes) if cubes else self.b.false()
        return self.b.build(root, num_vars=self.n,
                            deterministic_by_construction=True)


def _cube_circuit(m, diagonal) -> Circuit:
    """One pair cube per set upper-triangle entry of m, plus a single-positive
    cube for each row whose off-diagonal parity differs from diagonal[i]."""
    n = m.shape[0]
    fac = _CubeFactory(n)
    cubes = []
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j]:
                cubes.append(fac.cube(i + 1, j + 1))
    for i in range(n):
        row_parity = int(m[i].sum() - m[i][i]) & 1
        if row_parity != int(diagonal[i]):
            cubes.append(fac.cube(i + 1))
    return fac.build(cubes)


def matrix_to_circuit(matrix) -> Circuit:
    """Circuit whose GF(2) second-derivative matrix equals a symmetric bit matrix.

    One cube per set upper-triangle entry (i, j): the unique model with x_i
    and x_j positive. Conditioning on one literal twice is idempotent, so
    the diagonal entry (i, i) is the parity of all surviving cubes in row i;
    single-positive cubes correct it to M[i][i]. Circuit size is Theta(n^2);
    the result is smooth, deterministic, and decomposable.
    """
    m = _as_bit_matrix(matrix)
    if (m != m.T).any():
        raise ValueError("matrix must be symmetric: entry (i, j) and (j, i) "
                         "share their unique model")
    return _cube_circuit(m, np.diag(m))


def matrix_vec_to_circuit(matrix, vector) -> Circuit:
    """Circuit with prescribed GF(2) off-diagonal Hessian and gradient.

    The off-diagonal of the positive-literal Hessian equals the symmetric
    bit matrix and the positive-literal gradient equals the bit vector. The
    Hessian diagonal necessarily equals the gradient (entry (i, i) is the
    count conditioned on x_i), so the matrix diagonal is ignored. Adds at
    most n single-positive correction cubes; size stays Theta(n^2).
    """
    m = _as_bit_matrix(matrix)
    if (m != m.T).any():
        raise ValueError("matrix must be symmetric")
    v = np.asarray(vector, dtype=np.int64)
    if v.ndim != 1 or v.shape[0] != m.shape[0]:
        raise ValueError("vector length must match the matrix size")
    if not np.isin(v, (0, 1)).all():
        raise ValueError("vector entries must be bits")
    return _cube_circuit(m, v)
