"""Benchmark harness: per-variant forward/backward timings as CSV records.

Timing excludes parsing; forward and backward are timed separately, and all
variants of one repetition share the same forward tape. Peak auxiliary
memory comes from the engine's own buffer accounting (node-count slots plus
reused arity buffers at 8 bytes per slot), not process RSS, so the numbers
are deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .backprop import _variant, forward
from .circuits import Circuit, CircuitBuilder, default_labels
from .errors import AmckitError
from .literals import LiteralMap, _from_pairs

CSV_HEADER = "circuit,n,e,semiring,variant,rep,forward_ms,backward_ms,peak_aux_bytes,error"


@dataclass
class BenchRecord:
    circuit_id: str
    n: int
    e: int
    semiring: str
    variant: str
    rep: int
    forward_ms: float
    backward_ms: float
    peak_aux_bytes: int
    error: str = ""

    def to_csv_row(self) -> str:
        return (f"{self.circuit_id},{self.n},{self.e},{self.semiring},"
                f"{self.variant},{self.rep},{self.forward_ms:.6f},"
                f"{self.backward_ms:.6f},{self.peak_aux_bytes},{self.error}")


def records_to_csv(records) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv_row() for r in records]) + "\n"


def star_circuit(arity: int) -> Circuit:
    """Single product over `arity` distinct positive literals."""
    b = CircuitBuilder()
    root = b.product([b.literal(v) for v in range(1, arity + 1)])
    return b.build(root, num_vars=arity)


def uniform_labels(circuit: Circuit, semiring, seed: int) -> LiteralMap:
    """Benchmark weights: Bernoulli p drawn uniformly from [0.01, 0.99].

    Semirings that cannot encode fractional probabilities (nat, gf2, bool,
    sens) fall back to their default labeling.
    """
    if semiring.name in ("nat", "gf2", "bool", "sens"):
        return default_labels(semiring, circuit.num_vars)
    rng = random.Random(seed)
    return _from_pairs(semiring.one, [
        semiring.encode_prob(rng.uniform(0.01, 0.99))
        for _ in range(circuit.num_vars)])


def _failed(circuit_id, circuit, semiring, exc, variant="-", rep=0,
            forward_ms=0.0):
    """The record of a run that raised ``exc``; no circuit if none parsed."""
    n, e = (circuit.node_count, circuit.edge_count) if circuit else (0, 0)
    return BenchRecord(circuit_id, n, e, semiring.name, variant, rep,
                       forward_ms, 0.0, 0, error=str(exc).replace(",", ";"))


def measure(circuit_id: str, circuit: Circuit, labels, semiring, variants,
            repeat=10, warmup=1):
    """Time forward and each backward variant; one record per (variant, rep)."""
    backwards = [(name, _variant(name)) for name in variants]
    records = []
    for rep in range(-max(warmup, 0), repeat):
        t0 = time.perf_counter_ns()
        tape = forward(circuit, labels, semiring)
        forward_ms = (time.perf_counter_ns() - t0) / 1e6
        for name, backward in backwards:
            stats = {}
            try:
                t0 = time.perf_counter_ns()
                backward(circuit, tape, semiring, stats=stats)
                backward_ms = (time.perf_counter_ns() - t0) / 1e6
            except AmckitError as exc:
                record = _failed(circuit_id, circuit, semiring, exc, name,
                                 rep, forward_ms)
            else:
                record = BenchRecord(
                    circuit_id, circuit.node_count, circuit.edge_count,
                    semiring.name, name, rep, forward_ms, backward_ms,
                    stats.get("peak_aux_bytes", 0))
            if rep >= 0:  # not a warm-up rep
                records.append(record)
    return records


def run_suite(named_circuits, semiring, variants, repeat=10, warmup=1,
              seed=1234):
    """Benchmark a list of (id, circuit or exception) pairs.

    Failures become records with the error column set; the run continues.
    An unknown variant fails the call instead.
    """
    for name in variants:
        _variant(name)
    records = []
    for circuit_id, circuit in named_circuits:
        if isinstance(circuit, Exception):
            records.append(_failed(circuit_id, None, semiring, circuit))
            continue
        try:
            labels = uniform_labels(circuit, semiring, seed)
            records += measure(circuit_id, circuit, labels, semiring, variants,
                               repeat=repeat, warmup=warmup)
        except AmckitError as exc:
            records.append(_failed(circuit_id, circuit, semiring, exc))
    return records


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    import numpy as np

    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
