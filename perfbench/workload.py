"""Workloads: a closed loop with one caller over one compiled circuit.

Each run generates its circuit from the seed, writes it as a d4 file, and
loads it as a user would (``parse_d4`` → ``smooth`` → gate → first
gradient; timed several times on fresh objects as ``setup_s``). Then it
issues calls back to back, each with a fresh labeling drawn from the seed,
as the weights of a training loop change between steps: the workload's loop
ops take turns, and its fixed ops are interleaved. Every figure is per op,
so none depends on how often one op is called against another. Every call
is checked; see ``check``.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import resource
import statistics
import tempfile
import time
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from amckit import BernoulliParams, SampleBatch, backprop, circuits, learning

import check
import gen
from spans import CountingSemiring, Tracer

# timed loads per run, after one untimed warm-up load
SETUPS = 5
GRADIENT_OPS = ("grad", "em", "fuzzy", "entropy")
# traced calls of these ops are followed by the dynamic backward, for
# comparison with opt
TRACED_EXTRA = {"grad": "grad_dynamic", "fuzzy": "fuzzy_dynamic"}
# refuse an estimate whose boolean pass would hold more than this
# (one byte per node and sample row); the box has 7 GB
ESTIMATE_BYTES_LIMIT = 2 << 30
SEMIRINGS = ("prob", "log", "grad", "fuzzy")


@dataclass(frozen=True)
class Workload:
    """One workload: a generated circuit and the calls a run makes on it.

    ``loop`` ops take turns, one call each per cycle, until the run's
    seconds are up. ``fixed`` ops make a set number of calls per run,
    spread evenly over it: the workload's purpose does not include them,
    but every end-to-end metric is reported on every workload.
    """

    name: str
    family: str  # "layered" (width, depth) or "dnf" (models, vars)
    size: tuple
    samples: int  # per indecater_estimate
    loop: tuple
    fixed: tuple  # (op name, calls per run) pairs
    why: str

    @property
    def num_vars(self) -> int:
        return self.size[1] + 1 if self.family == "layered" else self.size[1]

    def write(self, path, seed: int) -> None:
        if self.family == "layered":
            gen.layered_decision_d4(path, *self.size, seed)
        else:
            gen.wide_dnf_d4(path, *self.size, seed)


WORKLOADS = {w.name: w for w in (
    Workload("d4-deep", "layered", (200, 200), 1024, GRADIENT_OPS,
             (("estimate", 4),),
             "d4-shaped layered decision-DNNF 200x200 (~97k nodes, 193k "
             "edges, arity 2): per-node overhead dominates passes and the "
             "text parse dominates set-up"),
    # 600 of the 2^300 assignments are models, so every sample of an
    # estimate here misses them: its check only confirms near-zero values
    Workload("dnf-wide", "dnf", (600, 300), 1024, GRADIENT_OPS,
             (("estimate", 4),),
             "DNF of 600 total models over 300 vars (181k edges, product "
             "arity 300): the per-edge leave-one-out step dominates, via "
             "division, top-2 scan and prefix/suffix"),
    Workload("sampled", "layered", (50, 100), 65536, ("estimate",),
             tuple((op, 25) for op in GRADIENT_OPS),
             "indecater_estimate with 2^16 samples on a 50x100 layered "
             "circuit (~12k nodes): the batched numpy path, whose memory "
             "grows with nodes x chunk"),
)}

# small members of each generator family, compared with the oracle
ORACLE_MEMBERS = (("layered", (3, 6)), ("dnf", (12, 6)))


@dataclass(frozen=True)
class Op:
    name: str
    prepare: Callable  # (run, params) -> argument of call (untimed)
    call: Callable  # (circuit, argument) -> result (timed)
    check: Callable  # (run, params, argument, result) -> bool (untimed)


def _prob_pass(run, params):
    return backprop.grad_amc(run.circuit, params.prob_labels(), check.PROB)


def _grad_op(name, semiring, algo="opt"):
    return Op(
        name=name,
        prepare=lambda run, params: params.prob_labels(),
        call=lambda c, labels: backprop.grad_amc(c, labels, semiring, algo),
        check=lambda run, params, labels, res: check.split_identity(
            semiring, labels, res[0], res[1], run.scope),
    )


OPS = {op.name: op for op in (
    _grad_op("grad", check.PROB),
    _grad_op("fuzzy", check.FUZZY),
    _grad_op("grad_dynamic", check.PROB, "dynamic"),
    _grad_op("fuzzy_dynamic", check.FUZZY, "dynamic"),
    Op(
        name="em",
        prepare=lambda run, params: params,
        call=lambda c, params: learning.em_conditionals(c, params),
        check=lambda run, params, _, res: check.em_identity(res, run.scope),
    ),
    Op(
        name="entropy",
        prepare=lambda run, params: params,
        call=lambda c, params: learning.conditional_entropy(c, params),
        check=lambda run, params, _, res: check.entropy_identity(
            params, res[0], res[1], _prob_pass(run, params)[1], run.scope),
    ),
    Op(
        name="estimate",
        prepare=lambda run, params: (
            params, SampleBatch(run.rng("estimate").getrandbits(63),
                                run.w.samples)),
        call=lambda c, arg: learning.indecater_estimate(c, *arg),
        check=lambda run, params, _, res: check.sampled_within(
            *res, *_prob_pass(run, params), run.scope, run.w.samples),
    ),
)}


class Run:
    """State of one workload run: circuit, random streams, tallies.

    Each op draws from its own stream, so the k-th call of an op gets the
    same labeling whatever the timing interleaved before it.
    """

    def __init__(self, workload: Workload, seed: int, trace: bool, log):
        self.w = workload
        self.trace = trace
        self.log = log
        self.seed = seed
        self.streams = {}
        self.attempted = 0
        self.failed = 0
        self.calls = defaultdict(int)
        self.circuit = None
        self.scope = None
        self.setup_tracer = Tracer()
        self.loop_tracer = Tracer()

    def rng(self, stream: str) -> random.Random:
        if stream not in self.streams:
            self.streams[stream] = random.Random(f"{self.seed}:{stream}")
        return self.streams[stream]

    def params(self, stream: str, num_vars=None) -> BernoulliParams:
        n = self.w.num_vars if num_vars is None else num_vars
        rng = self.rng(stream)
        return BernoulliParams([rng.uniform(0.05, 0.95) for _ in range(n)])

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(f"MISS {what}")

    def attempt(self, op: Op, tracer=None):
        """Time one call on a fresh labeling; None if it raised or missed."""
        what = f"{op.name} call {self.calls[op.name]} (seed {self.seed})"
        self.calls[op.name] += 1
        params = self.params(op.name)
        arg = op.prepare(self, params)
        ctx = tracer.patched() if tracer else contextlib.nullcontext()
        try:
            with ctx:
                t0 = time.perf_counter()
                res = op.call(self.circuit, arg)
                dt = time.perf_counter() - t0
            ok = op.check(self, params, arg, res)
        except Exception:  # an op that raises is a failed op
            self.tally(False, f"{what} raised\n{traceback.format_exc()}")
            return None
        self.tally(ok, f"{what}: result failed its check")
        return dt if ok else None


def _median_ms(xs):
    return 1e3 * statistics.median(xs) if xs else None


def _p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else None
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, log=print):
    """Run one workload; returns (correct, attempted, failed, metrics).

    ``metrics`` maps name -> (value, unit, sample count).
    """
    run = Run(w, seed, trace, log)
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for family, size in ORACLE_MEMBERS:
            small = Workload("small", family, size, 1, (), (), "")
            path = Path(tmp) / f"small-{family}.nnf"
            small.write(path, seed)
            params = run.params(f"oracle-{family}", small.num_vars)
            misses = check.oracle_check(path, params)
            run.tally(not misses, f"oracle {family}{size}: {misses}")
        path = Path(tmp) / f"{w.name}.nnf"
        w.write(path, seed)
        file_mb = path.stat().st_size / 1e6
        setup, loop = _loop(run, path, seconds)
    if trace:
        metrics = _layer_metrics(run, setup, loop, file_mb)
        for part, tracer in (("setup", run.setup_tracer),
                             ("loop", run.loop_tracer)):
            tracer.write(workdir / f"trace-{w.name}-seed{seed}-{part}.jsonl")
    else:
        metrics = _end_to_end(run, setup, loop)
    return run.failed == 0, run.attempted, run.failed, metrics


def _setup_once(run, path, out, tracer=None):
    """Time d4 file → first gradient on fresh objects; keep the circuit."""
    run.circuit = None
    gc.collect()
    labels = run.params("setup").prob_labels()
    ctx = tracer.patched() if tracer else contextlib.nullcontext()
    with ctx:
        t0 = time.perf_counter()
        parsed = circuits.parse_d4(path)
        c = circuits.smooth(parsed)
        backprop.structural_gate(c, check.PROB)
        amc, grads = backprop.grad_amc(c, labels, check.PROB)
        dt = time.perf_counter() - t0
    out["setup_s"].append(dt)
    out["nodes_added"].append(c.node_count - parsed.node_count)
    del parsed
    gc.collect()  # the next timed call should not collect set-up's garbage
    run.circuit = c
    run.scope = check.root_scope(c)
    run.tally(check.split_identity(check.PROB, labels, amc, grads, run.scope),
              "first gradient")


def _loop(run, path, seconds):
    """The measured closed loop.

    One untimed warm-up load comes first, so the first timed one does not
    pay for code paths and heap growth that only a process's first load
    sees. The timed loads and each fixed op's calls are spread
    evenly over the run, so that every figure samples the same stretch of
    machine time. A traced run traces every other call of each op, to
    measure the tracing overhead. Returns (set-up lists, (untraced,
    traced) per-op lists of seconds).
    """
    w = run.w
    setup = defaultdict(list)
    untraced = defaultdict(list)
    traced = defaultdict(list)
    _setup_once(run, path, defaultdict(list))

    batch_rows = min(w.samples, SampleBatch(0, 1).chunk)
    need = run.circuit.node_count * batch_rows
    if need > ESTIMATE_BYTES_LIMIT:
        raise MemoryError(f"estimate would hold {need / 2**30:.1f} GiB of "
                          f"boolean rows; limit {ESTIMATE_BYTES_LIMIT >> 30} GiB")

    def call(name, traced_call):
        tracer = run.loop_tracer if traced_call else None
        dt = run.attempt(OPS[name], tracer)
        if dt is not None:
            (traced if tracer else untraced)[name].append(dt)
        if tracer and name in TRACED_EXTRA:
            call(TRACED_EXTRA[name], True)

    fixed = {"setup": SETUPS, **dict(w.fixed)}
    done = dict.fromkeys(fixed, 0)

    def catch_up(until):
        for name, n in fixed.items():
            while done[name] < min(n, until * n):
                traced_call = run.trace and done[name] % 2 == 0
                if name == "setup":
                    _setup_once(run, path, setup,
                                run.setup_tracer if run.trace else None)
                else:
                    call(name, traced_call)
                done[name] += 1

    start = time.perf_counter()
    cycle = 0
    while cycle < 1 + run.trace or time.perf_counter() < start + seconds:
        catch_up((time.perf_counter() - start) / seconds)
        for name in w.loop:
            call(name, run.trace and cycle % 2 == 0)
        cycle += 1
    catch_up(1.0)
    return setup, (untraced, traced)


def _end_to_end(run, setup, loop):
    t = loop[0]

    def p90_ms(name):
        xs = t[name]
        return (1e3 * _p90(xs) if xs else None, "ms", len(xs))

    def rate(amount, xs, unit):
        return (amount * len(xs) / math.fsum(xs) if xs else None, unit, len(xs))

    # p90, not p50: on a shared 2-vCPU host, per-call times switch between
    # a fast and a slow machine state up to 1.8x apart, so a run's median
    # depends on how long it spent in each while its p90 stays put
    return {
        "setup_s": (statistics.median(setup["setup_s"]), "s",
                    len(setup["setup_s"])),
        "grad_ms_p90": p90_ms("grad"),
        "em_ms_p90": p90_ms("em"),
        "entropy_ms_p90": p90_ms("entropy"),
        "fuzzy_ms_p90": p90_ms("fuzzy"),
        "edges_per_s": rate(run.circuit.edge_count, t["grad"], "edges/s"),
        "samples_per_s": rate(run.w.samples, t["estimate"], "samples/s"),
        "estimate_s_p90": (_p90(t["estimate"]), "s", len(t["estimate"])),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
    }


def _layer_metrics(run, setup, loop, file_mb):
    untraced, traced = loop
    c = run.circuit
    st, lt = run.setup_tracer, run.loop_tracer
    m = {
        "circuits.file_mb": (file_mb, "MB", 1),
        "circuits.nodes": (c.node_count, "count", 1),
        "circuits.edges": (c.edge_count, "count", 1),
        "circuits.vars": (c.num_vars, "count", 1),
        "circuits.max_arity": (c.max_arity, "count", 1),
        "circuits.smooth_nodes_added": (statistics.median(setup["nodes_added"]),
                                        "count", len(setup["nodes_added"])),
    }
    for key, name in (("circuits.parse_ms", "circuits.parse"),
                      ("circuits.smooth_ms", "circuits.smooth"),
                      ("backprop.gate_ms", "backprop.gate")):
        # only the benchmark's own gate calls: the ones nested in forward
        # hit the circuit's caches
        xs = [s[3] - s[2] for s in st.spans if s[0] == name and s[4] == -1]
        m[key] = (_median_ms(xs), "ms", len(xs))
    for sr in SEMIRINGS:
        xs = lt.durations("backprop.forward", sr)
        m[f"backprop.forward_ms.{sr}"] = (_median_ms(xs), "ms", len(xs))
        xs = lt.durations("backprop.backward_opt", sr)
        m[f"backprop.backward_ms.{sr}"] = (_median_ms(xs), "ms", len(xs))
    for sr in ("prob", "fuzzy"):
        xs = lt.durations("backprop.backward_dynamic", sr)
        m[f"backprop.backward_dynamic_ms.{sr}"] = (_median_ms(xs), "ms", len(xs))
    m.update(_pass_counts(run))
    for key, name in (("learning.em_self_ms", "learning.em"),
                      ("learning.entropy_self_ms", "learning.entropy")):
        total = lt.durations(name)
        inner = lt.child_time(name, "backprop.grad_amc")
        xs = [a - b for a, b in zip(total, inner)]
        m[key] = (_median_ms(xs), "ms", len(xs))
    xs = lt.durations("learning.indecater")
    m["learning.indecater_ms"] = (_median_ms(xs), "ms", len(xs))
    m["learning.indecater_peak_mb"] = (_estimate_peak_mb(run), "MB", 1)

    both = [k for k in untraced if traced[k]]
    on = sum(statistics.median(traced[k]) for k in both)
    off = sum(statistics.median(untraced[k]) for k in both)
    m["trace.overhead_pct"] = (100.0 * (on / off - 1.0), "%", len(both))
    # self time per layer, per traced call of the loop (set-up's circuits
    # layer is reported above as parse and smooth)
    per_layer = defaultdict(float)
    for s, own in zip(lt.spans, lt.self_times()):
        per_layer[s[0].split(".")[0]] += own
    calls = sum(1 for s in lt.spans if s[4] == -1)
    for layer in ("backprop", "learning"):
        m[f"trace.self_ms.{layer}"] = (1e3 * per_layer[layer] / calls, "ms",
                                       calls)
    return m


def _pass_counts(run):
    """Exact element-operation counts, stats= counters and tracemalloc peaks.

    One untimed pass per semiring on one labeling.
    """
    params = run.params("passes")
    labelings = {"prob": params.prob_labels(), "log": params.log_labels(),
                 "grad": params.entropy_labels(), "fuzzy": params.prob_labels()}
    m = {}
    for sr in SEMIRINGS:
        base = getattr(check, sr.upper())
        proxy = CountingSemiring(base)
        stats = {}
        backprop.grad_amc(run.circuit, labelings[sr], proxy, stats=stats)
        for op in ("add", "mul"):
            m[f"semirings.{op}_calls.{sr}"] = (proxy.counts[op], "count", 1)
        if sr in ("prob", "log"):
            m[f"semirings.divide_calls.{sr}"] = (proxy.counts["divide"], "count", 1)
            m[f"backprop.divisions.{sr}"] = (stats["divisions"], "count", 1)
        if sr == "fuzzy":
            m["semirings.order_calls.fuzzy"] = (proxy.counts["order"], "count", 1)
            m["backprop.ordered_hits.fuzzy"] = (stats["ordered_hits"], "count", 1)
        if sr in ("prob", "grad"):
            m[f"backprop.fallbacks.{sr}"] = (stats["fallbacks"], "count", 1)
        m["backprop.peak_aux_bytes"] = (stats["peak_aux_bytes"], "bytes", 1)
        m[f"backprop.pass_peak_mb.{sr}"] = (
            _traced_peak_mb(lambda: backprop.grad_amc(run.circuit,
                                                      labelings[sr], base)),
            "MB", 1)
    return m


def _estimate_peak_mb(run):
    params = run.params("estimate-peak")
    batch = SampleBatch(run.rng("estimate-peak").getrandbits(63),
                        run.w.samples)
    return _traced_peak_mb(
        lambda: learning.indecater_estimate(run.circuit, params, batch))


def _traced_peak_mb(fn):
    """Peak Python-heap growth during fn, measured by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6
