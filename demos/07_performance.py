"""Why the cumulative-product backward pass matters.

On a product with k children, recomputing each child's sibling product
costs k^2 multiplications; two cumulative products cost 2k. The gap turns
a quadratic pass into a linear one, visible already at modest arities.

The four variants run on two engines: `naive` and `dynamic` on the Python
sweep, `cancel` and `opt` on the layered arrays. A ratio between variants
compares strategies only within one engine.
"""

import time

from amckit import (LiteralMap, backward_cancel, backward_dynamic,
                    backward_naive, backward_optimized, forward,
                    loglog_slope, make_semiring, star_circuit)

prob = make_semiring("prob")

print(f"{'arity':>6} | {'naive ms':>9} | {'dynamic ms':>10} | "
      f"{'cancel ms':>9} | {'opt ms':>7} | naive/dynamic | cancel/opt")
sizes = [64, 128, 256, 512, 1024, 2048]
naive_ms, dyn_ms = [], []
for k in sizes:
    circuit = star_circuit(k)
    labels = LiteralMap(k, 1.0)
    tape = forward(circuit, labels, prob)

    def best(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            fn(circuit, tape, prob)
            times.append((time.perf_counter_ns() - t0) / 1e6)
        return min(times)

    n = best(backward_naive, reps=1 if k > 1024 else 3)
    d = best(backward_dynamic)
    c = best(backward_cancel)
    o = best(backward_optimized)
    naive_ms.append(n)
    dyn_ms.append(d)
    print(f"{k:>6} | {n:>9.3f} | {d:>10.3f} | {c:>9.3f} | {o:>7.3f} | "
          f"{n / d:>12.1f}x | {c / o:>9.2f}x")

print(f"\nlog-log slope naive:   {loglog_slope(sizes, naive_ms):.2f}  (quadratic)")
print(f"log-log slope dynamic: {loglog_slope(sizes, dyn_ms):.2f}  (linear)")

print("""
naive/dynamic is Theorem 2 on one engine, the Python sweep: recomputation
against prefix/suffix products. cancel/opt compares the two dividing
variants on the arrays; here every weight is nonzero, so every child
cancels, both passes only divide, and the ratio stays near 1. The two
differ where a child does not cancel: cancel recomputes its sibling
product, and opt takes prefix/suffix products (or a top-2 scan where
multiplication is fully ordered). The `amckit bench` subcommand emits the
same measurements as CSV.
""")
