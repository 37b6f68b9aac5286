"""amckit benchmark: time to first gradient and gradient-pass latency.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, each in its own process
    python3 perfbench/run.py --workload d4-deep --seed 3 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes the spans to ``.perfbench_work/``). Each metric line
reads ``name = value unit (n=samples)`` and other lines start with ``#``;
the last line of a single-workload run is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every checked result was correct.
The library is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("d4-deep", "dnf-wide", "sampled")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _import_library():
    """Put the checkout's ``src/`` first on the path; refuse any other amckit."""
    src = ROOT / "src"
    if not (src / "amckit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no amckit sources under {src}")
    sys.path.insert(0, str(src))
    import amckit

    if src not in Path(amckit.__file__).resolve().parents:
        sys.exit(f"perfbench: imported amckit from {amckit.__file__}, "
                 f"not from {src}")


def _run_all(args) -> int:
    """Each workload in a fresh process, so no heap or cache carries over."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"# workload {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_library()
    from workload import WORKLOADS, run_workload

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    correct, attempted, failed, metrics = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        WORKDIR, log)
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value!r} {unit} (n={n})")
    print(f"# error rate {failed / attempted!r}: failed {failed} of "
          f"{attempted} attempted")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
