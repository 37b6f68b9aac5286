"""Collect perfbench results for a parent and a change commit into BENCH_<pr>.json.

Each commit is exported with ``git archive`` into its own temporary
directory, and every run there is ``python3 perfbench/run.py --workload <w>
--seed <s>``. For each workload and seed the two commits run as a pair,
alternating which one goes first; a seed listed twice (``d4-deep:2,2``) makes
two pairs. The file keeps both commit ids, the final
JSON line of every run, and per workload and end-to-end metric (directions
and bounds from ``BENCHMARK.json``) each side's median and quartiles, the
number of pairs the change won, and a verdict (``_summary``). It is
rewritten after every run, so an interrupted collection keeps what it
measured.

    python3 scripts/bench_json.py --parent HEAD~1 --change HEAD --pr 6 \\
        --runs d4-deep:101-110 dnf-wide:101-105 sampled:101-105

Uncommitted work can be measured as ``--change $(git stash create)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(commit: str, into: Path) -> None:
    into.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _seeds(spec: str):
    """``101-105`` or ``1,4,9``."""
    if "-" in spec:
        lo, hi = map(int, spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in spec.split(",")]


def _run(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:]}


def _relative(x, base):
    return x / abs(base) if base else (0.0 if x == 0 else float("inf"))


def _summary(runs, specs):
    """Per workload and metric of ``specs`` (name -> its ``better`` and
    ``bound``), each side's quartiles over the complete pairs and:

    - ``shift``: the change's median against the parent's, as a share of
      the parent's; positive is worse.
    - ``parent_spread``, ``change_spread``: each side's quartile distance
      over its median.
    - ``verdict``: ``worse`` when the shift exceeds the bound, else
      ``unresolved`` when a spread does, unless every change run beats
      every parent run, else ``ok``.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        # the k-th parent and the k-th change run of a seed are a pair
        pairs, seen = {}, Counter()
        for r in runs:
            if r["workload"] != workload:
                continue
            pair = (r["seed"], seen[r["seed"], r["side"]])
            seen[r["seed"], r["side"]] += 1
            if r["result"]:
                pairs.setdefault(pair, {})[r["side"]] = r["result"]["metrics"]
        metrics = {}
        for name, spec in specs.items():
            values = [(p["parent"][name]["value"], p["change"][name]["value"])
                      for p in pairs.values() if len(p) == 2]
            values = [v for v in values if None not in v]
            if len(values) < 2:
                continue
            sign = 1 if spec["better"] == "lower" else -1
            m = metrics[name] = {
                side: dict(zip(("q1", "median", "q3"), statistics.quantiles(
                    column, n=4, method="inclusive")))
                for side, column in zip(("parent", "change"), zip(*values))}
            parent, change = m["parent"], m["change"]
            m.update(better=spec["better"], pairs=len(values),
                     change_wins=sum(sign * (c - p) < 0 for p, c in values),
                     bound=spec["bound"],
                     shift=_relative(sign * (change["median"]
                                             - parent["median"]),
                                     parent["median"]),
                     **{f"{side}_spread": _relative(q["q3"] - q["q1"],
                                                    q["median"])
                        for side, q in (("parent", parent),
                                        ("change", change))})
            apart = (max(sign * c for _, c in values)
                     < min(sign * p for p, _ in values))
            m["verdict"] = (
                "worse" if m["shift"] > m["bound"] else
                "unresolved" if (max(m["parent_spread"], m["change_spread"])
                                 > m["bound"] and not apart) else "ok")
        out[workload] = metrics
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", required=True, help="changed commit")
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--runs", nargs="+", required=True,
                    metavar="WORKLOAD:SEEDS",
                    help="e.g. d4-deep:101-110 or sampled:3,5")
    args = ap.parse_args(argv)
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in (("parent", args.parent),
                                 ("change", args.change))}
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    out_path = ROOT / f"BENCH_{args.pr}.json"
    doc = {"pr": args.pr, **commits,
           "command": "python3 perfbench/run.py --workload <w> --seed <s>",
           "runs": [], "summary": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            _export(commit, trees[side])
        pair = 0
        for spec in args.runs:
            workload, seeds = spec.split(":")
            for seed in _seeds(seeds):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    print(f"# {workload} seed {seed} {side}", file=sys.stderr,
                          flush=True)
                    doc["runs"].append({"workload": workload, "seed": seed,
                                        "side": side, "first": side == order[0],
                                        **_run(trees[side], workload, seed)})
                    doc["summary"] = _summary(doc["runs"], specs)
                    out_path.write_text(json.dumps(doc, indent=1) + "\n",
                                        encoding="utf-8")
                pair += 1
    for workload, metrics in doc["summary"].items():
        for name, m in metrics.items():
            print(f"# {workload} {name}: {m['verdict']}, shift "
                  f"{m['shift']:+.1%}, spreads {m['parent_spread']:.1%} / "
                  f"{m['change_spread']:.1%}, bound {m['bound']:.0%}",
                  file=sys.stderr)
    return 0 if all(r["exit"] == 0 for r in doc["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
