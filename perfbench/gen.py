"""Deterministic d4 NNF generators for the benchmark corpus.

Every generator writes d4 text directly (``o|a|t <id> 0`` node lines, then
``<parent> <child> [<lit> ...] 0`` arc lines), so the library under test
only ever sees a file on disk, as it would see d4 output. The same seed
gives byte-identical files.
"""

from __future__ import annotations

import random

# share of else-branches drawn from two levels down: d4 drops variables
# that are free on a branch, so its circuits are not smooth and
# ``smooth()`` has work to do
SKIP = 0.125


def layered_decision_d4(path, width: int, depth: int, seed: int) -> None:
    """Layered decision-DNNF: level k is ``(x ∧ a) ∨ (¬x ∧ b)``.

    Level 0 holds ``width`` literals of variable 1; level k (1..depth) tests
    variable k+1 and picks ``a`` and ``b`` at random from level k-1, so
    nodes are shared as in d4 output. With probability ``SKIP`` a ``b``
    comes from level k-2 instead.
    The top level is the single root, which gives depth+1 variables.
    """
    rng = random.Random(seed)
    node_lines = []
    arc_lines = []

    def declare(letter):
        node_lines.append(f"{letter} {len(node_lines) + 1} 0")
        return len(node_lines)

    root = declare("o")
    true = declare("t")
    levels = [[] for _ in range(depth + 1)]
    for _ in range(width):
        nid = declare("a")
        arc_lines.append(f"{nid} {true} {rng.choice((1, -1))} 0")
        levels[0].append(nid)
    for k in range(1, depth + 1):
        var = k + 1
        prev = levels[k - 1]
        for i in range(1 if k == depth else width):
            nid = root if k == depth else declare("o")
            a = prev[rng.randrange(len(prev))]
            src = levels[k - 2] if k >= 2 and rng.random() < SKIP else prev
            b = src[rng.randrange(len(src))]
            arc_lines.append(f"{nid} {a} {var} 0")
            arc_lines.append(f"{nid} {b} {-var} 0")
            levels[k].append(nid)
    _write(path, node_lines, arc_lines)


def wide_dnf_d4(path, models: int, num_vars: int, seed: int) -> None:
    """DNF of distinct random total models: one and-node of arity num_vars each.

    The layout is what ``models_to_circuit`` followed by ``write_d4`` gives:
    an or-node over and-nodes whose single arc to true carries the model's
    literals.
    """
    rng = random.Random(seed)
    seen = set()
    cubes = []
    while len(cubes) < models:
        bits = rng.getrandbits(num_vars)
        if bits in seen:
            continue
        seen.add(bits)
        cubes.append(bits)
    node_lines = ["o 1 0"]
    arc_lines = []
    true = models + 2
    for j, bits in enumerate(cubes, start=2):
        node_lines.append(f"a {j} 0")
        lits = " ".join(str(v if (bits >> (v - 1)) & 1 else -v)
                        for v in range(1, num_vars + 1))
        arc_lines.append(f"1 {j} 0")
        arc_lines.append(f"{j} {true} {lits} 0")
    node_lines.append(f"t {true} 0")
    _write(path, node_lines, arc_lines)


def _write(path, node_lines, arc_lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(node_lines + arc_lines) + "\n")
