"""Propositional formulas and the brute-force model-space oracle.

The oracle evaluates the defining sum-over-models / product-over-literals
fold directly, with no circuit machinery, so that it stays an independent
ground truth for the circuit engine. Everything here is a pure function and
safe under parallel test execution; enumeration is capped at 24 variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ScaleError
from .literals import LiteralMap, var_of

ORACLE_VAR_LIMIT = 24


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Lit:
    lit: int


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Top | Bottom | Lit | Not | And | Or


def formula_variables(phi) -> set[int]:
    t = type(phi)
    if t is Lit:
        return {var_of(phi.lit)}
    if t is Not:
        return formula_variables(phi.child)
    if t is And or t is Or:
        return formula_variables(phi.left) | formula_variables(phi.right)
    return set()


def evaluate(phi, mask: int) -> bool:
    """Truth of phi under the assignment mask (bit v-1 = variable v)."""
    t = type(phi)
    if t is Lit:
        lit = phi.lit
        bit = (mask >> (var_of(lit) - 1)) & 1
        return bool(bit) if lit > 0 else not bit
    if t is And:
        return evaluate(phi.left, mask) and evaluate(phi.right, mask)
    if t is Or:
        return evaluate(phi.left, mask) or evaluate(phi.right, mask)
    if t is Not:
        return not evaluate(phi.child, mask)
    return t is Top


def condition(phi, lit: int):
    """Substitute the literal with true and its negation with false.

    Pure substitution on literal leaves; no simplification is performed.
    """
    t = type(phi)
    if t is Lit:
        if phi.lit == lit:
            return Top()
        if phi.lit == -lit:
            return Bottom()
        return phi
    if t is Not:
        return Not(condition(phi.child, lit))
    if t is And:
        return And(condition(phi.left, lit), condition(phi.right, lit))
    if t is Or:
        return Or(condition(phi.left, lit), condition(phi.right, lit))
    return phi


def _check_budget(variables):
    if len(variables) > ORACLE_VAR_LIMIT:
        raise ScaleError(
            f"oracle limited to {ORACLE_VAR_LIMIT} variables, got {len(variables)}"
        )


def _mask_iter(variables):
    """Assignment masks over the given variables in lexicographic order.

    Lexicographic over the sorted variable tuple with false < true.
    """
    vs = sorted(variables)
    n = len(vs)
    shifts = [v - 1 for v in vs]
    for counter in range(1 << n):
        mask = 0
        for i in range(n):
            if (counter >> (n - 1 - i)) & 1:
                mask |= 1 << shifts[i]
        yield mask


def enumerate_models(phi, variables=None):
    """All satisfying total assignments as literal sets, lexicographic."""
    if variables is None:
        variables = formula_variables(phi)
    _check_budget(variables)
    vs = sorted(variables)
    out = []
    for mask in _mask_iter(vs):
        if evaluate(phi, mask):
            out.append(
                frozenset(v if (mask >> (v - 1)) & 1 else -v for v in vs)
            )
    return out


def _sum_models(models, vs, labels: LiteralMap, semiring):
    """Sum over model masks of the product of their literal labels over vs."""
    add, mul = semiring.add, semiring.mul
    total = semiring.zero
    for mask in models:
        term = semiring.one
        for v in vs:
            term = mul(term, labels.get(v if (mask >> (v - 1)) & 1 else -v))
        total = add(total, term)
    return total


def oracle_amc(phi, labels: LiteralMap, semiring, variables=None):
    """Sum over models of the product of member-literal labels."""
    if variables is None:
        variables = formula_variables(phi)
    _check_budget(variables)
    vs = sorted(variables)
    models = (mask for mask in _mask_iter(vs) if evaluate(phi, mask))
    return _sum_models(models, vs, labels, semiring)


def _conditioned_count(sat, vs, fixed, labels, semiring):
    """Count of phi with the variables in ``fixed`` set, over the rest of vs.

    ``sat`` holds phi's truth per assignment, indexed by its ``_mask_iter``
    position over vs; ``fixed`` maps variables of vs to their values. Sums
    in ``oracle_amc``'s order over the remaining variables.
    """
    n = len(vs)
    rest = [v for v in vs if v not in fixed]
    index = range(1 << len(rest))
    # insert the position bit of each fixed variable, lowest first, so the
    # rest's higher bits move up one at a time
    for bit, val in sorted((1 << (n - 1 - vs.index(v)), val)
                           for v, val in fixed.items()):
        low, value = bit - 1, bit if val else 0
        index = [((c & ~low) << 1) | value | (c & low) for c in index]
    models = (mask for mask, j in zip(_mask_iter(rest), index) if sat[j])
    return _sum_models(models, rest, labels, semiring)


def _truth_table(phi, vs):
    """Truth of phi per assignment over vs, indexed by its _mask_iter position."""
    return bytearray(evaluate(phi, mask) for mask in _mask_iter(vs))


def oracle_grad(phi, labels: LiteralMap, semiring, variables=None) -> LiteralMap:
    """Model count of phi conditioned on each literal.

    The conditioned count for literal l enumerates over the remaining
    variables only, matching the convention that conditioning removes the
    variable from scope. Literals of variables the formula never mentions
    get the additive identity. Conditioning on l is evaluating phi with l
    true, so phi is evaluated once per total assignment and each
    conditioned count reads those truths, summed in ``oracle_amc``'s order.
    """
    if variables is None:
        variables = formula_variables(phi)
    _check_budget(variables)
    vs = sorted(variables)
    sat = _truth_table(phi, vs)
    out = LiteralMap(max(vs, default=0), semiring.zero)
    for v in vs:
        for lit in (v, -v):
            out.set(lit, _conditioned_count(sat, vs, {v: lit > 0}, labels,
                                            semiring))
    return out


def oracle_hessian(phi, labels: LiteralMap, semiring, variables=None,
                   positive_only=False):
    """Matrix of doubly conditioned model counts.

    Entry (i, j) conditions on literal i then literal j and enumerates over
    the remaining variables. Conditioning twice on the same literal is
    idempotent, so diagonal entries equal the corresponding gradient
    entries; conditioning on both polarities of one variable yields the
    additive identity. Like ``oracle_grad``, phi is evaluated once per
    total assignment.
    """
    if variables is None:
        variables = formula_variables(phi)
    _check_budget(variables)
    vs = sorted(variables)
    fvars = set(vs)
    num_vars = max(fvars, default=0)
    if positive_only:
        lits = list(range(1, num_vars + 1))
    else:
        lits = list(range(1, num_vars + 1)) + [-v for v in range(1, num_vars + 1)]
    sat = _truth_table(phi, vs)
    zero = semiring.zero
    rows = []
    for li in lits:
        vi = var_of(li)
        row = []
        for lj in lits:
            vj = var_of(lj)
            if vi not in fvars or vj not in fvars or (vi == vj and li != lj):
                row.append(zero)
            else:
                fixed = {vi: li > 0, vj: lj > 0}
                row.append(_conditioned_count(sat, vs, fixed, labels, semiring))
        rows.append(row)
    return rows


def _balanced(op, parts):
    """op folded over parts as a balanced tree, so its depth is logarithmic."""
    while len(parts) > 1:
        paired = [op(parts[j], parts[j + 1]) for j in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            paired.append(parts[-1])
        parts = paired
    return parts[0]


# what a text-mode read with errors="surrogateescape" makes of a byte that
# is not UTF-8: U+DC80 to U+DCFF
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _text_lines(path):
    """``(line number, line)`` of a UTF-8 text file, as text-mode ``open``
    splits it; a line holding bytes that are not UTF-8 raises ``ParseError``."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            bad = _NOT_UTF8.search(line)
            if bad:
                raise ParseError(path, lineno, "not UTF-8 text (byte "
                                 f"0x{ord(bad.group()) - 0xDC00:02x})")
            yield lineno, line


def read_dimacs(path):
    """Read a DIMACS CNF file; returns (formula, header variable count)."""
    num_vars = None
    num_clauses = None
    clauses = []
    for lineno, raw in _text_lines(path):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "cnf"
                    or not (parts[2].isdecimal() and parts[3].isdecimal())):
                raise ParseError(path, lineno, "bad DIMACS header")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ParseError(path, lineno, "clause before header")
        try:
            ints = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError(path, lineno, "non-integer token") from None
        if not ints or ints[-1] != 0:
            raise ParseError(path, lineno, "clause not terminated by 0")
        lits = ints[:-1]
        if any(l == 0 or var_of(l) > num_vars for l in lits):
            raise ParseError(path, lineno, "literal out of range")
        clauses.append(lits)
    if num_vars is None:
        raise ParseError(path, 1, "missing DIMACS header")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise ParseError(path, 1,
                         f"header declares {num_clauses} clauses, found {len(clauses)}")
    clauses = [_balanced(Or, [Lit(l) for l in lits]) if lits else Bottom()
               for lits in clauses]
    return (_balanced(And, clauses) if clauses else Top()), num_vars
