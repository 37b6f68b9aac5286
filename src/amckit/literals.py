"""Signed-literal conventions and the literal -> value map used everywhere.

Literals are nonzero ints in DIMACS style: ``v`` is the positive literal of
variable ``v`` and ``-v`` its negation. The canonical literal order is
``x1..xn, -x1..-xn``.
"""

from __future__ import annotations


def var_of(lit: int) -> int:
    return lit if lit > 0 else -lit


def negate(lit: int) -> int:
    return -lit


def literal_order(num_vars: int):
    """All 2n literals in canonical order."""
    return [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]


class LiteralMap:
    """Total map literal -> value for variables 1..num_vars.

    Used both for labelings (literal weights) and for gradient vectors.
    Literals of variables beyond ``num_vars`` read as the fill value, so a
    weight file covering fewer variables than a circuit mentions behaves as
    if the missing literals carried the neutral label.
    """

    __slots__ = ("num_vars", "fill", "_pos", "_neg")

    def __init__(self, num_vars: int, fill):
        self.num_vars = num_vars
        self.fill = fill
        self._pos = [fill] * num_vars
        self._neg = [fill] * num_vars

    @classmethod
    def from_order(cls, num_vars: int, fill, values) -> "LiteralMap":
        """Map from 2 * num_vars values listed in canonical literal order."""
        out = cls.__new__(cls)
        out.num_vars = num_vars
        out.fill = fill
        out._pos = list(values[:num_vars])
        out._neg = list(values[num_vars:])
        return out

    def get(self, lit: int):
        v = lit if lit > 0 else -lit
        if v > self.num_vars:
            return self.fill
        return self._pos[v - 1] if lit > 0 else self._neg[v - 1]

    def set(self, lit: int, value) -> None:
        v = lit if lit > 0 else -lit
        if v <= 0 or v > self.num_vars:
            raise IndexError(f"literal {lit} outside 1..{self.num_vars}")
        if lit > 0:
            self._pos[v - 1] = value
        else:
            self._neg[v - 1] = value

    def literals(self):
        return literal_order(self.num_vars)

    def items_in_order(self):
        for lit in literal_order(self.num_vars):
            yield lit, self.get(lit)

    def values_in_order(self):
        return [self.get(lit) for lit in literal_order(self.num_vars)]

    def copy(self) -> "LiteralMap":
        out = LiteralMap(self.num_vars, self.fill)
        out._pos = list(self._pos)
        out._neg = list(self._neg)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LiteralMap)
            and self.num_vars == other.num_vars
            and self._pos == other._pos
            and self._neg == other._neg
        )

    def __repr__(self):
        inner = ", ".join(f"{lit}: {val!r}" for lit, val in self.items_in_order())
        return f"LiteralMap({{{inner}}})"
