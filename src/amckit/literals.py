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

    Used both for labelings (literal weights) and for gradient vectors. The
    values are one list in canonical literal order, the order the array
    engine reads labels in and writes gradients out. Literals of variables
    beyond ``num_vars`` read as the fill value, so a weight file covering
    fewer variables than a circuit mentions behaves as if the missing
    literals carried the neutral label; literal 0 is no literal, and reading
    or writing it raises ``IndexError``.
    """

    __slots__ = ("num_vars", "fill", "_values")

    def __init__(self, num_vars: int, fill):
        self.num_vars = num_vars
        self.fill = fill
        self._values = [fill] * (2 * num_vars)

    @classmethod
    def from_order(cls, num_vars: int, fill, values) -> "LiteralMap":
        """Map from 2 * num_vars values listed in canonical literal order."""
        out = cls.__new__(cls)
        out.num_vars = num_vars
        out.fill = fill
        out._values = list(values)
        return out

    def _slot(self, lit: int) -> int:
        if lit == 0:
            raise IndexError(f"literal 0 outside 1..{self.num_vars}")
        return lit - 1 if lit > 0 else self.num_vars - lit - 1

    def get(self, lit: int):
        if (lit if lit > 0 else -lit) > self.num_vars:
            return self.fill
        return self._values[self._slot(lit)]

    def set(self, lit: int, value) -> None:
        if (lit if lit > 0 else -lit) > self.num_vars:
            raise IndexError(f"literal {lit} outside 1..{self.num_vars}")
        self._values[self._slot(lit)] = value

    def literals(self):
        return literal_order(self.num_vars)

    def items_in_order(self):
        return zip(literal_order(self.num_vars), self._values)

    def values_in_order(self, num_vars=None):
        """The values of the literals of variables 1..num_vars (default: the
        map's) in canonical order, the fill value beyond the map's."""
        n = self.num_vars
        num_vars = n if num_vars is None else num_vars
        k, pad = min(n, num_vars), [self.fill] * max(0, num_vars - n)
        return self._values[:k] + pad + self._values[n:n + k] + pad

    def copy(self) -> "LiteralMap":
        return LiteralMap.from_order(self.num_vars, self.fill, self._values)

    def __eq__(self, other):
        return (
            isinstance(other, LiteralMap)
            and self.num_vars == other.num_vars
            and self._values == other._values
        )

    def __repr__(self):
        inner = ", ".join(f"{lit}: {val!r}" for lit, val in self.items_in_order())
        return f"LiteralMap({{{inner}}})"


def _from_pairs(fill, pairs) -> LiteralMap:
    """The map giving ``x_v`` and ``-x_v`` the ``(positive, negative)`` pair
    ``pairs[v - 1]``."""
    return LiteralMap.from_order(len(pairs), fill, [pos for pos, _ in pairs]
                                 + [neg for _, neg in pairs])
