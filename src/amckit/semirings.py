"""Commutative semirings used to evaluate model counts and their gradients.

Every semiring is an immutable object exposing ``zero``/``one`` identities,
``add``/``mul``, and two optional capabilities the optimized backward pass
exploits:

* ``try_divide(a, c)`` returns ``b`` with ``a = c * b`` when ``c`` is
  multiplicatively cancellative against ``a``, else ``None``.
* ``is_ordered_mul(a, b)`` reports ``"left"`` when ``a * b == a``,
  ``"right"`` when ``a * b == b``, ``None`` otherwise.

A semiring whose elements fit numpy arrays also declares ``array_ops``, the
same arithmetic on arrays; ``forward`` and the ``opt`` backward then run on
the layered array engine (see ``layers``).

Instances hold no mutable state and can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedOperationError
from .layers import DualOps, UfuncOps

LEFT = "left"
RIGHT = "right"

NEG_INF = float("-inf")


def logaddexp(a: float, b: float) -> float:
    """Stable log(exp(a) + exp(b)); -inf is the identity, NaN propagates."""
    if a != a or b != b:  # NaN
        return float("nan")
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi = a if a >= b else b
    lo = b if a >= b else a
    return hi + math.log1p(math.exp(lo - hi))


@dataclass(frozen=True)
class DualValue:
    """Dual number (primal, tangent) with the product rule baked in."""

    primal: float
    tangent: float

    def __add__(self, other: "DualValue") -> "DualValue":
        return DualValue(self.primal + other.primal, self.tangent + other.tangent)

    def __mul__(self, other: "DualValue") -> "DualValue":
        return DualValue(
            self.primal * other.primal,
            self.primal * other.tangent + other.primal * self.tangent,
        )


class Polynomial:
    """Sparse multivariate polynomial over the reals.

    Terms map a canonical exponent vector -- a sorted tuple of
    ``(variable, power)`` pairs with positive powers -- to a nonzero float
    coefficient, so equal polynomials compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff != 0.0:
                    cleaned[tuple(sorted(expo))] = coeff
        self.terms = cleaned

    @classmethod
    def constant(cls, c: float) -> "Polynomial":
        return cls({(): float(c)})

    @classmethod
    def indeterminate(cls, var: int) -> "Polynomial":
        return cls({((var, 1),): 1.0})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, 0.0) + coeff
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                powers = {}
                for v, p in e1:
                    powers[v] = powers.get(v, 0) + p
                for v, p in e2:
                    powers[v] = powers.get(v, 0) + p
                expo = tuple(sorted(powers.items()))
                out[expo] = out.get(expo, 0.0) + c1 * c2
        return Polynomial(out)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def coefficient(self, expo) -> float:
        return self.terms.get(tuple(sorted(expo)), 0.0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(p for _, p in e), e)):
            coeff = self.terms[expo]
            monos = "".join(
                f"*X{v}" + (f"^{p}" if p > 1 else "") for v, p in expo
            )
            parts.append(f"{coeff!r}{monos}")
        return " + ".join(parts)


class Semiring:
    """Behavioral contract of a commutative semiring instance."""

    name = "abstract"
    additively_idempotent = False
    supports_division = False
    fully_ordered_mul = False
    supports_negation = False
    zero = None
    one = None
    array_ops = None

    @property
    def needs_determinism(self) -> bool:
        return not self.additively_idempotent

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def try_divide(self, a, c):
        """b with a = c*b when c is cancellative against a, else None."""
        return None

    def is_ordered_mul(self, a, b):
        m = self.mul(a, b)
        if m == a:
            return LEFT
        if m == b:
            return RIGHT
        return None

    def negate(self, a):
        raise UnsupportedOperationError(
            f"semiring '{self.name}' has no additive inverses"
        )

    def default_label(self, lit: int):
        """Label used when no weight was given for a literal."""
        return self.one

    # weight-file encoding -------------------------------------------------

    def encode_prob(self, p: float):
        """(alpha(v), alpha(-v)) for a Bernoulli probability p."""
        raise UnsupportedOperationError(
            f"semiring '{self.name}' does not accept probability weights"
        )

    def parse_value(self, token: str):
        """Value of an explicit per-literal weight token."""
        raise UnsupportedOperationError(
            f"semiring '{self.name}' does not accept explicit literal weights"
        )

    def format_value(self, v) -> str:
        return repr(v)

    def __repr__(self):
        return f"<semiring {self.name}>"


def _check_unit(p: float, what: str):
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"{what} {p!r} outside [0, 1]")
    return p


class BoolSemiring(Semiring):
    name = "bool"
    additively_idempotent = True
    supports_division = True
    fully_ordered_mul = True
    zero = False
    one = True
    # True is the only cancellative element, and a / True = a and True
    array_ops = UfuncOps(np.bool_, np.logical_or, np.logical_and, zero, one,
                         divide=np.logical_and)

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def try_divide(self, a, c):
        return a if c else None

    def encode_prob(self, p):
        _check_unit(p, "bool weight")
        if p not in (0.0, 1.0):
            raise ValueError(f"bool weight must be 0 or 1, got {p!r}")
        return p == 1.0, p == 0.0

    def parse_value(self, token):
        t = token.strip().lower()
        if t in ("t", "true", "1"):
            return True
        if t in ("f", "false", "0"):
            return False
        raise ValueError(f"bad bool weight {token!r}")

    def format_value(self, v):
        return "T" if v else "F"


class NatSemiring(Semiring):
    name = "nat"
    supports_division = True
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def try_divide(self, a, c):
        if c == 0 or a % c != 0:
            return None
        return a // c

    def encode_prob(self, p):
        if p == 1.0:
            return 1, 0
        if p == 0.0:
            return 0, 1
        raise ValueError(f"nat weight must be 0 or 1, got {p!r}")

    def parse_value(self, token):
        n = int(token)
        if n < 0:
            raise ValueError(f"nat weight must be non-negative, got {n}")
        return n

    def format_value(self, v):
        return str(v)


class ProbSemiring(Semiring):
    name = "prob"
    supports_division = True
    supports_negation = True  # signed escape used only for variable gradients
    zero = 0.0
    one = 1.0
    array_ops = UfuncOps(np.float64, np.add, np.multiply, zero, one,
                         divide=np.divide)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def try_divide(self, a, c):
        return None if c == 0.0 else a / c

    def negate(self, a):
        return -a

    def encode_prob(self, p):
        _check_unit(p, "probability")
        return p, 1.0 - p

    def parse_value(self, token):
        w = float(token)
        if w < 0.0:
            raise ValueError(f"prob weight must be non-negative, got {w!r}")
        return w


class LogSemiring(Semiring):
    """Log-domain weights: add = logaddexp, mul = +, zero = -inf, one = 0."""

    name = "log"
    supports_division = True
    zero = NEG_INF
    one = 0.0
    array_ops = UfuncOps(np.float64, np.logaddexp, np.add, zero, one,
                         divide=np.subtract)

    def add(self, a, b):
        return logaddexp(a, b)

    def mul(self, a, b):
        return a + b

    def try_divide(self, a, c):
        return None if c == NEG_INF else a - c

    def encode_prob(self, p):
        _check_unit(p, "probability")
        return (math.log(p) if p > 0.0 else NEG_INF,
                math.log1p(-p) if p < 1.0 else NEG_INF)

    def parse_value(self, token):
        # weight files carry probabilities; the log happens here
        w = float(token)
        if w < 0.0:
            raise ValueError(f"log-semiring weight must be non-negative, got {w!r}")
        return math.log(w) if w > 0.0 else NEG_INF

    def format_value(self, v):
        return f"log:{v!r}"


class ViterbiSemiring(Semiring):
    name = "viterbi"
    additively_idempotent = True
    supports_division = True
    zero = 0.0
    one = 1.0
    array_ops = UfuncOps(np.float64, np.maximum, np.multiply, zero, one,
                         divide=np.divide)

    def add(self, a, b):
        return a if a >= b else b

    def mul(self, a, b):
        return a * b

    def try_divide(self, a, c):
        return None if c == 0.0 else a / c

    def encode_prob(self, p):
        _check_unit(p, "probability")
        return p, 1.0 - p

    def parse_value(self, token):
        w = float(token)
        if w < 0.0:
            raise ValueError(f"viterbi weight must be non-negative, got {w!r}")
        return w


class TropicalSemiring(Semiring):
    """Log-space companion of viterbi: add = max, mul = +."""

    name = "tropical"
    additively_idempotent = True
    supports_division = True
    zero = NEG_INF
    one = 0.0
    array_ops = UfuncOps(np.float64, np.maximum, np.add, zero, one,
                         divide=np.subtract)

    def add(self, a, b):
        return a if a >= b else b

    def mul(self, a, b):
        return a + b

    def try_divide(self, a, c):
        return None if c == NEG_INF else a - c

    def encode_prob(self, p):
        _check_unit(p, "probability")
        return (math.log(p) if p > 0.0 else NEG_INF,
                math.log1p(-p) if p < 1.0 else NEG_INF)

    def parse_value(self, token):
        w = float(token)
        if w < 0.0:
            raise ValueError(f"tropical weight must be non-negative, got {w!r}")
        return math.log(w) if w > 0.0 else NEG_INF

    def format_value(self, v):
        return f"log:{v!r}"


class FuzzySemiring(Semiring):
    name = "fuzzy"
    additively_idempotent = True
    fully_ordered_mul = True
    zero = 0.0
    one = 1.0
    array_ops = UfuncOps(np.float64, np.maximum, np.minimum, zero, one)

    def add(self, a, b):
        return a if a >= b else b

    def mul(self, a, b):
        return a if a <= b else b

    def encode_prob(self, p):
        _check_unit(p, "fuzzy weight")
        return p, 1.0 - p

    def parse_value(self, token):
        w = float(token)
        _check_unit(w, "fuzzy weight")
        return w


class GradSemiring(Semiring):
    """Dual numbers (primal, tangent); one backward pass yields derivatives."""

    name = "grad"
    supports_negation = True
    zero = DualValue(0.0, 0.0)
    one = DualValue(1.0, 0.0)
    array_ops = DualOps(DualValue)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def negate(self, a):
        return DualValue(-a.primal, -a.tangent)

    def encode_prob(self, p):
        _check_unit(p, "probability")
        return DualValue(p, 0.0), DualValue(1.0 - p, 0.0)

    def parse_value(self, token):
        if ":" in token:
            p, t = token.split(":", 1)
            return DualValue(float(p), float(t))
        return DualValue(float(token), 0.0)

    def format_value(self, v):
        return f"({v.primal!r}, {v.tangent!r})"


class GF2Semiring(Semiring):
    """The two-element field: add = XOR, mul = AND on bits 0/1."""

    name = "gf2"
    supports_division = True
    fully_ordered_mul = True
    supports_negation = True
    zero = 0
    one = 1
    # 1 is the only cancellative element, and a / 1 = a & 1
    array_ops = UfuncOps(np.int64, np.bitwise_xor, np.bitwise_and, zero, one,
                         divide=np.bitwise_and)

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        return a & b

    def try_divide(self, a, c):
        return a if c == 1 else None

    def negate(self, a):
        return a  # -a = a in characteristic 2

    def encode_prob(self, p):
        if p == 1.0:
            return 1, 0
        if p == 0.0:
            return 0, 1
        raise ValueError(f"gf2 weight must be 0 or 1, got {p!r}")

    def parse_value(self, token):
        b = int(token)
        if b not in (0, 1):
            raise ValueError(f"gf2 weight must be 0 or 1, got {token!r}")
        return b

    def format_value(self, v):
        return str(v)


class SensSemiring(Semiring):
    """Polynomial weights for sensitivity analysis.

    The default labeling maps the positive literal of variable v to the
    indeterminate X_v and the negative literal to 1 - X_v, so the model
    count becomes the multilinear weight polynomial.
    """

    name = "sens"
    zero = Polynomial()
    one = Polynomial.constant(1.0)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def default_label(self, lit: int):
        if lit > 0:
            return Polynomial.indeterminate(lit)
        return Polynomial.constant(1.0) + Polynomial({((-lit, 1),): -1.0})

    def encode_prob(self, p):
        _check_unit(p, "probability")
        return Polynomial.constant(p), Polynomial.constant(1.0 - p)

    def parse_value(self, token):
        t = token.strip()
        if t.startswith("X"):
            return Polynomial.indeterminate(int(t[1:]))
        if t.startswith("1-X"):
            v = int(t[3:])
            return Polynomial.constant(1.0) + Polynomial({((v, 1),): -1.0})
        return Polynomial.constant(float(t))


_REGISTRY = {
    s.name: s
    for s in (
        BoolSemiring(),
        NatSemiring(),
        ProbSemiring(),
        LogSemiring(),
        ViterbiSemiring(),
        TropicalSemiring(),
        FuzzySemiring(),
        GradSemiring(),
        GF2Semiring(),
        SensSemiring(),
    )
}

SEMIRING_NAMES = tuple(sorted(_REGISTRY))


def make_semiring(name: str) -> Semiring:
    """Look up one of the built-in semiring instances by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(SEMIRING_NAMES)
        raise ConfigError(f"unknown semiring {name!r}; valid names: {valid}") from None
