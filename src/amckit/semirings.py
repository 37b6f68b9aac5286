"""Commutative semirings used to evaluate model counts and their gradients.

A semiring is one ``Semiring`` record: a name, the ``zero``/``one``
identities, scalar ``add``/``mul``, its weight-file encoding, and two
optional capabilities the optimized backward pass exploits:

* ``try_divide(a, c)`` returns ``b`` with ``a = c * b`` when ``c`` is
  multiplicatively cancellative against ``a``, else ``None``. A record
  given a ``divide`` cancels every element but ``zero``.
* ``fully_ordered_mul``: every product is one of its factors.
  ``is_ordered_mul(a, b)`` tests it on one pair (``"left"`` when ``a * b ==
  a``, ``"right"`` when ``a * b == b``); the backward pass does not call it.

``forward`` and the ``opt`` backward run every semiring on the layered
array engine (see ``layers``): in ``array_ops``, a faster native-dtype
layout, where the semiring declares it, and on object arrays of its scalar
functions otherwise. The ten built-ins are records over the named
functions at the end of this module.

Instances hold no mutable state and can be shared freely between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

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
    """A commutative semiring: identities, operations and weight encodings.

    ``Semiring(name, zero, one, add, mul, ...)`` declares one from scalar
    functions. ``divide(a, c)`` is ``b`` with ``a = c * b`` for every ``c``
    but ``zero``, or None where no ``b`` exists; giving it makes
    ``supports_division`` true, as ``negate`` does ``supports_negation``.
    The other functions given replace the defaults below; named functions
    and ``functools.partial`` keep an instance picklable. A subclass may
    instead set the class attributes and override the methods without
    calling ``__init__``.
    """

    name = "abstract"
    additively_idempotent = False
    supports_division = False
    fully_ordered_mul = False
    supports_negation = False
    zero = None
    one = None
    array_ops = None

    def __init__(self, name, zero, one, add, mul, *, divide=None, negate=None,
                 encode_prob=None, parse_value=None, format_value=None,
                 default_label=None, additively_idempotent=False,
                 fully_ordered_mul=False, array_ops=None):
        self.name, self.zero, self.one = name, zero, one
        self.add, self.mul = add, mul
        self.additively_idempotent = additively_idempotent
        self.fully_ordered_mul = fully_ordered_mul
        self.array_ops = array_ops
        self.supports_division = divide is not None
        self.supports_negation = negate is not None
        if divide is not None:
            self.try_divide = partial(_cancel, zero, divide)
        for attr, fn in (("negate", negate), ("encode_prob", encode_prob),
                         ("parse_value", parse_value),
                         ("format_value", format_value),
                         ("default_label", default_label)):
            if fn is not None:
                setattr(self, attr, fn)

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


# --- the scalar functions the built-ins are made of --------------------------

def _cancel(zero, divide, a, c):
    """try_divide of a semiring with division: every element but zero
    cancels."""
    return None if c == zero else divide(a, c)


def _exact_quotient(a, c):
    return None if a % c else a // c


def _identity(a):
    return a


def _or(a, b):
    return a or b


def _and(a, b):
    return a and b


def _max(a, b):
    return a if a >= b else b


def _min(a, b):
    return a if a <= b else b


def _negate_dual(a):
    return DualValue(-a.primal, -a.tangent)


def _check_unit(p: float, what: str):
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"{what} {p!r} outside [0, 1]")
    return p


def _log(w):
    return math.log(w) if w > 0.0 else NEG_INF


def _unit_pair(what, wrap, p):
    """(p, 1 - p), each wrapped as an element, for p in [0, 1]."""
    _check_unit(p, what)
    return wrap(p), wrap(1.0 - p)


def _log_pair(p):
    """(log p, log(1 - p)) for p in [0, 1]."""
    _check_unit(p, "probability")
    return _log(p), (math.log1p(-p) if p < 1.0 else NEG_INF)


def _bit_pair(name, p):
    """(1, 0) for p = 1 and (0, 1) for p = 0, the only weights of 0/1."""
    if p == 1.0:
        return 1, 0
    if p == 0.0:
        return 0, 1
    raise ValueError(f"{name} weight must be 0 or 1, got {p!r}")


def _bool_pair(p):
    pos, neg = _bit_pair("bool", _check_unit(p, "bool weight"))
    return pos == 1, neg == 1


def _nonneg_token(what, number, token):
    w = number(token)
    if not w >= 0:  # NaN too
        raise ValueError(f"{what} must be non-negative, got {w!r}")
    return w


def _log_token(what, token):
    # weight files carry probabilities; the log happens here
    return _log(_nonneg_token(what, float, token))


def _unit_token(token):
    return _check_unit(float(token), "fuzzy weight")


def _bool_token(token):
    t = token.strip().lower()
    if t in ("t", "true", "1"):
        return True
    if t in ("f", "false", "0"):
        return False
    raise ValueError(f"bad bool weight {token!r}")


def _bit_token(token):
    b = int(token)
    if b not in (0, 1):
        raise ValueError(f"gf2 weight must be 0 or 1, got {token!r}")
    return b


def _dual_token(token):
    if ":" in token:
        p, t = token.split(":", 1)
        return DualValue(float(p), float(t))
    return DualValue(float(token), 0.0)


def _one_minus_x(v):
    return Polynomial.constant(1.0) + Polynomial({((v, 1),): -1.0})


def _poly_token(token):
    t = token.strip()
    if t.startswith("X"):
        return Polynomial.indeterminate(int(t[1:]))
    if t.startswith("1-X"):
        return _one_minus_x(int(t[3:]))
    return Polynomial.constant(float(t))


def _poly_label(lit):
    """X_v for the literal v and 1 - X_v for -v, so the model count becomes
    the multilinear weight polynomial."""
    return Polynomial.indeterminate(lit) if lit > 0 else _one_minus_x(-lit)


def _bool_format(v):
    return "T" if v else "F"


def _log_format(v):
    return f"log:{v!r}"


def _dual_format(v):
    return f"({v.primal!r}, {v.tangent!r})"


_PROB_PAIR = partial(_unit_pair, "probability", _identity)

_REGISTRY = {
    s.name: s
    for s in (
        Semiring(
            "bool", False, True, _or, _and, divide=_and,
            encode_prob=_bool_pair, parse_value=_bool_token,
            format_value=_bool_format, additively_idempotent=True,
            fully_ordered_mul=True,
            # True is the only cancellative element, and a / True = a and True
            array_ops=UfuncOps(np.bool_, np.logical_or, np.logical_and, False,
                               True, divide=np.logical_and)),
        Semiring(
            "nat", 0, 1, operator.add, operator.mul, divide=_exact_quotient,
            encode_prob=partial(_bit_pair, "nat"),
            parse_value=partial(_nonneg_token, "nat weight", int),
            format_value=str),
        # negation is a signed escape used only for variable gradients
        Semiring(
            "prob", 0.0, 1.0, operator.add, operator.mul,
            divide=operator.truediv, negate=operator.neg,
            encode_prob=_PROB_PAIR,
            parse_value=partial(_nonneg_token, "prob weight", float),
            array_ops=UfuncOps(np.float64, np.add, np.multiply, 0.0, 1.0,
                               divide=np.divide)),
        # log-domain weights: add = logaddexp, mul = +
        Semiring(
            "log", NEG_INF, 0.0, logaddexp, operator.add, divide=operator.sub,
            encode_prob=_log_pair,
            parse_value=partial(_log_token, "log-semiring weight"),
            format_value=_log_format,
            array_ops=UfuncOps(np.float64, np.logaddexp, np.add, NEG_INF, 0.0,
                               divide=np.subtract)),
        Semiring(
            "viterbi", 0.0, 1.0, _max, operator.mul, divide=operator.truediv,
            encode_prob=_PROB_PAIR,
            parse_value=partial(_nonneg_token, "viterbi weight", float),
            additively_idempotent=True,
            array_ops=UfuncOps(np.float64, np.maximum, np.multiply, 0.0, 1.0,
                               divide=np.divide)),
        # the log-space companion of viterbi: add = max, mul = +
        Semiring(
            "tropical", NEG_INF, 0.0, _max, operator.add, divide=operator.sub,
            encode_prob=_log_pair,
            parse_value=partial(_log_token, "tropical weight"),
            format_value=_log_format, additively_idempotent=True,
            array_ops=UfuncOps(np.float64, np.maximum, np.add, NEG_INF, 0.0,
                               divide=np.subtract)),
        Semiring(
            "fuzzy", 0.0, 1.0, _max, _min,
            encode_prob=partial(_unit_pair, "fuzzy weight", _identity),
            parse_value=_unit_token, additively_idempotent=True,
            fully_ordered_mul=True,
            array_ops=UfuncOps(np.float64, np.maximum, np.minimum, 0.0, 1.0)),
        # dual numbers (primal, tangent): one backward pass yields derivatives
        Semiring(
            "grad", DualValue(0.0, 0.0), DualValue(1.0, 0.0), operator.add,
            operator.mul, negate=_negate_dual,
            encode_prob=partial(_unit_pair, "probability",
                                partial(DualValue, tangent=0.0)),
            parse_value=_dual_token, format_value=_dual_format,
            array_ops=DualOps(DualValue)),
        # the two-element field: add = XOR, mul = AND on bits 0/1, -a = a
        Semiring(
            "gf2", 0, 1, operator.xor, operator.and_, divide=operator.and_,
            negate=_identity, encode_prob=partial(_bit_pair, "gf2"),
            parse_value=_bit_token, format_value=str, fully_ordered_mul=True,
            # 1 is the only cancellative element, and a / 1 = a & 1
            array_ops=UfuncOps(np.int64, np.bitwise_xor, np.bitwise_and, 0, 1,
                               divide=np.bitwise_and)),
        # polynomial weights for sensitivity analysis
        Semiring(
            "sens", Polynomial(), Polynomial.constant(1.0), operator.add,
            operator.mul,
            encode_prob=partial(_unit_pair, "probability",
                                Polynomial.constant),
            parse_value=_poly_token, default_label=_poly_label),
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
