"""Difference and differential operators with polynomial coefficients.

A difference operator is a finite sum  sum_l f_l(x) * Sh_l  where Sh_l
sends p(x) to p(x+l); its genre is (min l, max l) over nonzero terms and
its order is the width of that window.  A differential operator is a
finite sum  sum_j f_j(x) * (d/dx)^j.  Both kinds support apply, compose,
and linear combinations, and both serialize to JSON with bit-exact
rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Mapping, Union

from .errors import OperatorError
from .polyops import (
    Polynomial,
    RatLike,
    _convolve,
    _from_ints,
    _taylor_shift,
    as_fraction,
)


def _as_coeff_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial((as_fraction(value),))


def _common_ints(polys: Iterable[Polynomial]) -> tuple[list[list[int]], int]:
    """Integer numerators of each polynomial over one lcm of all their denominators."""
    ints = [p._ints() for p in polys]
    den = lcm(*[d for _, d in ints])
    return [[c * (den // d) for c in nums] for nums, d in ints], den


def _sum_of_products(
    pairs: list[tuple[tuple[list[int], int], list[int]]], den: int
) -> Polynomial:
    """sum_i (fn_i / df_i) * (g_i / den) for integer lists fn_i (nonempty), g_i.

    Each fn_i is scaled to the lcm of the df_i and convolved with g_i; the
    sum is normalised once."""
    common = lcm(*[df for (_, df), _ in pairs])
    acc: list[int] = []
    for (fn, df), g in pairs:
        scale = common // df
        prod = _convolve([c * scale for c in fn], g)
        if len(prod) > len(acc):
            acc.extend([0] * (len(prod) - len(acc)))
        acc[: len(prod)] = [x + y for x, y in zip(acc, prod)]
    return _from_ints(acc, common * den)


class DifferenceOperator:
    """Finite linear combination of shift operators with polynomial coefficients."""

    # _powers memoises this operator's powers for poly_of_op; not part of its value.
    __slots__ = ("_terms", "_powers")

    def __init__(self, terms: Mapping[int, Union[Polynomial, RatLike]] = ()):
        canon: dict[int, Polynomial] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for shift, coeff in items:
            p = _as_coeff_poly(coeff)
            if p.is_zero():
                continue
            if shift in canon:
                p = canon[shift] + p
                if p.is_zero():
                    del canon[shift]
                    continue
            canon[int(shift)] = p
        self._terms = dict(sorted(canon.items()))
        self._powers: list[DifferenceOperator] = []

    @classmethod
    def shift(cls, offset: int, coeff: Union[Polynomial, RatLike] = 1) -> "DifferenceOperator":
        return cls({offset: _as_coeff_poly(coeff)})

    @classmethod
    def identity(cls) -> "DifferenceOperator":
        return cls.shift(0)

    @classmethod
    def forward_difference(cls) -> "DifferenceOperator":
        """Sh_1 - Sh_0."""
        return cls({1: Polynomial.one(), 0: Polynomial((-1,))})

    @classmethod
    def backward_difference(cls) -> "DifferenceOperator":
        """Sh_0 - Sh_{-1}."""
        return cls({0: Polynomial.one(), -1: Polynomial((-1,))})

    @property
    def terms(self) -> dict[int, Polynomial]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, shift: int) -> Polynomial:
        return self._terms.get(shift, Polynomial.zero())

    def genre(self) -> tuple[int, int]:
        if not self._terms:
            raise OperatorError("genre is undefined for the zero operator")
        shifts = self._terms.keys()
        return (min(shifts), max(shifts))

    def order(self) -> int:
        s, r = self.genre()
        return r - s

    def apply(self, p: Polynomial) -> Polynomial:
        q, den = p._ints()
        pairs = []
        for shift, f in self._terms.items():
            qs = list(q)
            if shift:
                _taylor_shift(qs, shift)
            pairs.append((f._ints(), qs))
        return _sum_of_products(pairs, den)

    def compose(self, other: "DifferenceOperator") -> "DifferenceOperator":
        # f(x)Sh_a then g(x)Sh_b on the right: f(x)*g(x+a)*Sh_{a+b}.  The g
        # share one denominator, so each key's products sum in integers.
        gs, den = _common_ints(other._terms.values())
        by_key: dict[int, list] = {}
        for a, f in self._terms.items():
            fi = f._ints()
            for b, g in zip(other._terms, gs):
                shifted = list(g)
                if a:
                    _taylor_shift(shifted, a)
                by_key.setdefault(a + b, []).append((fi, shifted))
        return DifferenceOperator(
            {key: _sum_of_products(pairs, den) for key, pairs in by_key.items()}
        )

    def __add__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        acc = dict(self._terms)
        for shift, g in other._terms.items():
            acc[shift] = acc[shift] + g if shift in acc else g
        return DifferenceOperator(acc)

    def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self + (-other)

    def __neg__(self) -> "DifferenceOperator":
        return DifferenceOperator({s: -f for s, f in self._terms.items()})

    def __mul__(self, scalar) -> "DifferenceOperator":
        c = as_fraction(scalar)
        return DifferenceOperator({s: f * c for s, f in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __repr__(self) -> str:
        return f"DifferenceOperator({self._terms!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({f})*S[{s}]" for s, f in self._terms.items())


class DifferentialOperator:
    """Finite linear combination of d/dx powers with polynomial coefficients."""

    # _powers memoises this operator's powers for poly_of_op; not part of its value.
    __slots__ = ("_terms", "_powers")

    def __init__(self, coeffs: Iterable[Union[Polynomial, RatLike]] = ()):
        cs = [_as_coeff_poly(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._terms = tuple(cs)
        self._powers: list[DifferentialOperator] = []

    @classmethod
    def identity(cls) -> "DifferentialOperator":
        return cls((Polynomial.one(),))

    @classmethod
    def ddx(cls, order: int = 1, coeff: Union[Polynomial, RatLike] = 1) -> "DifferentialOperator":
        return cls([Polynomial.zero()] * order + [_as_coeff_poly(coeff)])

    @property
    def terms(self) -> tuple[Polynomial, ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, order: int) -> Polynomial:
        if 0 <= order < len(self._terms):
            return self._terms[order]
        return Polynomial.zero()

    def order(self) -> int:
        if not self._terms:
            raise OperatorError("order is undefined for the zero operator")
        return len(self._terms) - 1

    def in_algebra(self) -> bool:
        """True when deg f_j <= j for every term (zero coeffs pass)."""
        return all(f.is_zero() or f.degree <= j for j, f in enumerate(self._terms))

    def apply(self, p: Polynomial) -> Polynomial:
        d, den = p._ints()
        pairs = []
        for f in self._terms:
            if not d:
                break
            if not f.is_zero():
                pairs.append((f._ints(), d))
            d = [j * d[j] for j in range(1, len(d))]
        return _sum_of_products(pairs, den)

    def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
        # Leibniz: (d/dx)^i (g h) = sum_m C(i,m) g^(m) h^(i-m).  The g share
        # one denominator, so each order's products sum in integers.
        gs, den = _common_ints(other._terms)
        acc: list[list] = [[] for _ in range(len(self._terms) + len(gs))]
        for i, f in enumerate(self._terms):
            if f.is_zero():
                continue
            fi = f._ints()
            for j, gm in enumerate(gs):
                for m in range(i + 1):
                    if not gm:
                        break
                    acc[i + j - m].append((fi, [comb(i, m) * c for c in gm]))
                    gm = [e * gm[e] for e in range(1, len(gm))]
        return DifferentialOperator([_sum_of_products(pairs, den) for pairs in acc])

    def __add__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        n = max(len(self._terms), len(other._terms))
        return DifferentialOperator([self.coeff(j) + other.coeff(j) for j in range(n)])

    def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        return self + (-other)

    def __neg__(self) -> "DifferentialOperator":
        return DifferentialOperator([-f for f in self._terms])

    def __mul__(self, scalar) -> "DifferentialOperator":
        c = as_fraction(scalar)
        return DifferentialOperator([f * c for f in self._terms])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"DifferentialOperator({list(self._terms)!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for j, f in enumerate(self._terms):
            if f.is_zero():
                continue
            parts.append(f"({f})" if j == 0 else f"({f})*D^{j}")
        return " + ".join(parts)


Operator = Union[DifferenceOperator, DifferentialOperator]


def identity_like(op: Operator) -> Operator:
    if isinstance(op, DifferenceOperator):
        return DifferenceOperator.identity()
    return DifferentialOperator.identity()


def zero_like(op: Operator) -> Operator:
    if isinstance(op, DifferenceOperator):
        return DifferenceOperator()
    return DifferentialOperator()


def _linear(pairs: list[tuple[Fraction, Operator]], like: Operator) -> Operator:
    """sum_i c_i * op_i for nonzero c_i and operators of the kind of ``like``.

    Each shift (or order) sums c_i times its coefficient of op_i on integer
    numerators, with one lcm and one reduction (``_sum_of_products``)."""
    kind = type(like)
    by_key: dict[int, list] = {}
    for c, op in pairs:
        if type(op) is not kind:
            raise TypeError(f"cannot combine {type(op).__name__} with {kind.__name__}")
        items = op._terms.items() if kind is DifferenceOperator else enumerate(op._terms)
        for key, f in items:
            if not f.is_zero():
                nums, den = f._ints()
                by_key.setdefault(key, []).append(((nums, den * c.denominator), [c.numerator]))
    sums = {key: _sum_of_products(terms, 1) for key, terms in by_key.items()}
    if kind is DifferenceOperator:
        return DifferenceOperator(sums)
    top = max(sums, default=-1)
    return DifferentialOperator([sums.get(j, Polynomial.zero()) for j in range(top + 1)])


def _power(op: Operator, j: int) -> Operator:
    """op^j; each power is composed once per operator object and kept on it."""
    if j <= 1:
        return op if j else identity_like(op)
    powers = op._powers  # op^2, op^3, ...; op itself is not kept, so no cycle
    while len(powers) < j - 1:
        powers.append((powers[-1] if powers else op).compose(op))
    return powers[j - 2]


def poly_of_op(p: Polynomial, op: Operator) -> Operator:
    """Substitute an operator into a polynomial: sum_j a_j * op^j, op^0 = identity."""
    return _linear([(c, _power(op, j)) for j, c in enumerate(p.coeffs) if c], op)


def op_linear(pairs: Iterable[tuple[RatLike, Operator]]) -> Operator:
    """Exact linear combination sum_i c_i * op_i (all of one kind)."""
    pairs = [(as_fraction(c), op) for c, op in pairs]
    if not pairs:
        raise ValueError("op_linear needs at least one term")
    return _linear([(c, op) for c, op in pairs if c], pairs[0][1])


# -- JSON round-trip -----------------------------------------------------------


def operator_to_json(op: Operator) -> dict:
    if isinstance(op, DifferenceOperator):
        return {
            "kind": "difference",
            "terms": [
                {"shift": s, "coeffs": f.to_json()} for s, f in sorted(op.terms.items())
            ],
        }
    return {
        "kind": "differential",
        "terms": [
            {"order": j, "coeffs": f.to_json()}
            for j, f in enumerate(op.terms)
            if not f.is_zero()
        ],
    }


def operator_from_json(data: dict) -> Operator:
    kind = data.get("kind")
    if kind == "difference":
        return DifferenceOperator(
            {int(t["shift"]): Polynomial.from_json(t["coeffs"]) for t in data["terms"]}
        )
    if kind == "differential":
        if not data["terms"]:
            return DifferentialOperator()
        top = max(int(t["order"]) for t in data["terms"])
        coeffs = [Polynomial.zero()] * (top + 1)
        for t in data["terms"]:
            coeffs[int(t["order"])] = Polynomial.from_json(t["coeffs"])
        return DifferentialOperator(coeffs)
    raise ValueError(f"unknown operator kind: {kind!r}")
