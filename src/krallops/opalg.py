"""Difference and differential operators with polynomial coefficients.

A difference operator is a finite sum  sum_l f_l(x) * Sh_l  where Sh_l
sends p(x) to p(x+l); its genre is (min l, max l) over nonzero terms and
its order is the width of that window.  A differential operator is a
finite sum  sum_j f_j(x) * (d/dx)^j.  Both kinds hold the same data, a map
from an integer key (the shift l, or the order j >= 0) to a nonzero
polynomial coefficient, and share its linear-space operations; each kind
adds its own apply, compose and shape.  Both serialize to JSON with
bit-exact rationals.

``EigenGrid`` decides an eigen identity op(q) = lam q for both kinds with
one integer loop: on the values of q at integer points for a difference
operator, and on the coefficients of q for a differential one.  Each kind
supplies only the rows of that loop (``_grid_rows``) and the sequence it
reads off q (``_grid_sequence``).
"""

from __future__ import annotations

from math import comb, lcm
from operator import index
from typing import Iterable, Mapping, Union

from .errors import OperatorError, check_at_least
from .polyops import (
    Polynomial,
    RatLike,
    _convolve,
    _from_ints,
    _taylor_shift,
    _values_at,
    as_fraction,
)


_Coeff = Union[Polynomial, RatLike]


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


class _KeyedOperator:
    """sum_key f_key(x) * E_key, E_key the shift Sh_key or (d/dx)^key.

    ``_terms`` maps each integer key to its nonzero coefficient, in ascending
    key order.  A subclass sets ``_kind`` (for JSON), ``_key`` (the key's name)
    and ``_min_key`` (or None), and defines apply, compose and its shape."""

    # _powers memoises this operator's powers for poly_of_op; not part of its value.
    __slots__ = ("_terms", "_powers")

    def __init__(self, items: Iterable[tuple[int, Union[Polynomial, RatLike]]] = ()):
        canon: dict[int, Polynomial] = {}
        for key, coeff in items:
            try:
                key = index(key)
            except TypeError:
                raise ValueError(f"{self._key} must be an integer; got {key!r}") from None
            if self._min_key is not None:
                check_at_least(self._key, key, self._min_key)
            p = _as_coeff_poly(coeff)
            if p.is_zero():
                continue
            if key in canon:
                p = canon[key] + p
                if p.is_zero():
                    del canon[key]
                    continue
            canon[key] = p
        self._terms = dict(sorted(canon.items()))
        self._powers: list = []

    @classmethod
    def _of(cls, items):
        """The operator with these (key, coefficient) terms, like terms summed."""
        op = cls.__new__(cls)
        _KeyedOperator.__init__(op, items)
        return op

    @classmethod
    def identity(cls):
        return cls._of([(0, Polynomial.one())])

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, key: int) -> Polynomial:
        return self._terms.get(key, Polynomial.zero())

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of([*self._terms.items(), *other._terms.items()])

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._of([(k, -f) for k, f in self._terms.items()])

    def __mul__(self, scalar):
        c = as_fraction(scalar)
        return self._of([(k, f * c) for k, f in self._terms.items()])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def _check_kind(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(other).__name__} with {type(self).__name__}")


class DifferenceOperator(_KeyedOperator):
    """Finite linear combination of shift operators with polynomial coefficients."""

    __slots__ = ()
    _kind, _key, _min_key = "difference", "shift", None

    def __init__(self, terms: Mapping[int, Union[Polynomial, RatLike]] = ()):
        super().__init__(terms.items() if isinstance(terms, Mapping) else terms)

    @classmethod
    def shift(cls, offset: int, coeff: Union[Polynomial, RatLike] = 1) -> "DifferenceOperator":
        return cls({offset: coeff})

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

    def _grid_rows(self) -> tuple[dict[int, list[int]], int, int]:
        """EigenGrid's rows: op(q)(x) = sum_l F_l(x) q(x + l) / D at every x.

        Returns {l: F_l}, the integer numerators of the coefficients over one
        denominator D, with D and e, the largest degree of an F_l."""
        fs, den = _common_ints(self._terms.values())
        return dict(zip(self._terms, fs)), den, max((len(f) - 1 for f in fs), default=0)

    @staticmethod
    def _grid_sequence(nums: tuple[int, ...], start: int, stop: int) -> list[int]:
        """The integer polynomial ``nums`` at x = start..stop-1."""
        return _values_at(nums, range(start, stop))

    def compose(self, other: "DifferenceOperator") -> "DifferenceOperator":
        # f(x)Sh_a then g(x)Sh_b on the right: f(x)*g(x+a)*Sh_{a+b}.  The g
        # share one denominator, so each key's products sum in integers.
        self._check_kind(other)
        gs, den = _common_ints(other._terms.values())
        by_key: dict[int, list] = {}
        for a, f in self._terms.items():
            fi = f._ints()
            for b, g in zip(other._terms, gs):
                shifted = list(g)
                if a:
                    _taylor_shift(shifted, a)
                by_key.setdefault(a + b, []).append((fi, shifted))
        return DifferenceOperator._of(
            (key, _sum_of_products(pairs, den)) for key, pairs in by_key.items()
        )

    def __repr__(self) -> str:
        return f"DifferenceOperator({self._terms!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({f})*S[{s}]" for s, f in self._terms.items())


class DifferentialOperator(_KeyedOperator):
    """Finite linear combination of d/dx powers with polynomial coefficients."""

    __slots__ = ()
    _kind, _key, _min_key = "differential", "order", 0

    def __init__(self, coeffs: Union[Mapping[int, _Coeff], Iterable[_Coeff]] = ()):
        """Coefficients f_0, f_1, ... in order, or a mapping from order to coefficient."""
        super().__init__(coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs))

    @classmethod
    def ddx(cls, order: int = 1, coeff: Union[Polynomial, RatLike] = 1) -> "DifferentialOperator":
        return cls._of([(order, coeff)])

    @property
    def terms(self) -> tuple[Polynomial, ...]:
        """The coefficients f_0, f_1, ..., f_order, zero where an order is absent."""
        # tuple(list), not tuple(genexpr): the latter raised peak RSS under repeated calls.
        zero = Polynomial.zero()
        return tuple([self._terms.get(j, zero) for j in range(max(self._terms, default=-1) + 1)])

    def order(self) -> int:
        if not self._terms:
            raise OperatorError("order is undefined for the zero operator")
        return max(self._terms)

    def apply(self, p: Polynomial) -> Polynomial:
        d, den = p._ints()
        pairs = []
        j = 0  # d holds the j-th derivative of p
        for order, f in self._terms.items():
            while j < order and d:
                d = [i * d[i] for i in range(1, len(d))]
                j += 1
            if not d:
                break
            pairs.append((f._ints(), d))
        return _sum_of_products(pairs, den)

    def _grid_rows(self) -> tuple[dict[int, list[int]], int, int]:
        """EigenGrid's rows: coefficient s of op(q) is sum_t G_t(s) q_{s+t} / D.

        f_j(x) (d/dx)^j sends x^m to sum_i f_{j,i} m(m-1)...(m-j+1) x^(m-j+i),
        so with t = j - i, G_t(s) = sum_j F_{j,j-t} (s+t)(s+t-1)...(s+t-j+1),
        F_j the integer numerators of the f_j over one denominator D.  Returns
        {t: G_t} for the t with some F_{j,j-t} != 0, D, and
        e = max(0, max_j (deg f_j - j)), the most that op raises a degree.
        Falling factorials of distinct degree are independent, so no listed
        G_t is zero."""
        fs, den = _common_ints(self._terms.values())
        by_order = dict(zip(self._terms, fs))
        extra = max([0, *(len(f) - 1 - j for j, f in by_order.items())])
        order = max(by_order, default=-1)
        rows: dict[int, list[int]] = {}
        for t in range(-extra, order + 1):
            row: list[int] = []
            falling = [1]  # (s+t)(s+t-1)...(s+t-j+1) in s
            for j in range(order + 1):
                f = by_order.get(j, ())
                c = f[j - t] if 0 <= j - t < len(f) else 0
                if c:
                    row += [0] * (len(falling) - len(row))
                    row = [a + c * b for a, b in zip(row, falling)]
                falling = [(t - j) * a + b for a, b in zip(falling + [0], [0] + falling)]
            if row:
                rows[t] = row
        return rows, den, extra

    @staticmethod
    def _grid_sequence(nums: tuple[int, ...], start: int, stop: int) -> list[int]:
        """The coefficients nums[m] for m = start..stop-1, zero outside nums."""
        lo = max(start, 0)
        seq = [0] * (lo - start) + list(nums[lo:stop])
        return seq + [0] * (stop - start - len(seq))

    def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
        # Leibniz: (d/dx)^i (g h) = sum_m C(i,m) g^(m) h^(i-m).  The g share
        # one denominator, so each order's products sum in integers.
        self._check_kind(other)
        gs, den = _common_ints(other._terms.values())
        by_key: dict[int, list] = {}
        for i, f in self._terms.items():
            fi = f._ints()
            for j, gm in zip(other._terms, gs):
                for m in range(i + 1):
                    if not gm:
                        break
                    by_key.setdefault(i + j - m, []).append((fi, [comb(i, m) * c for c in gm]))
                    gm = [e * gm[e] for e in range(1, len(gm))]
        return DifferentialOperator._of(
            (key, _sum_of_products(pairs, den)) for key, pairs in by_key.items()
        )

    def __repr__(self) -> str:
        return f"DifferentialOperator({list(self.terms)!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(
            f"({f})" if j == 0 else f"({f})*D^{j}" for j, f in self._terms.items()
        )


Operator = Union[DifferenceOperator, DifferentialOperator]


class EigenGrid:
    """Decides op(q) == lam * q exactly, for either operator kind, in integers.

    Each kind reads op(q) as a sequence rule: entry x of op(q) is
    sum_l R_l(x) V[x + l] / D, where V is a sequence read off q, the R_l
    are integer polynomials and D is one denominator (``_grid_rows``).  For
    a difference operator V holds the values of q at the integers and R_l
    is the numerator of the coefficient of Sh_l; for a differential
    operator V holds the coefficients of q and x is a power.  With
    d = deg q, the residual op(q) - lam q has degree at most d + e (e from
    ``_grid_rows``), so it is the zero polynomial exactly when entries
    x = 0..d+e vanish: values at d + e + 1 points, or every coefficient.
    The R_l are evaluated on 0, 1, 2, ... once, the range doubling whenever
    a check needs more.  Each check reads V on lo..d+e+hi, for lo and hi
    the offsets' extremes with 0, and compares b * sum_l R_l(x) V[x + l]
    with a * D * V[x] for lam = a/b."""

    __slots__ = ("_offsets", "_rows", "_den", "_extra", "_lo", "_hi", "_sequence", "_table")

    def __init__(self, op: Operator):
        rows, self._den, self._extra = op._grid_rows()
        self._offsets, self._rows = list(rows), list(rows.values())
        self._lo = min([0, *self._offsets])
        self._hi = max([0, *self._offsets])
        self._sequence = op._grid_sequence
        self._table: list[list[int]] = [[] for _ in self._rows]

    def holds(self, q: Polynomial, lam: RatLike) -> bool:
        nums, _ = q._ints()
        if not nums:
            return True
        points = len(nums) + self._extra  # x = 0..d+e
        if self._table and len(self._table[0]) < points:
            size = max(points, 2 * len(self._table[0]))
            for f, tab in zip(self._rows, self._table):
                tab.extend(_values_at(f, range(len(tab), size)))
        lo = self._lo
        seq = self._sequence(nums, lo, points + self._hi)
        lhs = [0] * points
        for offset, tab in zip(self._offsets, self._table):
            start = offset - lo
            lhs = [s + f * v for s, f, v in zip(lhs, tab, seq[start : start + points])]
        lam = as_fraction(lam)
        b, a_den = lam.denominator, lam.numerator * self._den
        return [b * s for s in lhs] == [a_den * v for v in seq[-lo : points - lo]]


def _power(op: Operator, j: int) -> Operator:
    """op^j; each power is composed once per operator object and kept on it."""
    if j <= 1:
        return op if j else type(op).identity()
    powers = op._powers  # op^2, op^3, ...; op itself is not kept, so no cycle
    while len(powers) < j - 1:
        powers.append((powers[-1] if powers else op).compose(op))
    return powers[j - 2]


def poly_of_op(p: Polynomial, op: Operator) -> Operator:
    """Substitute an operator into a polynomial: sum_j a_j * op^j, op^0 = identity.

    Each key sums a_j times its coefficient of op^j on integer numerators,
    with one lcm and one reduction (``_sum_of_products``)."""
    by_key: dict[int, list] = {}
    for j, c in enumerate(p.coeffs):
        if c:
            for key, f in _power(op, j)._terms.items():
                nums, den = f._ints()
                by_key.setdefault(key, []).append(((nums, den * c.denominator), [c.numerator]))
    return type(op)._of((key, _sum_of_products(terms, 1)) for key, terms in by_key.items())


# -- JSON round-trip -----------------------------------------------------------


def operator_to_json(op: Operator) -> dict:
    return {
        "kind": op._kind,
        "terms": [{op._key: key, "coeffs": f.to_json()} for key, f in op._terms.items()],
    }


def operator_from_json(data: dict) -> Operator:
    kind = data.get("kind")
    for cls in (DifferenceOperator, DifferentialOperator):
        if cls._kind == kind:
            return cls._of((t[cls._key], Polynomial.from_json(t["coeffs"])) for t in data["terms"])
    raise ValueError(f"unknown operator kind: {kind!r}")
