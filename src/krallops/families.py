"""Classical discrete and continuous orthogonal polynomial families.

Each family knows its second-order eigenoperator, its eigenvalue sequence
theta_n, and its three-term recurrence x*p_n = a_n*p_{n+1} + b_n*p_n +
c_n*p_{n-1} as data: a ``Recurrence`` of closed-form rational functions of n
with integer coefficients, built once per family on first use.  p_n comes
from it: ``polynomial(n)`` extends the family's cached run p_0, p_1, ... to
p_n.  Hahn and Jacobi also expose sigma_n, the r_j basis and the u_j
sequences for second-kind operators.

All parameters are exact rationals.  A constructor raises DegeneracyError,
naming the factor that collapsed, on degenerate parameters; on the others,
every a_n is nonzero and no recurrence coefficient divides by zero.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm
from typing import NamedTuple

from .errors import DegeneracyError, check_at_least
from .opalg import DifferenceOperator, DifferentialOperator, Operator
from .polyops import (
    Polynomial,
    RationalFunction,
    RatLike,
    _from_ints,
    as_fraction,
    fraction_to_str,
    pochhammer,
)


class Family:
    """Shared behavior; concrete families are frozen dataclasses below."""

    kind: str  # "difference" or "differential", given in the class statement

    def __init_subclass__(cls, kind: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = kind

    def polynomial(self, n: int) -> Polynomial:
        """p_n, from the family's cached run p_0, p_1, ..., extended as needed."""
        check_at_least("n", n, 0)
        run = _run(self)
        if n >= len(run):
            _extend(run, _recurrence(self), n)
        return run[n]

    def eigenvalue(self, n: int) -> Fraction:
        raise NotImplementedError

    def second_order_op(self) -> Operator:
        raise NotImplementedError

    def _build_recurrence(self) -> Recurrence:
        """The closed-form recurrence for this normalisation of p_n (p_0 = 1,
        and a_n is the ratio of leading coefficients); cross-checked against
        Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal Polynomials and
        Their q-Analogues (Springer 2010), ch. 9."""
        raise NotImplementedError

    def ttr(self, n: int) -> tuple[Fraction, Fraction, Fraction]:
        """Coefficients (a_n, b_n, c_n) of x*p_n = a_n p_{n+1} + b_n p_n + c_n p_{n-1}.

        Each is the family's rational function of n at this n; c_0 = 0."""
        check_at_least("n", n, 0)
        return _recurrence(self).at(n)

    def name(self) -> str:
        return type(self).__name__.lower()


class Recurrence(NamedTuple):
    """x*p_n = a_n p_{n+1} + b_n p_n + c_n p_{n-1} as data: a_n, b_n and c_n are
    rational functions of n with integer coefficients, and ``start`` holds
    (a_n, b_n, c_n) for n < len(start): c_0 = 0, which multiplies p_{-1} = 0,
    and the cancelled forms where a formula is 0/0 at admissible parameters."""

    a: RationalFunction
    b: RationalFunction
    c: RationalFunction
    start: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @classmethod
    def of(cls, a: RationalFunction, b: RationalFunction, c: RationalFunction,
           cancelled: dict[tuple[str, int], Fraction] | None = None) -> Recurrence:
        """``cancelled[name, n]`` is coefficient ``name`` (a, b or c) at n where it is 0/0."""
        fixed = {("c", 0): Fraction(0), **(cancelled or {})}
        start = tuple([
            tuple([fixed.pop((name, n)) if (name, n) in fixed else f(n)
                   for name, f in (("a", a), ("b", b), ("c", c))])
            for n in range(1 + max([n for _, n in fixed]))
        ])
        if fixed:
            raise ValueError(f"cancelled keys must be ('a', 'b' or 'c', n >= 0); got {list(fixed)}")
        return cls(a, b, c, start)

    def at(self, n: int) -> tuple[Fraction, Fraction, Fraction]:
        if n < len(self.start):
            return self.start[n]
        return self.a(n), self.b(n), self.c(n)


@lru_cache(maxsize=None)
def _recurrence(fam: Family) -> Recurrence:
    return fam._build_recurrence()


# Module-level, so that clearing the program's functools caches empties it.
@lru_cache(maxsize=None)
def _run(fam: Family) -> dict[int, Polynomial]:
    """p_0, p_1, ... of the family as far as built, keyed by degree."""
    return {0: Polynomial.one()}


def _extend(run: dict[int, Polynomial], rec: Recurrence, n: int) -> None:
    """Store p_{m+1} = ((x - b_m) p_m - c_m p_{m-1}) / a_m for m = len(run)-1..n-1,
    on the integer numerators of p_m = P / dp and p_{m-1} = Q / dq.

    The keys of ``run`` stay 0..len(run)-1, as p_{m+1} is stored only after
    p_m; setdefault is atomic, so concurrent callers keep the first p_{m+1}."""
    m = len(run) - 1
    (P, dp), (Q, dq) = run[m]._ints(), run[m - 1]._ints() if m else ((), 1)
    while m < n:
        a, b, c = rec.at(m)
        left, right = b.denominator * dp, c.denominator * dq
        den = lcm(left, right)
        sign = a.denominator if a.numerator > 0 else -a.denominator
        u, v = sign * (den // left), sign * (den // right) * c.numerator
        hi, lo = u * b.denominator, u * b.numerator
        out = [hi * x - lo * y for x, y in zip([0, *P], [*P, 0])]
        for i, z in enumerate(Q):
            out[i] -= v * z
        p = run.setdefault(m + 1, _from_ints(out, den * abs(a.numerator)))
        (P, dp), (Q, dq), m = p._ints(), (P, dp), m + 1


# -- discrete families ----------------------------------------------------------


@dataclass(frozen=True)
class Charlier(Family, kind="difference"):
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        if self.a == 0:
            raise DegeneracyError("Charlier requires a != 0")

    def eigenvalue(self, n: int) -> Fraction:
        return Fraction(-n)

    def second_order_op(self) -> DifferenceOperator:
        a = self.a
        return DifferenceOperator(
            {-1: Polynomial.x(), 0: Polynomial((-a, -1)), 1: Polynomial((a,))}
        )

    def _build_recurrence(self) -> Recurrence:
        n, a = Polynomial.x(), self.a
        return Recurrence.of(RationalFunction.of(n + 1), RationalFunction.of(n + a),
                             RationalFunction.of(a))


@dataclass(frozen=True)
class Meixner(Family, kind="difference"):
    a: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "c", as_fraction(self.c))
        if self.a in (0, 1):
            raise DegeneracyError("Meixner requires a not in {0, 1}")

    def eigenvalue(self, n: int) -> Fraction:
        return n * (self.a - 1)

    def second_order_op(self) -> DifferenceOperator:
        a, c = self.a, self.c
        return DifferenceOperator(
            {
                -1: Polynomial.x(),
                0: Polynomial((-a * c, -(1 + a))),
                1: Polynomial((a * c, a)),
            }
        )

    def _build_recurrence(self) -> Recurrence:
        n, a, c = Polynomial.x(), self.a, self.c
        return Recurrence.of(
            RationalFunction.of((n + 1) * a, a - 1),
            RationalFunction.of(-(n * (1 + a) + a * c), a - 1),
            RationalFunction.of(n + (c - 1), a - 1),
        )


@dataclass(frozen=True)
class Krawtchouk(Family, kind="difference"):
    a: Fraction
    N: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "N", as_fraction(self.N))
        if self.a == 0 or self.a == -1:
            raise DegeneracyError("Krawtchouk requires a not in {0, -1}")

    def eigenvalue(self, n: int) -> Fraction:
        return -n * (1 + self.a)

    def second_order_op(self) -> DifferenceOperator:
        a, N = self.a, self.N
        # coefficient of Sh_0 is -(x - a(x - N + 1)); of Sh_1 is -a(x - N + 1)
        return DifferenceOperator(
            {
                -1: Polynomial.x(),
                0: Polynomial((a * (-N + 1), -(1 - a))),
                1: Polynomial((-a * (-N + 1), -a)),
            }
        )

    def _build_recurrence(self) -> Recurrence:
        n, a, N = Polynomial.x(), self.a, self.N
        return Recurrence.of(
            RationalFunction.of(n + 1),
            RationalFunction.of(n * (1 - a) + a * (N - 1), 1 + a),
            RationalFunction.of((N - n) * a, (1 + a) ** 2),
        )


@dataclass(frozen=True)
class Hahn(Family, kind="difference"):
    alpha: Fraction
    c: Fraction
    N: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "c", as_fraction(self.c))
        object.__setattr__(self, "N", as_fraction(self.N))
        s = self.alpha + self.c - self.N
        if s.denominator == 1 and s <= -1:
            raise DegeneracyError(
                "Hahn requires alpha + c - N not in {-1, -2, ...};"
                f" got {s}"
            )

    def eigenvalue(self, n: int) -> Fraction:
        return (n + 1) * (n + self.alpha + self.c - self.N - 1)

    @cached_property
    def sigma(self) -> RationalFunction:
        return RationalFunction.of(Polynomial((self.alpha + self.c - self.N - 2, 2)))

    def second_order_op(self) -> DifferenceOperator:
        al, c, N = self.alpha, self.c, self.N
        f_m1 = Polynomial.x() * Polynomial((-al, 1))
        f_p1 = Polynomial((c, 1)) * Polynomial((-N + 1, 1))
        f_0 = Polynomial((al + N * (c - 1) - 1, al - c + N - 1, -2))
        return DifferenceOperator({-1: f_m1, 0: f_0, 1: f_p1})

    def _build_recurrence(self) -> Recurrence:
        n, al, c, N = Polynomial.x(), self.alpha, self.c, self.N
        s = al + c - N

        def lin(k: int) -> Polynomial:  # 2n+s+k
            return n * 2 + (s + k)

        # b_0 and c_1 are 0/0 at s = 1 and s = 0; cancelling gives them for every s.
        c_num = n * (N - n) * (n + (s - 1)) * (n + (al - N)) * (n + (c - 1)) * (n + (al + c - 1))
        return Recurrence.of(
            RationalFunction.of(1),
            RationalFunction.of(n * (al - c + N - 1) * (n + s) + c * (N - 1) * (s - 1),
                                lin(-1) * lin(1)),
            RationalFunction.of(c_num, lin(-2) * lin(-1) ** 2 * lin(0)),
            {("b", 0): c * (N - 1) / (s + 1),
             ("c", 1): (N - 1) * (1 + al - N) * c * (al + c) / ((s + 1) ** 2 * (s + 2))},
        )

    def r_basis(self, j: int) -> Polynomial:
        return lattice_product(j, self.alpha + self.c - self.N - 2)

    def u_seq(self, j: int, n: RatLike) -> Fraction:
        n = as_fraction(n)
        return pochhammer(n, j) * pochhammer(-n - self.alpha - self.c + self.N + 2, j)


# -- continuous families ---------------------------------------------------------


@dataclass(frozen=True)
class Laguerre(Family, kind="differential"):
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))

    def eigenvalue(self, n: int) -> Fraction:
        return Fraction(-n)

    def second_order_op(self) -> DifferentialOperator:
        return DifferentialOperator(
            (Polynomial.zero(), Polynomial((self.alpha + 1, -1)), Polynomial.x())
        )

    def _build_recurrence(self) -> Recurrence:
        n, al = Polynomial.x(), self.alpha
        return Recurrence.of(
            RationalFunction.of(-(n + 1)),
            RationalFunction.of(n * 2 + (al + 1)),
            RationalFunction.of(-(n + al)),
        )


@dataclass(frozen=True)
class Jacobi(Family, kind="differential"):
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        for value, label in (
            (self.alpha, "alpha"),
            (self.beta, "beta"),
            (self.alpha + self.beta, "alpha+beta"),
        ):
            if value.denominator == 1 and value <= -1:
                raise DegeneracyError(
                    f"Jacobi requires {label} not in {{-1, -2, ...}}; got {value}"
                )

    def eigenvalue(self, n: int) -> Fraction:
        return -n * (n + self.alpha + self.beta + 1)

    @cached_property
    def sigma(self) -> RationalFunction:
        return RationalFunction.of(Polynomial((self.alpha + self.beta - 1, 2)))

    def second_order_op(self) -> DifferentialOperator:
        al, be = self.alpha, self.beta
        return DifferentialOperator(
            (
                Polynomial.zero(),
                Polynomial((be - al, -(al + be + 2))),
                Polynomial((1, 0, -1)),
            )
        )

    def _build_recurrence(self) -> Recurrence:
        n, al, be = Polynomial.x(), self.alpha, self.beta
        s = al + be

        def lin(k: int) -> Polynomial:  # 2n+s+k
            return n * 2 + (s + k)

        # b_n is 0/0 at n = 0 when s = 0; cancelling s gives b_0 for every s.
        return Recurrence.of(
            RationalFunction.of((n + 1) * (n + (s + 1)) * 2, lin(1) * lin(2)),
            RationalFunction.of(be * be - al * al, lin(0) * lin(2)),
            RationalFunction.of((n + al) * (n + be) * 2, lin(0) * lin(1)),
            {("b", 0): (be - al) / (s + 2)},
        )

    def r_basis(self, j: int) -> Polynomial:
        """prod_{i<j} ((alpha+i+1)(beta-i) - x); the j = 0 product is 1."""
        al, be = self.alpha, self.beta
        return Polynomial.from_roots([(al + i + 1) * (be - i) for i in range(j)], (-1) ** j)

    def u_seq(self, j: int, n: RatLike) -> Fraction:
        n = as_fraction(n)
        return pochhammer(n + self.alpha, j) * pochhammer(n + self.beta - j, j)


def binomial_rising_terms(k: int, u: RatLike, v: RatLike) -> list[Fraction]:
    """binom(k, j) (u+j)_{k-j} (v+j)_{k-j} for j = 0..k."""
    u, v = as_fraction(u), as_fraction(v)
    return [comb(k, j) * pochhammer(u + j, k - j) * pochhammer(v + j, k - j)
            for j in range(k + 1)]


# -- quadratic-lattice helpers and dual Hahn polynomials ---------------------------


def lattice_product(j: int, u: RatLike) -> Polynomial:
    """(-1)^j * prod_{i=0}^{j-1} (x + i(u - i)); the j = 0 product is 1."""
    check_at_least("j", j, 0)
    u = as_fraction(u)
    return Polynomial.from_roots([-i * (u - i) for i in range(j)], (-1) ** j)


def dual_hahn_poly(alpha: RatLike, c: RatLike, N: RatLike, k: int) -> Polynomial:
    """Degree-k dual Hahn polynomial in the lattice variable.

    Expanded in the lattice products s_{j, N-alpha-c}; evaluating at
    n(n+alpha+c-N) recovers Hahn values by the duality identity.
    """
    check_at_least("k", k, 0)
    alpha, c, N = as_fraction(alpha), as_fraction(c), as_fraction(N)
    u = N - alpha - c
    # s_{j,u} = (-1)^j prod_{i<j} (x - x_i) on the nodes x_i = -i(u - i), and
    # s_{j,u} has the coefficient (-k)_j (1-N+j)_{k-j} (c+j)_{k-j} / j!.
    terms = binomial_rising_terms(k, 1 - N, c)
    return Polynomial.from_newton(terms, [-i * (u - i) for i in range(k)])


def dual_hahn_variant(variant: int, alpha: RatLike, c: RatLike, N: RatLike, k: int) -> Polynomial:
    """The two reparameterized dual Hahn families attached to Hahn(alpha, c, N).

    Both live on the lattice of r_j = s_{j, alpha+c-N-2} and evaluate the
    second-kind construction data: variant 1 uses parameters
    (N+c-1, 2-c, alpha+c-1), variant 2 uses (-alpha, 2-c, -N).
    """
    alpha, c, N = as_fraction(alpha), as_fraction(c), as_fraction(N)
    if variant == 1:
        return dual_hahn_poly(N + c - 1, 2 - c, alpha + c - 1, k)
    if variant == 2:
        return dual_hahn_poly(-alpha, 2 - c, -N, k)
    raise ValueError("dual Hahn variant must be 1 or 2")


_FAMILY_CLASSES = {
    cls.__name__.lower(): cls for cls in (Charlier, Meixner, Krawtchouk, Hahn, Laguerre, Jacobi)
}
FAMILY_PARAM_FIELDS = {
    name: tuple(f.name for f in fields(cls)) for name, cls in _FAMILY_CLASSES.items()
}


def family_from_name(name: str, params: dict) -> Family:
    """Build a family from its lowercase name and a parameter dict."""
    cls = _FAMILY_CLASSES.get(name)
    if cls is None:
        raise ValueError(f"unknown family {name!r}")
    names = FAMILY_PARAM_FIELDS[name]
    missing = [f for f in names if f not in params]
    if missing:
        raise ValueError(f"family {name!r} needs parameters {missing}")
    return cls(*(as_fraction(params[f]) for f in names))


def family_to_json(fam: Family) -> dict:
    name = fam.name()
    return {
        "family": name,
        "params": {
            f: fraction_to_str(getattr(fam, f)) for f in FAMILY_PARAM_FIELDS[name]
        },
    }


def family_from_json(data: dict) -> Family:
    return family_from_name(data["family"], data["params"])
