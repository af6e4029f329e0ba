"""Classical discrete and continuous orthogonal polynomial families.

Each family knows its polynomials as a terminating hypergeometric sum in
Newton form (terms and nodes), its second-order eigenoperator, its
eigenvalue sequence theta_n, and its three-term recurrence
x*p_n = a_n*p_{n+1} + b_n*p_n + c_n*p_{n-1}.  The recurrence is data: a_n,
b_n and c_n are closed-form rational functions of n with integer
coefficients (a ``Recurrence``), built once per family on first use, and
``ttr(n)`` evaluates them without building any p_n.  Hahn and Jacobi also
expose sigma_n, the r_j basis and the u_j sequences for second-kind operators.

All parameters are exact rationals; degenerate parameter values raise
DegeneracyError naming the factor that collapsed, a labelled pole of the
RationalFunction where a recurrence coefficient divides by zero.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from typing import NamedTuple, Optional

from .errors import DegeneracyError, check_at_least
from .opalg import DifferenceOperator, DifferentialOperator, Operator
from .polyops import (
    Polynomial,
    RationalFunction,
    RatLike,
    _expand_graded,
    _running,
    as_fraction,
    fraction_to_str,
    pochhammer,
    rising_prefix,
    rising_suffix,
)


class Family:
    """Shared behavior; concrete families are frozen dataclasses below."""

    kind: str  # "difference" or "differential"

    def polynomial(self, n: int) -> Polynomial:
        check_at_least("n", n, 0)
        return _classical_poly(self, n)

    def _build_poly(self, n: int) -> Polynomial:
        """p_n = sum_j t_j(n) prod_{i<j} (x - x_i) on the family's Newton nodes."""
        raise NotImplementedError

    def _scalars(self, n: int) -> list[Fraction]:
        """The Newton coefficients t_0(n)..t_n(n) of p_n.

        Each family forms them from running products (rising factorials,
        factorials and powers) in O(n) integer products, with one reduction
        to a Fraction per coefficient."""
        raise NotImplementedError

    def eigenvalue(self, n: int) -> Fraction:
        raise NotImplementedError

    def second_order_op(self) -> Operator:
        raise NotImplementedError

    def _build_recurrence(self) -> Recurrence:
        """The closed-form recurrence for this normalisation of p_n (a_n is
        the ratio of leading coefficients); cross-checked against Koekoek,
        Lesky & Swarttouw, Hypergeometric Orthogonal Polynomials and Their
        q-Analogues (Springer 2010), ch. 9."""
        raise NotImplementedError

    def ttr(self, n: int) -> tuple[Fraction, Fraction, Fraction]:
        """Coefficients (a_n, b_n, c_n) of x*p_n = a_n p_{n+1} + b_n p_n + c_n p_{n-1}.

        Each is the family's rational function of n at this n; c_0 = 0."""
        rec = _recurrence(self)
        if n > 0:
            return rec.a(n), rec.b(n), rec.c(n)
        check_at_least("n", n, 0)
        return rec.a(0), rec.b(0) if rec.b0 is None else rec.b0, Fraction(0)

    def name(self) -> str:
        return type(self).__name__.lower()


# lru_cache is safe for concurrent readers, which covers the memo-table
# requirement without hand-rolled locking.
@lru_cache(maxsize=None)
def _classical_poly(fam: Family, n: int) -> Polynomial:
    return fam._build_poly(n)


class Recurrence(NamedTuple):
    """x*p_n = a_n p_{n+1} + b_n p_n + c_n p_{n-1} as data: a_n, b_n and c_n are
    rational functions of n with integer coefficients.

    ``b0`` stands for b_0 where the formula for b_n is 0/0 at n = 0.  c_0 is
    0 for every family: it multiplies p_{-1} = 0."""

    a: RationalFunction
    b: RationalFunction
    c: RationalFunction
    b0: Optional[Fraction] = None


@lru_cache(maxsize=None)
def _recurrence(fam: Family) -> Recurrence:
    return fam._build_recurrence()


def expand_in_family_basis(fam: Family, poly: Polynomial) -> list[Fraction]:
    """Exact coordinates of poly in the basis p_0, p_1, ... of the family."""
    return _expand_graded(
        poly, fam.polynomial, DegeneracyError("family basis expansion failed to terminate")
    )


def eigen_solve_poly(fam: Family, n: int) -> Polynomial:
    """Second, independent generator: solve (D - theta_n) p = 0 degree by degree.

    The second-order operator is triangular on monomials with diagonal
    theta_m, so back-substitution from the leading coefficient (matched to
    the explicit-sum generator) pins the polynomial uniquely.
    """
    op = fam.second_order_op()
    cols = [op.apply(Polynomial.monomial(m)) for m in range(n + 1)]
    theta = [fam.eigenvalue(m) for m in range(n + 1)]
    target = fam.polynomial(n).lead
    v: list[Fraction] = [Fraction(0)] * (n + 1)
    v[n] = target
    for i in range(n - 1, -1, -1):
        s = Fraction(0)
        for m in range(i + 1, n + 1):
            s += cols[m].coeff(i) * v[m]
        if theta[i] == theta[n]:
            raise DegeneracyError(
                f"eigenvalue collision theta_{i} = theta_{n}; eigen-solve is singular"
            )
        v[i] = -s / (theta[i] - theta[n])
    return Polynomial(v)


# -- discrete families ----------------------------------------------------------


class _LatticeFamily(Family):
    """A family whose Newton nodes are the lattice 0, 1, 2, ..."""

    kind = "difference"

    def _build_poly(self, n: int) -> Polynomial:
        return Polynomial.from_newton(self._scalars(n), self._nodes(n))

    def _nodes(self, n: int):
        """The Newton nodes x_0..x_{n-1} = 0..n-1."""
        return range(n)


@dataclass(frozen=True)
class Charlier(_LatticeFamily):
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        if self.a == 0:
            raise DegeneracyError("Charlier requires a != 0")

    def _scalars(self, n: int) -> list[Fraction]:
        # t_j = (-a)^(n-j) / (j! (n-j)!)
        fact = _factorials(n)
        top = _powers(-self.a.numerator, n)
        bot = _powers(self.a.denominator, n)
        return [Fraction(top[n - j], bot[n - j] * fact[j] * fact[n - j]) for j in range(n + 1)]

    def eigenvalue(self, n: int) -> Fraction:
        return Fraction(-n)

    def second_order_op(self) -> DifferenceOperator:
        a = self.a
        return DifferenceOperator(
            {-1: Polynomial.x(), 0: Polynomial((-a, -1)), 1: Polynomial((a,))}
        )

    def _build_recurrence(self) -> Recurrence:
        n, a = Polynomial.x(), self.a
        return Recurrence(RationalFunction.of(n + 1), RationalFunction.of(n + a),
                          RationalFunction.of(a))


@dataclass(frozen=True)
class Meixner(_LatticeFamily):
    a: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "c", as_fraction(self.c))
        if self.a in (0, 1):
            raise DegeneracyError("Meixner requires a not in {0, 1}")

    def _scalars(self, n: int) -> list[Fraction]:
        """The terms of p_n = (c)_n / n! * 2F1(-n, -x; c; 1 - 1/a), which equals
        the generating-function sum (-1)^n sum_j binom(x, j) binom(-x-c, n-j) a^-j,
        with (c)_n / (c)_j = (c+j)_{n-j}, (-x)_j = (-1)^j x(x-1)...(x-j+1) and
        (-n)_j / n! = (-1)^j / (n-j)!:  t_j = (c+j)_{n-j} (1 - 1/a)^j / (j! (n-j)!)."""
        rise, q = rising_suffix(self.c, n)
        r = 1 - 1 / self.a
        fact = _factorials(n)
        top = _powers(r.numerator, n)
        bot = _powers(r.denominator, n)
        qs = _powers(q, n)
        return [
            Fraction(rise[j] * top[j], qs[n - j] * bot[j] * fact[j] * fact[n - j])
            for j in range(n + 1)
        ]

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
        return Recurrence(
            RationalFunction.of((n + 1) * a, a - 1),
            RationalFunction.of(-(n * (1 + a) + a * c), a - 1),
            RationalFunction.of(n + (c - 1), a - 1),
        )


@dataclass(frozen=True)
class Krawtchouk(_LatticeFamily):
    a: Fraction
    N: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "N", as_fraction(self.N))
        if self.a == 0 or self.a == -1:
            raise DegeneracyError("Krawtchouk requires a not in {0, -1}")

    def _scalars(self, n: int) -> list[Fraction]:
        # t_j = (-1)^n (a/(1+a))^(n-j) (-n)_j (N-n)_{n-j} / (j! n!), from
        # (-1)^(n+j) (-x)_j = (-1)^n x(x-1)...(x-j+1); with m = n - j and
        # (-n)_j / n! = (-1)^j / m!, t_j = (-a/(1+a))^m (N-n)_m / (j! m!).
        rise, q = rising_prefix(self.N - n, n)
        r = -self.a / (1 + self.a)
        fact = _factorials(n)
        top = _powers(r.numerator, n)
        bot = _powers(r.denominator * q, n)
        return [
            Fraction(top[m] * rise[m], bot[m] * fact[n - m] * fact[m]) for m in range(n, -1, -1)
        ]

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
        return Recurrence(
            RationalFunction.of(n + 1),
            RationalFunction.of(n * (1 - a) + a * (N - 1), 1 + a),
            RationalFunction.of((N - n) * a, (1 + a) ** 2),
        )


@dataclass(frozen=True)
class Hahn(_LatticeFamily):
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

    def _scalars(self, n: int) -> list[Fraction]:
        # t_j = (-1)^j (-n)_j (1-N+j)_{n-j} (c+j)_{n-j} / ((n+alpha+c-N+j)_{n-j} j!),
        # from (-x)_j = (-1)^j x(x-1)...(x-j+1); (-1)^j (-n)_j / j! = binom(n, j).
        al, c, N = self.alpha, self.c, self.N
        denom, q = rising_suffix(n + al + c - N, n)
        for j, d in enumerate(denom):
            if d == 0:
                raise DegeneracyError(
                    f"Hahn degree-{n} polynomial undefined:"
                    f" (n+alpha+c-N+{j})_{n - j} = 0"
                )
        nums, dens = binomial_rising_terms(n, 1 - N, c)
        qs = _powers(q, n)
        return [Fraction(nums[j] * qs[n - j], dens[j] * denom[j]) for j in range(n + 1)]

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

        def pole(k: int) -> tuple[Polynomial, str]:
            label = f"2n+alpha+c-N{k:+d}" if k else "2n+alpha+c-N"
            return lin(k), f"Hahn recurrence degenerate at n={{n}}: {label} = 0"

        c_num = n * (N - n) * (n + (s - 1)) * (n + (al - N)) * (n + (c - 1)) * (n + (al + c - 1))
        return Recurrence(
            RationalFunction.of(1),
            RationalFunction.of(n * (al - c + N - 1) * (n + s) + c * (N - 1) * (s - 1),
                                lin(-1) * lin(1), [pole(-1), pole(1)]),
            RationalFunction.of(c_num, lin(-2) * lin(-1) ** 2 * lin(0),
                                [pole(-2), pole(-1), pole(0)]),
        )

    def r_basis(self, j: int) -> Polynomial:
        return lattice_product(j, self.alpha + self.c - self.N - 2)

    def u_seq(self, j: int, n: RatLike) -> Fraction:
        n = as_fraction(n)
        return pochhammer(n, j) * pochhammer(-n - self.alpha - self.c + self.N + 2, j)


# -- continuous families ---------------------------------------------------------


class _CenteredFamily(Family):
    """A family whose Newton nodes all equal one center c.

    Then p_n(x) = T(x - c) for T = sum_j t_j x^j: one integer Taylor shift
    of the scalars, and none when c = 0."""

    kind = "differential"
    _center: int

    def _build_poly(self, n: int) -> Polynomial:
        return Polynomial(self._scalars(n)).shift_arg(-self._center)


@dataclass(frozen=True)
class Laguerre(_CenteredFamily):
    alpha: Fraction

    _center = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))

    def _scalars(self, n: int) -> list[Fraction]:
        # t_j = (-1)^j / j! * binom(n+alpha, n-j) = (-1)^j (alpha+1+j)_{n-j} / (j! (n-j)!)
        rise, q = rising_suffix(self.alpha + 1, n)
        fact = _factorials(n)
        qs = _powers(q, n)
        return [
            Fraction((-1) ** j * rise[j], qs[n - j] * fact[j] * fact[n - j]) for j in range(n + 1)
        ]

    def eigenvalue(self, n: int) -> Fraction:
        return Fraction(-n)

    def second_order_op(self) -> DifferentialOperator:
        return DifferentialOperator(
            (Polynomial.zero(), Polynomial((self.alpha + 1, -1)), Polynomial.x())
        )

    def _build_recurrence(self) -> Recurrence:
        n, al = Polynomial.x(), self.alpha
        return Recurrence(
            RationalFunction.of(-(n + 1)),
            RationalFunction.of(n * 2 + (al + 1)),
            RationalFunction.of(-(n + al)),
        )


@dataclass(frozen=True)
class Jacobi(_CenteredFamily):
    alpha: Fraction
    beta: Fraction

    _center = 1

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

    def _scalars(self, n: int) -> list[Fraction]:
        """The terms of p_n = (alpha+1)_n / n! * 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2),
        which equals 2^-n sum_j binom(n+alpha, j) binom(n+beta, n-j) (x-1)^(n-j) (x+1)^j,
        with (alpha+1)_n / (alpha+1)_j = (alpha+1+j)_{n-j}, ((1-x)/2)^j = (-1/2)^j (x-1)^j
        and (-n)_j / n! = (-1)^j / (n-j)!:
        t_j = (alpha+1+j)_{n-j} (n+alpha+beta+1)_j / (2^j j! (n-j)!)."""
        al, be = self.alpha, self.beta
        rise, q = rising_suffix(al + 1, n)
        low, r = rising_prefix(n + al + be + 1, n)
        fact = _factorials(n)
        qs = _powers(q, n)
        rs = _powers(2 * r, n)
        return [
            Fraction(rise[j] * low[j], qs[n - j] * rs[j] * fact[j] * fact[n - j])
            for j in range(n + 1)
        ]

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
        return Recurrence(
            RationalFunction.of((n + 1) * (n + (s + 1)) * 2, lin(1) * lin(2)),
            RationalFunction.of(be * be - al * al, lin(0) * lin(2)),
            RationalFunction.of((n + al) * (n + be) * 2, lin(0) * lin(1)),
            b0=(be - al) / (s + 2),
        )

    def r_basis(self, j: int) -> Polynomial:
        """prod_{i<j} ((alpha+i+1)(beta-i) - x); the j = 0 product is 1."""
        al, be = self.alpha, self.beta
        return Polynomial.from_roots([(al + i + 1) * (be - i) for i in range(j)], (-1) ** j)

    def u_seq(self, j: int, n: RatLike) -> Fraction:
        n = as_fraction(n)
        return pochhammer(n + self.alpha, j) * pochhammer(n + self.beta - j, j)


def _factorials(n: int) -> list[int]:
    """[0!, 1!, ..., n!] as a running product."""
    return _running(range(1, n + 1))


def _powers(base: int, n: int) -> list[int]:
    """[1, base, ..., base^n] as a running product."""
    return _running(repeat(base, n))


def binomial_rising_terms(k: int, u: RatLike, v: RatLike) -> tuple[list[int], list[int]]:
    """binom(k, j) (u+j)_{k-j} (v+j)_{k-j} = nums[j] / dens[j] for j = 0..k.

    binom(k, j) = (-1)^j (-k)_j / j!.  O(k) integer products and no division,
    so a vanishing rising factor gives an exact zero term."""
    rise_u, qu = rising_suffix(u, k)
    rise_v, qv = rising_suffix(v, k)
    fact = _factorials(k)
    qs = _powers(qu * qv, k)
    nums = [fact[k] * rise_u[j] * rise_v[j] for j in range(k + 1)]
    dens = [fact[j] * fact[k - j] * qs[k - j] for j in range(k + 1)]
    return nums, dens


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
    terms = [Fraction(a, b) for a, b in zip(*binomial_rising_terms(k, 1 - N, c))]
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
