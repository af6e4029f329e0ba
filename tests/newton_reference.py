"""The classical families' p_n in Newton form, as a reference for the tests.

``Family.polynomial`` builds p_n from the three-term recurrence.  These are
the explicit hypergeometric sums it replaced: p_n = sum_j t_j(n) prod_{i<j}
(x - x_i), with each term t_j(n) the former per-family ``_term`` on
``Fraction`` arithmetic, and the nodes x_i = i on the lattice families, 0 for
Laguerre and 1 for Jacobi.  ``ref_term`` computes one term from scratch;
``ref_scalars`` gives all n + 1 terms of the same formulas with each rising
factorial carried from j to j + 1, O(n) products instead of O(n^2), and is
checked against ``ref_term``.

``eigen_solve_poly`` is a second, independent reference for p_n: it solves
the family's eigen-equation degree by degree.  ``expand_in_family_basis``
gives a polynomial's coordinates in the basis p_0, p_1, ....
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from krallops.errors import DegeneracyError, check_at_least
from krallops.families import Charlier, Family, Hahn, Jacobi, Krawtchouk, Laguerre, Meixner
from krallops.polyops import Polynomial, _expand_graded, as_fraction


def ref_pochhammer(start, count: int) -> Fraction:
    """Rising factorial (start)_count = start*(start+1)*...*(start+count-1)."""
    check_at_least("count", count, 0)
    a = as_fraction(start)
    out = Fraction(1)
    for i in range(count):
        out *= a + i
    return out


def ref_binom_scalar(top, count: int) -> Fraction:
    """binom(top, count) for rational top and nonnegative integer count."""
    t = as_fraction(top)
    return ref_pochhammer(t - count + 1, count) / factorial(count)


def ref_term(fam, n: int, j: int) -> Fraction:
    """The Newton coefficient t_j(n) of p_n: the former ``_term`` of each family."""
    if isinstance(fam, Charlier):
        return (-fam.a) ** (n - j) * ref_binom_scalar(n, j) / factorial(n)
    if isinstance(fam, Meixner):
        top = ref_pochhammer(fam.c + j, n - j) * ref_pochhammer(-n, j) * (1 / fam.a - 1) ** j
        return top / (factorial(j) * factorial(n))
    if isinstance(fam, Krawtchouk):
        a, N = fam.a, fam.N
        # (-1)^(n+j) (-x)_j = (-1)^n x(x-1)...(x-j+1)
        top = (
            (-1) ** n * (a / (1 + a)) ** (n - j)
            * ref_pochhammer(-n, j) * ref_pochhammer(N - n, n - j)
        )
        return top / (factorial(j) * factorial(n))
    if isinstance(fam, Hahn):
        al, c, N = fam.alpha, fam.c, fam.N
        denom = ref_pochhammer(n + al + c - N + j, n - j)
        if denom == 0:
            raise DegeneracyError(
                f"Hahn degree-{n} polynomial undefined:"
                f" (n+alpha+c-N+{j})_{n - j} = 0"
            )
        # (-x)_j = (-1)^j x(x-1)...(x-j+1)
        top = (-1) ** j * ref_pochhammer(-n, j) * ref_pochhammer(1 - N + j, n - j)
        return top * ref_pochhammer(c + j, n - j) / (denom * factorial(j))
    if isinstance(fam, Laguerre):
        return Fraction((-1) ** j, factorial(j)) * ref_binom_scalar(n + fam.alpha, n - j)
    al, be = fam.alpha, fam.beta
    top = (
        ref_pochhammer(al + 1 + j, n - j) * ref_pochhammer(-n, j)
        * ref_pochhammer(n + al + be + 1, j)
    )
    return top * Fraction(-1, 2) ** j / (factorial(j) * factorial(n))


def _prefixes(start, n: int) -> list[Fraction]:
    """(start)_j for j = 0..n."""
    out = [Fraction(1)]
    for i in range(n):
        out.append(out[-1] * (start + i))
    return out


def _suffixes(start, n: int) -> list[Fraction]:
    """(start+j)_{n-j} for j = 0..n."""
    out = [Fraction(1)]
    for j in range(n - 1, -1, -1):
        out.append(out[-1] * (start + j))
    return out[::-1]


def ref_scalars(fam, n: int) -> list[Fraction]:
    """[ref_term(fam, n, j) for j = 0..n], the rising factorials carried in j."""
    fact = [Fraction(factorial(j)) for j in range(n + 1)]
    lower = _prefixes(-n, n)  # (-n)_j
    if isinstance(fam, Charlier):
        # binom(n, j) / n! = 1 / (j! (n - j)!)
        return [(-fam.a) ** (n - j) / (fact[j] * fact[n - j]) for j in range(n + 1)]
    if isinstance(fam, Meixner):
        rise, q = _suffixes(fam.c, n), 1 / fam.a - 1
        return [rise[j] * lower[j] * q ** j / (fact[j] * fact[n]) for j in range(n + 1)]
    if isinstance(fam, Krawtchouk):
        a, rise = fam.a, _prefixes(fam.N - n, n)
        return [(-1) ** n * (a / (1 + a)) ** (n - j) * lower[j] * rise[n - j]
                / (fact[j] * fact[n]) for j in range(n + 1)]
    if isinstance(fam, Hahn):
        al, c, N = fam.alpha, fam.c, fam.N
        denom = _suffixes(n + al + c - N, n)
        if 0 in denom:
            j = denom.index(0)
            raise DegeneracyError(
                f"Hahn degree-{n} polynomial undefined:"
                f" (n+alpha+c-N+{j})_{n - j} = 0"
            )
        top, rise = _suffixes(1 - N, n), _suffixes(c, n)
        return [(-1) ** j * lower[j] * top[j] * rise[j] / (denom[j] * fact[j])
                for j in range(n + 1)]
    if isinstance(fam, Laguerre):
        # binom(n + alpha, n - j) = (alpha + 1 + j)_{n-j} / (n - j)!
        rise = _suffixes(fam.alpha + 1, n)
        return [(-1) ** j * rise[j] / (fact[j] * fact[n - j]) for j in range(n + 1)]
    al, be = fam.alpha, fam.beta
    rise, upper = _suffixes(al + 1, n), _prefixes(n + al + be + 1, n)
    return [rise[j] * lower[j] * upper[j] * Fraction(-1, 2) ** j / (fact[j] * fact[n])
            for j in range(n + 1)]


def ref_nodes(fam, n: int) -> list[int]:
    """The Newton nodes x_0..x_{n-1} of p_n."""
    if isinstance(fam, Laguerre):
        return [0] * n
    if isinstance(fam, Jacobi):
        return [1] * n
    return list(range(n))


@lru_cache(maxsize=None)
def ref_newton_poly(fam, n: int) -> Polynomial:
    """p_n from its reference terms and nodes."""
    return Polynomial.from_newton(ref_scalars(fam, n), ref_nodes(fam, n))


def expand_in_family_basis(fam: Family, poly: Polynomial) -> list[Fraction]:
    """Exact coordinates of poly in the basis p_0, p_1, ... of the family."""
    return _expand_graded(
        poly, fam.polynomial, DegeneracyError("family basis expansion failed to terminate")
    )


def eigen_solve_poly(fam: Family, n: int) -> Polynomial:
    """Second, independent generator: solve (D - theta_n) p = 0 degree by degree.

    The second-order operator is triangular on monomials with diagonal
    theta_m, so back-substitution from the leading coefficient (matched to
    the recurrence generator) pins the polynomial uniquely.
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
