"""Lowering operators attached to each classical family.

A first-kind operator acts on the family as the alternating series
    sum_{j>=1} (-1)^{j+1} eps_n eps_{n-1} ... eps_{n-j+1} p_{n-j},
a second-kind operator additionally carries a sequence sigma_n:
    -(sigma_{n+1}/2) p_n + sum_{j>=1} (-1)^{j+1} sigma_{n+1-j} (eps products) p_{n-j}.
The catalog is one table keyed by family type; each row pairs the defining
sequences with a closed-form difference or differential operator, and
verify_dop checks the two agree on p_0..p_N, reporting witnesses instead
of raising.  eps_n and sigma_n are data: polyops.RationalFunction values of
n, whose labelled poles raise DegeneracyError where a denominator vanishes.
``catalog`` builds them once per family value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

from .errors import check_at_least
from .families import Charlier, Family, Hahn, Jacobi, Krawtchouk, Laguerre, Meixner
from .opalg import DifferenceOperator, DifferentialOperator, Operator
from .polyops import Polynomial, RationalFunction, RatLike


@dataclass(frozen=True)
class DOperator:
    """One lowering operator: defining sequences plus its closed form."""

    kind: str  # "type1" or "type2"
    family: Family
    label: str
    eps: Callable[[int], Fraction]
    closed_form: Operator
    sigma: Optional[Callable[[int], Fraction]] = None

    def __post_init__(self):
        if self.kind not in ("type1", "type2"):
            raise ValueError("DOperator kind must be 'type1' or 'type2'")
        if self.kind == "type2" and self.sigma is None:
            raise ValueError("type2 operators need a sigma sequence")


def series_apply(dop: DOperator, n: int) -> Polynomial:
    """Evaluate the defining series on p_n; it truncates after n terms."""
    fam = dop.family
    out = Polynomial.zero()
    if dop.kind == "type2":
        out = out + fam.polynomial(n) * (-dop.sigma(n + 1) / 2)
    eps_product = Fraction(1)
    for j in range(1, n + 1):
        eps_product *= dop.eps(n - j + 1)
        coeff = (-1) ** (j + 1) * eps_product
        if dop.kind == "type2":
            coeff *= dop.sigma(n + 1 - j)
        out = out + fam.polynomial(n - j) * coeff
    return out


@dataclass
class DopCheck:
    n: int
    ok: bool
    series: Polynomial
    closed: Polynomial


@dataclass
class DopVerification:
    dop_label: str
    nmax: int
    checks: list[DopCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[DopCheck]:
        return [c for c in self.checks if not c.ok]


def verify_dop(dop: DOperator, nmax: int) -> DopVerification:
    """Compare series and closed form on p_0..p_nmax; collect mismatches."""
    check_at_least("nmax", nmax, 0)
    checks = []
    for n in range(nmax + 1):
        series = series_apply(dop, n)
        closed = dop.closed_form.apply(dop.family.polynomial(n))
        checks.append(DopCheck(n=n, ok=series == closed, series=series, closed=closed))
    return DopVerification(dop_label=dop.label, nmax=nmax, checks=checks)


def _hahn_form(fam: Hahn, coeff: Polynomial, forward: bool) -> DifferenceOperator:
    """coeff(x) Delta - h, or coeff(x) Nabla + h, with h = (alpha+c-N)/2."""
    half = (fam.alpha + fam.c - fam.N) / 2
    diff, half = (_DELTA, -half) if forward else (_NABLA, half)
    return DifferenceOperator({0: coeff}).compose(diff) + DifferenceOperator.identity() * half


class _Row(NamedTuple):
    """One catalog entry, as functions of the family: the numerator of eps_n
    as a polynomial in n (the family's ``_EPS_DEN`` is its denominator),
    sigma_n's sign against ``family.sigma`` for a second-kind operator (None
    for a first-kind one), and the closed form."""

    label: str
    eps: Callable[[Family, Polynomial], Union[Polynomial, RatLike]]
    sign: Optional[int]
    closed_form: Callable[[Family], Operator]


_DELTA = DifferenceOperator.forward_difference()
_NABLA = DifferenceOperator.backward_difference()

_CATALOG: dict[type, tuple[_Row, ...]] = {
    Charlier: (
        _Row(
            "charlier-D1",
            lambda f, n: 1,
            None,
            lambda f: DifferenceOperator.backward_difference(),
        ),
    ),
    Meixner: (
        _Row("meixner-D1", lambda f, n: -1, None, lambda f: _DELTA * (f.a / (1 - f.a))),
        _Row("meixner-D2", lambda f, n: -1 / f.a, None, lambda f: _NABLA * (1 / (1 - f.a))),
    ),
    Krawtchouk: (
        _Row("krawtchouk-D1", lambda f, n: 1 / (1 + f.a), None, lambda f: _NABLA * (1 / (1 + f.a))),
        _Row(
            "krawtchouk-D2",
            lambda f, n: -f.a / (1 + f.a),
            None,
            lambda f: _DELTA * (-f.a / (1 + f.a)),
        ),
    ),
    Hahn: (
        _Row(
            "hahn-D1",
            lambda f, n: n * (f.N - n) * (n + (f.alpha - f.N)),
            1,
            lambda f: _hahn_form(f, Polynomial((f.N - 1, -1)), forward=True),
        ),
        _Row(
            "hahn-D2",
            lambda f, n: n * (n + (f.alpha - f.N)) * (n + (f.alpha + f.c - 1)),
            -1,
            lambda f: _hahn_form(f, Polynomial((-f.alpha, 1)), forward=False),
        ),
        _Row(
            "hahn-D3",
            lambda f, n: -n * (f.N - n) * (n + (f.c - 1)),
            -1,
            lambda f: _hahn_form(f, Polynomial.x(), forward=False),
        ),
        _Row(
            "hahn-D4",
            lambda f, n: -n * (n + (f.c - 1)) * (n + (f.alpha + f.c - 1)),
            1,
            lambda f: _hahn_form(f, Polynomial((-f.c, -1)), forward=True),
        ),
    ),
    Laguerre: (
        _Row("laguerre-D1", lambda f, n: -1, None, lambda f: DifferentialOperator.ddx()),
    ),
    Jacobi: (
        _Row(
            "jacobi-D1",
            lambda f, n: n + f.alpha,
            1,
            lambda f: DifferentialOperator(
                (Polynomial((-(f.alpha + f.beta + 1) / 2,)), Polynomial((1, -1)))
            ),
        ),
        _Row(
            "jacobi-D2",
            lambda f, n: -(n + f.beta),
            -1,
            lambda f: DifferentialOperator(
                (Polynomial(((f.alpha + f.beta + 1) / 2,)), Polynomial((1, 1)))
            ),
        ),
    ),
}

# The denominator of every eps_n of a family, as a polynomial in n, with its
# degeneracy text; eps_n of the other families is the numerator alone.
_EPS_DEN: dict[type, Callable[[Family, Polynomial], tuple[Polynomial, str]]] = {
    Hahn: lambda f, n: (
        (n * 2 + (f.alpha + f.c - f.N - 1)) * (n * 2 + (f.alpha + f.c - f.N - 2)),
        "Hahn lowering sequence degenerate at n={n}: (2n+alpha+c-N-1)(2n+alpha+c-N-2) = 0",
    ),
    Jacobi: lambda f, n: (
        n + (f.alpha + f.beta),
        "Jacobi lowering sequence degenerate: n+alpha+beta = 0 at n={n}",
    ),
}


def catalog(family: Family) -> list[DOperator]:
    """All lowering operators this package knows for the given family."""
    return list(_catalog(family))


@lru_cache(maxsize=None)
def _catalog(family: Family) -> tuple[DOperator, ...]:
    """The catalog of one family value, built on first use."""
    rows = _CATALOG.get(type(family))
    if rows is None:
        raise ValueError(f"no lowering-operator catalog for {family!r}")
    n, den, poles = Polynomial.x(), 1, ()
    if type(family) in _EPS_DEN:
        den, text = _EPS_DEN[type(family)](family, n)
        poles = [(den, text)]
    return tuple(
        DOperator(
            kind="type1" if row.sign is None else "type2",
            family=family,
            label=row.label,
            eps=RationalFunction.of(row.eps(family, n), den, poles),
            closed_form=row.closed_form(family),
            sigma=None if row.sign is None else family.sigma if row.sign > 0 else -family.sigma,
        )
        for row in rows
    )
