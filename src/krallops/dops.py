"""Lowering operators attached to each classical family.

A first-kind operator acts on the family as the alternating series
    sum_{j>=1} (-1)^{j+1} eps_n eps_{n-1} ... eps_{n-j+1} p_{n-j},
a second-kind operator additionally carries a sequence sigma_n:
    -(sigma_{n+1}/2) p_n + sum_{j>=1} (-1)^{j+1} sigma_{n+1-j} (eps products) p_{n-j}.
Each catalog entry pairs the defining sequences with a closed-form
difference or differential operator; verify_dop checks the two agree on
p_0..p_N and reports witnesses instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .errors import DegeneracyError, check_at_least
from .families import Charlier, Family, Hahn, Jacobi, Krawtchouk, Laguerre, Meixner
from .opalg import (
    DifferenceOperator,
    DifferentialOperator,
    Operator,
)
from .polyops import Polynomial


@dataclass(frozen=True)
class DOperator:
    """One lowering operator: defining sequences plus its closed form."""

    kind: str  # "type1" or "type2"
    family: Family
    label: str
    eps: Callable[[int], Fraction] = field(compare=False)
    closed_form: Operator = field(compare=False)
    sigma: Optional[Callable[[int], Fraction]] = field(default=None, compare=False)

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


def catalog(family: Family) -> list[DOperator]:
    """All lowering operators this package knows for the given family."""
    if isinstance(family, Charlier):
        return [
            DOperator(
                kind="type1",
                family=family,
                label="charlier-D1",
                eps=lambda n: Fraction(1),
                closed_form=DifferenceOperator.backward_difference(),
            )
        ]
    if isinstance(family, Meixner):
        a = family.a
        delta = DifferenceOperator.forward_difference()
        nabla = DifferenceOperator.backward_difference()
        return [
            DOperator(
                kind="type1",
                family=family,
                label="meixner-D1",
                eps=lambda n: Fraction(-1),
                closed_form=delta * (a / (1 - a)),
            ),
            DOperator(
                kind="type1",
                family=family,
                label="meixner-D2",
                eps=lambda n: -1 / a,
                closed_form=nabla * (1 / (1 - a)),
            ),
        ]
    if isinstance(family, Krawtchouk):
        a = family.a
        delta = DifferenceOperator.forward_difference()
        nabla = DifferenceOperator.backward_difference()
        return [
            DOperator(
                kind="type1",
                family=family,
                label="krawtchouk-D1",
                eps=lambda n: 1 / (1 + a),
                closed_form=nabla * (1 / (1 + a)),
            ),
            DOperator(
                kind="type1",
                family=family,
                label="krawtchouk-D2",
                eps=lambda n: -a / (1 + a),
                closed_form=delta * (-a / (1 + a)),
            ),
        ]
    if isinstance(family, Hahn):
        al, c, N = family.alpha, family.c, family.N
        half = (al + c - N) / 2

        def denom(n: int) -> Fraction:
            d = (2 * n + al + c - N - 1) * (2 * n + al + c - N - 2)
            if d == 0:
                raise DegeneracyError(
                    f"Hahn lowering sequence degenerate at n={n}:"
                    " (2n+alpha+c-N-1)(2n+alpha+c-N-2) = 0"
                )
            return d

        delta = DifferenceOperator.forward_difference()
        nabla = DifferenceOperator.backward_difference()
        ident = DifferenceOperator.identity()
        x = Polynomial.x()
        d1 = DifferenceOperator({0: Polynomial((N - 1, -1))}).compose(delta) - ident * half
        d2 = DifferenceOperator({0: Polynomial((-al, 1))}).compose(nabla) + ident * half
        d3 = DifferenceOperator({0: x}).compose(nabla) + ident * half
        d4 = DifferenceOperator({0: Polynomial((-c, -1))}).compose(delta) - ident * half
        sig = family.sigma
        return [
            DOperator(
                kind="type2",
                family=family,
                label="hahn-D1",
                eps=lambda n: n * (N - n) * (n + al - N) / denom(n),
                sigma=lambda n: sig(n),
                closed_form=d1,
            ),
            DOperator(
                kind="type2",
                family=family,
                label="hahn-D2",
                eps=lambda n: n * (n + al - N) * (n + al + c - 1) / denom(n),
                sigma=lambda n: -sig(n),
                closed_form=d2,
            ),
            DOperator(
                kind="type2",
                family=family,
                label="hahn-D3",
                eps=lambda n: -n * (N - n) * (n + c - 1) / denom(n),
                sigma=lambda n: -sig(n),
                closed_form=d3,
            ),
            DOperator(
                kind="type2",
                family=family,
                label="hahn-D4",
                eps=lambda n: -n * (n + c - 1) * (n + al + c - 1) / denom(n),
                sigma=lambda n: sig(n),
                closed_form=d4,
            ),
        ]
    if isinstance(family, Laguerre):
        return [
            DOperator(
                kind="type1",
                family=family,
                label="laguerre-D1",
                eps=lambda n: Fraction(-1),
                closed_form=DifferentialOperator.ddx(),
            )
        ]
    if isinstance(family, Jacobi):
        al, be = family.alpha, family.beta
        half = (al + be + 1) / 2

        def eps1(n: int) -> Fraction:
            d = n + al + be
            if d == 0:
                raise DegeneracyError(f"Jacobi lowering sequence degenerate: n+alpha+beta = 0 at n={n}")
            return (n + al) / d

        def eps2(n: int) -> Fraction:
            d = n + al + be
            if d == 0:
                raise DegeneracyError(f"Jacobi lowering sequence degenerate: n+alpha+beta = 0 at n={n}")
            return -(n + be) / d

        sig = family.sigma
        d1 = DifferentialOperator((Polynomial((-half,)), Polynomial((1, -1))))
        d2 = DifferentialOperator((Polynomial((half,)), Polynomial((1, 1))))
        return [
            DOperator(
                kind="type2",
                family=family,
                label="jacobi-D1",
                eps=eps1,
                sigma=lambda n: sig(n),
                closed_form=d1,
            ),
            DOperator(
                kind="type2",
                family=family,
                label="jacobi-D2",
                eps=eps2,
                sigma=lambda n: -sig(n),
                closed_form=d2,
            ),
        ]
    raise ValueError(f"no lowering-operator catalog for {family!r}")
