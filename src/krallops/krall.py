"""Construction of eigen-sequences q_n = p_n + beta_n p_{n-1}.

Given a classical family, one of its lowering operators, and a seed
polynomial P2, the first-kind construction produces

    gamma_{n+1} = P2(theta_n),   beta_n = eps_n * gamma_{n+1}/gamma_n,
    lambda_n = P1(theta_n)  with  P1(x + step) - P1(x) = P2(x),
    D_q = P1(D_p) + Dop * P2(D_p),

which satisfies D_q(q_n) = lambda_n q_n exactly.  It applies when
theta_n is affine in n.  The second-kind construction covers the
quadratic-eigenvalue families (Hahn, Jacobi): the seed is a weight
vector in the r_j basis, gamma_n = P2(theta_{n-1}), the companion P1
comes from a family-specific two-term combination of the r_j, and

    lambda_n = (sigma_n gamma_n + P1(theta_{n-1})) / 2,
    D_q = (1/2) P1(D_p) + Dop * P2(D_p).

``named`` assembles the eight ready-made constructions together with the
moment functional each one is orthogonal against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple, Optional, Sequence

from . import moments
from .dops import DOperator, catalog
from .errors import ConstructionError, HypothesisError, check_at_least
from .families import (
    FAMILY_PARAM_FIELDS,
    Charlier,
    Family,
    Hahn,
    Jacobi,
    Krawtchouk,
    Laguerre,
    Meixner,
    binomial_rising_terms,
)
from .opalg import (
    DifferenceOperator,
    EigenGrid,
    Operator,
    operator_to_json,
    poly_of_op,
)
from .polyops import (
    Polynomial,
    RatLike,
    _expand_graded,
    antidifference,
    as_fraction,
    fraction_to_str,
    pochhammer,
)


class _Memo(NamedTuple):
    """gamma_1..gamma_{nmax+1}, each checked nonzero once, and q_n by n, built
    once; ``key`` holds the (family, p2, dop, gamma_fn) they were read from."""

    key: tuple
    gammas: list[Fraction]
    q_cache: dict[int, Polynomial]


@dataclass
class KrallConstruction:
    """A constructed eigen-sequence and, unless orthogonality-only, its operator.

    Everything else follows from these fields: gamma_n = P2(theta_{n-1})
    (or ``gamma_fn``, orthogonality-only kind), beta_n = eps_n gamma_{n+1} /
    gamma_n, and lambda_n from P1, with ``sign`` the frame of a second-kind
    construction (-1 after ``negated_frame``)."""

    family: Family
    kind: str  # "type1", "type2", or "orthogonality-only"
    label: str
    nmax: int
    dop: DOperator
    p1: Optional[Polynomial] = None
    p2: Optional[Polynomial] = None
    operator: Optional[Operator] = None
    sign: int = 1
    gamma_fn: Optional[Callable[[int], Fraction]] = None
    # Values computed from family, p2, dop and gamma_fn; a replaced copy shares
    # them only while it keeps those four objects (``negated_frame`` does).
    _memo: Optional[_Memo] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        key = (self.family, self.p2, self.dop, self.gamma_fn)
        if self._memo is None or any(a is not b for a, b in zip(self._memo.key, key)):
            self._memo = _Memo(key, [], {})
        gammas = self._memo.gammas
        for n in range(len(gammas) + 1, self.nmax + 2):
            gammas.append(self._nonzero(n, self._gamma(n)))

    def _gamma(self, n: int) -> Fraction:
        if self.gamma_fn is not None:
            return self.gamma_fn(n)
        return self.p2(self.family.eigenvalue(n - 1))

    def _nonzero(self, n: int, g: Fraction) -> Fraction:
        if g == 0:
            raise HypothesisError(
                f"{self.label}: gamma_{n} = 0, construction hypothesis fails", index=n
            )
        return g

    @property
    def seed_degree(self) -> Optional[int]:
        return None if self.p2 is None else self.p2.degree

    def gamma(self, n: int) -> Fraction:
        check_at_least("n", n, 1)
        gammas = self._memo.gammas
        return gammas[n - 1] if n <= len(gammas) else self._gamma(n)

    def beta(self, n: int) -> Fraction:
        g = self._nonzero(n, self.gamma(n))
        return self.dop.eps(n) * self.gamma(n + 1) / g

    def eigval(self, n: int) -> Fraction:
        check_at_least("n", n, 0)
        if self.p1 is None:
            raise ConstructionError(f"{self.label} carries no operator eigenvalues")
        theta = self.family.eigenvalue
        if self.kind == "type1":
            return self.p1(theta(n))
        if n == 0:  # p2(theta_0) = gamma_1
            return (self.p1(theta(0)) - self.sign * self.dop.sigma(1) * self.gamma(1)) / 2
        return (self.sign * self.dop.sigma(n) * self.gamma(n) + self.p1(theta(n - 1))) / 2

    def q(self, n: int) -> Polynomial:
        q_cache = self._memo.q_cache
        qn = q_cache.get(n)
        if qn is None:
            qn = self.family.polynomial(n)
            if n:
                qn = qn + self.family.polynomial(n - 1) * self.beta(n)
            q_cache[n] = qn
        return qn

    def q_sequence(self, nmax: int) -> list[Polynomial]:
        return [self.q(n) for n in range(nmax + 1)]


def _assemble(
    family: Family, kind: str, dop: DOperator, p1: Polynomial, p2: Polynomial, nmax: int, label: str
) -> KrallConstruction:
    """D_q = P1(D_p) + Dop P2(D_p), with P1 halved for the second kind."""
    dp = family.second_order_op()
    lead = poly_of_op(p1, dp)
    if kind == "type2":
        lead = lead * Fraction(1, 2)
    operator = lead + dop.closed_form.compose(poly_of_op(p2, dp))
    return KrallConstruction(family, kind, label, nmax, dop, p1, p2, operator)


def construct_type1(
    family: Family,
    dop: DOperator,
    p2: Polynomial,
    nmax: int,
    p1: Optional[Polynomial] = None,
    label: str = "type1",
) -> KrallConstruction:
    """First-kind construction; theta_n must be affine in n.

    When p1 is supplied (the ready-made theorems fix their own constant
    terms) it must satisfy p1(x+step) - p1(x) = p2(x); otherwise the
    antidifference with zero constant term is used.
    """
    if dop.kind != "type1":
        raise ConstructionError("construct_type1 needs a first-kind lowering operator")
    if p2.is_zero():
        raise ConstructionError("seed polynomial must be nonzero")
    theta = family.eigenvalue
    step = theta(1) - theta(0)
    if theta(2) - theta(1) != step or step == 0:
        raise ConstructionError(
            "first-kind construction needs eigenvalues affine in n;"
            f" got increments {theta(1) - theta(0)} then {theta(2) - theta(1)}"
        )
    if p1 is None:
        p1 = antidifference(p2, step)
    elif p1.shift_arg(step) - p1 != p2:
        raise ConstructionError("supplied companion does not difference to the seed")
    return _assemble(family, "type1", dop, p1, p2, nmax, label)


def type2_companion(family: Family, weights: Sequence[Fraction]) -> Polynomial:
    """The two-term r_j combination whose differences telescope correctly.

    For each family the combination satisfies
    P1(theta_n) - P1(theta_{n-1}) = sigma_n gamma_n + sigma_{n+1} gamma_{n+1}
    against P2 = sum w_j r_j, which is what the second-kind eigenvalue
    bookkeeping needs.
    """
    if isinstance(family, Hahn):
        c1 = Fraction(-2)
        c2 = lambda j: -family.alpha - family.c + family.N + 2 * (j + 1)
    elif isinstance(family, Jacobi):
        c1 = Fraction(2)
        c2 = lambda j: family.alpha - family.beta + 2 * j + 1
    else:
        raise ConstructionError("second-kind companion needs a Hahn or Jacobi family")
    out = Polynomial.zero()
    for j, w in enumerate(weights):
        if w == 0:
            continue
        out = out + family.r_basis(j + 1) * (c1 * w / (j + 1)) + family.r_basis(j) * (c2(j) * w)
    return out


def construct_type2(
    family: Family,
    dop: DOperator,
    weights: Sequence[RatLike],
    nmax: int,
    label: str = "type2",
) -> KrallConstruction:
    """Second-kind construction from a weight vector in the r_j basis."""
    if dop.kind != "type2":
        raise ConstructionError("construct_type2 needs a second-kind lowering operator")
    if not isinstance(family, (Hahn, Jacobi)):
        raise ConstructionError("second-kind construction applies to Hahn and Jacobi")
    w = [as_fraction(v) for v in weights]
    while w and w[-1] == 0:
        w.pop()
    k = len(w) - 1
    if k < 1:
        raise ConstructionError("second-kind construction needs seed degree k >= 1")

    # The catalog sigma is +/- the family sigma; fix the sign from n = 1, 2.
    sign = None
    for n in (1, 2):
        fam_sig = family.sigma(n)
        if fam_sig != 0:
            ratio = dop.sigma(n) / fam_sig
            if sign is None:
                sign = ratio
            elif sign != ratio:
                raise ConstructionError("lowering operator sigma is not +/- family sigma")
    if sign not in (1, -1):
        raise ConstructionError("lowering operator sigma is not +/- family sigma")

    p2 = Polynomial.zero()
    for j, wj in enumerate(w):
        p2 = p2 + family.r_basis(j) * wj
    p1 = type2_companion(family, w) * sign
    return _assemble(family, "type2", dop, p1, p2, nmax, label)


def negated_frame(kc: KrallConstruction) -> KrallConstruction:
    """Flip (P1, lambda, D_q) -> (-P1, -lambda, -D_q); same q_n, same eigen-identity."""
    if kc.operator is None:
        return replace(kc)
    return replace(kc, p1=-kc.p1, operator=-kc.operator, sign=-kc.sign)


def generalized_operator(
    kc: KrallConstruction, g: Polynomial
) -> tuple[Operator, Callable[[int], Fraction]]:
    """Widen a first-kind construction: for any polynomial G the operator
    P1G(D_p) + G(D_p) Dop P2(D_p) with P1G differencing to G*P2 also has the
    q_n as eigenfunctions, with eigenvalues P1G(theta_n)."""
    if kc.kind != "type1":
        raise ConstructionError("generalized operators extend first-kind constructions")
    theta = kc.family.eigenvalue
    step = theta(1) - theta(0)
    p1g = antidifference(g * kc.p2, step)
    dp = kc.family.second_order_op()
    op = poly_of_op(p1g, dp) + poly_of_op(g, dp).compose(
        kc.dop.closed_form.compose(poly_of_op(kc.p2, dp))
    )
    return op, lambda n: p1g(theta(n))


# -- verification -----------------------------------------------------------------


@dataclass
class EigenCheck:
    n: int
    ok: bool
    expected: Fraction
    # The witness D_q q_n - lambda_n q_n of a failed check; None when it passes.
    residual: Optional[Polynomial] = None


@dataclass
class EigenReport:
    label: str
    nmax: int
    checks: list[EigenCheck]
    order_ok: Optional[bool]
    genre_ok: Optional[bool]
    order: Optional[int]
    genre: Optional[tuple[int, int]]

    @property
    def ok(self) -> bool:
        shape_fine = (self.order_ok is not False) and (self.genre_ok is not False)
        return shape_fine and all(c.ok for c in self.checks)


def verify_eigen(kc: KrallConstruction, nmax: Optional[int] = None) -> EigenReport:
    """Check D_q(q_n) = lambda_n q_n exactly for n = 0..nmax, plus the
    order (2k+2) and, for difference operators, genre (-k-1, k+1) claims."""
    if kc.operator is None:
        raise ConstructionError(f"{kc.label} carries no operator to verify")
    nmax = kc.nmax if nmax is None else nmax
    check_at_least("nmax", nmax, 0)
    op = kc.operator
    # The identity is decided in integers; only an n that fails there builds
    # D_q q_n as a polynomial, for its residual.
    grid = EigenGrid(op)
    checks = []
    for n in range(nmax + 1):
        qn = kc.q(n)
        lam = kc.eigval(n)
        if grid.holds(qn, lam):
            checks.append(EigenCheck(n=n, ok=True, expected=lam))
            continue
        got, want = op.apply(qn), qn * lam
        ok = got == want
        checks.append(EigenCheck(n=n, ok=ok, expected=lam, residual=None if ok else got - want))
    k = kc.seed_degree
    expected_order = 2 * k + 2
    order = op.order()
    order_ok = order == expected_order
    if isinstance(op, DifferenceOperator):
        genre = op.genre()
        genre_ok = genre == (-k - 1, k + 1)
    else:
        genre = None
        genre_ok = None
    return EigenReport(
        label=kc.label,
        nmax=nmax,
        checks=checks,
        order_ok=order_ok,
        genre_ok=genre_ok,
        order=order,
        genre=genre,
    )


def band_profile(
    kc: KrallConstruction, multiplier: Polynomial, nmax: int
) -> dict[int, list[int]]:
    """Expand multiplier * q_n in the q basis; report nonzero offsets j
    (coefficient of q_{n+j}) for each n."""
    check_at_least("nmax", nmax, 0)
    if multiplier.is_zero():
        raise ValueError("multiplier must be a nonzero polynomial")
    d = multiplier.degree
    qs = kc.q_sequence(nmax + d)
    out: dict[int, list[int]] = {}
    failure = ConstructionError("q-basis expansion failed; q_m are not graded")
    for n in range(nmax + 1):
        coords = _expand_graded(multiplier * qs[n], qs.__getitem__, failure)
        out[n] = [m - n for m, c in enumerate(coords) if c != 0]
    return out


# -- the ready-made constructions ---------------------------------------------------


@dataclass
class NamedConstruction:
    construction: KrallConstruction
    functional: moments.MomentFunctional
    notes: list[str] = field(default_factory=list)


def _label(kind: str, values: dict, tail: str) -> str:
    shown = ", ".join(f"{name}={value}" for name, value in values.items())
    return f"{kind}({shown}, {tail})"


class _Type1Recipe(NamedTuple):
    """Seed P2 = lo.p_k(s x - 1) and companion P1 = f * hi.p_{k+1}(s x), where
    ``duals`` gives the dual families (hi, lo)."""

    family: type
    duals: Callable[..., tuple[Family, Family]]
    scale: Callable[..., Fraction]
    factor: Callable[..., Fraction]
    dop_index: int
    functional: Callable[..., moments.MomentFunctional]
    notes: tuple[str, ...] = ()

    def build(self, kind: str, values: dict, params: dict, k: int, nmax: int):
        check_at_least("k", k, 0)
        fam = self.family(**values)
        s = self.scale(**values)
        hi, lo = self.duals(**values)
        p1 = hi.polynomial(k + 1)(Polynomial((0, s))) * self.factor(**values)
        p2 = lo.polynomial(k)(Polynomial((-1, s)))
        dop = catalog(fam)[self.dop_index]
        kc = construct_type1(fam, dop, p2, nmax, p1=p1, label=_label(kind, values, f"k={k}"))
        return NamedConstruction(kc, self.functional(**values, k=k), list(self.notes))


class _Type2Recipe(NamedTuple):
    """Seed weights w_j = (-k)_j (u+j)_{k-j} (v+j)_{k-j} / j! in the r_j basis.

    ``exclusions`` must not be nonpositive integers.  ``negate`` flips the
    raw output, whose catalog operator pairs with -sigma_n, to the usual frame.
    """

    family: type
    pochhammer_pair: Callable[..., tuple[Fraction, Fraction]]
    dop_index: int
    exclusions: tuple[tuple[str, Callable[..., Fraction]], ...]
    negate: bool
    functional: Callable[..., moments.MomentFunctional]

    def build(self, kind: str, values: dict, params: dict, k: int, nmax: int):
        check_at_least("k", k, 0)
        fam = self.family(**values)
        for name, combination in self.exclusions:
            v = combination(**values, k=k)
            if v.denominator == 1 and v <= 0:
                raise HypothesisError(
                    f"{kind}: parameter exclusion violated: {name} = {v} is a"
                    " nonpositive integer"
                )
        terms = binomial_rising_terms(k, *self.pochhammer_pair(**values))
        # (-k)_j / j! = (-1)^j binom(k, j)
        w = [(-1) ** j * t for j, t in enumerate(terms)]
        dop = catalog(fam)[self.dop_index]
        kc = construct_type2(fam, dop, w, nmax, label=_label(kind, values, f"k={k}"))
        if self.negate:
            kc = negated_frame(kc)
        return NamedConstruction(kc, self.functional(**values, k=k), [])


def _laguerre_operator(fam, dop, k: int, raw: Fraction, nmax: int, label: str):
    p2 = Polynomial.one() + Polynomial.from_roots(range(1, k + 1), lead=(-1) ** k) * raw
    p1 = Polynomial((0, -1)) + Polynomial.from_roots(
        range(0, k + 1), lead=(-1) ** (k + 1)
    ) * (raw / (k + 1))
    return construct_type1(fam, dop, p2, nmax, p1=p1, label=label)


def _jacobi_operator(fam, dop, k: int, raw: Fraction, nmax: int, label: str):
    w = [Fraction(1)] + [Fraction(0)] * (k - 1) + [raw]
    return construct_type2(fam, dop, w, nmax, label=label)


class _PointMassRecipe(NamedTuple):
    """A point mass of ``mass`` base units, with gamma_n = 1 + mass * gamma_ratio(n).

    When ``degree_param`` is a positive integer k, ``operator`` builds the
    order-(2k+2) construction from the raw coefficient mass / mass_factor;
    otherwise only the orthogonal sequence exists.
    """

    family: type
    degree_param: str
    mass_factor: Callable[..., Fraction]
    gamma_ratio: Callable[..., Fraction]
    operator: Callable[..., KrallConstruction]
    functional: Callable[..., moments.MomentFunctional]

    def build(self, kind: str, values: dict, params: dict, k: int, nmax: int):
        degree = values[self.degree_param]
        if "mass" in params:
            mass = as_fraction(params["mass"])
        else:
            if degree.denominator != 1 or degree < 0:
                raise ConstructionError(
                    f"raw mass needs integer {self.degree_param}; supply mass in"
                    " anchor units"
                )
            mass = as_fraction(params["mass_raw"]) * self.mass_factor(**values)
        fam = self.family(**values)
        functional = self.functional(**values, mass_ratio=mass)

        def gamma_fn(n: int) -> Fraction:
            return 1 + mass * self.gamma_ratio(**values, n=n)

        label = _label(kind, values, f"mass={mass}")
        dop = catalog(fam)[0]
        notes = []
        if degree.denominator == 1 and degree >= 1:
            raw = mass / self.mass_factor(**values)
            kc = self.operator(fam, dop, int(degree), raw, nmax, label)
            if kc.gamma(1) != gamma_fn(1) or kc.gamma(3) != gamma_fn(3):
                raise ConstructionError(f"{kind} mass reparameterization mismatch")
        else:
            kc = KrallConstruction(
                fam, "orthogonality-only", label, nmax, dop, gamma_fn=gamma_fn
            )
            notes.append(
                f"{self.degree_param} is not a positive integer: no finite-order"
                " operator exists, so only the orthogonal sequence is built"
            )
        return NamedConstruction(kc, functional, notes)


def _hahn_exclusions(third: tuple[str, Callable[..., Fraction]]):
    return (
        ("alpha+c-N+1", lambda alpha, c, N, k: alpha + c - N + 1),
        ("alpha-N+1", lambda alpha, c, N, k: alpha - N + 1),
        third,
        ("c-k-1", lambda alpha, c, N, k: c - k - 1),
    )


# Every callable in a recipe takes the family parameters by name.
_RECIPES = {
    "charlier": _Type1Recipe(
        family=Charlier,
        duals=lambda a: (Charlier(-a), Charlier(-a)),
        scale=lambda a: Fraction(1),
        factor=lambda a: Fraction(-1),
        dop_index=0,
        functional=moments.charlier_transformed,
    ),
    "meixner1": _Type1Recipe(
        family=Meixner,
        duals=lambda a, c: (Meixner(1 / a, 1 - c), Meixner(1 / a, 2 - c)),
        scale=lambda a, c: 1 / (1 - a),
        factor=lambda a, c: 1 / (a - 1),
        dop_index=0,  # eps = -1 pairs with the forward-difference form
        functional=moments.meixner1_transformed,
        notes=(
            "companion operator uses the forward-difference closed form;"
            " the backward-difference printing of this construction does"
            " not reproduce the lowering series",
        ),
    ),
    "meixner2": _Type1Recipe(
        family=Meixner,
        duals=lambda a, c: (Meixner(a, 1 - c), Meixner(a, 2 - c)),
        scale=lambda a, c: 1 / (1 - a),
        factor=lambda a, c: a / (1 - a),
        dop_index=1,  # eps = -1/a pairs with the backward difference
        functional=moments.meixner2_transformed,
    ),
    "krawtchouk": _Type1Recipe(
        family=Krawtchouk,
        duals=lambda a, N: (Krawtchouk(a, 1 - N), Krawtchouk(a, -N)),
        scale=lambda a, N: 1 / (1 + a),
        factor=lambda a, N: Fraction(-1),
        dop_index=0,  # eps = 1/(1+a)
        functional=moments.krawtchouk_transformed,
        notes=(
            "beta_n uses eps_n * gamma_{n+1}/gamma_n with eps_n = 1/(1+a);"
            " a variant display with an extra factor n fails the eigen and"
            " orthogonality checks",
        ),
    ),
    "hahn1": _Type2Recipe(
        family=Hahn,
        pochhammer_pair=lambda alpha, c, N: (2 - alpha - c, 2 - c),
        dop_index=0,
        exclusions=_hahn_exclusions(("alpha+c-k-1", lambda alpha, c, N, k: alpha + c - k - 1)),
        negate=False,
        functional=moments.hahn1_transformed,
    ),
    "hahn2": _Type2Recipe(
        family=Hahn,
        pochhammer_pair=lambda alpha, c, N: (2 - c, N + 1),
        dop_index=1,
        exclusions=_hahn_exclusions(("alpha+c", lambda alpha, c, N, k: alpha + c)),
        negate=True,
        functional=moments.hahn2_transformed,
    ),
    "laguerre": _PointMassRecipe(
        family=Laguerre,
        degree_param="alpha",
        mass_factor=lambda alpha: factorial(int(alpha)),
        gamma_ratio=lambda alpha, n: pochhammer(alpha + 1, n - 1) / factorial(n - 1),
        operator=_laguerre_operator,
        functional=moments.laguerre_transformed,
    ),
    "jacobi": _PointMassRecipe(
        family=Jacobi,
        degree_param="beta",
        mass_factor=lambda alpha, beta: pochhammer(1 + alpha, int(beta)) * factorial(int(beta)),
        gamma_ratio=lambda alpha, beta, n: (
            pochhammer(1 + alpha + beta, n - 1)
            * pochhammer(1 + beta, n - 1)
            / (pochhammer(1 + alpha, n - 1) * factorial(n - 1))
        ),
        operator=_jacobi_operator,
        functional=moments.jacobi_transformed,
    ),
}

NAMED_KINDS = tuple(_RECIPES)


def named(kind: str, params: dict, k: int, nmax: int) -> NamedConstruction:
    """Build one of the eight ready-made constructions.

    ``params`` uses keys a, c, N, alpha, beta, mass as appropriate.  For
    laguerre/jacobi, ``k`` is ignored (the seed degree is alpha resp.
    beta when those are positive integers) and ``mass`` is the point-mass
    ratio in base units; ``mass_raw`` may stand in for ``mass``.
    """
    recipe = _RECIPES.get(kind)
    if recipe is None:
        raise ValueError(f"unknown construction kind {kind!r}")
    check_at_least("nmax", nmax, 0)
    fields = FAMILY_PARAM_FIELDS[recipe.family.__name__.lower()]
    missing = [f for f in fields if f not in params]
    if isinstance(recipe, _PointMassRecipe) and not {"mass", "mass_raw"} & params.keys():
        missing.append("mass or mass_raw")
    if missing:
        raise ValueError(f"theorem {kind!r} needs parameters {missing}")
    values = {f: as_fraction(params[f]) for f in fields}
    return recipe.build(kind, values, params, k, nmax)


# -- serialization -----------------------------------------------------------------


def construction_to_json(kc: KrallConstruction, nmax: Optional[int] = None) -> dict:
    nmax = kc.nmax if nmax is None else nmax
    check_at_least("nmax", nmax, 0)
    data: dict = {
        "label": kc.label,
        "kind": kc.kind,
        "family": type(kc.family).__name__.lower(),
        "nmax": nmax,
        "gamma": [fraction_to_str(kc.gamma(n)) for n in range(1, nmax + 2)],
        "beta": [fraction_to_str(kc.beta(n)) for n in range(1, nmax + 1)],
    }
    if kc.p1 is not None:
        data["p1"] = kc.p1.to_json()
        data["p2"] = kc.p2.to_json()
        data["eigenvalues"] = [fraction_to_str(kc.eigval(n)) for n in range(nmax + 1)]
        data["operator"] = operator_to_json(kc.operator)
    return data
