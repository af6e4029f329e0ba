"""Moment functionals, pairings, and orthogonality checks.

A MomentFunctional is a classical base functional (normalized so the
pairing with 1 equals 1 in the base's natural mass unit) plus a chain of
transforms applied outermost-last:

* ChristoffelBy(r): multiply the functional by a polynomial r,
* ShiftBy(lam): replace the argument measure mu(x) by mu(x + lam),
* AddDeltaScaled(loc, mass_ratio): add a point mass, measured as a ratio
  against the base's unit mass.

Pairings are computed exactly from the moments mu_j = <functional, x^j>:
the base moments come from one sweep of the base family's three-term
recurrence (mu_j is the p_0 coordinate of x^j), and each transform maps the
whole moment vector, innermost first.  Because every check downstream is a
ratio identity, the transcendental unit masses never appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Sequence, Union

from .errors import DegeneracyError, NoOrthogonalPolynomialsError, check_at_least
from .families import (
    Charlier,
    FAMILY_PARAM_FIELDS,
    Family,
    Hahn,
    Jacobi,
    Krawtchouk,
    Laguerre,
    Meixner,
    dual_hahn_variant,
    family_from_json,
    family_from_name,
    family_to_json,
)
from .polyops import (
    Polynomial,
    RatLike,
    _expand_graded,
    as_fraction,
    binom_poly,
    fraction_to_str,
    pochhammer,
)


@dataclass(frozen=True)
class ChristoffelBy:
    poly: Polynomial

    def __post_init__(self):
        if isinstance(self.poly, (int, Fraction)):
            object.__setattr__(self, "poly", Polynomial((self.poly,)))
        elif not isinstance(self.poly, Polynomial):
            raise TypeError(f"poly must be a Polynomial or a rational; got {self.poly!r}")


@dataclass(frozen=True)
class ShiftBy:
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "offset", as_fraction(self.offset))


@dataclass(frozen=True)
class AddDeltaScaled:
    location: Fraction
    mass_ratio: Fraction

    def __post_init__(self):
        object.__setattr__(self, "location", as_fraction(self.location))
        object.__setattr__(self, "mass_ratio", as_fraction(self.mass_ratio))


Transform = Union[ChristoffelBy, ShiftBy, AddDeltaScaled]


@dataclass(frozen=True)
class MomentFunctional:
    base: Family
    transforms: tuple[Transform, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "transforms", tuple(self.transforms))
        for t in self.transforms:
            if not isinstance(t, (ChristoffelBy, ShiftBy, AddDeltaScaled)):
                raise TypeError(f"unknown transform {t!r}")

    def transformed(self, transform: Transform) -> "MomentFunctional":
        """Apply one more transform on the outside."""
        return MomentFunctional(self.base, self.transforms + (transform,))


def _moments(functional: MomentFunctional, top: int) -> list[Fraction]:
    """mu_j = <functional, x^j> for j = 0..top; none when top < 0.

    The base moments run to T = top + the Christoffel degrees, in one sweep
    of the recurrence x p_m = a_m p_{m+1} + b_m p_m + c_m p_{m-1}: v holds
    the coordinates of x^j in the basis p_0, p_1, ... up to index T - j, the
    last that can still reach p_0, and mu_j = v[0].  Each transform then
    maps the vector, innermost first: <r u, x^j> = sum_i r_i mu_{i+j},
    <u(. + l), x^j> = <u, (x - l)^j> and <u + m delta_c, x^j> = mu_j + m c^j.
    """
    if top < 0:
        return []
    T = top + sum([max(t.poly.degree, 0) for t in functional.transforms
                   if isinstance(t, ChristoffelBy)])
    a, b, c = zip(*[functional.base.ttr(m) for m in range(T // 2 + 2)])
    v, mus = [Fraction(1)], [Fraction(1)]
    for j in range(1, T + 1):
        w = [0, *v, 0, 0]  # w[m + 1] = v[m], and zero past either end
        v = [a[m - 1] * w[m] + b[m] * w[m + 1] + c[m + 1] * w[m + 2]
             for m in range(min(j, T - j) + 1)]
        mus.append(v[0])
    for t in functional.transforms:
        if isinstance(t, ChristoffelBy):
            g = t.poly.coeffs
            mus = [sum([r * mus[i + j] for i, r in enumerate(g)], Fraction(0))
                   for j in range(len(mus) - max(t.poly.degree, 0))]
        elif isinstance(t, ShiftBy):
            mus = [sum([comb(j, i) * (-t.offset) ** (j - i) * mus[i] for i in range(j + 1)])
                   for j in range(len(mus))]
        else:
            mus = [mu + t.mass_ratio * t.location**j for j, mu in enumerate(mus)]
    return mus


def base_pairing(family: Family, poly: Polynomial) -> Fraction:
    """Pair the base functional with poly, in units of the base's total mass."""
    return pairing(MomentFunctional(family), poly)


def pairing(functional: MomentFunctional, poly: Polynomial) -> Fraction:
    """Exact pairing <functional, poly> in base-unit mass."""
    return _moment_pairing(functional, len(poly._ints()[0]) - 1)(poly)


def moment(functional: MomentFunctional, power: int) -> Fraction:
    return pairing(functional, Polynomial.monomial(power))


# -- exact linear algebra over Fraction ------------------------------------------


def det_fraction(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m = [list(map(Fraction, row)) for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for k in range(col, n):
                    m[r][k] -= factor * m[col][k]
    return det


def solve_fraction(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square exact system; raises ValueError if singular."""
    n = len(matrix)
    m = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col] * inv
                for k in range(col, n + 1):
                    m[r][k] -= factor * m[col][k]
    return [m[i][n] / m[i][i] for i in range(n)]


# -- orthogonal sequences from moments ---------------------------------------------


def _moment_pairing(functional: MomentFunctional, top: int) -> Callable[[Polynomial], Fraction]:
    """The exact pairing p -> <functional, p> for deg p <= top.

    By linearity it is sum_j c_j mu_j over the moments of ``_moments``,
    summed on integer numerators over one denominator.
    """
    mus = _moments(functional, top)
    den = lcm(*[mu.denominator for mu in mus])
    nums = [mu.numerator * (den // mu.denominator) for mu in mus]

    def pair(poly: Polynomial) -> Fraction:
        cs, d = poly._ints()
        return Fraction(sum(c * m for c, m in zip(cs, nums)), d * den)

    return pair


def hankel_det(functional: MomentFunctional, level: int) -> Fraction:
    """det(mu_{i+j})_{i,j=0..level}."""
    check_at_least("level", level, 0)
    mus = _moments(functional, 2 * level)
    rows = range(level + 1)
    return det_fraction([[mus[i + j] for j in rows] for i in rows])


def orthoseq(functional: MomentFunctional, nmax: int) -> list[Polynomial]:
    """Monic orthogonal polynomials p_0..p_nmax for the functional.

    Built by the three-term recurrence on moments: with h_k = <p_k, p_k>,
    p_{k+1} = x p_k - (<x p_k, p_k> / h_k) p_k - (h_k / h_{k-1}) p_{k-1}.
    Since h_k is the ratio of consecutive Hankel determinants, the first
    h_k = 0 is the first vanishing Hankel determinant, and raises
    NoOrthogonalPolynomialsError with that level recorded.
    """
    check_at_least("nmax", nmax, 0)
    pair = _moment_pairing(functional, 2 * nmax + 1)
    out: list[Polynomial] = []
    prev, p, h_prev = Polynomial.zero(), Polynomial.one(), Fraction(1)
    for k in range(nmax + 1):
        h = pair(p * p)
        if h == 0:
            raise NoOrthogonalPolynomialsError(
                f"no orthogonal polynomial of degree {k}: Hankel determinant vanishes",
                level=k,
            )
        out.append(p)
        xp = Polynomial.x() * p
        prev, p, h_prev = p, xp - p * (pair(xp * p) / h) - prev * (h / h_prev), h
    return out


@dataclass
class GramReport:
    values: list[list[Fraction]]
    ok: bool
    failures: list[tuple[int, int]]
    diagonal: list[Fraction]

    @property
    def diagonal_signs(self) -> list[int]:
        return [0 if v == 0 else (1 if v > 0 else -1) for v in self.diagonal]


def gram_check(functional: MomentFunctional, polys: Sequence[Polynomial]) -> GramReport:
    """Pair every product p_i p_j; off-diagonal must vanish, diagonal must not."""
    n = len(polys)
    check_at_least("len(polys)", n, 1)
    pair = _moment_pairing(functional, 2 * max(len(p._ints()[0]) for p in polys) - 2)
    values = [[Fraction(0)] * n for _ in range(n)]
    failures = []
    for i in range(n):
        for j in range(i, n):
            v = pair(polys[i] * polys[j])
            values[i][j] = values[j][i] = v
            if i != j and v != 0:
                failures.append((i, j))
    diagonal = [values[i][i] for i in range(n)]
    ok = not failures and all(d != 0 for d in diagonal)
    return GramReport(values=values, ok=ok, failures=failures, diagonal=diagonal)


# -- named transformed functionals -------------------------------------------------


def _shifted_window(base: Family, k: int) -> MomentFunctional:
    """The base shifted by k+1, then multiplied by (x+1)(x+2)...(x+k)."""
    window = Polynomial.from_roots([-i for i in range(1, k + 1)])
    return MomentFunctional(base, (ShiftBy(k + 1), ChristoffelBy(window)))


def _c_window(c: Fraction, k: int) -> Polynomial:
    """(x+c-1)(x+c-2)...(x+c-k)."""
    return Polynomial.from_roots([i - c for i in range(1, k + 1)])


def charlier_transformed(a: RatLike, k: int) -> MomentFunctional:
    """Shift by k+1 then multiply by (x+1)...(x+k); the point mass at
    -k-1 present in the closed-form description emerges from the algebra."""
    return _shifted_window(Charlier(as_fraction(a)), k)


def meixner1_transformed(a: RatLike, c: RatLike, k: int) -> MomentFunctional:
    c = as_fraction(c)
    base = MomentFunctional(Meixner(as_fraction(a), c - k - 1))
    return base.transformed(ChristoffelBy(_c_window(c, k)))


def meixner2_transformed(a: RatLike, c: RatLike, k: int) -> MomentFunctional:
    return _shifted_window(Meixner(as_fraction(a), as_fraction(c) - k - 1), k)


def krawtchouk_transformed(a: RatLike, N: RatLike, k: int) -> MomentFunctional:
    return _shifted_window(Krawtchouk(as_fraction(a), as_fraction(N) + k + 1), k)


def hahn1_transformed(alpha: RatLike, c: RatLike, N: RatLike, k: int) -> MomentFunctional:
    c = as_fraction(c)
    base = MomentFunctional(Hahn(as_fraction(alpha), c - k - 1, as_fraction(N)))
    return base.transformed(ChristoffelBy(_c_window(c, k)))


def hahn2_transformed(alpha: RatLike, c: RatLike, N: RatLike, k: int) -> MomentFunctional:
    alpha, c, N = as_fraction(alpha), as_fraction(c), as_fraction(N)
    return _shifted_window(Hahn(alpha + k + 1, c - k - 1, N + k + 1), k)


def laguerre_transformed(alpha: RatLike, mass_ratio: RatLike) -> MomentFunctional:
    """Laguerre weight with parameter alpha-1 plus a point mass at 0.

    mass_ratio is the point mass measured in the base's unit mass."""
    base = MomentFunctional(Laguerre(as_fraction(alpha) - 1))
    return base.transformed(AddDeltaScaled(Fraction(0), as_fraction(mass_ratio)))


def jacobi_transformed(alpha: RatLike, beta: RatLike, mass_ratio: RatLike) -> MomentFunctional:
    """Jacobi weight with second parameter beta-1 plus a point mass at -1."""
    base = MomentFunctional(Jacobi(as_fraction(alpha), as_fraction(beta) - 1))
    return base.transformed(AddDeltaScaled(Fraction(-1), as_fraction(mass_ratio)))


# -- pairing-value lemmas as ratio identities -----------------------------------------


@dataclass
class RatioCheck:
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class RatioReport:
    kind: str
    checks: list[RatioCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# kind -> (family, transformed functional F, dual family D and ratio r), where
# <F, p_n> / <F, p_0> = r^n D_k(-n-1) / D_k(-1); the Hahn kinds share a formula.
_IP_LEMMAS = {
    "chxx": ("charlier", charlier_transformed, lambda f: (Charlier(-f.a), -1)),
    "lme1x": ("meixner", meixner1_transformed, lambda f: (Meixner(1 / f.a, 2 - f.c), 1)),
    "meixner2": ("meixner", meixner2_transformed, lambda f: (Meixner(f.a, 2 - f.c), 1 / f.a)),
    "krawtchouk": (
        "krawtchouk",
        krawtchouk_transformed,
        lambda f: (Krawtchouk(f.a, -f.N), -1 / (1 + f.a)),
    ),
    "hahn1": ("hahn", hahn1_transformed, None),
    "hahn2": ("hahn", hahn2_transformed, None),
}
IP_LEMMA_KINDS = tuple(_IP_LEMMAS)


def ip_lemma_check(kind: str, params: dict, k: int, nmax: int) -> RatioReport:
    """Check a closed-form pairing lemma as the ratio <F, p_n> / <F, p_0>.

    Ratios are taken so every transcendental unit mass cancels and both
    sides are exact rationals.  ``params`` carries the family parameters
    (a, c, N, alpha as appropriate).  A vanishing normaliser, <F, p_0> or
    the right side's, raises DegeneracyError.
    """
    check_at_least("nmax", nmax, 0)
    check_at_least("k", k, 0)
    if kind not in _IP_LEMMAS:
        raise ValueError(f"unknown pairing lemma kind {kind!r}")
    name, build, dual_and_ratio = _IP_LEMMAS[kind]
    fam = family_from_name(name, params)
    functional = build(*(getattr(fam, f) for f in FAMILY_PARAM_FIELDS[name]), k)
    if dual_and_ratio:
        dual, r = dual_and_ratio(fam)
        d = dual.polynomial(k)
        norm_name, norm = "D_k(-1)", d(Fraction(-1))

        def expected(n: int) -> Fraction:
            return r**n * d(Fraction(-n - 1)) / norm

    else:
        al, c, N = fam.alpha, fam.c, fam.N
        variant = 1 if kind == "hahn1" else 2
        hstar = dual_hahn_variant(variant, al, c, N, k)
        norm_name, norm = "h*(theta_0)", hstar(fam.eigenvalue(0))

        def expected(n: int) -> Fraction:
            ratio = hstar(fam.eigenvalue(n)) / norm
            shared = (
                (-1) ** n
                * Fraction(factorial(n))
                * pochhammer(al + 1 - N, n)
                / pochhammer(al + c - N, 2 * n)
            )
            extra = pochhammer(N - n, n) if variant == 1 else pochhammer(al + c, n)
            return shared * extra * ratio

    pair = _moment_pairing(functional, nmax)
    base_value = pair(fam.polynomial(0))
    zeros = [f"{name} = 0" for name, v in (("<F, p_0>", base_value), (norm_name, norm)) if not v]
    if zeros:
        raise DegeneracyError(f"{kind}: pairing normaliser vanishes ({' and '.join(zeros)});"
                              " the ratios <F, p_n> / <F, p_0> are undefined")
    checks = []
    for n in range(nmax + 1):
        lhs = pair(fam.polynomial(n)) / base_value
        checks.append(RatioCheck(n=n, lhs=lhs, rhs=expected(n)))
    return RatioReport(kind=kind, checks=checks)


# -- Laguerre-type bilinear form with a derivative-free point part ---------------------


def occ_weights(p2: Polynomial) -> tuple[int, list[Fraction]]:
    """Expand P2(-x) in the shifted binomial basis C(x+j, j).

    When P2(1) != 0 the normalized form is
        P2(-x)/P2(1) = 1 + sum_{j=1}^k w_j C(x+j, j)
    and the returned start index is 1.  When P2(1) = 0 the expansion is
        P2(-x) = sum_{j=1}^k w_j C(x+j, j),   w_0 = -1 kept for bookkeeping,
    and the start index is 0.  Weights are indexed w[j] for j = 0..k.
    """
    k = 0 if p2.is_zero() else p2.degree
    at_one = p2(Fraction(1))
    if at_one != 0:
        g = p2(Polynomial((0, -1))) / at_one - Polynomial.one()
        start = 1
    else:
        g = p2(Polynomial((0, -1)))
        start = 0
    # Triangular: C(x+j, j) = (x+1)...(x+j)/j! has degree j.  Its j = 0 member
    # is 1 and the others vanish at x = -1, as g does in both branches, so the
    # j = 0 coordinate is g(-1) = 0 and the expansion leaves no remainder.
    failure = DegeneracyError("binomial-basis expansion left a nonzero remainder")
    coords = _expand_graded(g, lambda j: binom_poly(j).shift_arg(j), failure)
    weights = [Fraction(-1) if start == 0 else Fraction(0)] + coords[1:]
    return start, weights + [Fraction(0)] * (k + 1 - len(weights))


def occ_q_poly(alpha: RatLike, p2: Polynomial) -> Polynomial:
    """The degree-k companion polynomial Q built from the expansion weights."""
    alpha = as_fraction(alpha)
    k = p2.degree
    start, weights = occ_weights(p2)
    out = Polynomial.zero()
    for j in range(start, k + 1):
        out = out + Polynomial.monomial(k - j, pochhammer(alpha - j, j) * weights[j])
    return out


def occ_form(alpha: RatLike, p2: Polynomial, f: Polynomial, g: Polynomial) -> Fraction:
    """Bilinear form pairing two polynomials against the Laguerre-type data.

    Value in units of the Laguerre(alpha-k-1) base mass:
        (alpha-k)_k * <mu_{alpha-1}, f*g> + g(0) * <mu_{alpha-k-1}, f*Q>.
    Requires alpha not in {k, k-1, ...} so both base functionals exist.
    """
    alpha = as_fraction(alpha)
    k = p2.degree
    ladder = alpha - k
    if ladder.denominator == 1 and ladder <= 0:
        raise DegeneracyError(
            f"bilinear form needs alpha not in {{k, k-1, ...}}; alpha-k = {ladder}"
        )
    q = occ_q_poly(alpha, p2)
    first = pochhammer(alpha - k, k) * base_pairing(Laguerre(alpha - 1), f * g)
    second = g(Fraction(0)) * base_pairing(Laguerre(alpha - k - 1), f * q)
    return first + second


# -- Casorati determinant check ------------------------------------------------------


def casorati_check(a: RatLike, k: int, n: int) -> tuple[Fraction, Fraction]:
    """Return (determinant, closed form) for the k x k Casorati matrix
    of Charlier values (p_{n+j-1}(i))_{i,j=1..k}."""
    check_at_least("k", k, 1)
    check_at_least("n", n, 0)
    a = as_fraction(a)
    fam = Charlier(a)
    matrix = [
        [fam.polynomial(n + j - 1)(Fraction(i)) for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    det = det_fraction(matrix)
    dual = Charlier(-a)
    prod = Fraction(1)
    for j in range(1, k + 1):
        prod *= Fraction(factorial(j), factorial(n + j - 1))
    closed = (-1) ** (k * n) * a ** ((n - 1) * k) * prod * dual.polynomial(k)(Fraction(-n))
    return det, closed


def measure_to_json(functional: MomentFunctional) -> dict:
    """Descriptor of a moment functional: base family plus transform list."""
    transforms = []
    for t in functional.transforms:
        if isinstance(t, ChristoffelBy):
            transforms.append({"kind": "christoffel", "poly": t.poly.to_json()})
        elif isinstance(t, ShiftBy):
            transforms.append({"kind": "shift", "offset": fraction_to_str(t.offset)})
        else:
            transforms.append(
                {
                    "kind": "add-delta",
                    "location": fraction_to_str(t.location),
                    "mass_ratio": fraction_to_str(t.mass_ratio),
                }
            )
    return {"base": family_to_json(functional.base), "transforms": transforms}


def measure_from_json(data: dict) -> MomentFunctional:
    base = family_from_json(data["base"])
    transforms: list[Transform] = []
    for t in data["transforms"]:
        kind = t["kind"]
        if kind == "christoffel":
            transforms.append(ChristoffelBy(Polynomial.from_json(t["poly"])))
        elif kind == "shift":
            transforms.append(ShiftBy(as_fraction(t["offset"])))
        elif kind == "add-delta":
            transforms.append(
                AddDeltaScaled(as_fraction(t["location"]), as_fraction(t["mass_ratio"]))
            )
        else:
            raise ValueError(f"unknown transform kind {kind!r}")
    return MomentFunctional(base, tuple(transforms))
