"""Dense univariate polynomials over exact rationals.

Everything downstream (difference/differential operators, classical
families, moment functionals) is built on this class, so it stays small
and strict: a polynomial is stored as integer numerators, ascending by
power with trailing zeros stripped, over one positive denominator that
shares no factor with all of them, and every operation is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import DegeneracyError, check_at_least

RatLike = Union[Fraction, int, str]

NEG_INF = float("-inf")


def as_fraction(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def fraction_to_str(value: Fraction) -> str:
    """Serialize a Fraction as a "num/den" string (denominator always shown)."""
    return f"{value.numerator}/{value.denominator}"


class Polynomial:
    """Immutable polynomial with exact rational coefficients.

    Stored as the canonical pair (_nums, _den): a tuple of integer
    numerators with no trailing zero, over _den > 0 with
    gcd(_den, *_nums) == 1; zero is ((), 1).  The pair is unique for each
    polynomial (_den is the lcm of the lowest-terms coefficient
    denominators), so equality and hashing read it.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        self._nums, self._den = _reduced([c.numerator * (den // c.denominator) for c in cs], den)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int, coeff: RatLike = 1) -> "Polynomial":
        check_at_least("power", power, 0)
        c = as_fraction(coeff)
        if c == 0:
            return cls()
        return cls([0] * power + [c])

    @classmethod
    def from_roots(cls, roots: Iterable[RatLike], lead: RatLike = 1) -> "Polynomial":
        roots = list(roots)
        return cls.from_newton([0] * len(roots) + [lead], roots)

    @classmethod
    def from_newton(cls, scalars: Sequence[RatLike], nodes: Sequence[RatLike]) -> "Polynomial":
        """sum_j scalars[j] * prod_{i<j} (x - nodes[i]), by nested multiplication.

        Needs len(scalars) - 1 nodes.  With the nodes as b_i / E and the
        scalars as a_j / D over common denominators, the integer polynomials
        A_m = a_m and A_j = A_{j+1} * (E x - b_j) + E^(m-j) a_j end at
        A_0 = D E^m p, so one reduction to Fractions is made, at the end.
        """
        ts = [as_fraction(t) for t in scalars]
        if not ts:
            return cls()
        m = len(ts) - 1
        if len(nodes) < m:
            raise ValueError(
                f"nodes must have at least {m} entries for {m + 1} scalars; got {len(nodes)}"
            )
        xs = [as_fraction(nodes[i]) for i in range(m)]
        D = lcm(*[t.denominator for t in ts])
        E = lcm(*[x.denominator for x in xs])
        a = [t.numerator * (D // t.denominator) for t in ts]
        acc, scale = [a[m]], 1
        for j in range(m - 1, -1, -1):
            b = xs[j].numerator * (E // xs[j].denominator)
            scale *= E
            acc = [E * hi - b * lo for hi, lo in zip([0] + acc, acc + [0])]
            acc[0] += scale * a[j]
        return _from_ints(acc, D * scale)

    # -- inspection ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The lowest-terms Fraction coefficients, ascending by power."""
        den = self._den
        return tuple([Fraction(c, den) for c in self._nums])

    @property
    def degree(self):
        """Degree as an int; float('-inf') for the zero polynomial."""
        return len(self._nums) - 1 if self._nums else NEG_INF

    def is_zero(self) -> bool:
        return not self._nums

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self._nums):
            return Fraction(self._nums[power], self._den)
        return Fraction(0)

    @property
    def lead(self) -> Fraction:
        if not self._nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._den)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, da = self._nums, self._den
        b, db = other._nums, other._den
        if da != db:
            den = lcm(da, db)
            a = [c * (den // da) for c in a]
            b = [c * (den // db) for c in b]
            da = den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _from_ints(out, da)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        out = Polynomial.__new__(Polynomial)
        out._nums, out._den = tuple([-c for c in self._nums]), self._den
        return out

    def __sub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self._nums or not other._nums:
                return Polynomial()
            return _from_ints(_convolve(self._nums, other._nums), self._den * other._den)
        try:
            c = as_fraction(other)
        except TypeError:
            return NotImplemented
        u = c.numerator
        return _from_ints([u * a for a in self._nums], self._den * c.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        c = as_fraction(scalar)
        if not self._nums:
            return self
        if not c:
            # raises the ZeroDivisionError of the coefficient-wise quotient
            return self.coeff(0) / c
        return self * Fraction(c.denominator, c.numerator)

    def __pow__(self, exponent: int) -> "Polynomial":
        check_at_least("exponent", exponent, 0)
        out = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- evaluation and composition -------------------------------------------

    def __call__(self, point):
        """Evaluate at a rational point, or compose when given a Polynomial."""
        if isinstance(point, Polynomial):
            acc: Polynomial = Polynomial()
            for c in reversed(self.coeffs):
                acc = acc * point + Polynomial((c,))
            return acc
        x0 = as_fraction(point)
        # Horner on integers: sum_j c_j u^j v^(d-j) over den v^d, for x0 = u/v.
        u, v = x0.numerator, x0.denominator
        acc, vp = 0, 1
        for c in reversed(self._nums):
            acc = acc * u + c * vp
            vp *= v
        return Fraction(acc * v, self._den * vp)

    def shift_arg(self, offset: RatLike) -> "Polynomial":
        """Return p(x + offset), by an integer Taylor shift.

        For offset u/v and degree d: scale coefficient j by v^(d-j), shift
        by the integer u, then scale coefficient j by v^j over the
        denominator v^d.
        """
        off = as_fraction(offset)
        if off == 0 or len(self._nums) < 2:
            return self
        nums, den = self._nums, self._den
        u, v = off.numerator, off.denominator
        d = len(nums) - 1
        nums = [c * v ** (d - j) for j, c in enumerate(nums)]
        _taylor_shift(nums, u)
        return _from_ints([c * v**j for j, c in enumerate(nums)], den * v**d)

    def derivative(self, times: int = 1) -> "Polynomial":
        check_at_least("times", times, 0)
        nums = self._nums
        for _ in range(times):
            nums = [j * nums[j] for j in range(1, len(nums))]
        return _from_ints(list(nums), self._den)

    # -- integer form --------------------------------------------------------------

    def _ints(self) -> tuple[tuple[int, ...], int]:
        """The stored pair: integer numerators over the lcm of the coefficient
        denominators."""
        return self._nums, self._den

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self):
        # A constant hashes as the Fraction it equals.
        return hash(self.coeff(0)) if len(self._nums) < 2 else hash((self._nums, self._den))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        cs = self.coeffs
        for power in range(len(cs) - 1, -1, -1):
            c = cs[power]
            if c == 0:
                continue
            if power == 0:
                body = str(c)
            else:
                xs = "x" if power == 1 else f"x^{power}"
                if c == 1:
                    body = xs
                elif c == -1:
                    body = f"-{xs}"
                else:
                    body = f"{c}*{xs}"
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
        return out

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> list[str]:
        return [fraction_to_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "Polynomial":
        return cls(data)


def _reduced(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """The canonical pair for coefficients nums[j] / den, with den > 0: trailing
    zeros of ``nums`` stripped in place, then one gcd and one exact division."""
    while nums and not nums[-1]:
        nums.pop()
    # Tuples are built from lists, not generators: tuple(genexpr) resizes as
    # it goes, which on the eigen workloads left CPython's tuple free lists
    # full and raised peak RSS by more than 1 MB.
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([c // g for c in nums]), den // g


def _from_ints(nums: list[int], den: int) -> Polynomial:
    """Polynomial with coefficients nums[j] / den (den > 0); strips trailing
    zeros of ``nums`` in place."""
    out = Polynomial.__new__(Polynomial)
    out._nums, out._den = _reduced(nums, den)
    return out


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product of two integer coefficient lists (both nonempty)."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, y in enumerate(b):
        if y:
            out[i : i + len(a)] = [o + x * y for o, x in zip(out[i : i + len(a)], a)]
    return out


def _values_at(nums: Sequence[int], xs: Sequence[int]) -> list[int]:
    """The integer polynomial ``nums`` (nonempty) at every integer in ``xs``,
    by Horner's rule run over all the points at once."""
    acc = [nums[-1]] * len(xs)
    for c in reversed(nums[:-1]):
        acc = [a * x + c for a, x in zip(acc, xs)]
    return acc


def _taylor_shift(nums: list[int], u: int) -> None:
    """In place: replace the coefficients of p(x) by those of p(x + u).

    Synthetic division: d passes of Horner's rule, O(d^2) integer
    operations (von zur Gathen and Gerhard, ISSAC 1997)."""
    d = len(nums) - 1
    for i in range(d):
        acc = nums[d]
        for j in range(d - 1, i - 1, -1):
            acc = nums[j] = nums[j] + u * acc


def _coerce_poly(value):
    if isinstance(value, Polynomial):
        return value
    try:
        return Polynomial((as_fraction(value),))
    except TypeError:
        return NotImplemented


# A NamedTuple, not a dataclass: the class is made at import, where the
# dataclass decorator costs about 0.8 ms of every CLI call.
class RationalFunction(NamedTuple):
    """num(n) / den(n) for integer polynomials num and den in n.

    Both are ascending integer coefficient tuples with no common content.
    At an integer n each is one integer Horner loop, and the quotient is
    reduced to a Fraction once.  ``poles`` labels factors of den, each with
    its error text ("{n}" marks the index): where den(n) = 0, the first of
    them that vanishes raises DegeneracyError, and with none of them
    ZeroDivisionError is raised.
    """

    num: tuple[int, ...]
    den: tuple[int, ...]
    poles: tuple[tuple[tuple[int, ...], str], ...] = ()

    @classmethod
    def of(cls, num: Union[Polynomial, RatLike], den: Union[Polynomial, RatLike] = 1,
           poles: Sequence[tuple[Polynomial, str]] = ()) -> "RationalFunction":
        """num / den for rational polynomials or constants, over one integer
        denominator; ``poles`` pairs factors of den with their error texts."""
        num, den = _coerce_poly(num), _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        (a, da), (b, db) = num._ints(), den._ints()
        # (a / da) / (b / db) = (a db) / (b da)
        top, bot = [c * db for c in a], [c * da for c in b]
        g = gcd(*top, *bot)
        labelled = tuple([(factor._ints()[0], text) for factor, text in poles])
        return cls(tuple([c // g for c in top]), tuple([c // g for c in bot]), labelled)

    def __call__(self, n: int) -> Fraction:
        top = bot = 0
        for c in reversed(self.num):
            top = top * n + c
        for c in reversed(self.den):
            bot = bot * n + c
        if bot == 0:
            for factor, text in self.poles:
                if _values_at(factor, [n])[0] == 0:
                    raise DegeneracyError(text.format(n=n))
        return Fraction(top, bot)

    def __neg__(self) -> "RationalFunction":
        return self._replace(num=tuple([-c for c in self.num]))


# -- combinatorial bases and scalars ------------------------------------------


def pochhammer(start: RatLike, count: int) -> Fraction:
    """Rising factorial (start)_count = start*(start+1)*...*(start+count-1).

    With start = p/q this is prod_{i<count} (p + i q) / q^count: the
    product is taken in integers and reduced once."""
    check_at_least("count", count, 0)
    a = as_fraction(start)
    p, q = a.numerator, a.denominator
    return Fraction(prod([p + i * q for i in range(count)]), q**count)


def binom_poly(count: int) -> Polynomial:
    """Binomial-coefficient polynomial binom(x, count)."""
    check_at_least("count", count, 0)
    return Polynomial.from_roots(range(count), Fraction(1, factorial(count)))


def _expand_graded(
    poly: Polynomial, basis: Callable[[int], Polynomial], failure: Exception
) -> list[Fraction]:
    """Exact coordinates of poly in a basis whose m-th member basis(m) has
    degree m, peeled from the top degree down; raises ``failure`` when a
    residual is left.  A zero coordinate does not build its basis member."""
    if poly.is_zero():
        return []
    out = [Fraction(0)] * (poly.degree + 1)
    residual = poly
    for m in range(poly.degree, -1, -1):
        c = residual.coeff(m)
        if c == 0:
            continue
        bm = basis(m)
        d = c / bm.lead
        out[m] = d
        residual = residual - bm * d
    if not residual.is_zero():
        raise failure
    return out


def antidifference(target: Polynomial, step: RatLike) -> Polynomial:
    """Solve P(x + step) - P(x) = target for the P with zero constant term.

    The solution is unique once the constant term is pinned: target has
    one coordinate on each (x + step)^{m+1} - x^{m+1}, of degree m, and that
    coordinate is P's coefficient of x^{m+1}.  Raises ValueError for step = 0.
    """
    d = as_fraction(step)
    if d == 0:
        raise ValueError("antidifference requires a nonzero step")

    def basis(m: int) -> Polynomial:
        power = Polynomial.monomial(m + 1)
        return power.shift_arg(d) - power

    coords = _expand_graded(target, basis, ArithmeticError("antidifference left a remainder"))
    return Polynomial((0, *coords))
