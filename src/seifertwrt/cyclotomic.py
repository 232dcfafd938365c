"""Exact arithmetic in cyclotomic fields Q(zeta_r) for odd r >= 3.

A :class:`CyclotomicNumber` is a vector of ``euler_phi(r)`` integers over a
single positive denominator, representing a polynomial in ``zeta = e^{2*pi*i/r}``
reduced modulo the r-th cyclotomic polynomial.  All arithmetic (including
inversion and Galois twists) is exact.  The numerical embedding into C
(:meth:`CyclotomicNumber.to_complex`) is one integer fixed-point sum with a
proven error bound, read as the nearest doubles or as an mpmath number of a
given precision; it keeps at most 16 tables of a level's powers of
``zeta_r`` (:func:`_powers`) and imports no mpmath for doubles.  Both exact routes
build their vectors of ``Z[C_r] = Z[x]/(x^r - 1)`` here, products too.
``Phi_r`` is described once, by Moebius inversion, as the binomials
``x^d - 1`` of the divisors ``d`` of ``r`` (:func:`_binomial_factors`): a
vector is reduced by multiplying and dividing by them, each step one pass of
``O(r)`` (:func:`_reduce_int_vector`), with no long division.
:func:`_check_level` is the package's one level validator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import cos, gcd, isqrt, lcm, pi, prod, sin
from operator import add, mul, sub
from typing import Iterable, Sequence

from .numtheory import NonInvertible, mod_inverse, prime_factors

Rational = int | Fraction

class HypothesisViolated(ValueError):
    """Raised when input data violates a formula's standing hypotheses."""


class InvalidLevel(HypothesisViolated):
    """Raised when a root-of-unity level is outside the supported domain."""


class LevelMismatch(ValueError):
    """Raised when combining cyclotomic numbers of different levels."""


class DivisionByZero(ZeroDivisionError):
    """Raised when inverting or dividing by the zero cyclotomic number."""


class NotADivisor(ValueError):
    """Raised when an order argument fails to divide the level."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient of ``n >= 1``, from its primes (:func:`prime_factors`)."""
    if n < 1:
        raise InvalidLevel(f"totient needs n >= 1, got {n}")
    primes = prime_factors(n)
    return n // prod(primes) * prod(p - 1 for p in primes)


@lru_cache(maxsize=None)
def _binomial_factors(r: int) -> tuple[list[int], list[int]]:
    """The ``d | r`` of ``Phi_r = prod_(d | r) (x^d - 1)^mu(r/d)``, by sign.

    Returns ``(minus, plus)``: the ``d`` with ``mu(r/d) = -1``, largest
    first, and those with ``mu(r/d) = +1`` and ``d < r``.  So
    ``Psi = (x^r - 1)/Phi_r`` is the product of ``x^d - 1`` over ``minus``
    divided by the product over ``plus``.  Only the ``d = r/s`` with ``s``
    squarefree count.  ``minus`` is empty only at ``r = 1``.
    """
    signed = [(r, 1)]
    for p in prime_factors(r):
        signed += [(d // p, -mu) for d, mu in signed]
    return [d for d, mu in signed if mu < 0], [d for d, mu in signed[1:] if mu > 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low-degree first."""
    if n < 1:
        raise InvalidLevel(f"cyclotomic polynomial needs n >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    # Phi_n is monic of degree phi, so it is x^phi less x^phi mod Phi_n.
    phi = euler_phi(n)
    return tuple(-c for c in _reduce_int_vector(n, [0] * phi + [1])) + (1,)


def _check_level(r: int, t: int | None = 1) -> int:
    """Validate ``r``, then return ``t mod r`` (``None`` means ``1/4 mod r``)."""
    if r < 3 or r % 2 == 0:
        raise InvalidLevel(f"level must be odd and >= 3, got {r}")
    if t is None:
        return mod_inverse(4, r)
    if gcd(t, r) != 1:
        raise HypothesisViolated(f"evaluation parameter {t} is not a unit mod {r}")
    return t % r


def _reduce_int_vector(r: int, vec: list[int]) -> list[int]:
    """Reduce an integer coefficient vector (power basis) modulo ``Phi_r``.

    ``R = vec mod Phi_r`` has degree below ``phi``, so ``R * Psi`` with
    ``Psi = (x^r - 1)/Phi_r`` has degree below ``r``, and it is
    ``vec * Psi`` modulo ``x^r - 1``.  So ``vec`` is multiplied by ``Psi``,
    folded into ``Z[C_r]``, and divided by ``Psi`` exactly.  ``Psi`` is a
    quotient of binomials (:func:`_binomial_factors`), each taken as
    ``1 - x^d`` (the signs cancel): every step is one pass over the vector.
    The largest ``d = r/p`` of ``minus`` is not multiplied and divided: for
    any ``u`` of ``Z[C_r]`` the product ``u (1 - x^d)`` folds to a multiple
    of ``1 - x^d``, and the quotient is ``u_i - u_(r - d + i mod d)`` for
    ``i < r - d``.  At a prime power ``r`` that is all there is.
    """
    (top, *minus), plus = _binomial_factors(r)
    for d in minus:
        vec = _times_binomial(vec, d)
    for d in plus:
        vec = _over_binomial(vec, d)
    vec = _cyclic(vec, r)
    vec = list(map(sub, vec[: r - top], vec[r - top :] * (r // top - 1)))
    for d in plus:
        vec = _times_binomial(vec, d)
    for d in minus:
        vec = _over_binomial(vec, d)
    return vec


def _times_binomial(vec: list[int], d: int) -> list[int]:
    """The polynomial ``vec * (1 - x^d)``, ``d`` entries longer."""
    return list(map(sub, vec + [0] * d, [0] * d + vec))


def _over_binomial(vec: list[int], d: int) -> list[int]:
    """The exact quotient ``vec / (1 - x^d)``, ``d`` entries shorter: the
    running sums ``q_i = vec_i + q_(i-d)`` along each class modulo ``d``."""
    out = vec[: len(vec) - d]
    for c in range(d):
        out[c::d] = accumulate(out[c::d])
    return out


def _cyclic(vec: list[int], r: int) -> list[int]:
    """The polynomial ``vec`` modulo ``x^r - 1``: ``r`` entries."""
    out = vec[:r] + [0] * (r - len(vec))
    for k in range(r, len(vec), r):
        out[: len(vec) - k] = map(add, out, vec[k : k + r])
    return out


def _times(a: tuple[int, int], b: tuple[int, int], bits: int) -> tuple[int, int]:
    """The fixed-point product ``a b / 2^bits`` of two Gaussian integers, each
    part floored: within ``sqrt(2)`` of the exact quotient."""
    return (a[0] * b[0] - a[1] * b[1]) >> bits, (a[0] * b[1] + a[1] * b[0]) >> bits


def _fixed_root(n: int, bits: int) -> tuple[int, int]:
    """``zeta_n 2^bits`` as a Gaussian integer, each part within ``1/2 + 2^-30``.

    The doubles ``cos(2 pi/n)`` and ``sin(2 pi/n)``, cut to 53 bits, are
    ``zeta_n (1 + eps)`` with ``|eps| <= 2^-50``.  Newton's step on
    ``z^n = 1``, with ``z^(n-1)`` taken as ``1/z`` in the derivative, is
    ``z -> z (n + 1 - z^n)/n``.  With ``z^n = 1 + d`` and
    ``d = n eps + (n choose 2) eps^2 + ...``, it maps ``z`` to
    ``zeta_n (1 + eps) (1 - d/n) = zeta_n (1 - (n + 1)/2 eps^2 + ...)``:
    ``|eps'| <= n |eps|^2`` while ``n |eps| <= 2^-10``.  Each step runs at
    ``bits + 64`` bits, where ``z^n`` by squaring and the step's roundings
    add less than ``2^-(bits + 40)``.  So the steps stop once the bound is
    below ``2^-(bits + 32)``, and each part is rounded to ``bits``.
    """
    work, good = bits + 64, 50  # |eps| <= 2^-good
    x = tuple(int(f(2 * pi / n) * 2**53) << work - 53 for f in (cos, sin))
    while good < bits + 32:
        y = x
        for bit in bin(n)[3:]:
            y = _times(y, y, work)
            y = _times(y, x, work) if bit == "1" else y
        x = _times(x, ((n + 1 << work) - y[0], -y[1]), work)
        x, good = (x[0] // n, x[1] // n), 2 * good - n.bit_length()
    return x[0] + (1 << 63) >> 64, x[1] + (1 << 63) >> 64


@lru_cache(maxsize=16)
def _powers(r: int, bits: int) -> tuple[list[int], list[int]]:
    """The real and imaginary parts of ``zeta_r^k 2^bits`` for
    ``k < h = (r + 1)/2``, each within ``2r + 2`` units of ``2^-bits``; the
    first, ``(2^bits, 0)``, is exact.

    ``zeta^k = b_s g_t`` for ``k = tm + s`` and ``s < m``, with ``m^2 >= h``:
    the baby steps ``b_(s+1) = b_s Z`` and the giant steps
    ``g_(t+1) = g_t b_m`` are fixed-point products (:func:`_times`) from the
    root ``Z`` of :func:`_fixed_root`, within 1 of ``zeta 2^bits``, and each
    power is one more product.  Such a product of ``x`` and ``y``, within
    ``a`` and ``b`` of ``X 2^bits`` and ``Y 2^bits`` with ``|X| = |Y| = 1``,
    is within ``a + b + ab 2^-bits + sqrt(2)`` of ``XY 2^bits``.  So ``b_s``
    is within ``3s``, ``g_t`` within ``t (3m + 2)`` and the power within
    ``3k + 2t + 2 <= 3h + 2 sqrt(h) - 1 <= 4h``, for ``r < 2^20`` and
    ``bits >= 64``, where every ``ab 2^-bits`` is below 1/2.  A level's
    table is kept, at most 16 of them (0.2 MB at ``r = 4001`` and 128 bits),
    and its lists are shared: callers only read them.
    """
    h, one = (r + 1) // 2, (1 << bits, 0)
    m, times = isqrt(h - 1) + 1, lambda a, b: _times(a, b, bits)
    *baby, step = accumulate([_fixed_root(r, bits)] * m, times, initial=one)
    giant = list(accumulate([step] * ((h - 1) // m), times, initial=one))
    re = [(a * c - b * d) >> bits for a, b in giant for c, d in baby]
    return re[:h], [(a * d + b * c) >> bits for a, b in giant for c, d in baby][:h]


class CyclotomicNumber:
    """An element of Q(zeta_r), stored exactly.

    ``CyclotomicNumber(r, coeffs, den)`` interprets ``coeffs[i]`` (integers or
    Fractions) as the coefficient of ``zeta_r**i``; indices are folded modulo
    ``r``, the result is reduced modulo the cyclotomic polynomial, and the
    stored form is a tuple of ``euler_phi(r)`` integers over one positive
    denominator with no common factor.
    """

    __slots__ = ("r", "_num", "_den")

    def __init__(self, r: int, coeffs: Iterable[Rational] = (), den: int = 1):
        _check_level(r)
        if den == 0:
            raise DivisionByZero("denominator must be nonzero")
        coeffs = list(coeffs)
        common = 1
        if not all(isinstance(c, int) for c in coeffs):
            fracs = [Fraction(c) for c in coeffs]
            common = lcm(*(c.denominator for c in fracs))
            coeffs = [int(c * common) for c in fracs]
        num, final_den = _normalize(_reduce_int_vector(r, coeffs), den * common)
        self.r = r
        self._num = num
        self._den = final_den

    @classmethod
    def _raw(cls, r: int, num: Sequence[int], den: int) -> "CyclotomicNumber":
        """Internal: wrap an already-reduced basis vector, normalizing only."""
        self = object.__new__(cls)
        self.r = r
        self._num, self._den = _normalize(list(num), den)
        return self

    @classmethod
    def zero(cls, r: int) -> "CyclotomicNumber":
        _check_level(r)
        return cls._raw(r, [0] * euler_phi(r), 1)

    @classmethod
    def one(cls, r: int) -> "CyclotomicNumber":
        return cls.from_rational(r, 1)

    @classmethod
    def from_rational(cls, r: int, value: Rational) -> "CyclotomicNumber":
        _check_level(r)
        frac = Fraction(value)
        num = [0] * euler_phi(r)
        num[0] = frac.numerator
        return cls._raw(r, num, frac.denominator)

    # -- structural accessors -------------------------------------------------

    def coefficients(self) -> tuple[Fraction, ...]:
        """Basis coefficients (powers ``zeta^0 .. zeta^{phi-1}``) as Fractions."""
        return tuple(Fraction(n, self._den) for n in self._num)

    def integer_coefficients(self) -> tuple[tuple[int, ...], int]:
        """The canonical ``(numerators, denominator)`` pair."""
        return self._num, self._den

    def is_zero(self) -> bool:
        return all(n == 0 for n in self._num)

    def is_rational(self) -> bool:
        return all(n == 0 for n in self._num[1:])

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises ``ValueError`` if not rational."""
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    def is_algebraic_integer(self) -> bool:
        """True iff the element lies in Z[zeta_r] (denominator one)."""
        return self._den == 1

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "CyclotomicNumber | None":
        if isinstance(other, CyclotomicNumber):
            if other.r != self.r:
                raise LevelMismatch(f"levels differ: {self.r} vs {other.r}")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self.r, other)
        return None

    def __add__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = [a * o._den + b * self._den for a, b in zip(self._num, o._num)]
        return CyclotomicNumber._raw(self.r, num, self._den * o._den)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber._raw(self.r, [-n for n in self._num], self._den)

    def __sub__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        conv = _ring_mul(_substitute(self._num, 1, self.r), o._num)
        reduced = _reduce_int_vector(self.r, conv)
        return CyclotomicNumber._raw(self.r, reduced, self._den * o._den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse through the field norm.

        The norm ``N(a) = prod_u sigma_u(a)`` over the units ``u mod r`` is a
        nonzero rational for ``a != 0``, so ``1/a = rest / N(a)`` with
        ``rest = prod_{u != 1} sigma_u(a)``: the vectors ``a(x^u)`` of ``Z[C_r]``
        (a unit ``u`` keeps multiples of ``Phi_r``), multiplied pairwise by
        :func:`_ring_mul` and reduced once.
        """
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        r, vec = self.r, _substitute(self._num, 1, self.r)
        layer = [_substitute(vec, u, r) for u in range(2, r) if gcd(u, r) == 1]
        while len(layer) > 1:
            layer = [_ring_mul(*layer[i : i + 2]) for i in range(0, len(layer), 2)]
        rest = _reduce_int_vector(r, layer[0])
        norm = _reduce_int_vector(r, _ring_mul(_substitute(rest, 1, r), vec))[0]
        return CyclotomicNumber._raw(r, [n * self._den for n in rest], norm)

    def __pow__(self, exponent: int) -> "CyclotomicNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicNumber.one(self.r)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __truediv__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- Galois action --------------------------------------------------------

    def galois(self, t: int) -> "CyclotomicNumber":
        """Apply the field automorphism ``zeta -> zeta**t`` (``gcd(t, r) = 1``)."""
        if gcd(t, self.r) != 1:
            raise NonInvertible(f"{t} is not a unit modulo {self.r}")
        reduced = _reduce_int_vector(self.r, _substitute(self._num, t, self.r))
        return CyclotomicNumber._raw(self.r, reduced, self._den)

    # -- numerics and comparisons --------------------------------------------

    def to_complex(self, precision: int | None = None, nu: int = 0):
        """``(sin(pi/r)/sqrt(r))**nu`` times the value at ``zeta_r``, ``nu`` 0 or 1.

        By default the nearest double of each part, as a ``complex``; with
        ``precision`` decimal digits, an ``mpmath.mpc`` within
        ``10^-precision sum|c_k|/den`` of the value.  Each part is the
        fixed-point sum of :meth:`_fixed` at the first multiple of 64 bits
        where its bound is at most half of ``10^-precision sum|c_k|/den`` (20
        digits by default).  Python's ``int / int`` rounds correctly, so a
        part is the double that both ends of its interval round to, and 0
        when :meth:`_fixed` shows it to be 0; both outputs read that
        decision.  Otherwise the bits double, at most three times: no number
        of bits decides a part on the midpoint of two doubles, which is then
        the one of them that ``int / int`` picks.
        """
        first = -(-(8 * (self.r + 1) * 10 ** (precision or 20)).bit_length() // 64) * 64
        for k in range(1 if precision else 4):
            parts, scale = self._fixed(first << k, nu)
            if precision:
                import mpmath

                with mpmath.workdps(precision):
                    return mpmath.mpc(*(mpmath.mpf(v) / scale for v, _ in parts))
            low = [(v - b) / scale for v, b in parts]
            if low == [(v + b) / scale for v, b in parts]:
                return complex(*low)
        return complex(*(v / scale for v, _ in parts))

    def _fixed(self, bits: int, nu: int) -> tuple[list[tuple[int, int]], int]:
        """The real and imaginary parts of :meth:`to_complex`'s value as
        ``(value, bound)`` pairs over one ``scale``: each part lies within
        ``bound/scale`` of ``value/scale``, and a part shown to be 0 is
        ``(0, 0)``.

        With ``c_k = 0`` for ``phi <= k <= r``, ``zeta^(r-k) = conj(zeta^k)``
        folds the coordinates onto ``k < h = (r + 1)/2``: the real part is
        ``sum (c_k + c_(r-k)) Re zeta^k`` and the imaginary part
        ``sum (c_k - c_(r-k)) Im zeta^k``.  Each is one integer sum ``A`` of
        these coefficients ``a_k`` times the powers of :func:`_powers`, each
        within ``e = 2r + 2`` units of ``2^-bits`` and the power ``k = 0``
        exact, so ``A`` is within ``E = e sum_(k>0) |a_k| <= e sum|c_k|`` of
        the part times ``den 2^bits``.  The factor ``F`` is ``2^bits``, exactly, for
        ``nu = 0``.  For ``nu = 1`` it is ``S Q >> bits``, with
        ``S = Im zeta_r^(h-1) 2^bits = sin(pi/r) 2^bits`` within ``e`` and
        ``Q = isqrt(2^(2 bits)/r)`` within 1 of ``2^bits/sqrt(r)``: so ``F``
        is within ``2 + e/sqrt(r) + e 2^-bits <= e`` of ``f 2^bits``, with
        ``f = sin(pi/r)/sqrt(r) < 1``.  With ``e_F`` the factor's error (0 or
        ``e``), ``A F`` is within ``e_F |A| + E (F + e_F)`` of the part times
        ``den 2^(2 bits)``.  A part whose interval holds 0 is 0 exactly when
        ``galois(-1)``, the complex conjugate, is ``-self`` (real part) or
        ``self`` (imaginary part); an interval of width 0 is the part itself,
        as for the imaginary part of a rational number.
        """
        r, h = self.r, (self.r + 1) // 2
        vec = [*self._num, *[0] * (r + 1 - len(self._num))]  # c_k for k <= r
        (re, im), e, parts = _powers(r, bits), 2 * r + 2, []
        F, slack = ((im[-1] * isqrt((1 << 2 * bits) // r) >> bits, e) if nu
                    else (1 << bits, 0))
        for i, (fold, table) in enumerate(((add, re), (sub, im))):
            coords = list(map(fold, vec[:h], vec[r : r - h : -1]))
            a = sum(map(mul, coords, table))
            err = slack * abs(a) + e * sum(map(abs, coords[1:])) * (F + slack)
            # the interval holds 0 and is more than a point
            zero = 0 < err >= abs(a * F) and self.galois(-1) == (self if i else -self)
            parts.append((0, 0) if zero else (a * F, err))
        return parts, self._den << 2 * bits

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicNumber):
            if other.r == self.r:
                return self._num == other._num and self._den == other._den
            # Constants are level-independent; anything else is incomparable.
            if self.is_rational() and other.is_rational():
                return self.as_rational() == other.as_rational()
            return False
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == Fraction(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self.r, self._num, self._den))

    def __repr__(self) -> str:
        return f"CyclotomicNumber(r={self.r}, {self})"

    def __str__(self) -> str:
        terms: list[str] = []
        for k, n in enumerate(self._num):
            if n == 0:
                continue
            mag = abs(n)
            if k == 0:
                body = f"{mag}"
            else:
                z = "z" if k == 1 else f"z^{k}"
                body = z if mag == 1 else f"{mag}*{z}"
            if not terms:
                terms.append(body if n > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if n > 0 else f"- {body}")
        poly = " ".join(terms) if terms else "0"
        if self._den == 1:
            return poly
        return f"({poly})/{self._den}"


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den < 0:
        den = -den
        num = [-n for n in num]
    g = gcd(den, *num)
    if g > 1:
        den //= g
        num = [n // g for n in num]
    return tuple(num), den


def gauss_sum(r: int, c: int) -> CyclotomicNumber:
    """The quadratic Gauss sum ``sum_{x=1}^{c} zeta_r^{(r/c) x^2}`` for ``c | r``.

    For ``c = 1`` this is 1; for ``c = r`` it is the classical Gauss sum of
    conductor r.  Raises :class:`NotADivisor` when ``c`` does not divide ``r``.
    """
    _check_level(r)
    if c < 1 or r % c != 0:
        raise NotADivisor(f"{c} does not divide {r}")
    return CyclotomicNumber(r, _gauss_vector(r, c))


def _gauss_vector(r: int, c: int, t: int = 1) -> list[int]:
    """The Gauss sum ``g_c`` at ``x = zeta^t`` in ``Z[C_r]``, for ``c | r``.

    That is ``sum_{x=1}^{c} x^(t(r/c)x^2)``; ``g_1 = 1``.
    """
    vec = [0] * r
    for x in range(1, c + 1):
        vec[t * (r // c) * x * x % r] += 1
    return vec


def _binomial(r: int, a: int) -> list[int]:
    """``x^a - x^-a`` in ``Z[C_r]`` (zero when ``r | a``)."""
    vec = [0] * r
    vec[a % r] += 1
    vec[-a % r] -= 1
    return vec


def _substitute(vec: Sequence[Rational], u: int, r: int) -> list[Rational]:
    """``vec(x^u)`` in ``Z[C_r]``: index ``m`` goes to ``u*m mod r``, for any length."""
    out = [0] * r
    for m, c in enumerate(vec):
        if c:
            out[u * m % r] += c
    return out


# Kronecker substitution: a vector v of length n is the integer
# sum_i v[i] * X^i with X = 256**width, stored with the bias X/2 in every
# slot so that signed coefficients pack and unpack through unsigned bytes.
# Every coefficient must satisfy |v[i]| < X/2.  Because x -> X maps the
# group ring Z[C_r] onto the integers modulo X^r - 1, packed vectors are
# multiplied, shifted and added as plain integers with no bound on the
# intermediate values; only the vector that is finally unpacked needs it.


def _slot_width(bound: int) -> int:
    """Bytes per slot for coefficients of absolute value at most ``bound``."""
    return bound.bit_length() // 8 + 1


@lru_cache(maxsize=64)
def _bias(n: int, width: int) -> int:
    """``X/2`` in each of ``n`` slots of ``width`` bytes."""
    slot = (1 << (8 * width - 1)).to_bytes(width, "little")
    return int.from_bytes(slot * n, "little")


def _pack(vec: list[int], width: int) -> int:
    """``vec`` as one integer, ``width`` bytes per slot."""
    off = 1 << (8 * width - 1)
    data = b"".join([(v + off).to_bytes(width, "little") for v in vec])
    return int.from_bytes(data, "little") - _bias(len(vec), width)


def _rotate(value: int, k: int, r: int, width: int) -> int:
    """``value`` times ``x^k``, unfolded: a shift by ``k mod r`` slots."""
    return value << 8 * width * (k % r)


def _fold(value: int, r: int, width: int) -> int:
    """``value`` modulo ``X^r - 1``, in the window ``|value| < (X^r - 1)/2``.

    The high part, from slot ``r`` on, is added onto the low part until no
    high part is left.  The window holds each vector with coefficients below ``X/2``.
    """
    bits = 8 * width * r
    mask = (1 << bits) - 1
    while value >> bits:
        value = (value & mask) + (value >> bits)
    return value - mask if value > mask >> 1 else value


def _unpack(value: int, r: int, width: int) -> list[int]:
    """The vector of ``Z[C_r]`` that ``value`` packs modulo ``X^r - 1``."""
    data = (_fold(value, r, width) + _bias(r, width)).to_bytes(r * width, "little")
    off = 1 << (8 * width - 1)
    return [
        int.from_bytes(data[i : i + width], "little") - off
        for i in range(0, r * width, width)
    ]


def _widen(value: int, r: int, width: int, wider: int) -> int:
    """``value`` packed at ``wider`` bytes per slot instead of ``width``: the
    biased slots move as ``width`` strided copies, then lose the narrow bias."""
    data = (_fold(value, r, width) + _bias(r, width)).to_bytes(r * width, "little")
    out = bytearray(r * wider)
    for k in range(width):
        out[k::wider] = data[k::width]
    return int.from_bytes(out, "little") - (_bias(r, wider) >> 8 * (wider - width))


def _ring_mul(*vectors: list[int]) -> list[int]:
    """The product of ``vectors`` in the group ring ``Z[C_r] = Z[x]/(x^r - 1)``.

    All operands are packed at one slot width and multiplied as integers,
    each partial product folded modulo ``X^r - 1`` (:func:`_fold`); the
    product is unpacked once.  A cyclic convolution satisfies
    ``|(a*b)_k| <= max|a| * sum|b|``, so ``max|v_0| * prod_{i>0} sum|v_i|``
    bounds every coefficient of the product.  When no operand is zero, the
    bound is also at least every operand's largest coefficient, so every
    operand fits in the slots.
    """
    r = len(vectors[0])
    bound = max(map(abs, vectors[0])) * prod(sum(map(abs, v)) for v in vectors[1:])
    if not bound:
        return [0] * r
    width = _slot_width(bound)
    value = _pack(vectors[0], width)
    for vec in vectors[1:]:
        value = _fold(value * _pack(vec, width), r, width)
    return _unpack(value, r, width)
