"""Exact arithmetic in cyclotomic fields Q(zeta_r) for odd r >= 3.

A :class:`CyclotomicNumber` is a vector of ``euler_phi(r)`` integers over a
single positive denominator, representing a polynomial in ``zeta = e^{2*pi*i/r}``
reduced modulo the r-th cyclotomic polynomial.  All arithmetic (including
inversion and Galois twists) is exact; a numerical embedding into C is
available at float or arbitrary mpmath precision for cross-checks only.  Both
routes build their vectors of ``Z[C_r] = Z[x]/(x^r - 1)`` here, products too.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, prod
from typing import Callable, Iterable, Sequence

from .numtheory import NonInvertible, mod_inverse

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
    """Euler's totient of ``n >= 1`` by trial-division factorization."""
    if n < 1:
        raise InvalidLevel(f"totient needs n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divmod_monic(
    num: Sequence[int], den: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomial ``num`` by a monic ``den``.

    Coefficient lists are low-degree first; the remainder is padded to
    ``len(den) - 1`` entries.  Each step subtracts a multiple of ``den`` at its
    nonzero coefficients only.
    """
    deg = len(den) - 1
    work = list(num) + [0] * (deg - len(num))
    nonzero = list(compress(range(deg), den))  # i < deg with den[i] != 0
    quotient = [0] * (len(work) - deg)
    for k in range(len(work) - deg - 1, -1, -1):
        c = work[k + deg]
        if c:
            quotient[k] = c
            for i in nonzero:
                work[k + i] -= c * den[i]
    return quotient, work[:deg]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low-degree first."""
    if n < 1:
        raise InvalidLevel(f"cyclotomic polynomial needs n >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, exactly.
    quotient = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            quotient, remainder = _divmod_monic(quotient, cyclotomic_polynomial(d))
            if any(remainder):
                raise ValueError("division left a nonzero remainder")
    return tuple(quotient)


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
    """Reduce an integer coefficient vector (power basis) modulo ``Phi_r``."""
    return _divmod_monic(vec, cyclotomic_polynomial(r))[1]


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
        if all(isinstance(c, int) for c in coeffs):
            ints = _substitute(coeffs, 1, r)
        else:
            folded = _substitute([Fraction(c) for c in coeffs], 1, r)
            for c in folded:
                common = common * c.denominator // gcd(common, c.denominator)
            ints = [int(c * common) for c in folded]
        reduced = _reduce_int_vector(r, ints)
        num, final_den = _normalize(reduced, den * common)
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

    @property
    def denominator(self) -> int:
        return self._den

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
        a, b = self._num, o._num
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        for k in range(self.r, len(conv)):  # x^r = 1
            conv[k - self.r] += conv[k]
        del conv[self.r :]
        reduced = _reduce_int_vector(self.r, conv)
        return CyclotomicNumber._raw(self.r, reduced, self._den * o._den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse through the field norm.

        The norm ``N(a) = prod_u sigma_u(a)`` over the units ``u mod r`` is a
        nonzero rational for ``a != 0``, so ``1/a = rest / N(a)`` with
        ``rest = prod_{u != 1} sigma_u(a)``.
        """
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        rest = CyclotomicNumber.one(self.r)
        for u in range(2, self.r):
            if gcd(u, self.r) == 1:
                rest = rest * self.galois(u)
        norm = (self * rest).as_rational()
        num = [n * norm.denominator for n in rest._num]
        return CyclotomicNumber._raw(self.r, num, rest._den * norm.numerator)

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

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, i.e. the Galois twist by -1."""
        return self.galois(-1)

    # -- numerics and comparisons --------------------------------------------

    def to_complex(self, precision: int | None = None):
        """Numerical value: a ``complex`` (default) or an ``mpmath.mpc``.

        ``precision`` is in decimal digits; when given, mpmath evaluates the
        embedding with that working precision.
        """
        if precision is None:
            total = 0j
            for k, n in enumerate(self._num):
                if n:
                    total += n * cmath.exp(2j * cmath.pi * k / self.r)
            return total / self._den
        import mpmath

        with mpmath.workdps(precision):
            total = mpmath.mpc(0)
            for k, n in enumerate(self._num):
                if n:
                    total += n * mpmath.expjpi(mpmath.mpf(2 * k) / self.r)
            return total / self._den

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
            mag = abr = abs(n)
            if k == 0:
                body = f"{abr}"
            else:
                z = "z" if k == 1 else f"z^{k}"
                body = z if mag == 1 else f"{abr}*{z}"
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
    g = den
    for n in num:
        g = gcd(g, n)
        if g == 1:
            break
    if g > 1:
        den //= g
        num = [n // g for n in num]
    return tuple(num), den


def root_power(r: int, k: int) -> CyclotomicNumber:
    """The root of unity ``zeta_r ** k`` as an exact cyclotomic number."""
    _check_level(r)
    return CyclotomicNumber(r, [0] * (k % r) + [1])


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


def _bias(n: int, width: int) -> int:
    """``X/2`` in each of ``n`` slots of ``width`` bytes."""
    slot = (1 << (8 * width - 1)).to_bytes(width, "little")
    return int.from_bytes(slot * n, "little")


def _pack(vec: list[int], width: int) -> int:
    """``vec`` as one integer, ``width`` bytes per slot."""
    off = 1 << (8 * width - 1)
    data = b"".join([(v + off).to_bytes(width, "little") for v in vec])
    return int.from_bytes(data, "little") - _bias(len(vec), width)


def _substitutions(vec: list[int], width: int) -> Callable[[int], int]:
    """``at(j) = _pack(_substitute(vec, j, r), width)`` for any color ``j``.

    A unit ``j`` with inverse ``u`` puts ``vec[u k]`` at index ``k``: a slice
    of ``vec``'s slot bytes repeated ``(r + 1)/2`` times, with step ``u`` if
    ``2u < r``, else backwards with step ``u - r`` from slot ``r(r - u)``.
    """
    r, off, bias = len(vec), 1 << (8 * width - 1), _bias(len(vec), width)
    slots = [(c + off).to_bytes(width, "little") for c in vec] * ((r + 1) // 2)

    def at(j: int) -> int:
        if gcd(j, r) > 1:  # the indices j*m mod r merge
            return _pack(_substitute(vec, j, r), width)
        u = pow(j, -1, r)
        data = slots[: r * u : u] if 2 * u < r else slots[r * (r - u) : 0 : u - r]
        return int.from_bytes(b"".join(data), "little") - bias

    return at


def _rotate(value: int, k: int, r: int, width: int) -> int:
    """``value`` times ``x^k``, unfolded: a shift by ``k mod r`` slots."""
    return value << 8 * width * (k % r)


def _fold(value: int, r: int, width: int) -> int:
    """``value`` modulo ``X^r - 1``, in ``[0, X^r - 1]``.

    The high part, from slot ``r`` on, is added onto the low part until no
    high part is left.
    """
    bits = 8 * width * r
    mask = (1 << bits) - 1
    while value >> bits:
        value = (value & mask) + (value >> bits)
    return value


def _unpack(value: int, r: int, width: int) -> list[int]:
    """The vector of ``Z[C_r]`` that ``value`` packs modulo ``X^r - 1``.

    ``value`` is folded (:func:`_fold`) and taken in the window
    ``|value| < (X^r - 1)/2``.  Every packed vector with coefficients below
    ``X/2`` lies in that window, and the window holds one integer of each
    residue class, so the vector is recovered exactly.
    """
    bits = 8 * width * r
    value = _fold(value, r, width)
    if value > (1 << (bits - 1)) - 1:
        value -= (1 << bits) - 1
    off = 1 << (8 * width - 1)
    data = (value + _bias(r, width)).to_bytes(r * width, "little")
    return [
        int.from_bytes(data[i : i + width], "little") - off
        for i in range(0, r * width, width)
    ]


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
