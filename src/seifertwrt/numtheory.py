"""Integer and rational number theory helpers.

Everything here is exact: big integers, ``fractions.Fraction``, and small
combinatorial recursions.  These are the primitives the rest of the package
is assembled from -- modular inverses, Jacobi symbols, Dedekind sums in
integers, and the negative continued-fraction ("good") expansion of a
rational, whose entries ``selftest`` reads as the reference plumbing's chains.
No level is validated here: :func:`seifertwrt.cyclotomic._check_level` is
the one level validator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


class NonInvertible(ValueError):
    """Raised when an element has no inverse modulo the given modulus."""


class InvalidModulus(ValueError):
    """Raised when a modulus is outside the domain of the operation."""


class NotCoprime(ValueError):
    """Raised when arguments required to be coprime are not."""


class ZeroNumerator(ValueError):
    """Raised when a rational that must be nonzero has numerator zero."""


def sign(x: int | Fraction) -> int:
    """Sign of ``x`` as an integer in ``{-1, 0, 1}``."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def mod_inverse(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m``, reduced to ``0..m-1``.

    Raises :class:`NonInvertible` if ``gcd(a, m) != 1`` and
    :class:`InvalidModulus` if ``m < 1``.
    """
    if m < 1:
        raise InvalidModulus(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise NonInvertible(f"{a} is not invertible modulo {m}") from exc


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes of ``n >= 1``, increasing, by trial division."""
    if n == 1:
        return ()
    p = next((p for p in range(2, isqrt(n) + 1) if n % p == 0), n)  # least prime
    while n % p == 0:
        n //= p
    return (p,) + prime_factors(n)


def jacobi(a: int, b: int) -> int:
    """Jacobi symbol ``(a/b)`` for odd positive ``b``; ``a`` may be any integer.

    Returns 0 iff ``gcd(a, b) > 1``.  Raises :class:`InvalidModulus` for even
    or nonpositive ``b``.
    """
    if b <= 0 or b % 2 == 0:
        raise InvalidModulus(f"lower argument must be odd and positive, got {b}")
    a %= b
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def dedekind_integer(q: int, p: int) -> int:
    """The integer ``12 p s(q, p)`` for coprime ``q, p`` with ``p != 0``.

    ``s`` is the Dedekind sum, with ``s(q, p) = s(q * sign(p), |p|)`` for
    negative ``p``.  ``D(a, n) = 12 n s(a, n)`` depends on ``a mod n`` only,
    and reciprocity gives ``a D(a, n) = a^2 + n^2 + 1 - 3an - n D(n mod a, a)``
    for coprime ``0 < a < n``: Euclid's steps, down to ``D(0, 1) = 0``.
    """
    if p == 0:
        raise ZeroNumerator("Dedekind sum needs p != 0")
    if gcd(q, p) != 1:
        raise NotCoprime(f"Dedekind sum needs gcd(q, p) = 1, got ({q}, {p})")
    flip = -1 if p < 0 else 1
    steps, a, n = [], flip * q % abs(p), abs(p)
    while n > 1:
        steps.append((a, n))
        a, n = n % a, a
    d = 0
    for a, n in reversed(steps):
        d = (a * a + n * n + 1 - 3 * a * n - n * d) // a
    return flip * d


# The most expansions kept.  An expansion of p/q has up to q + 1 entries
# (X(1/99999) keeps about 0.8 MB), so the cache is bounded.  Only selftest
# expands legs, all of them small; no record path calls the expansion.
EXPANSION_CACHE_SIZE = 128


@lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def good_expansion(p: int, q: int) -> tuple[int, ...]:
    """The good expansion of ``p/q`` for ``q >= 1``, ``gcd(p, q) = 1``.

    The entries run high-first, ``(m_l, ..., m_1)`` with ``p/q = m_l -
    1/(m_{l-1} - 1/(... - 1/m_1))``, and there are ``l >= 2`` of them; for
    ``q >= 2`` every entry below the outermost one is at least 2 (only the
    outermost entry may be small or negative), while integers expand as
    ``p = (p+1) - 1/1``.
    """
    if q < 1:
        raise InvalidModulus(f"denominator must be >= 1, got {q}")
    if p == 0:
        raise ZeroNumerator("numerator must be nonzero")
    if gcd(p, q) != 1:
        raise NotCoprime(f"need gcd(p, q) = 1, got ({p}, {q})")
    if q == 1:
        return (p + 1, 1)
    top = p // q + 1  # ceil(p/q), noting q does not divide p here
    ms = [top]
    # p/q = top - 1/(q/(top*q - p)); expand the rest with ceiling division,
    # which keeps every further entry >= 2.
    b, a = q, top * q - p
    while a != 0:
        m = -((-b) // a)  # ceil(b/a)
        ms.append(m)
        b, a = a, m * a - b
    return tuple(ms)

