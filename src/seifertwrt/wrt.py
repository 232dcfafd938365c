"""Closed-form quantum invariants of Seifert fibered spaces at odd levels.

For odd ``r >= 3`` this module evaluates the SO(3) invariant ``xi_r`` of
``X(p_1/q_1, ..., p_n/q_n)`` exactly in ``Q(zeta_r)`` by a single sum of at
most ``r - 1`` terms, using Gauss sums attached to ``c_k = gcd(r, p_k)``,
Jacobi symbols, and per-leg Bezout pairs and integer exponents from modular
inverses and the integers ``12 p s(q, p)`` of Dedekind sums (no continued
fraction is expanded), with its products taken in the group ring
``Z[C_r]`` of :mod:`seifertwrt.cyclotomic`.  On top of it sit the
normalizations ``tau'_r`` and ``Theta_r``, a numerical evaluator in the shape
of Rozansky's residue formula for cross-checks (mpmath only, at 30 digits by
default), and the circle-bundle-over-the-trefoil-family closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cyclotomic import (
    CyclotomicNumber,
    HypothesisViolated,
    _binomial,
    _check_level,
    _gauss_vector,
    _ring_mul,
    _rotate,
    _slot_width,
    _substitutions,
    _unpack,
    euler_phi,
)
from .numtheory import dedekind_integer, jacobi, mod_inverse, s_surd_residue
from .seifert import SeifertData, b_counts_closed_form, top_invariants


class LegData(NamedTuple):
    """Everything the evaluator needs about one leg ``p/q`` at level ``r``.

    ``c = gcd(r, |p|)``; ``(q_star, p_star)`` is the Bezout pair
    ``p*p_star + q*q_star = 1`` with ``q_star = (q^-1 mod |p|) + shift*p``
    for an integer ``shift``; ``pc_prime`` inverts ``p/c`` modulo ``r/c``
    (zero when ``r = c``); ``sf`` and ``jac`` are the sign and Jacobi-symbol
    factors of the leg's closed Gauss-sum evaluation; ``exponent_const`` is
    the leg's contribution ``(q + q_star)/p - 12 s(q, p)`` to the global
    root-of-unity exponent, an integer that moves by ``shift`` with
    ``q_star``.  (By the continued-fraction formula for Dedekind sums,
    Hirzebruch-Zagier 1974, it is ``3(l - 1 + sign p) - sum(ms)`` for the
    Bezout pair of the good expansion ``ms`` of ``p/q``, of length ``l``.)
    """

    p: int
    q: int
    r: int
    c: int
    q_star: int
    p_star: int
    pc_prime: int
    sf: int
    jac: int
    exponent_const: int

    def chi_terms(self, j: int) -> tuple[tuple[int, int], ...]:
        """Active ``(sign, exponent)`` pairs of the leg factor at color ``j``.

        The two candidate branches are ``d = j -+ q_star``; a branch is active
        iff ``c`` divides ``d``, and contributes
        ``+-zeta^(t*E)`` with
        ``E = -pc_prime*q*d*(d/c) - p_star*(q_star -+ 2j)``.
        For ``c = 1`` both branches are always active; for ``c > 1`` at most
        one is (and none when ``c | j``).
        """
        # n (r-1)/2 calls per record: one unpack reads the fields faster than
        # by name, and the two branches written out beat a loop over signs.
        _, q, _, c, q_star, p_star, pc_prime, _, _, _ = self
        out = ()
        d = j - q_star
        if d % c == 0:
            out = ((1, -pc_prime * q * d * (d // c) - p_star * (q_star - 2 * j)),)
        d = j + q_star
        if d % c == 0:
            out += ((-1, -pc_prime * q * d * (d // c) - p_star * (q_star + 2 * j)),)
        return out


def leg_data(p: int, q: int, r: int, shift: int = 0) -> LegData:
    """Assemble :class:`LegData` for leg ``p/q`` at level ``r``."""
    twelve_ps = dedekind_integer(q, p)  # validates p != 0 and gcd(p, q) = 1
    c = gcd(r, abs(p))
    q_star = mod_inverse(q, abs(p)) + shift * p
    p_star = (1 - q * q_star) // p
    rc = r // c
    pc_prime = 0 if rc == 1 else mod_inverse(p // c, rc)
    sf = (-1) ** (((r - 1) // 2) * ((c - 1) // 2))
    jac = jacobi(p // c, rc) * jacobi(q, c)
    exponent_const = (q + q_star - twelve_ps) // p
    return LegData(
        p=p,
        q=q,
        r=r,
        c=c,
        q_star=q_star,
        p_star=p_star,
        pc_prime=pc_prime,
        sf=sf,
        jac=jac,
        exponent_const=exponent_const,
    )


def _central_inverse(r: int, t: int) -> list[int]:
    """``E`` in ``Z[C_r]`` with ``E(zeta^j) = r / (zeta^(2tj) - zeta^(-2tj))``.

    ``E = sum_k k * x^(2t(1+2k))``.  With ``w = x^(4t)`` this is
    ``x^(2t) * sum_k k w^k``, and ``sum_{k<r} k w^k = r / (w - 1)`` at every
    ``w != 1`` with ``w^r = 1``; so the identity holds at ``x = zeta^j`` for
    every ``j != 0 (mod r)``, whether or not ``j`` is a unit.
    """
    vec = [0] * r
    for k in range(r):
        vec[(2 * t * (1 + 2 * k)) % r] = k
    return vec


def _color_sum(r: int, t: int, n: int, factors) -> tuple[list[int], int]:
    """``sum_{j=1}^{r-1} F_j * (zeta^(2tj) - zeta^(-2tj))^(2-n)`` in ``Z[C_r]``.

    Returns an integer vector and its denominator.  ``factors(j)`` lists the
    factors of ``F_j``, each a tuple of ``(sign, e)`` monomials
    ``sign * zeta^(t*e)`` with ``sign = +-1``.  The central power is
    ``D(x^j)`` for one precomputed ``D``: the polynomial
    ``(x^(2t) - x^(-2t))^(2-n)`` for ``n <= 2``, and ``E^(n-2)`` over
    ``r^(n-2)`` for ``n >= 3`` (see :func:`_central_inverse`).  ``D`` is kept
    modulo ``x^r - 1``, not reduced modulo ``Phi_r``: for a non-unit ``j``
    the substitution ``x -> x^j`` does not respect ``Phi_r``.

    Precondition: the product ``T_j`` of ``factors(j)``, read in ``Z[C_r]``
    (exponents modulo ``r``), satisfies ``T_(r-j) = (-1)^n T_j``.  Then the
    colors ``j`` and ``r - j`` together contribute
    ``T_j D(x^j) + (-1)^n T_j D(x^-j) = T_j D~(x^j)`` with
    ``D~ = D + (-1)^n D(x^-1)``, so the sum over one color of each pair
    ``{j, r - j}`` against ``D~`` is the full sum, exactly in ``Z[C_r]``.
    As ``D~(x^-1) = (-1)^n D~``, the color ``j < r/2`` stands for its pair.
    The leg factors of :func:`xi_closed_form` satisfy the precondition leg
    by leg: under ``j -> r - j`` the branch ``d = j - q_star`` becomes
    ``r - d``, the other branch at ``r - j``, and ``c | d`` iff
    ``c | r - d`` because ``c | r``; the sign flips, and the exponent
    ``-pc_prime*q*d*(d/c) - p_star*(q_star - 2j)`` is unchanged modulo ``r``
    because ``(r - d)(r/c - d/c) = d*(d/c)`` modulo ``r`` when ``c`` divides
    ``d`` and ``r``.  Each leg factor is thus odd; in the all-coprime
    restatement (``xi_all_coprime`` in ``tests/test_wrt.py``) the quadratic
    factor is even and the ``n`` leg binomials are odd.

    The sum is one packed integer (:func:`_substitutions` packs ``D~(x^j)``).
    A factor ``s_0 x^(e_0) (1 + sum_i s_i s_0 x^(e_i - e_0))`` adds the packed
    value shifted by ``e_i - e_0`` slots for each further monomial, and its
    sign and leading shift are applied once per color.  A slot of the folded
    sum receives one entry of some ``D~(x^j)`` per monomial, so the monomial
    count times ``sum|D~|`` bounds it.  A color costs ``O(1)`` interpreted
    steps for the gather, and at most ``2n`` big-integer operations of
    ``O(n r)`` slots for ``n`` two-monomial factors.
    """
    if n > 2:
        base, power, den = _central_inverse(r, t), n - 2, r ** (n - 2)
    else:
        base, power, den = _binomial(r, 2 * t), 2 - n, 1
    central = _ring_mul([1] + [0] * (r - 1), *[base] * power)
    parity = (-1) ** n
    sym = [c + parity * central[-m] for m, c in enumerate(central)]  # D~
    colors = [(j, fs) for j in range(1, (r + 1) // 2) if all(fs := factors(j))]
    if not colors:
        return [0] * r, den
    count = sum(math.prod(map(len, fs)) for _, fs in colors)
    width = _slot_width(count * sum(map(abs, sym)))
    at = _substitutions(sym, width)
    acc = 0
    for j, fs in colors:
        packed = at(j)
        sign, shift = 1, 0
        for (s0, e0), *rest in fs:
            sign *= s0
            shift += e0
            value = packed
            for s, e in rest:
                term = _rotate(packed, t * (e - e0), r, width)
                value = value + term if s == s0 else value - term
            packed = value
        term = _rotate(packed, t * shift, r, width)
        acc = acc + term if sign > 0 else acc - term
    return _unpack(acc, r, width), den


def _evaluate(
    r: int,
    t: int,
    exponent: int,
    scalar: int,
    sign_H_abs: int,
    conductors=(),
    color_sum: tuple[list[int], int] | None = None,
) -> CyclotomicNumber:
    """The closed formula's value from its parts, in one pass through ``Z[C_r]``.

    The product of ``scalar * zeta^(t*exponent)``, of
    ``(zeta^(2t) - zeta^(-2t))^(|sign H| - 2) = (E/r)^(2 - |sign H|)`` (see
    :func:`_central_inverse`), for ``|sign H| = 1`` of
    ``(-2 g_r)^-1 = -conj(g_r) / (2r)`` (``|g_r|^2 = r`` for odd ``r``; at
    ``zeta^t``, ``conj(g_r)`` is ``g_r`` at ``zeta^-t``), of the Gauss sums
    ``g_c`` at ``zeta^t`` of the ``conductors`` (``g_1 = 1``), and of the
    optional ``color_sum`` vector and denominator.  The factors are packed
    at one slot width and multiplied as integers over one integer
    denominator (:func:`_ring_mul`), the product is unpacked once, and the
    result is reduced modulo ``Phi_r`` once, by the one
    :class:`CyclotomicNumber` it builds.
    """
    central = _central_inverse(r, t)
    if sign_H_abs:
        parts, scalar, den = [central, _gauss_vector(r, r, -t)], -scalar, 2 * r * r
    else:
        parts, den = [central, central], r * r
    parts += [_gauss_vector(r, c, t) for c in conductors if c > 1]
    if color_sum is not None:
        parts.append(color_sum[0])
        den *= color_sum[1]
    vec = _ring_mul(*parts)
    shift = (t * exponent) % r
    return CyclotomicNumber(r, [scalar * c for c in vec[-shift:] + vec[:-shift]], den)


def xi_closed_form(
    M: SeifertData,
    r: int,
    t: int = 1,
    star_shifts=None,
) -> CyclotomicNumber:
    """Exact ``xi_r(M)`` evaluated at ``zeta_r**t``, by the closed formula.

    ``star_shifts`` optionally moves each leg's ``q_star`` by ``shift * p``
    (see :class:`LegData`); the leg's exponent moves with it, so the result
    is independent of the shifts (property-tested).
    """
    t = _check_level(r, t)
    tops = top_invariants(M)
    if star_shifts is None:
        star_shifts = (0,) * M.n
    if len(star_shifts) != M.n:
        raise ValueError("need one shift per leg")
    legs = [leg_data(p, q, r, shift) for (p, q), shift in zip(M.legs, star_shifts)]

    exponent = -3 * tops.sign_H_over_P + sum(leg.exponent_const for leg in legs)
    scalar = 1
    if ((r + 1) // 2) % 2 == 1:
        scalar = tops.sign_P * (-tops.sign_H_over_P + 1 - tops.sign_H_abs)
    for leg in legs:
        scalar *= leg.sf * leg.jac

    def factors(j):
        return [leg.chi_terms(j) for leg in legs]

    return _evaluate(
        r,
        t,
        exponent,
        scalar,
        tops.sign_H_abs,
        [leg.c for leg in legs],
        _color_sum(r, t, M.n, factors),
    )


class InvariantResult(NamedTuple):
    """The bundle of invariants of one ``(M, r)`` evaluation at ``A = zeta^t``.

    ``xi`` is exact; ``tau`` is the numerical ``tau'_r`` (a complex or an
    mpmath complex, depending on the requested precision); ``theta`` would be
    ``xi / 2**nu`` and is reported through its integrality flag.
    """

    manifold: SeifertData
    r: int
    t: int
    xi: CyclotomicNumber
    nu: int
    b_plus: int
    b_minus: int
    tau: complex
    xi_is_integral: bool
    theta_is_integral: bool


def tau_from_xi(xi: CyclotomicNumber, nu: int, precision: int | None = None):
    """The embedding ``(sin(pi/r)/sqrt(r))**nu * xi`` of an exact ``xi`` at level ``r``.

    A ``complex`` by default, an mpmath complex at ``precision`` decimal
    digits when given.
    """
    r = xi.r
    if precision is None:
        tau = xi.to_complex()
        if nu:
            tau *= math.sin(math.pi / r) / math.sqrt(r)
        return tau
    import mpmath

    with mpmath.workdps(precision):
        tau = xi.to_complex(precision=precision)
        if nu:
            tau *= mpmath.sinpi(mpmath.mpf(1) / r) / mpmath.sqrt(r)
    return tau


def tau_prime(
    M: SeifertData, r: int, precision: int | None = None, t: int | None = None
) -> InvariantResult:
    """``tau'_r(M)`` and friends, evaluated at ``A = zeta_r**t``.

    ``t`` defaults to ``1/4 mod r``, the convention of ``tau'``.
    ``tau' = (sin(pi/r)/sqrt(r))**nu * xi_r(M, A)``; for ``nu = 0`` this is
    just the exact ``xi`` embedded numerically.
    """
    t = _check_level(r, t)
    return _result(M, r, t, xi_closed_form(M, r, t), precision)


def _result(
    M: SeifertData, r: int, t: int, xi: CyclotomicNumber, precision: int | None
) -> InvariantResult:
    """Bundle an exact ``xi`` of ``M`` at ``zeta**t`` with its invariants."""
    nu = top_invariants(M).nu
    b_plus, b_minus, _ = b_counts_closed_form(M)
    return InvariantResult(
        manifold=M,
        r=r,
        t=t,
        xi=xi,
        nu=nu,
        b_plus=b_plus,
        b_minus=b_minus,
        tau=tau_from_xi(xi, nu, precision),
        xi_is_integral=xi.is_algebraic_integer(),
        theta_is_integral=_theta_is_integral(xi, nu),
    )


def _theta_is_integral(xi: CyclotomicNumber, nu: int) -> bool:
    """Whether ``xi / 2**nu`` lies in ``Z[zeta_r]``.

    The power basis is an integral basis and ``xi``'s coordinates are in
    lowest terms, so this holds iff ``xi``'s denominator is 1 and ``2**nu``
    divides every numerator.
    """
    num, den = xi.integer_coefficients()
    return den == 1 and all(n % 2**nu == 0 for n in num)


def tau_rozansky_numeric(M: SeifertData, r: int, precision: int = 30):
    """Numerical ``tau'_r(M)`` in residue form, for cross-checking.

    Evaluates the stationary-phase-shaped expression (sum over odd residues
    ``beta`` modulo ``2r``) as an mpmath complex at ``precision`` decimal
    digits.  Standing hypotheses: ``r`` prime, ``r >= 5``, ``H != 0``, and
    all ``p_k, q_k`` nonzero modulo ``r``; otherwise
    :class:`HypothesisViolated`.
    """
    if r < 5 or euler_phi(r) != r - 1:
        raise HypothesisViolated(f"need a prime level >= 5, got {r}")
    tops = top_invariants(M)
    if tops.H == 0:
        raise HypothesisViolated("needs H != 0")
    for p, q in M.legs:
        if p % r == 0 or q % r == 0:
            raise HypothesisViolated(
                f"leg {p}/{q} has an entry divisible by the level {r}"
            )
    import mpmath

    with mpmath.workdps(precision):
        # e_r(x) = exp(2 pi i x / r), computed once for every residue x.
        e_r = [mpmath.expjpi(mpmath.mpf(2 * x) / r) for x in range(r)]
        # e_r(x) - e_r(-x), the factor of the central vertex and of each leg.
        diff = [e_r[x] - e_r[-x % r] for x in range(r)]
        P_prime = mod_inverse(tops.P, r)
        two_prime = mod_inverse(2, r)
        four_prime = mod_inverse(4, r)
        m12_total = sum(s_surd_residue(p, q, r) for p, q in M.legs)
        s_hp = tops.sign_H_over_P
        eps_sq = 1 if r % 4 == 1 else -1
        angle = s_hp * (eps_sq + Fraction(3 * (r - 2), r))
        pref = (
            mpmath.mpc(0, 1)
            / (2 * mpmath.sqrt(r))
            # e^(i*pi/4)**angle, kept exact in the rational exponent:
            * mpmath.expjpi(mpmath.mpf(angle.numerator) / (4 * angle.denominator))
            * (jacobi(abs(tops.P), r) * tops.sign_P)
            * e_r[(four_prime * (P_prime * tops.H + m12_total)) % r]
            / diff[two_prime]
        )
        coef = (four_prime * P_prime * tops.H) % r
        p_primes = [mod_inverse(p, r) for p, _ in M.legs]
        two_minus_n = 2 - M.n
        # beta and 2r - beta = -beta (mod r) give equal terms: the phase is
        # even in beta, and the odd diff enters (2 - n) + n = 2 times.  So
        # the sum runs over the odd beta < r and is doubled.
        total = 0
        for beta in range(1, r, 2):
            term = e_r[(-coef * beta * beta) % r]
            term *= diff[(two_prime * beta) % r] ** two_minus_n
            for pp in p_primes:
                term *= diff[(two_prime * pp * beta) % r]
            total += term
        return pref * (2 * total)


TREFOIL_ZERO = SeifertData(legs=((-2, 1), (3, 1), (6, 1)))


def tref_xi_closed(r: int, t: int = 1) -> CyclotomicNumber:
    """``xi_r`` of the zero-framed trefoil surgery ``X(-2/1, 3/1, 6/1)``.

    Requires ``gcd(r, 3) = 1`` (for ``3 | r`` only the general evaluators
    apply).  Vanishes for ``r = 1 (mod 3)``; for ``r = 2 (mod 3)`` equals
    ``zeta^(-4t) * 2r / (zeta^(2t) - zeta^(-2t))**2``.
    """
    t = _check_level(r, t)
    if r % 3 == 0:
        raise HypothesisViolated(f"closed trefoil form needs gcd(r, 3) = 1, got {r}")
    if r % 3 == 1:
        return CyclotomicNumber.zero(r)
    return _evaluate(r, t, -4, 2 * r, 0)
