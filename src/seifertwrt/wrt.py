"""Closed-form quantum invariants of Seifert fibered spaces at odd levels.

For odd ``r >= 3`` this module evaluates the SO(3) invariant ``xi_r`` of
``X(p_1/q_1, ..., p_n/q_n)`` exactly in ``Q(zeta_r)`` by a single sum over
the colors ``j = 1 .. r - 1``, using Gauss sums attached to
``c_k = gcd(r, p_k)``, Jacobi symbols, and per-leg Bezout pairs and integer
exponents from modular inverses and the integers ``12 p s(q, p)`` of
Dedekind sums (no continued fraction is expanded).  The sum is not walked
color by color: completing the square on each class of colors modulo
``lcm(c_k)`` makes it one vector times one Gauss sum.  By Gauss's evaluation
a record's Gauss sums multiply, in closed form, to an integer times at most
one Gauss sum.  The central vertex's ``E``, built with every other central
power by :func:`_central_power`, is a ramp along the powers of ``x^(4t)``,
so multiplying by it is one pass of running sums in the group ring
``Z[C_r]`` of :mod:`seifertwrt.cyclotomic` (:func:`_times_central`): a
record takes a packed product only for a Gauss sum of conductor above 1.
On top of it sit the normalizations ``tau'_r`` and ``Theta_r``, a numerical
evaluator in the shape of Rozansky's residue formula for cross-checks
(mpmath only, at 30 digits by default, reading each leg through the same
integer ``12 p s(q, p)``), and the circle-bundle-over-the-trefoil-family
closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import NamedTuple

from .cyclotomic import (
    CyclotomicNumber,
    HypothesisViolated,
    _check_level,
    _gauss_vector,
    _reduce_int_vector,
    _ring_mul,
    euler_phi,
)
from .numtheory import dedekind_integer, jacobi, mod_inverse, prime_factors
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
        # The formula does not call this: _color_sum reads the same branches
        # once per class of colors.  The tests and the benchmark's share of
        # active colors call it r - 1 times per record.
        _, q, c, q_star, p_star, pc_prime, _, _, _ = self
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
        c=c,
        q_star=q_star,
        p_star=p_star,
        pc_prime=pc_prime,
        sf=sf,
        jac=jac,
        exponent_const=exponent_const,
    )


def _times_central(vec: list[int], t: int) -> list[int]:
    """``vec * E`` in ``Z[C_r]`` exactly, for ``E`` of :func:`_central_power`
    at ``(r, t)`` (``r = len(vec)``), by running sums and no product.

    ``E = x^(2t) sum_k k w^k`` with ``w = x^(4t)``, which generates ``C_r``.
    Read ``x^(2t) vec`` along the powers of ``w``: ``u_a`` is its coefficient
    of ``w^a``, that is ``vec[4ta - 2t]``.  The product's coefficient of
    ``w^a`` is ``T_a = sum_k k u_(a-k)``, and ``T_(a+1) = T_a + sum(u) -
    r u_(a+1)``: every term moves one step up the ramp, and the one that
    leaves its top ``k = r - 1`` comes back at ``k = 0``.  The start
    ``T_0 = sum_(b>0) (r - b) u_b`` is the sum of the prefix sums
    ``u_1 + ... + u_a`` over ``a < r``.  One pass of ``O(r)`` additions and
    products by ``r``.
    """
    r = len(vec)
    step, lift = 4 * t % r, 2 * t % r
    if step == 1:  # t = 1/4, as in tau': w = x, and u is vec rotated
        u = vec[-lift:] + vec[:-lift]
    else:
        u = [vec[i % r] for i in range(-lift, step * r - lift, step)]
    total = sum(u)
    moves = [total - r * c for c in u]
    moves[0] = sum(accumulate(u[1:]))
    ramp = list(accumulate(moves))  # T_a, the coefficient of x^(4ta)
    if step == 1:
        return ramp
    back = pow(step, -1, r)
    return [ramp[i % r] for i in range(0, back * r, back)]


def _times_difference(vec: list[int], a: int) -> list[int]:
    """``vec * (x^a - x^-a)`` in ``Z[C_r]`` (``r = len(vec)``): two rotations."""
    k = a % len(vec)
    return [u - v for u, v in zip(vec[-k:] + vec[:-k], vec[k:] + vec[:k])]


def _central_power(r: int, t: int, n: int) -> tuple[list[int], int]:
    """The central power ``D`` of an ``n``-leg color sum and its denominator.

    ``D(zeta^j) = (zeta^(2tj) - zeta^(-2tj))^(2-n)`` at every color
    ``j != 0 (mod r)``: ``D`` is the polynomial ``(x^(2t) - x^(-2t))^(2-n)``
    for ``n <= 2``, and ``E^(n-2)`` over ``r^(n-2)`` for ``n >= 3``, taken
    by ``n - 3`` passes of :func:`_times_central`.

    ``E = sum_k k * x^(2t(1+2k))`` has ``E(zeta^j) = r / (zeta^(2tj) -
    zeta^(-2tj))``.  With ``w = x^(4t)`` it is ``x^(2t) * sum_k k w^k``, and
    ``sum_{k<r} k w^k = r / (w - 1)`` at every ``w != 1`` with ``w^r = 1``;
    so the identity holds at ``x = zeta^j`` for every ``j != 0 (mod r)``,
    whether or not ``j`` is a unit.  The index ``i = 2t(1 + 2k)`` holds
    ``k = (i - 2t) (4t)^-1 mod r``: a progression of step ``(4t)^-1`` in
    ``i``.
    """
    if n < 3:
        power = [1] + [0] * (r - 1)
        for _ in range(2 - n):
            power = _times_difference(power, 2 * t)
        return power, 1
    step = pow(4 * t, -1, r)
    start = -2 * t * step
    power = [k % r for k in range(start, start + step * r, step)]  # E
    for _ in range(n - 3):
        power = _times_central(power, t)
    return power, r ** (n - 2)


def _color_sum(r: int, t: int, legs) -> tuple[list[int], int, tuple[int, int]]:
    """``sum_{j=1}^{r-1} prod_k chi_k(j) * D(x^j)`` as ``(W, den, (x, m))``:
    the sum is ``W / den`` times the Gauss sum ``G(x; m)``
    (:func:`_gauss_vector` ``(r, m, x)``), with ``gcd(x, m) = 1`` and ``m | r``.

    ``chi_k(j)`` is the sum of :meth:`LegData.chi_terms` of ``legs[k]``, each
    pair ``(s, e)`` read as ``s * x^(t*e)``, and ``D``, ``den`` are
    :func:`_central_power`'s.  ``W`` times the Gauss sum equals the sum at
    every primitive ``r``-th root ``x = zeta``, so modulo ``Phi_r``, not in
    ``Z[C_r]`` itself.

    A leg with ``c = 1`` has both branches active, and at ``y = x^j`` its
    factor is ``x^(t*m_k(j)) * (y^(2tb_k) - y^(-2tb_k))`` with
    ``b_k = pc'_k q_k q*_k + p*_k`` and
    ``m_k(j) = -pc'_k q_k (j^2 + q*_k^2) - p*_k q*_k``; these legs fold into
    ``F = D * prod_k (x^(2tb_k) - x^(-2tb_k))``, read at ``x^j``.  A leg with
    ``c > 1`` has at most the branch ``s = +-1`` with ``j = s q* (mod c)``,
    of exponent ``-pc' q d (d/c) - p* (q* - 2sj)`` at ``d = j - s q*``.  With
    ``L = lcm(c_k)`` each class ``j = rho + L e`` fixes every such branch, or
    has a leg with none and is dead.  Over ``e`` modulo ``N = r/L`` the
    monomial ``F_m`` of a live class ``rho`` then carries the exponent
    ``t*e0 + m rho + L (a e^2 + B e)``: ``e0`` is the exponent at ``e = 0``,
    ``B = m + beta(rho)``, and ``a = -t sum_k pc'_k q_k L/c_k`` is the same
    for every class.  With ``g = gcd(a, N)``, the sum over ``e`` of
    ``zeta^(L(a e^2 + B e))`` is ``0`` unless ``g | B``; otherwise,
    completing the square at the conductor ``m = N/g``, it is
    ``g * zeta^(-L g u^2 (4a/g)^-1) * G(a/g; m)`` with ``u = B/g``.  The
    class ``rho = 0`` may join: for ``L > 1`` a leg is inactive at ``c | j``,
    and for ``L = 1``, ``F(1) = D(1) * prod_k (1 - 1) = 0`` (``x -> 1`` is a
    ring map; for no legs ``D = (x^(2t) - x^(-2t))^2``).  So the sum is
    ``G(a/g; m) * W``, where ``W`` gathers ``g * F_m`` of every live class at
    its exponent, in ``O(r/g)`` steps per class.  The Gauss sum is left to
    the caller, which multiplies it with the record's other Gauss sums in
    closed form (:func:`_gauss_product`).
    """
    F, den = _central_power(r, t, len(legs))
    quad = const = 0  # the legs with c = 1 at rho: -quad rho^2 + const
    shared, L = [], 1
    for leg in legs:
        if leg.c > 1:
            shared.append(leg)
            L = math.lcm(L, leg.c)
            continue
        b = leg.pc_prime * leg.q * leg.q_star + leg.p_star
        F = _times_difference(F, 2 * t * b)
        quad += leg.pc_prime * leg.q
        const -= b * leg.q_star
    N = r // L
    a = -t * (quad * L + sum(leg.pc_prime * leg.q * L // leg.c for leg in shared)) % N
    g = gcd(a, N)
    # x^(-L g u^2 (4a/g)^-1) is x^(-step * u^2): L g is r over the conductor
    step = L * g * pow(4 * a // g, -1, N // g)
    W = [0] * r
    for rho in range(L):
        sign, e0, lin = 1, const - quad * rho * rho, -2 * quad * rho
        for leg in shared:
            c, q_star = leg.c, leg.q_star
            if (rho - q_star) % c == 0:
                s = 1
            elif (rho + q_star) % c == 0:
                s = -1
            else:
                break
            d = rho - s * q_star
            k = leg.pc_prime * leg.q * (d // c)
            e0 -= k * d + leg.p_star * (q_star - 2 * s * rho)
            lin += 2 * (s * leg.p_star - k)
            sign *= s
        else:
            beta = t * lin % r
            start = -beta % g  # F_m with g | m + beta, at u = (m + beta)/g
            base, tilt, scale = t * e0 - beta * rho, g * rho, sign * g
            for u, f in enumerate(F[start::g], (start + beta) // g):
                if f:
                    W[(base + u * (tilt - step * u)) % r] += scale * f
    return W, den, (a // g, N // g)


def _gauss_product(r: int, factors) -> tuple[int, int]:
    """``(k, m_star)`` with ``prod G(x; m) = k * G(1; m_star)`` over ``factors``.

    A factor ``(x, m)`` is the Gauss sum ``G(x; m) = sum_{y mod m} zeta_m^(x y^2)``
    at ``zeta_m = zeta_r^(r/m)`` (:func:`_gauss_vector` ``(r, m, x)``), for
    ``m | r`` and ``gcd(x, m) = 1``; factors with ``m = 1`` are 1.  For odd
    ``m`` Gauss's evaluation gives ``G(x; m) = (x/m) G(1; m)`` with the
    Jacobi symbol ``(x/m)``, and ``G(1; m) = eps_m sqrt(m)``, where
    ``eps_m = 1`` for ``m = 1 (mod 4)`` and ``i`` for ``m = 3 (mod 4)``
    (Berndt-Evans-Williams, *Gauss and Jacobi Sums*, ch. 1).  With ``M`` the
    product of the ``m``, ``m_star`` is the product of the primes of ``r``
    whose exponent in ``M`` is odd, so ``M / m_star`` is a square, and
    ``k = prod (x/m) * i^e * isqrt(M / m_star)`` with
    ``e = #{m = 3 (mod 4)} - [m_star = 3 (mod 4)]``.  ``e`` is even, as ``i``
    is not in ``Q(zeta_r)`` for odd ``r``, so ``i^e = (-1)^(e/2)``.  The
    identity holds in ``Q(zeta_r)``, so at every primitive root.
    """
    M, k, e = 1, 1, 0
    for x, m in factors:
        if m > 1:
            M *= m
            k *= jacobi(x, m)
            e += m % 4 == 3
    m_star = M  # every prime of M divides r: strip the squares
    for prime in prime_factors(r):
        while m_star % prime**2 == 0:
            m_star //= prime**2
    e -= m_star % 4 == 3
    return (-1) ** (e // 2) * k * math.isqrt(M // m_star), m_star


def _reduced(
    r: int, vec: list[int], shift: int, scalar: int, den: int
) -> CyclotomicNumber:
    """``scalar * zeta^shift * vec / den`` for a vector ``vec`` of ``Z[C_r]``.

    A closed-form value's one reduction modulo ``Phi_r``: ``vec`` is rotated
    by ``x^shift`` and reduced, and the reduced vector is scaled (reduction
    is linear) and wrapped with no further check.
    """
    shift %= r
    num = _reduce_int_vector(r, vec[-shift:] + vec[:-shift])
    return CyclotomicNumber._raw(r, [scalar * c for c in num], den)


def xi_closed_form(
    M: SeifertData,
    r: int,
    t: int = 1,
    star_shifts=None,
) -> CyclotomicNumber:
    """Exact ``xi_r(M)`` evaluated at ``zeta_r**t``, by the closed formula.

    ``star_shifts`` optionally moves each leg's ``q_star`` by ``shift * p``
    (see :class:`LegData`); the leg's exponent moves with it, so the result
    is independent of the shifts (property-tested).  The record's Gauss sums
    are those of the color sum (:func:`_color_sum`), ``G(-t; r)`` when
    ``H != 0`` and ``G(t; c)`` of each leg with ``c > 1``; by Gauss's
    evaluation their product is an integer ``k`` times one Gauss sum
    ``G(1; m*)``, where ``m*`` is squarefree and divides ``r``
    (:func:`_gauss_product`).  The record is then ``W * E`` (``W * E * E``
    when ``H = 0``), each factor ``E`` one pass of running sums
    (:func:`_times_central`), times ``G(1; m*)`` by one packed product only
    when ``m* > 1``, rotated by the record's root of unity and reduced
    modulo ``Phi_r`` once, for every record: legs sharing a factor with
    ``r``, ``gcd(H, r) > 1`` and ``H = 0`` included.  When
    ``gcd(r, P*H) = 1`` the factors are ``G(-t; r)`` and ``G(a; r)``, so
    ``m* = 1`` and the Gauss sums are the integer ``(a t / r) r``.
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

    # The prefactor is (E/r)^(2 - |sign H|), times (-2 g_r)^-1 = -conj(g_r)/(2r)
    # when H != 0 (|g_r|^2 = r for odd r; conj(g_r) at zeta^t is G(-t; r)),
    # and the Gauss sum G(t; c) of each leg with c > 1.
    W, den, factor = _color_sum(r, t, legs)
    W = _times_central(W, t)
    factors = [factor] + [(t, leg.c) for leg in legs]
    if tops.sign_H_abs:
        sign, den = -1, 2 * r * r * den
        factors.append((-t, r))
    else:
        W, sign, den = _times_central(W, t), 1, r * r * den
    k, m_star = _gauss_product(r, factors)
    if m_star > 1:
        W = _ring_mul(W, _gauss_vector(r, m_star))
    return _reduced(r, W, t * exponent, sign * k * scalar, den)


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
    xi = xi_closed_form(M, r, t)
    b_plus, b_minus, nu = b_counts_closed_form(M)
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
        # -12 s^surd(q, p) = -(12 p s(q, p)) p^-1 (mod r) of each leg
        m12_total = sum(-dedekind_integer(q, p) * mod_inverse(p, r)
                        for p, q in M.legs)
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
    E = _central_power(r, t, 3)[0]
    return _reduced(r, _ring_mul(E, E), -4 * t, 2 * r, r * r)
