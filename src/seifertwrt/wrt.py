"""Closed-form quantum invariants of Seifert fibered spaces at odd levels.

For odd ``r >= 3`` this module evaluates the SO(3) invariant ``xi_r`` of
``X(p_1/q_1, ..., p_n/q_n)`` exactly in ``Q(zeta_r)`` by a single sum of at
most ``r - 1`` terms, using Gauss sums attached to ``c_k = gcd(r, p_k)``,
Jacobi symbols, and per-leg Bezout pairs and integer exponents from modular
inverses and the integers ``12 p s(q, p)`` of Dedekind sums (no continued
fraction is expanded), the sum and its prefactor taken as one product in
the group ring ``Z[C_r]`` of :mod:`seifertwrt.cyclotomic`.  When
``gcd(r, P*H) = 1`` the sum is not walked: completing the square makes it
one Gauss-sum product.  On top of it sit the
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
    _packed_product,
    _reduce_int_vector,
    _ring_mul,
    _rotate,
    _slot_width,
    _substitutions,
    _unpack,
    _widen,
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


def _central_power(central: list[int], t: int, n: int) -> tuple[list[int], int]:
    """The central power ``D`` of an ``n``-leg color sum and its denominator.

    ``D(zeta^j) = (zeta^(2tj) - zeta^(-2tj))^(2-n)`` at every color
    ``j != 0 (mod r)``: ``D`` is the polynomial ``(x^(2t) - x^(-2t))^(2-n)``
    for ``n <= 2``, and ``E^(n-2)`` over ``r^(n-2)`` for ``n >= 3``, where
    ``central`` is ``E`` at ``(r, t)`` (:func:`_central_inverse`;
    ``r = len(central)``).
    """
    r = len(central)
    if n > 2:
        base, power, den = central, n - 2, r ** (n - 2)
    else:
        base, power, den = _binomial(r, 2 * t), 2 - n, 1
    if power > 1:
        return _ring_mul(*[base] * power), den
    # one factor or none: no product to take
    return (base if power else [1] + [0] * (r - 1)), den


def _color_sum(
    central: list[int], t: int, n: int, factors, parts=()
) -> tuple[list[int], int]:
    """``sum_{j=1}^{r-1} F_j * (zeta^(2tj) - zeta^(-2tj))^(2-n)`` in ``Z[C_r]``,
    times the product of the vectors ``parts``.

    Returns an integer vector and its denominator.  ``factors(j)`` lists the
    factors of ``F_j``, each a tuple of ``(sign, e)`` monomials
    ``sign * zeta^(t*e)`` with ``sign = +-1``.  The central power is
    ``D(x^j)`` for the one ``D`` of :func:`_central_power`, where
    ``central`` is ``E`` at ``(r, t)`` (``r = len(central)``).  ``D`` is kept
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
    sign and leading shift are applied once per color.  A color costs
    ``O(1)`` interpreted steps for the gather, and at most ``2n`` big-integer
    operations of ``O(n r)`` slots for ``n`` two-monomial factors.

    A slot of the folded sum receives one entry of some ``D~(x^j)`` per
    monomial, so the monomial count times ``sum|D~|`` bounds the sum's
    coefficients and also their absolute sum; the colors run at that slot
    width.  The absolute sum of a product in ``Z[C_r]`` is at most the
    product of its factors', so that bound times ``sum|part|`` over the
    ``parts`` bounds every coefficient of the whole product.  The packed sum
    is widened once to that slot width (:func:`_widen`), multiplied by the
    packed ``parts``, and the product is unpacked once.
    """
    r = len(central)
    central, den = _central_power(central, t, n)
    parity = (-1) ** n
    sym = [c + parity * central[-m] for m, c in enumerate(central)]  # D~
    colors = [(j, fs) for j in range(1, (r + 1) // 2) if all(fs := factors(j))]
    if not colors:
        return [0] * r, den
    count = sum(math.prod(map(len, fs)) for _, fs in colors)
    bound = count * sum(map(abs, sym))
    width = _slot_width(bound)
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
    if not parts:
        return _unpack(acc, r, width), den
    wider = _slot_width(bound * math.prod(sum(map(abs, part)) for part in parts))
    acc = _widen(acc, r, width, wider) * _packed_product(parts, wider)
    return _unpack(acc, r, wider), den


def _square_color_sum(
    central: list[int], t: int, legs, parts=()
) -> tuple[list[int], int, int]:
    """:func:`_color_sum` of the leg factors ``chi_terms`` by completing the
    square, for legs all coprime to ``r`` with ``gcd(Q, r) = 1``.

    Returns ``(vec, den, C0)``: ``x^(t*C0) * vec / den`` is the color sum
    ``sum_{j=1}^{r-1} prod_k chi_k(j) * D(x^j)`` times the product of the
    vectors ``parts``, exactly in ``Z[C_r]``, with ``D`` and ``den`` from
    :func:`_central_power` (``central`` is ``E`` at ``(r, t)``;
    ``r = len(central)``).

    A leg with ``c = 1`` has both branches of :meth:`LegData.chi_terms`
    active, and at ``y = x^j`` its factor is
    ``x^(t*m_k(j)) * (y^(a_k) - y^(-a_k))`` with
    ``m_k(j) = -pc'_k q_k (j^2 + q*_k^2) - p*_k q*_k`` and
    ``a_k = 2t(pc'_k q_k q*_k + p*_k)``.  So with
    ``F = D * prod_k (x^(a_k) - x^(-a_k))``, ``Q = sum_k pc'_k q_k`` and
    ``C0 = -sum_k (pc'_k q_k q*_k^2 + p*_k q*_k)`` the sum is
    ``x^(t*C0) * sum_j x^(-tQ j^2) F(x^j)``.  The color ``j = 0`` may join
    it: ``F(1) = D(1) * prod_k (1 - 1) = 0``, as ``x -> 1`` is a ring map.
    Over all ``j`` modulo ``r``, and for ``gcd(Q, r) = 1`` (so ``4tQ`` is a
    unit, ``r`` being odd),
    ``-tQ j^2 + m j = -tQ (j - s)^2 + m^2 (4tQ)^-1`` with
    ``s = m (2tQ)^-1``, and ``j -> j - s`` permutes the colors; so each
    monomial ``F_m x^m`` of ``F`` contributes
    ``x^(m^2 (4tQ)^-1) * g_(-tQ)``, with the Gauss sum
    ``g_(-tQ) = sum_j x^(-tQ j^2)`` (:func:`_gauss_vector` of conductor
    ``r``).  Hence the sum is ``x^(t*C0) * g_(-tQ) * W`` with
    ``W = sum_m F_m x^(m^2 (4tQ)^-1)``.

    ``F`` is ``D`` after two rotations per leg, ``W`` a gather in ``O(r)``,
    and ``W``, ``g_(-tQ)`` and the ``parts`` one packed product
    (:func:`_ring_mul`), unpacked once at the slot width of the bound
    ``max|W| * r * prod sum|part|`` (``sum|g_(-tQ)| = r``).  By
    ``H = P sum_k q_k/p_k``, ``Q = H/P (mod r)``: the precondition is
    ``gcd(r, P*H) = 1``.
    """
    r = len(central)
    F, den = _central_power(central, t, len(legs))
    Q = C0 = 0
    for leg in legs:
        b = leg.pc_prime * leg.q * leg.q_star + leg.p_star
        a = 2 * t * b % r
        F = [u - v for u, v in zip(F[-a:] + F[:-a], F[a:] + F[:a])]
        Q += leg.pc_prime * leg.q
        C0 -= b * leg.q_star
    inv = pow(4 * t * Q, -1, r)
    W = [0] * r
    for m, c in enumerate(F):
        W[m * m * inv % r] += c
    return _ring_mul(W, _gauss_vector(r, r, -t * Q), *parts), den, C0


def _prefactor(
    central: list[int], t: int, sign_H_abs: int, conductors=()
) -> tuple[list[list[int]], int, int]:
    """The closed formula's Gauss-sum prefactor as ``(parts, sign, den)``.

    The prefactor is ``sign / den`` times the product of the vectors
    ``parts`` of ``Z[C_r]``: ``(zeta^(2t) - zeta^(-2t))^(|sign H| - 2) =
    (E/r)^(2 - |sign H|)`` for ``E = central`` at ``(r, t)``
    (:func:`_central_inverse`; ``r = len(central)``), for
    ``|sign H| = 1`` also ``(-2 g_r)^-1 = -conj(g_r) / (2r)`` (``|g_r|^2 = r``
    for odd ``r``; at ``zeta^t``, ``conj(g_r)`` is ``g_r`` at ``zeta^-t``),
    and the Gauss sums ``g_c`` at ``zeta^t`` of the ``conductors``
    (``g_1 = 1``).
    """
    r = len(central)
    if sign_H_abs:
        parts, sign, den = [central, _gauss_vector(r, r, -t)], -1, 2 * r * r
    else:
        parts, sign, den = [central, central], 1, r * r
    return parts + [_gauss_vector(r, c, t) for c in conductors if c > 1], sign, den


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
    is independent of the shifts (property-tested).  When
    ``gcd(r, P*H) = 1`` the sum over colors is one Gauss-sum product
    (:func:`_square_color_sum`); otherwise, for a leg sharing a factor with
    ``r``, ``gcd(H, r) > 1`` or ``H = 0``, it runs color by color
    (:func:`_color_sum`).  Both give the same vector of ``Z[C_r]``.
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

    central = _central_inverse(r, t)  # E, for the prefactor and the color sum
    parts, sign, den = _prefactor(central, t, tops.sign_H_abs, [leg.c for leg in legs])
    if gcd(r, tops.P * tops.H) == 1:
        vec, sum_den, c0 = _square_color_sum(central, t, legs, parts)
        exponent += c0
    else:
        vec, sum_den = _color_sum(central, t, M.n, factors, parts)
    return _reduced(r, vec, t * exponent, sign * scalar, den * sum_den)


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
    parts, sign, den = _prefactor(_central_inverse(r, t), t, 0)
    return _reduced(r, _ring_mul(*parts), -4 * t, sign * 2 * r, den)
