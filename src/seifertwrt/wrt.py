"""Closed-form quantum invariants of Seifert fibered spaces at odd levels.

For odd ``r >= 3`` this module evaluates the SO(3) invariant ``xi_r`` of
``X(p_1/q_1, ..., p_n/q_n)`` exactly in ``Q(zeta_r)`` by a single sum of at
most ``r - 1`` terms, using Gauss sums attached to ``c_k = gcd(r, p_k)`` and
integer exponents assembled from good expansions (no rational Dedekind sums
appear at evaluation time).  On top of it sit the normalizations
``tau'_r`` and ``Theta_r``, a simplified evaluator for the all-coprime case,
a numerical evaluator in the shape of Rozansky's residue formula for
cross-checks (mpmath only, at 30 digits by default), and the
circle-bundle-over-the-trefoil-family closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cyclotomic import CyclotomicNumber, euler_phi, gauss_sum, root_power
from .numtheory import (
    good_expansion,
    jacobi,
    mod_inverse,
    s_surd_residue,
    sign,
    star_pair,
)
from .seifert import SeifertData, b_counts_closed_form, top_invariants


class HypothesisViolated(ValueError):
    """Raised when input data violates a formula's standing hypotheses."""


@dataclass(frozen=True)
class LegData:
    """Everything the evaluator needs about one leg ``p/q`` at level ``r``.

    ``c = gcd(r, |p|)``; ``(q_star, p_star)`` is the Bezout pair
    ``p*p_star + q*q_star = 1`` read off the good expansion (optionally
    perturbed by an integer ``shift``: ``q_star += shift*p``,
    ``p_star -= shift*q``); ``pc_prime`` inverts ``p/c`` modulo ``r/c``
    (zero when ``r = c``); ``p_prime`` inverts ``p`` modulo ``r`` when
    ``c = 1``; ``sf`` and ``jac`` are the sign and Jacobi-symbol factors of
    the leg's closed Gauss-sum evaluation; ``exponent_const`` is the leg's
    contribution ``3(l - 1 + sign p) - sum(ms) + shift`` to the global
    root-of-unity exponent.
    """

    p: int
    q: int
    r: int
    c: int
    l: int  # noqa: E741 - the customary name for the expansion length
    ms: tuple[int, ...]
    q_star: int
    p_star: int
    pc_prime: int
    p_prime: int | None
    sf: int
    jac: int
    shift: int
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
        out = []
        d = j - self.q_star
        if d % self.c == 0:
            e = -self.pc_prime * self.q * d * (d // self.c) - self.p_star * (
                self.q_star - 2 * j
            )
            out.append((1, e))
        d = j + self.q_star
        if d % self.c == 0:
            e = -self.pc_prime * self.q * d * (d // self.c) - self.p_star * (
                self.q_star + 2 * j
            )
            out.append((-1, e))
        return tuple(out)


def leg_data(p: int, q: int, r: int, shift: int = 0) -> LegData:
    """Assemble :class:`LegData` for leg ``p/q`` at level ``r``."""
    c = gcd(r, abs(p))
    e = good_expansion(p, q)
    bez = star_pair(e)
    q_star = bez.a_star + shift * p
    p_star = bez.b_star - shift * q
    rc = r // c
    pc_prime = 0 if rc == 1 else mod_inverse(p // c, rc)
    p_prime = mod_inverse(p, r) if c == 1 else None
    sf = (-1) ** (((r - 1) // 2) * ((c - 1) // 2))
    jac = jacobi(p // c, rc) * jacobi(q, c)
    exponent_const = 3 * (e.l - 1 + sign(p)) - sum(e.ms) + shift
    return LegData(
        p=p,
        q=q,
        r=r,
        c=c,
        l=e.l,
        ms=e.ms,
        q_star=q_star,
        p_star=p_star,
        pc_prime=pc_prime,
        p_prime=p_prime,
        sf=sf,
        jac=jac,
        shift=shift,
        exponent_const=exponent_const,
    )


def _check_level_and_unit(r: int, t: int) -> int:
    if r < 3 or r % 2 == 0:
        raise HypothesisViolated(f"level must be odd and >= 3, got {r}")
    t %= r
    if gcd(t, r) != 1:
        raise HypothesisViolated(f"evaluation parameter {t} is not a unit mod {r}")
    return t


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


def _ring_mul(a: list[int], b: list[int]) -> list[int]:
    """Product in the group ring ``Z[C_r] = Z[x]/(x^r - 1)``."""
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            out = [o + ai * c for o, c in zip(out, b[-i:] + b[:-i])]
    return out


def _color_sum(r: int, t: int, n: int, factors) -> CyclotomicNumber:
    """``sum_{j=1}^{r-1} F_j * (zeta^(2tj) - zeta^(-2tj))^(2-n)``, exactly.

    ``factors(j)`` lists the factors of ``F_j``, each a tuple of
    ``(sign, e)`` monomials ``sign * zeta^(t*e)``.  The sum is accumulated
    as an integer vector in ``Z[C_r]`` and reduced modulo ``Phi_r`` once.
    The central power is ``D(x^j)`` for one precomputed ``D``: the
    polynomial ``(x^(2t) - x^(-2t))^(2-n)`` for ``n <= 2``, and
    ``E^(n-2) / r^(n-2)`` for ``n >= 3`` (see :func:`_central_inverse`).
    The substitution ``x -> x^j`` maps index ``m`` of ``D`` to ``j*m mod r``,
    so a color costs ``O(2^n r)`` and the sum ``O(2^n r^2)``.  ``D`` is kept
    modulo ``x^r - 1``, not reduced modulo ``Phi_r``: for a non-unit ``j``
    the substitution does not respect ``Phi_r``.
    """
    if n > 2:
        base, power, den = _central_inverse(r, t), n - 2, r ** (n - 2)
    else:
        base, power, den = [0] * r, 2 - n, 1
        base[(2 * t) % r] += 1
        base[(-2 * t) % r] -= 1
    central = [1] + [0] * (r - 1)
    for _ in range(power):
        central = _ring_mul(central, base)
    support = [(m, c) for m, c in enumerate(central) if c]
    acc = [0] * r
    for j in range(1, r):
        terms = [(1, 0)]
        for factor in factors(j):
            terms = [(s * fs, e + t * fe) for s, e in terms for fs, fe in factor]
        if not terms:
            continue
        twisted = [(j * m, c) for m, c in support]
        for s, e in terms:
            for m, c in twisted:
                acc[(e + m) % r] += s * c
    return CyclotomicNumber(r, acc, den)


def _inverse_central_power(r: int, t: int, power: int) -> CyclotomicNumber:
    """``(zeta^(2t) - zeta^(-2t))^(-power)``, from ``E / r``."""
    return CyclotomicNumber(r, _central_inverse(r, t), r) ** power


def xi_closed_form(
    M: SeifertData,
    r: int,
    t: int = 1,
    star_shifts=None,
) -> CyclotomicNumber:
    """Exact ``xi_r(M)`` evaluated at ``zeta_r**t``, by the closed formula.

    ``star_shifts`` optionally perturbs each leg's Bezout pair; the result is
    independent of it (property-tested), which exercises the built-in
    compensating exponent.
    """
    t = _check_level_and_unit(r, t)
    tops = top_invariants(M)
    if star_shifts is None:
        star_shifts = (0,) * M.n
    if len(star_shifts) != M.n:
        raise ValueError("need one shift per leg")
    legs = [leg_data(p, q, r, shift) for (p, q), shift in zip(M.legs, star_shifts)]

    exponent = -3 * tops.sign_H_over_P + sum(leg.exponent_const for leg in legs)
    pre = root_power(r, t * exponent)
    if ((r + 1) // 2) % 2 == 1:
        s0 = tops.sign_P * (-tops.sign_H_over_P + 1 - tops.sign_H_abs)
        pre = pre * s0
    pre = pre * _inverse_central_power(r, t, 2 - tops.sign_H_abs)
    if tops.sign_H_abs:
        # (-2 g)^-1 = -conj(g) / (2r), since |g|^2 = r for odd r.
        pre = pre * gauss_sum(r, r).galois(-t) * Fraction(-1, 2 * r)
    for leg in legs:
        pre = pre * (leg.sf * leg.jac)
        pre = pre * gauss_sum(r, leg.c).galois(t)

    def factors(j):
        return [leg.chi_terms(j) for leg in legs]

    return pre * _color_sum(r, t, M.n, factors)


@dataclass(frozen=True)
class InvariantResult:
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
    t = mod_inverse(4, r) if t is None else t % r
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
        theta_is_integral=(xi * Fraction(1, 2**nu)).is_algebraic_integer(),
    )


def xi_all_coprime(M: SeifertData, r: int) -> CyclotomicNumber:
    """``xi_r`` at ``A = zeta**(1/4 mod r)`` when every ``p_k`` is coprime to ``r``.

    A streamlined restatement of the general formula: all Gauss sums of
    composite conductor disappear and the per-leg data reduces to inverses
    modulo ``r``.  Raises :class:`HypothesisViolated` when some
    ``gcd(p_k, r) > 1``.
    """
    t = _check_level_and_unit(r, mod_inverse(4, r))
    tops = top_invariants(M)
    for p, _ in M.legs:
        if gcd(p, r) != 1:
            raise HypothesisViolated(f"leg numerator {p} shares a factor with {r}")
    P_prime = mod_inverse(tops.P, r)
    exponent = (
        -3 * tops.sign_H_over_P
        + P_prime * tops.H
        + sum(s_surd_residue(p, q, r) for p, q in M.legs)
    )
    base = root_power(r, t * exponent)
    if ((r + 1) // 2) % 2 == 1:
        base = base * (-tops.sign_H_over_P + 1 - tops.sign_H_abs)
    base = base * (jacobi(abs(tops.P), r) * tops.sign_P)
    base = base * _inverse_central_power(r, t, 2 - tops.sign_H_abs)
    if tops.sign_H_abs:
        base = base * gauss_sum(r, r).conjugate() * Fraction(-1, 2 * r)

    quad = (P_prime * tops.H) % r
    p_primes = [mod_inverse(p, r) for p, _ in M.legs]

    def factors(j):
        return [((1, -quad * j * j),)] + [
            ((1, 2 * pp * j), (-1, -2 * pp * j)) for pp in p_primes
        ]

    return base * _color_sum(r, t, M.n, factors)


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

    def e_r(x):
        return mpmath.expjpi(mpmath.mpf(2 * x) / r)

    with mpmath.workdps(precision):
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
            * e_r((four_prime * (P_prime * tops.H + m12_total)) % r)
            / (e_r(two_prime) - e_r(r - two_prime))
        )
        coef = (four_prime * P_prime * tops.H) % r
        p_primes = [mod_inverse(p, r) for p, _ in M.legs]
        two_minus_n = 2 - M.n
        total = 0
        for beta in range(1, 2 * r, 2):
            if beta == r:
                continue
            term = e_r((-coef * beta * beta) % r)
            central = e_r((two_prime * beta) % r) - e_r((-two_prime * beta) % r)
            term *= central**two_minus_n
            for pp in p_primes:
                term *= e_r((two_prime * pp * beta) % r) - e_r(
                    (-two_prime * pp * beta) % r
                )
            total += term
        return pref * total


TREFOIL_ZERO = SeifertData(legs=((-2, 1), (3, 1), (6, 1)))


def tref_xi_closed(r: int, t: int = 1) -> CyclotomicNumber:
    """``xi_r`` of the zero-framed trefoil surgery ``X(-2/1, 3/1, 6/1)``.

    Requires ``gcd(r, 3) = 1`` (for ``3 | r`` only the general evaluators
    apply).  Vanishes for ``r = 1 (mod 3)``; for ``r = 2 (mod 3)`` equals
    ``zeta^(-4t) * 2r / (zeta^(2t) - zeta^(-2t))**2``.
    """
    t = _check_level_and_unit(r, t)
    if r % 3 == 0:
        raise HypothesisViolated(f"closed trefoil form needs gcd(r, 3) = 1, got {r}")
    if r % 3 == 1:
        return CyclotomicNumber.zero(r)
    return root_power(r, -4 * t) * (2 * r) * _inverse_central_power(r, t, 2)


def tref_closed_form(r: int, precision: int | None = None) -> InvariantResult:
    """The trefoil-surgery invariants straight from the closed form."""
    t = mod_inverse(4, r)
    return _result(TREFOIL_ZERO, r, t, tref_xi_closed(r, t), precision)
