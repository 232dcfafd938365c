"""Independent state-sum evaluation of the invariants over plumbing graphs.

This is the package's oracle: it never touches the closed formulas.  Each leg
chain is contracted by a transfer-matrix dynamic program over packed
elements of the group ring ``Z[C_r]`` (or, in the brute variant, by literally
enumerating every coloring of the joint state space), the central vertex is
summed, and the framing anomaly is corrected by the exact signature of the
integer linking matrix.  Agreement of :func:`xi_statesum` with the closed
evaluators is therefore a genuine two-route check.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import NamedTuple, Sequence

from .cyclotomic import (
    CyclotomicNumber,
    _binomial,
    _check_level,
    _fold,
    _rotate,
    _slot_width,
    _unpack,
    gauss_sum,
    root_power,
)
from .seifert import SeifertData, linking_matrix, plumbing, signature_counts


class BudgetExceeded(RuntimeError):
    """Raised when a brute-force enumeration would exceed its term budget."""


class LegSumTable(NamedTuple):
    """Exact values ``S(j)`` of one contracted leg, indexed by ``j mod r``."""

    r: int
    t: int
    framings: tuple[int, ...]
    values: tuple[CyclotomicNumber, ...]

    def value(self, j: int) -> CyclotomicNumber:
        return self.values[j % self.r]


def _chi(r: int, t: int) -> list[CyclotomicNumber]:
    """Edge weights ``zeta**(2ta) - zeta**(-2ta)`` for ``a`` in ``0..r-1``."""
    return [CyclotomicNumber(r, _binomial(r, 2 * t * a)) for a in range(r)]


def _unit_lift(j: int, r: int) -> tuple[int, int]:
    """``d = gcd(j, r)`` and a unit ``u`` mod ``r`` with ``j = d*u (mod r)``."""
    d = gcd(j, r)
    u = j // d
    while gcd(u, r) != 1:
        u += r // d
    return d, u


def _chain_term(term, chain, colors, j, chi, r, t) -> CyclotomicNumber:
    """``term`` times the weight of one coloring ``colors`` of ``chain``.

    The walk starts from color 1 at the free end and ends on the edge to the
    central color ``j``; ``chi`` is the edge-weight table of :func:`_chi`.
    """
    prev = 1
    for m, y in zip(chain, colors):
        term = term * root_power(r, t * m * y * y) * chi[(prev * y) % r]
        prev = y
    return term * chi[(prev * j) % r]


def _close(total: CyclotomicNumber, pres, r: int, t: int) -> CyclotomicNumber:
    """``xi`` from the color sum ``total``: normalization and framing correction.

    With ``c = zeta^(2t) - zeta^(-2t)`` and ``g = g_t`` the S-matrix entries
    are ``s_+ = -2 zeta^(-3t) g / c`` and ``s_- = conj(s_+) = 2 zeta^(3t)
    conj(g) / c`` (``conj(c) = -c``).  Since ``b_+ + b_- + b_0`` is the
    component count, the factor ``c^-(count+1) zeta^(-t*framing_total)
    s_+^-b_+ s_-^-b_-`` is the single quotient
    ``zeta^(t(3(b_+ - b_-) - framing_total)) / (c^(b_0+1) g^b_+ conj(g)^b_-
    (-2)^b_+ 2^b_-)``.
    """
    b_plus, b_minus, b_zero = signature_counts(linking_matrix(pres))
    c = CyclotomicNumber(r, _binomial(r, 2 * t))
    g = gauss_sum(r, r).galois(t)
    den = c ** (b_zero + 1) * g**b_plus * g.conjugate() ** b_minus
    den = den * ((-2) ** b_plus * 2**b_minus)
    phase = root_power(r, t * (3 * (b_plus - b_minus) - pres.framing_total))
    return total * phase / den


def leg_sum_dp(framings: Sequence[int], r: int, t: int = 1) -> LegSumTable:
    """Contract a chain of framed vertices by a transfer dynamic program.

    ``state[y]`` is the partial sum over all colorings of the contracted
    vertices whose outgoing edge carries color ``y``, one packed element of
    ``Z[C_r]``.  A step multiplies it by the vertex phase ``zeta**(t*m*y^2)``
    and the edge weight ``zeta**(2txy) - zeta**(-2txy)``: two rotations.

    Every step keeps ``state[-y] = -state[y]`` (the phase is even in ``y``,
    the edge weight odd), so only the rows ``0 < y < r/2`` are stored; the
    colors ``y`` and ``-y`` contribute equally to each new row, so the sum
    runs over ``y < r/2`` and the factor 2 per step is applied at the end.
    ``sum|state[y]|`` starts at 2 and each step multiplies it by at most
    ``r - 1``, so ``2(r-1)^len`` bounds every coefficient.  Exact, with
    ``len * (r-1)^2 / 2`` rotations.
    """
    t = _check_level(r, t)
    framings = tuple(int(m) for m in framings)
    width = _slot_width(2 * (r - 1) ** len(framings))
    half = range(1, (r + 1) // 2)
    state = [_rotate(1, 2 * t * y, r, width) - _rotate(1, -2 * t * y, r, width)
             for y in half]
    for m in framings:
        edges = [(t * m * y * y, 2 * t * y, row) for y, row in zip(half, state)]
        state = [
            _fold(sum(_rotate(row, phase + x * s, r, width)
                      - _rotate(row, phase - x * s, r, width)
                      for phase, s, row in edges), r, width)
            for x in half
        ]
    scale = 2 ** len(framings)
    rows = [CyclotomicNumber(r, [scale * a for a in _unpack(row, r, width)])
            for row in state]
    values = (CyclotomicNumber.zero(r), *rows, *(-row for row in reversed(rows)))
    return LegSumTable(r=r, t=t, framings=framings, values=values)


def xi_statesum(M: SeifertData, r: int, t: int = 1) -> CyclotomicNumber:
    """``xi_r(M)`` at ``zeta**t`` via plumbing contraction (the oracle route).

    Each distinct chain is contracted once per call.

    Since ``S(-j) = -S(j)`` for every leg and ``chi[-j] = -chi[j]``, the
    colors ``j`` and ``-j`` contribute equally: the sum runs over
    ``j < r/2`` and is doubled.  The central power of color ``j = d*u``
    (``d = gcd(j, r)``, ``u`` a unit) is the Galois twist ``sigma_u`` of the
    power at ``d``, so ``n >= 3`` legs take one inverse per divisor ``d``.
    """
    t = _check_level(r, t)
    pres = plumbing(M)
    tables = {chain: leg_sum_dp(chain, r, t) for chain in set(pres.chains)}
    central: dict[int, CyclotomicNumber] = {}  # chi[d] ** (2 - n) per divisor d
    total = CyclotomicNumber.zero(r)
    for j in range(1, (r + 1) // 2):
        term = CyclotomicNumber.one(r)
        for chain in pres.chains:
            term = term * tables[chain].value(j)
            if term.is_zero():
                break
        if term.is_zero():
            continue
        d, u = _unit_lift(j, r)
        if d not in central:
            central[d] = CyclotomicNumber(r, _binomial(r, 2 * t * d)) ** (2 - M.n)
        total = total + term * central[d].galois(u)
    return _close(2 * total, pres, r, t)


def xi_statesum_brute(
    M: SeifertData, r: int, t: int = 1, budget: int = 10**6
) -> CyclotomicNumber:
    """``xi_r(M)`` by enumerating the whole joint coloring space.

    The most literal (and slowest) route: one term per coloring of every
    chain vertex together with the central vertex, no per-leg factorization.
    Refuses to start when the joint count ``r**(1 + sum(l_k))`` exceeds
    ``budget``.  Colorings containing the vanishing color contribute exactly
    zero and are skipped.
    """
    t = _check_level(r, t)
    pres = plumbing(M)
    total_l = sum(len(chain) for chain in pres.chains)
    if r ** (1 + total_l) > budget:
        raise BudgetExceeded(
            f"{r}**{1 + total_l} joint states exceed the budget {budget}"
        )
    chi = _chi(r, t)
    slices = []
    start = 0
    for chain in pres.chains:
        slices.append((start, start + len(chain)))
        start += len(chain)

    total = CyclotomicNumber.zero(r)
    for j in range(1, r):
        central_pow = chi[j] ** (2 - M.n)
        for colors in product(range(1, r), repeat=total_l):
            term = central_pow
            for chain, (lo, hi) in zip(pres.chains, slices):
                term = _chain_term(term, chain, colors[lo:hi], j, chi, r, t)
            total = total + term
    return _close(total, pres, r, t)
