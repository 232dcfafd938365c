"""Independent state-sum evaluation of the invariants over plumbing graphs.

This is the package's oracle: it never touches the closed formulas.  Each leg
chain is contracted by a transfer-matrix dynamic program over raw
root-of-unity coefficient vectors (or, in the brute variant, by literally
enumerating every coloring of the joint state space), the central vertex is
summed, and the framing anomaly is corrected by the exact signature of the
integer linking matrix.  Agreement of :func:`xi_statesum` with the closed
evaluators is therefore a genuine two-route check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from .cyclotomic import CyclotomicNumber, gauss_sum, root_power
from .seifert import SeifertData, linking_matrix, plumbing, signature_counts
from .wrt import LegData, _check_level_and_unit


class BudgetExceeded(RuntimeError):
    """Raised when a brute-force enumeration would exceed its term budget."""


@dataclass(frozen=True)
class LegSumTable:
    """Exact values ``S(j)`` of one contracted leg, indexed by ``j mod r``."""

    r: int
    t: int
    framings: tuple[int, ...]
    values: tuple[CyclotomicNumber, ...]

    def value(self, j: int) -> CyclotomicNumber:
        return self.values[j % self.r]


def _rotated(vec: list[int], s: int, r: int) -> list[int]:
    s %= r
    if s == 0:
        return vec[:]
    return vec[-s:] + vec[:-s]


def _chi(r: int, t: int) -> list[CyclotomicNumber]:
    """Edge weights ``zeta**(2ta) - zeta**(-2ta)`` for ``a`` in ``0..r-1``."""
    return [root_power(r, 2 * t * a) - root_power(r, -2 * t * a) for a in range(r)]


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
    g = gauss_sum(r, r).galois(t)
    den = _chi(r, t)[1] ** (b_zero + 1) * g**b_plus * g.conjugate() ** b_minus
    den = den * ((-2) ** b_plus * 2**b_minus)
    phase = root_power(r, t * (3 * (b_plus - b_minus) - pres.framing_total))
    return total * phase / den


def leg_sum_dp(framings: Sequence[int], r: int, t: int = 1) -> LegSumTable:
    """Contract a chain of framed vertices by a transfer dynamic program.

    ``state[y]`` holds the partial sum over all colorings of the already
    contracted vertices whose outgoing edge carries color ``y``, as a raw
    integer vector of coefficients of ``zeta**k``.  One step per framing:
    multiply by the vertex phase ``zeta**(t*m*y^2)`` and convolve with the
    edge weight ``zeta**(2txy) - zeta**(-2txy)``.  Exact, O(len * r^3).
    """
    t = _check_level_and_unit(r, t)
    framings = tuple(int(m) for m in framings)
    state: list[list[int]] = [[0] * r for _ in range(r)]
    for y in range(r):
        state[y][(2 * t * y) % r] += 1
        state[y][(-2 * t * y) % r] -= 1
    for m in framings:
        phased = [_rotated(state[y], t * m * y * y, r) for y in range(r)]
        new_state: list[list[int]] = [[0] * r for _ in range(r)]
        for x in range(r):
            acc = new_state[x]
            for y in range(r):
                src = phased[y]
                if not any(src):
                    continue
                plus = _rotated(src, 2 * t * x * y, r)
                minus = _rotated(src, -2 * t * x * y, r)
                for i in range(r):
                    acc[i] += plus[i] - minus[i]
        state = new_state
    values = tuple(CyclotomicNumber(r, row) for row in state)
    return LegSumTable(r=r, t=t, framings=framings, values=values)


def leg_sum_brute(
    framings: Sequence[int], r: int, t: int = 1, budget: int = 10**6
) -> LegSumTable:
    """The same table as :func:`leg_sum_dp`, by enumerating every coloring.

    Refuses to start when the state space ``r**(len+1)`` exceeds ``budget``.
    Colorings containing the vanishing color (``y = 0 mod r``) contribute
    exactly zero and are skipped.
    """
    t = _check_level_and_unit(r, t)
    framings = tuple(int(m) for m in framings)
    l = len(framings)  # noqa: E741
    if r ** (l + 1) > budget:
        raise BudgetExceeded(f"{r}**{l + 1} states exceed the budget {budget}")
    chi = _chi(r, t)
    values = []
    for j in range(r):
        total = CyclotomicNumber.zero(r)
        for colors in product(range(1, r), repeat=l):
            total = total + _chain_term(
                CyclotomicNumber.one(r), framings, colors, j, chi, r, t
            )
        values.append(total)
    return LegSumTable(r=r, t=t, framings=framings, values=tuple(values))


def leg_sum_closed(leg: LegData, r: int, t: int, j: int) -> CyclotomicNumber:
    """Closed Gauss-sum evaluation of one leg's ``S(j)``.

    ``S(j) = (-2 g_t(r))**l * sf * jac * g_t(c) * F(j)`` where ``g_t`` is the
    Galois twist by ``t`` of the quadratic Gauss sum and ``F(j)`` collects
    the (at most two) active branch exponents of the leg.
    """
    t = _check_level_and_unit(r, t)
    unit = ((-2) * gauss_sum(r, r).galois(t)) ** leg.l
    unit = unit * (leg.sf * leg.jac)
    unit = unit * gauss_sum(r, leg.c).galois(t)
    vec = [0] * r
    for s, e in leg.chi_terms(j):
        vec[(t * e) % r] += s
    return unit * CyclotomicNumber(r, vec)


def xi_statesum(
    M: SeifertData,
    r: int,
    t: int = 1,
    tables: Mapping[tuple[int, ...], LegSumTable] | None = None,
) -> CyclotomicNumber:
    """``xi_r(M)`` at ``zeta**t`` via plumbing contraction (the oracle route).

    ``tables`` may carry precomputed :class:`LegSumTable` objects keyed by
    chain framings (they must match ``r`` and ``t``); missing chains are
    contracted on the fly.
    """
    t = _check_level_and_unit(r, t)
    pres = plumbing(M)
    leg_tables = []
    for chain in pres.chains:
        table = tables.get(chain) if tables is not None else None
        if table is None or table.r != r or table.t != t:
            table = leg_sum_dp(chain, r, t)
            if tables is not None and hasattr(tables, "__setitem__"):
                tables[chain] = table
        leg_tables.append(table)

    chi = _chi(r, t)
    total = CyclotomicNumber.zero(r)
    for j in range(1, r):
        term = CyclotomicNumber.one(r)
        for table in leg_tables:
            term = term * table.value(j)
            if term.is_zero():
                break
        if term.is_zero():
            continue
        total = total + term * chi[j] ** (2 - M.n)
    return _close(total, pres, r, t)


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
    t = _check_level_and_unit(r, t)
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
