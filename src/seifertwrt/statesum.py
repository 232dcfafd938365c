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
    state: list[list[int]] = [[0] * r for _ in range(r + 1)]
    for y in range(1, r + 1):
        state[y][(2 * t * y) % r] += 1
        state[y][(-2 * t * y) % r] -= 1
    for m in framings:
        phased = [None] + [
            _rotated(state[y], t * m * y * y, r) for y in range(1, r + 1)
        ]
        new_state: list[list[int]] = [[0] * r for _ in range(r + 1)]
        for x in range(1, r + 1):
            acc = new_state[x]
            for y in range(1, r + 1):
                src = phased[y]
                if not any(src):
                    continue
                plus = _rotated(src, 2 * t * x * y, r)
                minus = _rotated(src, -2 * t * x * y, r)
                for i in range(r):
                    acc[i] += plus[i] - minus[i]
        state = new_state
    values = [CyclotomicNumber.zero(r)] * r
    for y in range(1, r + 1):
        values[y % r] = CyclotomicNumber(r, state[y])
    return LegSumTable(r=r, t=t, framings=framings, values=tuple(values))


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
    chi = [
        root_power(r, 2 * t * a) - root_power(r, -2 * t * a) for a in range(r)
    ]
    values = []
    for j in range(r):
        total = CyclotomicNumber.zero(r)
        for colors in product(range(1, r), repeat=l):
            term = CyclotomicNumber.one(r)
            prev = None
            for m, y in zip(framings, colors):
                term = term * root_power(r, t * m * y * y)
                term = term * chi[(y if prev is None else prev * y) % r]
                prev = y
            if prev is not None:
                term = term * chi[(prev * j) % r]
            total = total + term
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


def _framing_correction(
    r: int, t: int, b_plus: int, b_minus: int
) -> CyclotomicNumber:
    central = root_power(r, 2 * t) - root_power(r, -2 * t)
    s_plus = (-2) * root_power(r, -3 * t) * central.inverse() * gauss_sum(r, r).galois(t)
    s_minus = s_plus.galois(-1)
    return s_plus ** (-b_plus) * s_minus ** (-b_minus)


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

    n = M.n
    total = CyclotomicNumber.zero(r)
    for j in range(1, r):
        term = CyclotomicNumber.one(r)
        for table in leg_tables:
            term = term * table.value(j)
            if term.is_zero():
                break
        if term.is_zero():
            continue
        if n != 2:
            central_j = root_power(r, 2 * t * j) - root_power(r, -2 * t * j)
            term = term * central_j ** (2 - n)
        total = total + term

    central = root_power(r, 2 * t) - root_power(r, -2 * t)
    raw = (
        total
        * central ** (-(pres.component_count + 1))
        * root_power(r, -t * pres.framing_total)
    )
    b_plus, b_minus, _ = signature_counts(linking_matrix(pres))
    return raw * _framing_correction(r, t, b_plus, b_minus)


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
    n = M.n
    chi = [
        root_power(r, 2 * t * a) - root_power(r, -2 * t * a) for a in range(r)
    ]
    slices = []
    start = 0
    for chain in pres.chains:
        slices.append((start, start + len(chain)))
        start += len(chain)

    total = CyclotomicNumber.zero(r)
    for j in range(1, r):
        central_pow = (
            chi[j] ** (2 - n) if n != 2 else CyclotomicNumber.one(r)
        )
        for colors in product(range(1, r), repeat=total_l):
            term = central_pow
            for chain, (lo, hi) in zip(pres.chains, slices):
                ys = colors[lo:hi]
                prev = None
                for m, y in zip(chain, ys):
                    term = term * root_power(r, t * m * y * y)
                    term = term * chi[(y if prev is None else prev * y) % r]
                    prev = y
                term = term * chi[(prev * j) % r]
            total = total + term

    central = root_power(r, 2 * t) - root_power(r, -2 * t)
    raw = (
        total
        * central ** (-(pres.component_count + 1))
        * root_power(r, -t * pres.framing_total)
    )
    b_plus, b_minus, _ = signature_counts(linking_matrix(pres))
    return raw * _framing_correction(r, t, b_plus, b_minus)
