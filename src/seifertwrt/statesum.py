"""Independent state-sum evaluation of the invariants over plumbing graphs.

This is the package's oracle: it never touches the closed formulas.  Each leg
chain is contracted by a transfer-matrix dynamic program over packed
elements of the group ring ``Z[C_r]`` (or, in the brute variant, by literally
enumerating every coloring of the joint state space), the central vertex is
summed, and the framing anomaly is corrected by the exact inertia of the
plumbing's linking matrix, read off the chains by one elimination pass.
Agreement of :func:`xi_statesum` with the closed evaluators is therefore a
genuine two-route check.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple, Sequence

from .cyclotomic import (
    CyclotomicNumber,
    _binomial,
    _check_level,
    _fold,
    _pack,
    _reduce_int_vector,
    _ring_mul,
    _rotate,
    _slot_width,
    _substitute,
    _unpack,
    _widen,
    gauss_sum,
)
from .seifert import SeifertData, plumbing, signature_counts


class BudgetExceeded(RuntimeError):
    """Raised when a brute-force enumeration would exceed its term budget."""


class LegSumTable(NamedTuple):
    """One contracted leg: ``S(j) = 2^len * rows[j - 1]`` for ``0 < j < r/2``, each
    row packed in ``Z[C_r]`` at ``width`` bytes per slot; ``S(-j) = -S(j)``."""

    r: int
    t: int
    framings: tuple[int, ...]
    width: int
    rows: tuple[int, ...]


def _chi(r: int, t: int) -> list[CyclotomicNumber]:
    """Edge weights ``zeta**(2ta) - zeta**(-2ta)`` for ``a`` in ``0..r-1``."""
    return [CyclotomicNumber(r, _binomial(r, 2 * t * a)) for a in range(r)]


def _edge_inverse(r: int, t: int) -> list[int]:
    """``E`` in ``Z[C_r]`` with ``E(zeta^j) = r / chi[j]`` at every ``j != 0 (mod r)``.

    ``E = sum_k k x^(2t(1+2k))``; with ``w = x^(4t)`` this is ``x^(2t) sum_k k
    w^k``, and ``sum_{k<r} k w^k = r / (w - 1)`` at every ``w != 1`` with
    ``w^r = 1``, whether or not ``j`` is a unit.
    """
    vec = [0] * r
    for k in range(r):
        vec[2 * t * (1 + 2 * k) % r] = k
    return vec


def _central_power(r: int, t: int, n: int) -> tuple[list[int], int]:
    """``D`` in ``Z[C_r]`` and ``den`` with ``D(zeta^j) / den = chi[j]^(2-n)`` at
    every ``j != 0 (mod r)``: ``x^(2t) - x^(-2t)``, ``1``, or ``E^(n-2)`` over
    ``r^(n-2)`` (:func:`_edge_inverse`).  ``D`` stays modulo ``x^r - 1`` only,
    as ``x -> x^j`` does not respect ``Phi_r`` at a non-unit ``j``.
    """
    if n <= 2:
        return (_binomial(r, 2 * t) if n == 1 else [1] + [0] * (r - 1)), 1
    return _ring_mul(*[_edge_inverse(r, t)] * (n - 2)), r ** (n - 2)


def _close(total: list[int], den: int, chains, r: int, t: int):
    """``xi`` from ``total / den`` in ``Z[C_r]`` over the plumbing on ``chains``:
    normalization and framing correction, with ``framing_total`` the sum of
    every chain's framings.

    With ``c = zeta^(2t) - zeta^(-2t)`` and ``g = g_t`` the S-matrix entries
    are ``s_+ = -2 zeta^(-3t) g / c`` and ``s_- = conj(s_+) = 2 zeta^(3t)
    conj(g) / c`` (``conj(c) = -c``).  Since ``b_+ + b_- + b_0`` is the
    component count, the factor ``c^-(count+1) zeta^(-t*framing_total)
    s_+^-b_+ s_-^-b_-`` is ``zeta^(t(3(b_+ - b_-) - framing_total))`` times
    ``c^-(b_0+1) g^-b_+ conj(g)^-b_- (-2)^-b_+ 2^-b_-``, with ``c^-1 = E / r``
    (:func:`_edge_inverse`) and ``g^-b = g^(b mod 2) / (g^2)^ceil(b/2)`` for the
    integer ``g^2 = conj(g)^2``: one :func:`_ring_mul` of at most ``b_0 + 4``
    vectors.
    """
    b_plus, b_minus, b_zero = signature_counts(chains)
    g = gauss_sum(r, r).galois(t)
    g_vec = g.integer_coefficients()[0]  # over the denominator 1
    nums = ([_edge_inverse(r, t)] * (b_zero + 1) + [g_vec] * (b_plus % 2)
            + [_substitute(g_vec, -1, r)] * (b_minus % 2))  # conj(g) = g(x^-1)
    shift = t * (3 * (b_plus - b_minus) - sum(map(sum, chains))) % r
    num = _ring_mul(total[-shift:] + total[:-shift], *nums)  # times zeta^shift
    den *= (-2) ** b_plus * 2**b_minus * r ** (b_zero + 1)
    den *= int((g * g).as_rational()) ** ((b_plus + 1) // 2 + (b_minus + 1) // 2)
    return CyclotomicNumber._raw(r, _reduce_int_vector(r, num), den)


def leg_sum_dp(framings: Sequence[int], r: int, t: int = 1) -> LegSumTable:
    """Contract a chain of framed vertices by a transfer dynamic program.

    ``state[y]`` is the partial sum over all colorings of the contracted
    vertices whose outgoing edge carries color ``y``, one packed element of
    ``Z[C_r]``.  A step multiplies it by the vertex phase ``zeta**(t*m*y^2)``
    and the edge weight ``zeta**(2txy) - zeta**(-2txy)``: two rotations.

    Every step keeps ``state[-y] = -state[y]`` (the phase is even in ``y``,
    the edge weight odd), so only the rows ``0 < y < r/2`` are stored; the
    colors ``y`` and ``-y`` contribute equally to each new row, so the sum
    runs over ``y < r/2`` and the factor 2 per step is left to the table.
    ``sum|state[y]|`` starts at 2 and each step multiplies it by at most
    ``r - 1``, so ``2(r-1)^len`` bounds every row's ``sum|.|``.  Exact, with
    ``len * (r-1)^2 / 2`` rotations; the rows stay packed, unreduced.
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
    rows = tuple(_fold(row, r, width) for row in state)
    return LegSumTable(r=r, t=t, framings=framings, width=width, rows=rows)


def xi_statesum(M: SeifertData, r: int, t: int = 1) -> CyclotomicNumber:
    """``xi_r(M)`` at ``zeta**t`` via plumbing contraction (the oracle route).

    Each distinct chain is contracted once per call.  As ``S(-j) = -S(j)`` and
    ``chi[-j] = -chi[j]``, the colors ``j < r/2`` are summed and doubled.  The
    central power of every color ``j`` is ``D(zeta^j) / den`` for the one ``D``
    of :func:`_central_power`.  The sum is taken in ``Z[C_r]`` at one slot
    width, from the bound ``prod_k 2(r-1)^len_k`` (:func:`leg_sum_dp`) on
    ``sum|.|`` of the rows' product; it is unpacked once and reduced once, in
    :func:`_close`.  With no active color the width must still hold ``D``.
    """
    t = _check_level(r, t)
    chains = plumbing(M)
    tables = {chain: leg_sum_dp(chain, r, t) for chain in set(chains)}
    colors = [j for j in range(1, (r + 1) // 2)
              if all(tables[chain].rows[j - 1] for chain in chains)]
    central, den = _central_power(r, t, M.n)
    scale = 2 ** (1 + sum(map(len, chains)))  # the colors -j; 2 per DP step
    central = [scale * a for a in central]
    width = _slot_width(max(len(colors), 1) * sum(map(abs, central))
                        * prod(2 * (r - 1) ** len(c) for c in chains))
    packed = {chain: [_widen(table.rows[j - 1], r, table.width, width) for j in colors]
              for chain, table in tables.items()}
    total = 0
    for i, j in enumerate(colors):
        value = _pack(_substitute(central, j, r), width)
        for chain in chains:
            value = _fold(value * packed[chain][i], r, width)
        total += value
    return _close(_unpack(total, r, width), den, chains, r, t)


def xi_statesum_brute(
    M: SeifertData, r: int, t: int = 1, budget: int = 10**6
) -> CyclotomicNumber:
    """``xi_r(M)`` by enumerating the whole joint coloring space.

    The most literal (and slowest) route: one term per coloring of every
    chain vertex together with the central vertex, no per-leg factorization.
    Refuses to start when the joint count ``r**(1 + sum(l_k))`` exceeds
    ``budget``.  Colorings containing the vanishing color contribute exactly
    zero and are skipped.

    A coloring's weight is one integer vector of ``Z[C_r]``: each vertex of
    framing ``m`` and color ``y`` after color ``prev`` multiplies it by
    ``x^(t m y^2) (x^(2t prev y) - x^(-2t prev y))``, one rotation and
    difference.  Only the ``n`` edges to the central color ``j``, steps with
    ``m = 0``, depend on ``j``: they are taken last, once per ``j``, as the
    steps commute.  The weights of one ``j`` add into one vector, which the
    literal central power ``chi[j] ** (2 - n)`` (:func:`_chi`) multiplies once.
    """
    t = _check_level(r, t)
    chains = plumbing(M)
    total_l = sum(len(chain) for chain in chains)
    if r ** (1 + total_l) > budget:
        raise BudgetExceeded(
            f"{r}**{1 + total_l} joint states exceed the budget {budget}"
        )

    def step(weight, m, y, prev):
        up = t * y * (m * y + 2 * prev) % r
        down = t * y * (m * y - 2 * prev) % r
        return [weight[k - up] - weight[k - down] for k in range(r)]

    accs = [[0] * r for _ in range(r)]  # accs[j]: the colorings around j, in Z[C_r]
    for colors in product(range(1, r), repeat=total_l):
        weight, ends, ys = [1] + [0] * (r - 1), [], iter(colors)
        for chain in chains:
            prev = 1
            for m, y in zip(chain, ys):
                weight, prev = step(weight, m, y, prev), y
            ends.append(prev)
        for j in range(1, r):
            edged = weight
            for prev in ends:
                edged = step(edged, 0, j, prev)
            accs[j] = [a + w for a, w in zip(accs[j], edged)]
    chi = _chi(r, t)
    total = sum((CyclotomicNumber(r, accs[j]) * chi[j] ** (2 - M.n)
                 for j in range(1, r)), CyclotomicNumber.zero(r))
    num, den = total.integer_coefficients()
    return _close(_substitute(num, 1, r), den, chains, r, t)
