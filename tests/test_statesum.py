from __future__ import annotations

from itertools import product
from math import gcd
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import CORPUS_SPECS, get_xi_formula, manifold, root_power
from test_seifert import _dense_signature_counts, good_plumbing, linking_matrix
from seifertwrt.cyclotomic import (
    CyclotomicNumber,
    _binomial,
    _check_level,
    _slot_width,
    _substitute,
    _unpack,
    gauss_sum,
)
from seifertwrt import cli
from seifertwrt.cli import BRUTE_BUDGET
from seifertwrt.numtheory import mod_inverse
from seifertwrt.seifert import SeifertData, plumbing
from seifertwrt.statesum import (
    BudgetExceeded,
    LegSumTable,
    _central_power,
    _chi,
    _edge_inverse,
    _level_constants,
    leg_sum_dp,
    xi_statesum,
    xi_statesum_brute,
)
from seifertwrt.wrt import (
    TREFOIL_ZERO,
    HypothesisViolated,
    LegData,
    leg_data,
    xi_closed_form,
)

# -- reference routes: per-leg tables by lists, enumeration and Gauss sums ----


def unpacked_rows(table: LegSumTable) -> list[list[int]]:
    """The rows of ``table`` as integer vectors of ``Z[C_r]``."""
    return [_unpack(row, table.r, table.width) for row in table.rows]


def leg_values(table: LegSumTable) -> tuple[CyclotomicNumber, ...]:
    """``S(j)`` for ``j = 0 .. r-1`` from the packed rows of ``table``."""
    return values_from_rows(unpacked_rows(table), table.r, len(table.framings))


def values_from_rows(rows, r: int, length: int) -> tuple[CyclotomicNumber, ...]:
    """``S(j)`` for ``j = 0 .. r-1`` from the rows ``0 < j < r/2``."""
    scaled = [CyclotomicNumber(r, [2**length * a for a in row]) for row in rows]
    return (CyclotomicNumber.zero(r), *scaled, *(-v for v in reversed(scaled)))


def leg_sum_dp_lists(framings: Sequence[int], r: int, t: int = 1) -> list[list[int]]:
    """The rows of :func:`leg_sum_dp`, unpacked, by the DP over coefficient lists.

    The same recursion on the rows ``0 < y < r/2``, with each row a list of
    ``r`` integers and its rotation by ``k`` one slice of the row written
    twice.
    """
    t = _check_level(r, t)
    framings = tuple(int(m) for m in framings)
    half = range(1, (r + 1) // 2)
    state = [_binomial(r, 2 * t * y) for y in half]
    for m in framings:
        doubled = [(y, row + row) for y, row in zip(half, state) if any(row)]
        new_state = []
        for x in half:
            acc = [0] * r
            for y, twice in doubled:
                phase = t * m * y * y
                plus = r - (phase + 2 * t * x * y) % r
                minus = r - (phase - 2 * t * x * y) % r
                plus_row, minus_row = twice[plus : plus + r], twice[minus : minus + r]
                acc = [a + p - q for a, p, q in zip(acc, plus_row, minus_row)]
            new_state.append(acc)
        state = new_state
    return state


def leg_sum_brute(
    framings: Sequence[int], r: int, t: int = 1, budget: int = 10**6
) -> tuple[CyclotomicNumber, ...]:
    """The values ``S(j)``, ``j = 0 .. r-1``, of :func:`leg_sum_dp` by
    enumerating every coloring.

    A coloring ``y`` of the chain, walked from color 1 at the free end to the
    central color ``j``, weighs ``x^(t sum_i m_i y_i^2)`` times one edge
    weight ``x^(2ta) - x^(-2ta)`` per edge ``a = y_(i-1) y_i``: its
    ``2^(len+1)`` signed monomials are added into one integer vector of
    ``Z[C_r]`` per color.  Refuses to start when the state space
    ``r**(len+1)`` exceeds ``budget``.  Colorings containing the vanishing
    color (``y = 0 mod r``) contribute exactly zero and are skipped.
    """
    t = _check_level(r, t)
    framings = tuple(int(m) for m in framings)
    l = len(framings)  # noqa: E741
    if r ** (l + 1) > budget:
        raise BudgetExceeded(f"{r}**{l + 1} states exceed the budget {budget}")
    values = []
    for j in range(r):
        vec = [0] * r
        for colors in product(range(1, r), repeat=l):
            walk = (1, *colors, j)
            terms = [(t * sum(m * y * y for m, y in zip(framings, colors)), 1)]
            for a in (y * z for y, z in zip(walk, walk[1:])):
                terms = [(e + k, s * sign) for e, s in terms
                         for k, sign in ((2 * t * a, 1), (-2 * t * a, -1))]
            for e, s in terms:
                vec[e % r] += s
        values.append(CyclotomicNumber(r, vec))
    return tuple(values)


def _unit_lift(j: int, r: int) -> tuple[int, int]:
    """``d = gcd(j, r)`` and a unit ``u`` mod ``r`` with ``j = d*u (mod r)``."""
    d = gcd(j, r)
    u = j // d
    while gcd(u, r) != 1:
        u += r // d
    return d, u


def central_powers_by_unit_lift(n: int, r: int, t: int) -> list[CyclotomicNumber]:
    """``chi[j]^(2-n)`` for ``j = 0 .. r-1`` (``None`` at 0) by the generic inverse.

    The power at ``j = d*u`` (``d = gcd(j, r)``, ``u`` a unit) is the Galois
    twist ``sigma_u`` of the power at ``d``, so ``n >= 3`` legs invert once per
    divisor ``d`` of ``r``.
    """
    at_divisor: dict[int, CyclotomicNumber] = {}
    powers = [None]
    for j in range(1, r):
        d, u = _unit_lift(j, r)
        if d not in at_divisor:
            at_divisor[d] = CyclotomicNumber(r, _binomial(r, 2 * t * d)) ** (2 - n)
        powers.append(at_divisor[d].galois(u))
    return powers


def leg_sum_closed(
    leg: LegData, chain: tuple[int, ...], r: int, t: int, j: int
) -> CyclotomicNumber:
    """Closed Gauss-sum evaluation of one leg's ``S(j)`` for the chain ``chain``.

    ``S(j) = (-2 g_t(r))**l * sf * jac * g_t(c) * F(j) * zeta^(t (E - E0))``
    where ``g_t`` is the Galois twist by ``t`` of the quadratic Gauss sum,
    ``F(j)`` collects the (at most two) active branch exponents of the leg,
    ``l`` is the chain's length and ``E0 = 3(l - 1 + sign p) - sum(chain)``.
    ``F`` alone is ``S(j)`` for the Bezout pair of the chain's own expansion,
    whose exponent ``E = leg.exponent_const`` is ``E0``; another pair moves
    ``F`` and ``E`` together, and the phase moves ``F`` back.
    """
    t = _check_level(r, t)
    unit = ((-2) * gauss_sum(r, r).galois(t)) ** len(chain)
    unit = unit * (leg.sf * leg.jac)
    unit = unit * gauss_sum(r, leg.c).galois(t)
    e0 = 3 * (len(chain) - 1 + (1 if leg.p > 0 else -1)) - sum(chain)
    vec = [0] * r
    for s, e in leg.chi_terms(j):
        vec[(t * (e + leg.exponent_const - e0)) % r] += s
    return unit * CyclotomicNumber(r, vec)


small_chains = st.lists(st.integers(-3, 4), min_size=1, max_size=2)
levels_and_units = st.sampled_from(range(3, 46, 2)).flatmap(
    lambda r: st.tuples(
        st.just(r), st.sampled_from([t for t in range(1, r) if gcd(t, r) == 1])
    )
)
coprime_legs = st.tuples(
    st.integers(min_value=-7, max_value=7).filter(lambda p: p != 0),
    st.integers(min_value=1, max_value=6),
).filter(lambda pq: gcd(abs(pq[0]), pq[1]) == 1)


def test_dp_matches_brute_frozen_case():
    dp = leg_sum_dp((1, 4), 5, 1)
    brute = leg_sum_brute((1, 4), 5, 1)
    for j in range(5):
        assert leg_values(dp)[j] == brute[j]


@given(small_chains, st.sampled_from([3, 5, 7]), st.integers(1, 6))
@settings(deadline=None, max_examples=40)
def test_dp_matches_brute(chain, r, t):
    if gcd(t, r) != 1:
        return
    dp = leg_sum_dp(chain, r, t)
    brute = leg_sum_brute(chain, r, t)
    for j in range(r):
        assert leg_values(dp)[j] == brute[j], (chain, r, t, j)


@given(coprime_legs, st.sampled_from([5, 7, 9, 15]), st.sampled_from([1, 2, 4]))
@settings(deadline=None, max_examples=60)
def test_closed_leg_matches_dp(pq, r, t):
    # The Gauss-sum evaluation of a contracted chain against the transfer DP.
    if gcd(t, r) != 1:
        return
    p, q = pq
    leg = leg_data(p, q, r)
    (chain,) = good_plumbing(SeifertData(((p, q),)))
    dp = leg_values(leg_sum_dp(chain, r, t))
    for j in range(r):
        assert leg_sum_closed(leg, chain, r, t, j) == dp[j], (p, q, r, t, j)


def test_closed_leg_handles_single_vertex_chain():
    # The chain <1> (a single +1-framed vertex) presents 1/1; its leg package
    # is assembled by hand since canonical expansions always have length >= 2.
    for r, t in ((5, 1), (7, 3), (9, 2)):
        leg = LegData(
            p=1,
            q=1,
            c=1,
            q_star=1,
            p_star=0,
            pc_prime=1,
            sf=1,
            jac=1,
            exponent_const=3 * (1 - 1 + 1) - 1,
        )
        dp = leg_values(leg_sum_dp((1,), r, t))
        for j in range(r):
            assert leg_sum_closed(leg, (1,), r, t, j) == dp[j], (r, t, j)


def test_leg_table_layout():
    # One packed row per color 0 < j < r/2, at the DP's slot width; S(0) = 0
    # and S(-j) = -S(j) give the other colors, as the enumeration finds them.
    table = leg_sum_dp((2,), 5, 1)
    assert isinstance(table, LegSumTable)
    assert (len(table.rows), table.width) == (2, _slot_width(2 * 4))
    assert leg_values(table) == leg_sum_brute((2,), 5, 1)


@given(st.lists(st.integers(-7, 7), max_size=8), levels_and_units)
@settings(deadline=None, max_examples=60)
def test_packed_dp_matches_list_dp(chain, level):
    # Odd levels 3..45, composite ones included, at every unit t.
    r, t = level
    assert unpacked_rows(leg_sum_dp(chain, r, t)) == leg_sum_dp_lists(chain, r, t)


@pytest.mark.parametrize(
    "r,length,width",
    [(3, 5, 1), (3, 6, 2), (3, 7, 2), (3, 8, 2), (5, 2, 1), (5, 3, 2), (5, 4, 2)],
)
def test_packed_dp_across_slot_widths(r, length, width):
    # The bound 2 (r - 1)^len crosses 128 and 256 on these chains, and the
    # slot width grows from one byte to two (the coefficients stay below 128).
    assert _slot_width(2 * (r - 1) ** length) == width
    for chain in ((0,) * length, (1,) * length, (-7, 3, 2, -1, 5, 7, -2, 4)[:length]):
        assert unpacked_rows(leg_sum_dp(chain, r)) == leg_sum_dp_lists(chain, r)


def test_empty_chain_dp_matches_brute():
    # A chain with no vertex is the bare edge from color 1 to the center.
    assert leg_values(leg_sum_dp((), 5, 2)) == leg_sum_brute((), 5, 2)


def test_level_validation():
    with pytest.raises(HypothesisViolated):
        leg_sum_dp((1,), 4, 1)
    with pytest.raises(HypothesisViolated):
        leg_sum_dp((1,), 9, 3)
    with pytest.raises(HypothesisViolated):
        xi_statesum(manifold("X(2/1)"), 1, 1)


def test_brute_budget_guard():
    with pytest.raises(BudgetExceeded):
        leg_sum_brute((1, 2, 3), 25, 1, budget=10**5)
    # generous budgets admit the same call
    assert leg_sum_brute((1,), 3, 1, budget=10**2)[1] is not None


def test_joint_brute_budget_guard():
    # The trefoil surgery plumbs into 3 + 1 vertices: 25**4 states fit the
    # default budget of 10**6 and 33**4 do not.
    with pytest.raises(BudgetExceeded):
        xi_statesum_brute(TREFOIL_ZERO, 33)
    with pytest.raises(BudgetExceeded):
        xi_statesum_brute(manifold("X(2/1)"), 7, 1, budget=10)


@pytest.mark.parametrize(
    "spec,r,t",
    [
        ("X(3/1)", 5, 1),
        ("X(3/1)", 5, 2),
        ("X(-2/1)", 7, 1),
        ("X(2/1,3/1)", 5, 1),
        ("X(5/2)", 7, 3),
        ("X(2/1,-2/1)", 5, 1),
        ("X(-2/1,3/1,6/1)", 3, 1),
    ],
)
def test_joint_brute_matches_statesum(spec, r, t):
    M = manifold(spec)
    assert xi_statesum_brute(M, r, t) == xi_statesum(M, r, t)


def test_joint_brute_matches_formula_on_corpus():
    # Every corpus manifold and level whose joint coloring space fits
    # selftest's default budget: 131 pairs at r = 3, 5, 7, 9.
    checked = 0
    for spec in CORPUS_SPECS:
        for r in (3, 5, 7, 9):
            try:
                brute = xi_statesum_brute(manifold(spec), r, 1, BRUTE_BUDGET)
            except BudgetExceeded:
                continue
            assert brute == get_xi_formula(spec, r), (spec, r)
            checked += 1
    assert checked == 131


def _brute_products(M: SeifertData, r: int) -> int:
    """The ``CyclotomicNumber`` products one :func:`xi_statesum_brute` takes."""
    calls = []
    real = CyclotomicNumber.__mul__

    def spy(self, other):
        calls.append(other)
        return real(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CyclotomicNumber, "__mul__", spy)
        mp.setattr(CyclotomicNumber, "__rmul__", spy)
        xi_statesum_brute(M, r)
    return len(calls)


@pytest.mark.parametrize("few,many", [("X(2/1)", "X(7/5)"),
                                      ("X(2/1,3/1)", "X(6/1,7/5)")])
def test_joint_brute_products_do_not_grow_with_colorings(few, many):
    # ``many`` has r**2 times the colorings of ``few``.  Each central color
    # takes one product, and X(2/1) one more for chi[j] ** (2 - n); _close
    # takes one (g * g).
    r = 5
    counts = [_brute_products(manifold(spec), r) for spec in (few, many)]
    assert counts[0] == counts[1] <= 2 * (r - 1) + 1


def test_statesum_zero_color_column_is_zero():
    # The central color j = 0 mod r contributes nothing: every leg table
    # vanishes there, which is what makes the j-sum well defined.
    for spec, r in (("X(2/1,3/1)", 5), ("X(6/1,5/4)", 9)):
        M = manifold(spec)
        from seifertwrt.seifert import plumbing

        for chain in plumbing(M):
            assert leg_values(leg_sum_dp(chain, r, 1))[0].is_zero()


def test_s_matrix_entry_identities():
    # s_plus * s_minus * central^2 = -4r and 1/g = conj(g)/r underpin the
    # framing correction; check them through the public pieces.
    for r in (5, 7, 9):
        central = root_power(r, 2) - root_power(r, -2)
        g = gauss_sum(r, r)
        s_plus = (-2) * root_power(r, -3) * central.inverse() * g
        s_minus = s_plus.galois(-1)
        assert (s_plus * s_minus) * central**2 == -4 * r
        assert g.inverse() == g.galois(-1) / r


@pytest.mark.parametrize("r", [7, 9, 15, 45])
def test_statesum_takes_no_inverse(monkeypatch, r):
    # The central power at every color, unit or not, and the closing step's
    # c^-1 are read off E; the Gauss sum g_t enters through the rational g^2.
    calls = []
    inverse = CyclotomicNumber.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CyclotomicNumber, "inverse", counted)
    for spec in ("X(5/2)", "X(2/1,3/1)", "X(2/1,3/1,5/1)", "X(3/1,4/3,5/2,-2/1)"):
        xi_statesum(manifold(spec), r, 2)
    assert calls == []


@pytest.mark.parametrize("r", range(3, 46, 2))
def test_central_power_matches_generic_inverse_at_every_color(r):
    # D(zeta^j) / den against chi[j]^(2-n) by the generic inverse, at every
    # color j, the non-units of composite levels included.
    for n in range(1, 6):
        D, den = _central_power(r, 2, n)
        expected = central_powers_by_unit_lift(n, r, 2)
        for j in range(1, r):
            assert CyclotomicNumber(r, _substitute(D, j, r), den) == expected[j], (n, j)


def test_statesum_closing_product_does_not_grow_with_the_chain(monkeypatch):
    # The closing product takes the color sum, b_0 + 1 copies of c^-1 and at
    # most one g and one conj(g), whatever the number of plumbing vertices.
    import seifertwrt.statesum as statesum

    counts = []
    ring_mul = statesum._ring_mul

    def counted(*vectors):
        counts.append(len(vectors))
        return ring_mul(*vectors)

    monkeypatch.setattr(statesum, "_ring_mul", counted)
    for spec in ("X(1/10)", "X(1/2000)"):
        xi_statesum(manifold(spec), 5)
    assert len(counts) == 2 and max(counts) <= 4


@pytest.mark.parametrize("r", range(3, 62, 2))
def test_gauss_sum_squares_to_a_signed_level(r):
    # g_t^2 = (-1)^((r-1)/2) r at every odd level, prime or not, and every
    # unit t: the closing step divides by it instead of inverting g.
    for t in (t for t in range(1, r) if gcd(t, r) == 1):
        g = gauss_sum(r, r).galois(t)
        assert (g * g).as_rational() == (-1) ** ((r - 1) // 2) * r


@pytest.mark.parametrize("r", [3, 5, 9, 15, 21, 25, 4001])
def test_level_constants_equal_a_fresh_evaluation(r):
    # E, g_t, conj(g_t) and g_t^2 of the cache against their definitions:
    # conj by the automorphism zeta -> zeta^-1, the square by a product.
    for t in sorted({1, 2, r - 1, mod_inverse(4, r)}):
        entry = _level_constants(r, t)
        assert type(entry) is tuple and len(entry) == 4
        E, g, g_conj, g_sq = entry
        assert all(type(v) is tuple for v in (E, g, g_conj)) and type(g_sq) is int
        fresh = gauss_sum(r, r).galois(t)
        assert E == tuple(_edge_inverse(r, t))
        assert CyclotomicNumber(r, g) == fresh
        assert CyclotomicNumber(r, g_conj) == fresh.galois(r - 1)
        assert fresh * fresh == g_sq


def test_level_constants_cache_is_bounded():
    assert _level_constants.cache_info().maxsize == 16
    _level_constants.cache_clear()
    M = manifold("X(2/1,3/1,5/1)")
    for r in range(3, 42, 2):  # 20 levels
        xi_statesum(M, r)
    info = _level_constants.cache_info()
    assert info.misses == 20 and info.currsize == 16


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_level_constants_are_keyed_by_the_twist(order):
    # One level, two twists, in either order: neither reads the other's g_t.
    M, r = manifold("X(2/1,-5/3,7/2)"), 15
    assert xi_closed_form(M, r, 1) != xi_closed_form(M, r, 2)
    _level_constants.cache_clear()
    for t in order:
        assert xi_statesum(M, r, t) == xi_closed_form(M, r, t)


@pytest.mark.parametrize("fault", ["negated g^2", "swapped g and conj(g)"])
def test_faulty_level_constants_fail_the_oracle_check(monkeypatch, fault):
    # Each fault of the cached constants must make the oracle check fail on
    # some corpus record at r = 5..15; the loop stops at the first.
    from seifertwrt import statesum

    level_constants = statesum._level_constants

    def faulty(r, t):
        E, g, g_conj, g_sq = level_constants(r, t)
        if fault == "negated g^2":
            return E, g, g_conj, -g_sq
        return E, g_conj, g, g_sq

    monkeypatch.setattr(statesum, "_level_constants", faulty)
    assert any(
        cli._judge(("oracle",), manifold(spec), r, 1, get_xi_formula(spec, r))["oracle"]
        is False
        for r in range(5, 16, 2) for spec in CORPUS_SPECS
    )


@pytest.mark.parametrize("spec,r", [("X(1/5000)", 5), ("X(-7/3000,5/2,3/1)", 7)])
def test_statesum_matches_closed_form_on_huge_framings(spec, r):
    # Short chains with framings in the thousands: (-5000, 0) and (-3, 2, 429, 0).
    from seifertwrt.wrt import xi_closed_form

    M = manifold(spec)
    assert xi_statesum(M, r) == xi_closed_form(M, r)


@pytest.mark.parametrize("spec,r,length,width", [("X(1/40)", 5, 40, 11),
                                                 ("X(1/60)", 3, 60, 8)])
def test_statesum_matches_closed_form_on_long_chains(monkeypatch, spec, r, length,
                                                     width):
    # Over the good chains, 1/q plumbs into q vertices, and the DP's rows need
    # wide slots for the bound 2(r-1)^len of leg_sum_dp.
    import seifertwrt.statesum as statesum
    from seifertwrt.wrt import xi_closed_form

    M = manifold(spec)
    (chain,) = good_plumbing(M)
    assert (len(chain), leg_sum_dp(chain, r).width) == (length, width)
    monkeypatch.setattr(statesum, "plumbing", good_plumbing)
    assert xi_statesum(M, r) == xi_closed_form(M, r)


@pytest.mark.parametrize(
    "chain,r,t",
    [((2, -1, 3), 9, 1), ((1, 4, -2), 9, 2), ((1, 4), 15, 1), ((2, -1, 3), 15, 2)],
)
def test_dp_matches_brute_composite_levels(chain, r, t):
    # Composite levels have non-unit colors, where the antisymmetric DP must
    # still agree with the enumeration at every color.
    assert leg_values(leg_sum_dp(chain, r, t)) == leg_sum_brute(chain, r, t)


@given(small_chains, st.sampled_from([3, 5, 7, 9]), st.integers(1, 8))
@settings(deadline=None, max_examples=30)
def test_leg_sum_is_odd_in_the_color(chain, r, t):
    # S(-j) = -S(j), by enumeration: the symmetry the DP and the central sum use.
    if gcd(t, r) != 1:
        return
    table = leg_sum_brute(chain, r, t)
    for j in range(r):
        assert table[-j % r] == -table[j], (chain, r, t, j)


def close_dense(total: CyclotomicNumber, chains, r: int, t: int) -> CyclotomicNumber:
    """The closing step as one division by the dense
    ``den = c^(b_0+1) g^b_+ conj(g)^b_- (-2)^b_+ 2^b_-`` (see ``statesum._close``),
    with the inertia from the dense linking matrix."""
    b_plus, b_minus, b_zero = _dense_signature_counts(linking_matrix(chains))
    c = CyclotomicNumber(r, _binomial(r, 2 * t))
    g = gauss_sum(r, r).galois(t)
    den = c ** (b_zero + 1) * g**b_plus * g.galois(-1) ** b_minus
    den = den * ((-2) ** b_plus * 2**b_minus)
    phase = root_power(r, t * (3 * (b_plus - b_minus) - sum(map(sum, chains))))
    return total * phase / den


def xi_statesum_per_color(M: SeifertData, r: int, t: int = 1) -> CyclotomicNumber:
    """:func:`xi_statesum` by the list DP and one reduced product per color.

    The colors ``j < r/2`` are summed as cyclotomic numbers, each color's
    central power from :func:`central_powers_by_unit_lift`, and the sum is
    closed by :func:`close_dense`.
    """
    t = _check_level(r, t)
    chains = plumbing(M)
    tables = {
        chain: values_from_rows(leg_sum_dp_lists(chain, r, t), r, len(chain))
        for chain in set(chains)
    }
    central = central_powers_by_unit_lift(M.n, r, t)
    total = CyclotomicNumber.zero(r)
    for j in range(1, (r + 1) // 2):
        term = CyclotomicNumber.one(r)
        for chain in chains:
            term = term * tables[chain][j]
        total = total + term * central[j]
    return close_dense(2 * total, chains, r, t)


def _all_colors_statesum(M, r, t):
    """The oracle's color sum over every ``j`` with a per-color central power,
    from enumerated leg tables: no symmetry and no Galois twist."""
    chains = plumbing(M)
    tables = [leg_sum_brute(chain, r, t) for chain in chains]
    chi = _chi(r, t)
    total = CyclotomicNumber.zero(r)
    for j in range(1, r):
        term = chi[j] ** (2 - M.n)
        for table in tables:
            term = term * table[j]
        total = total + term
    return close_dense(total, chains, r, t)


composite_levels_and_units = st.sampled_from(
    [(r, t) for r in (45, 63, 75) for t in range(1, r) if gcd(t, r) == 1]
)
short_legs = st.lists(
    st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 3)).filter(
        lambda pq: gcd(pq[0], pq[1]) == 1
    ),
    min_size=1,
    max_size=4,
)


@given(short_legs, composite_levels_and_units)
@settings(deadline=None, max_examples=12)
def test_statesum_matches_per_color_reference(legs, level):
    # The sum in Z[C_r] at one slot width, against reduced products per color
    # and the dense division, at composite levels and any unit t.
    r, t = level
    M = SeifertData(tuple(legs))
    assert xi_statesum(M, r, t) == xi_statesum_per_color(M, r, t)


@pytest.mark.parametrize(
    "spec,r,t",
    [
        ("X(2/1,3/1,7/1)", 31, 8),
        ("X(5/2,-5/3,6/1,-7/2)", 43, 11),
        ("X(3/1,4/3,5/2,-2/1)", 21, 16),
    ],
)
def test_statesum_matches_per_color_reference_frozen(spec, r, t):
    M = manifold(spec)
    assert xi_statesum(M, r, t) == xi_statesum_per_color(M, r, t)


@pytest.mark.parametrize("spec", ["X(2/1,5/2,-7/3)", "X(2/1,-2/1,5/2,4/1)"])
@pytest.mark.parametrize("t", [1, 2])
def test_statesum_matches_all_colors_at_composite_level(spec, t):
    # At r = 9 the colors 3 and 6 are non-units; they must be active here so
    # that the central power is read at a non-unit color.
    from seifertwrt.seifert import plumbing

    M, r = manifold(spec), 9
    chains = plumbing(M)
    assert all(not leg_values(leg_sum_dp(c, r, t))[3].is_zero() for c in chains)
    assert xi_statesum(M, r, t) == _all_colors_statesum(M, r, t)


@pytest.mark.parametrize("r", [3, 5, 7, 9, 15])
def test_statesum_does_not_depend_on_the_plumbing(monkeypatch, r):
    # Topological invariance: the good chains and the oracle's short chains
    # plumb the same manifold, and the framing-corrected state sum agrees
    # over both.  Neither the closed formula nor the residue form is read.
    import seifertwrt.statesum as statesum

    differ = [spec for spec in CORPUS_SPECS
              if good_plumbing(manifold(spec)) != plumbing(manifold(spec))]
    assert len(differ) == 37  # every manifold with an integer leg, and more
    short = {(spec, t): xi_statesum(manifold(spec), r, t)
             for spec in differ for t in (1, 2)}
    monkeypatch.setattr(statesum, "plumbing", good_plumbing)
    for (spec, t), xi in short.items():
        assert xi_statesum(manifold(spec), r, t) == xi, (spec, r, t)


@pytest.mark.parametrize("spec", ["X(5/2)", "X(-5/3)", "X(2/1)"])
def test_joint_brute_matches_statesum_at_composite_level(spec):
    # The literal joint enumeration at r = 9, where color 3 is active.  With
    # three or more legs the joint space at r = 9 has at least 9**7 states.
    M = manifold(spec)
    for t in (1, 4):
        assert xi_statesum_brute(M, 9, t) == xi_statesum(M, 9, t)


def test_statesum_contracts_each_distinct_chain_once(monkeypatch):
    import seifertwrt.statesum as statesum

    calls = []
    dp = statesum.leg_sum_dp

    def counted(framings, r, t=1):
        calls.append(tuple(framings))
        return dp(framings, r, t)

    monkeypatch.setattr(statesum, "leg_sum_dp", counted)
    M = manifold("X(2/1,2/1,3/1)")  # two equal chains and one other
    xi = xi_statesum(M, 7)
    assert len(calls) == len(set(calls)) == 2
    # No cache outlives the call: the next call contracts again.
    assert xi_statesum(M, 7) == xi and len(calls) == 4


def test_statesum_imports_nothing_from_wrt():
    # The oracle must not reach the closed formula's evaluation core.
    import ast
    import inspect

    import seifertwrt.statesum as statesum

    tree = ast.parse(inspect.getsource(statesum))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "wrt":
                names.update(alias.name for alias in node.names)
            else:  # no ``from . import wrt``
                assert "wrt" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[-1] == "wrt" for a in node.names)
    assert names == set()


def test_statesum_twists_its_own_gauss_sum():
    # The oracle shares the plain builders of cyclotomic with the closed
    # formula, never the formula's twisted Gauss vector.
    import ast
    import inspect

    import seifertwrt.statesum as statesum

    tree = ast.parse(inspect.getsource(statesum))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == "cyclotomic"
        for alias in node.names
    }
    assert "gauss_sum" in names and "_gauss_vector" not in names


@pytest.mark.parametrize("spec,r", [("X(2/1,5/2,-7/3)", 9), ("X(3/1,5/2,-7/3)", 15)])
def test_statesum_builds_only_the_edge_weights_it_reads(monkeypatch, spec, r):
    # The oracle builds no table of edge weights: its central power and the
    # closing step's c^-1 come from one vector E of Z[C_r].
    from seifertwrt import statesum
    from seifertwrt.wrt import xi_closed_form

    def whole_table(r, t):
        raise AssertionError("xi_statesum built the whole edge-weight table")

    monkeypatch.setattr(statesum, "_chi", whole_table)
    M = manifold(spec)
    assert xi_statesum(M, r, 2) == xi_closed_form(M, r, 2)
