from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import manifold
from seifertwrt.cyclotomic import CyclotomicNumber
from seifertwrt.statesum import (
    BudgetExceeded,
    LegSumTable,
    leg_sum_brute,
    leg_sum_closed,
    leg_sum_dp,
    xi_statesum,
    xi_statesum_brute,
)
from seifertwrt.wrt import TREFOIL_ZERO, HypothesisViolated, LegData, leg_data

small_chains = st.lists(st.integers(-3, 4), min_size=1, max_size=2)
coprime_legs = st.tuples(
    st.integers(min_value=-7, max_value=7).filter(lambda p: p != 0),
    st.integers(min_value=1, max_value=6),
).filter(lambda pq: gcd(abs(pq[0]), pq[1]) == 1)


def test_dp_matches_brute_frozen_case():
    dp = leg_sum_dp((1, 4), 5, 1)
    brute = leg_sum_brute((1, 4), 5, 1)
    for j in range(5):
        assert dp.value(j) == brute.value(j)


@given(small_chains, st.sampled_from([3, 5, 7]), st.integers(1, 6))
@settings(deadline=None, max_examples=40)
def test_dp_matches_brute(chain, r, t):
    if gcd(t, r) != 1:
        return
    dp = leg_sum_dp(chain, r, t)
    brute = leg_sum_brute(chain, r, t)
    for j in range(r):
        assert dp.value(j) == brute.value(j), (chain, r, t, j)


@given(coprime_legs, st.sampled_from([5, 7, 9, 15]), st.sampled_from([1, 2, 4]))
@settings(deadline=None, max_examples=60)
def test_closed_leg_matches_dp(pq, r, t):
    # The Gauss-sum evaluation of a contracted chain against the transfer DP.
    if gcd(t, r) != 1:
        return
    p, q = pq
    leg = leg_data(p, q, r)
    from seifertwrt.numtheory import good_expansion

    chain = tuple(reversed(good_expansion(p, q).ms))
    dp = leg_sum_dp(chain, r, t)
    for j in range(r):
        assert leg_sum_closed(leg, r, t, j) == dp.value(j), (p, q, r, t, j)


def test_closed_leg_handles_single_vertex_chain():
    # The chain <1> (a single +1-framed vertex) presents 1/1; its leg package
    # is assembled by hand since canonical expansions always have length >= 2.
    for r, t in ((5, 1), (7, 3), (9, 2)):
        leg = LegData(
            p=1,
            q=1,
            r=r,
            c=1,
            l=1,
            ms=(1,),
            q_star=1,
            p_star=0,
            pc_prime=1,
            p_prime=1,
            sf=1,
            jac=1,
            shift=0,
            exponent_const=3 * (1 - 1 + 1) - 1,
        )
        dp = leg_sum_dp((1,), r, t)
        for j in range(r):
            assert leg_sum_closed(leg, r, t, j) == dp.value(j), (r, t, j)


def test_leg_table_value_indexing():
    table = leg_sum_dp((2,), 5, 1)
    assert isinstance(table, LegSumTable)
    assert table.value(3) == table.value(8) == table.value(-2)
    assert table.value(0) == table.value(5)
    assert table.value(0).is_zero()


def test_empty_chain_dp_matches_brute():
    # A chain with no vertex is the bare edge from color 1 to the center.
    assert leg_sum_dp((), 5, 2).values == leg_sum_brute((), 5, 2).values


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
    assert leg_sum_brute((1,), 3, 1, budget=10**2).value(1) is not None


def test_joint_brute_budget_guard():
    with pytest.raises(BudgetExceeded):
        xi_statesum_brute(TREFOIL_ZERO, 25)
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


def test_table_cache_reuse():
    M = manifold("X(3/1,3/2)")
    cache: dict = {}
    first = xi_statesum(M, 7, 1, tables=cache)
    assert cache  # populated
    again = xi_statesum(M, 7, 1, tables=cache)
    assert first == again
    # a stale table for a different level is ignored, not misused
    wrong = {chain: leg_sum_dp(chain, 5, 1) for chain in cache}
    assert xi_statesum(M, 7, 1, tables=wrong) == first


def test_statesum_zero_color_column_is_zero():
    # The central color j = 0 mod r contributes nothing: every leg table
    # vanishes there, which is what makes the j-sum well defined.
    for spec, r in (("X(2/1,3/1)", 5), ("X(6/1,5/4)", 9)):
        M = manifold(spec)
        from seifertwrt.seifert import plumbing

        for chain in plumbing(M).chains:
            assert leg_sum_dp(chain, r, 1).value(0).is_zero()


def test_s_matrix_entry_identities():
    # s_plus * s_minus * central^2 = -4r and 1/g = conj(g)/r underpin the
    # framing correction; check them through the public pieces.
    from seifertwrt.cyclotomic import gauss_sum, root_power

    for r in (5, 7, 9):
        central = root_power(r, 2) - root_power(r, -2)
        g = gauss_sum(r, r)
        s_plus = (-2) * root_power(r, -3) * central.inverse() * g
        s_minus = s_plus.galois(-1)
        assert (s_plus * s_minus) * central**2 == -4 * r
        assert g.inverse() == g.galois(-1) / r


def test_statesum_closes_with_one_division(monkeypatch):
    # Normalization and framing correction are a single quotient, and with at
    # most two legs the per-color central power needs no inverse.
    calls = []
    inverse = CyclotomicNumber.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CyclotomicNumber, "inverse", counted)
    xi_statesum(manifold("X(2/1,3/1)"), 7)
    assert len(calls) == 1
