from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seifertwrt.numtheory import (
    EXPANSION_CACHE_SIZE,
    InvalidModulus,
    NonInvertible,
    NotCoprime,
    ZeroNumerator,
    dedekind_integer,
    good_expansion,
    jacobi,
    mod_inverse,
    prime_factors,
    sign,
)
from seifertwrt.wrt import leg_data
from test_seifert import chain_value

coprime_pairs = st.tuples(
    st.integers(min_value=-40, max_value=40).filter(lambda p: p != 0),
    st.integers(min_value=1, max_value=40),
).filter(lambda pq: gcd(abs(pq[0]), pq[1]) == 1)


def test_sign():
    assert sign(7) == 1
    assert sign(-3) == -1
    assert sign(0) == 0
    assert sign(Fraction(-1, 2)) == -1


@given(st.integers(-100, 100), st.integers(min_value=1, max_value=100))
def test_mod_inverse(a, m):
    if gcd(a, m) == 1:
        inv = mod_inverse(a, m)
        assert 0 <= inv < m
        assert (a * inv) % m == 1 % m
    else:
        with pytest.raises(NonInvertible):
            mod_inverse(a, m)


def test_mod_inverse_bad_modulus():
    with pytest.raises(InvalidModulus):
        mod_inverse(3, 0)
    with pytest.raises(InvalidModulus):
        mod_inverse(3, -5)


@pytest.mark.parametrize(
    "a,b,value",
    [(3, 7, -1), (2, 15, 1), (0, 9, 0), (-1, 3, -1), (-1, 5, 1), (1, 1, 1), (10, 5, 0)],
)
def test_jacobi_values(a, b, value):
    assert jacobi(a, b) == value


@given(st.integers(-60, 60), st.sampled_from([3, 5, 7, 11, 13, 17, 19]))
def test_jacobi_prime_euler_criterion(a, p):
    # For odd primes the symbol must agree with Euler's criterion.
    euler = pow(a % p, (p - 1) // 2, p)
    expected = 0 if a % p == 0 else (1 if euler == 1 else -1)
    assert jacobi(a, p) == expected


@given(st.integers(-60, 60), st.integers(-60, 60), st.sampled_from([3, 9, 15, 21, 35]))
def test_jacobi_multiplicative(a, b, m):
    assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)


@given(st.integers(-60, 60), st.sampled_from([3, 9, 15, 21, 35]))
def test_jacobi_periodic(a, m):
    assert jacobi(a, m) == jacobi(a + m, m)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(InvalidModulus):
        jacobi(3, 4)
    with pytest.raises(InvalidModulus):
        jacobi(3, -7)


@pytest.mark.parametrize(
    "q,p,value",
    [
        (1, 3, Fraction(1, 18)),
        (1, 6, Fraction(5, 18)),
        (1, -2, Fraction(0)),
        (1, 2, Fraction(0)),
        (2, 5, Fraction(0)),
        (1, 4, Fraction(1, 8)),
    ],
)
def test_dedekind_values(q, p, value):
    assert dedekind_sum(q, p) == dedekind_sum_by_definition(q, p) == value


def dedekind_sum(q: int, p: int) -> Fraction:
    """The Dedekind sum ``s(q, p)``: :func:`dedekind_integer` over ``12 p``."""
    return Fraction(dedekind_integer(q, p), 12 * p)


def _sawtooth(x: Fraction) -> Fraction:
    """The periodic Bernoulli function ((x)): 0 at integers, else x - floor(x) - 1/2."""
    if x.denominator == 1:
        return Fraction(0)
    floor = x.numerator // x.denominator
    return x - floor - Fraction(1, 2)


def dedekind_sum_by_definition(q: int, p: int) -> Fraction:
    """:func:`dedekind_sum` by the defining sum over residues (O(|p|))."""
    if p < 0:
        q, p = -q, -p
    total = Fraction(0)
    for k in range(1, p):
        total += _sawtooth(Fraction(k, p)) * _sawtooth(Fraction(q * k, p))
    return total


@given(coprime_pairs)
@settings(deadline=None)
def test_dedekind_sum_matches_the_defining_sum(pq):
    # Euclid's steps of the reciprocity law against the sum over residues,
    # both signs of p and any q, reduced or not.
    p, q = pq
    for qq in (q, -q, q + 3 * p):
        assert dedekind_sum(qq, p) == dedekind_sum_by_definition(qq, p), (qq, p)
        assert dedekind_integer(qq, p) == 12 * p * dedekind_sum_by_definition(qq, p)


@given(coprime_pairs)
@settings(deadline=None)
def test_dedekind_reciprocity(pq):
    # Classical reciprocity for positive coprime arguments:
    # s(q,p) + s(p,q) = -1/4 + (p/q + q/p + 1/(pq)) / 12.
    p, q = abs(pq[0]), pq[1]
    lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
    rhs = Fraction(-1, 4) + (
        Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)
    ) / 12
    assert lhs == rhs


def test_dedekind_negative_convention():
    # s(q, p) for p < 0 follows s(q * sign(p), |p|).
    assert dedekind_sum(1, -3) == dedekind_sum(-1, 3)
    assert dedekind_sum(1, -3) == -dedekind_sum(1, 3)


def test_dedekind_errors():
    for f in (dedekind_sum, dedekind_integer):
        with pytest.raises(ZeroNumerator):
            f(1, 0)
        with pytest.raises(NotCoprime):
            f(2, 4)


@pytest.mark.parametrize(
    "p,q,ms",
    [
        (3, 1, (4, 1)),
        (-2, 1, (-1, 1)),
        (5, 2, (3, 2)),
        (-5, 3, (-1, 2, 2)),
        (7, 5, (2, 2, 3)),
        (-3, 1, (-2, 1)),
        (1, 1, (2, 1)),
        (2, 5, (1, 2, 3)),
    ],
)
def test_good_expansion_frozen(p, q, ms):
    assert good_expansion(p, q) == ms


@given(coprime_pairs)
@settings(deadline=None)
def test_good_expansion_roundtrip(pq):
    p, q = pq
    ms = good_expansion(p, q)
    assert chain_value(ms[::-1]) == Fraction(p, q)  # read from m_1 outward
    assert len(ms) >= 2
    if q == 1:
        assert ms == (p + 1, 1)
    else:
        # All entries below the outermost one are at least 2.
        assert all(m >= 2 for m in ms[1:])


def test_good_expansion_errors():
    with pytest.raises(ZeroNumerator):
        good_expansion(0, 1)
    with pytest.raises(NotCoprime):
        good_expansion(4, 2)
    with pytest.raises(InvalidModulus):
        good_expansion(3, 0)
    with pytest.raises(InvalidModulus):
        good_expansion(3, -1)


def test_good_expansion_cache_is_bounded():
    # More distinct legs than the bound: the cache keeps the bound, no more.
    for q in range(1, EXPANSION_CACHE_SIZE + 20):
        good_expansion(1, q)
    info = good_expansion.cache_info()
    assert info.maxsize == EXPANSION_CACHE_SIZE
    assert info.currsize == EXPANSION_CACHE_SIZE


def expansion_star_pair(p: int, q: int) -> tuple[int, int]:
    """The Bezout pair ``(q_star, p_star)`` of the good expansion of ``p/q``.

    The convergents ``h_i / k_i`` of ``m_l - 1/(m_{l-1} - ...)``, taken from
    the outermost entry in, satisfy ``h_i = m h_(i-1) - h_(i-2)`` (and the
    same for ``k``) with ``h_i k_(i-1) - h_(i-1) k_i = -1``.  The last one is
    ``p/q``, so the penultimate one is ``q_star / -p_star`` with
    ``p*p_star + q*q_star = 1``.
    """
    (h, h_prev), (k, k_prev) = (1, 0), (0, -1)
    for m in good_expansion(p, q)[:-1]:
        h, h_prev = m * h - h_prev, h
        k, k_prev = m * k - k_prev, k
    return h, -k


def test_expansion_star_pair_frozen():
    assert expansion_star_pair(3, 1) == (4, -1)
    assert expansion_star_pair(-2, 1) == (-1, -1)
    assert expansion_star_pair(7, 5) == (3, -2)


@given(coprime_pairs)
@settings(deadline=None)
def test_expansion_star_pair_bezout_identity(pq):
    p, q = pq
    q_star, p_star = expansion_star_pair(p, q)
    assert p * p_star + q * q_star == 1


@given(coprime_pairs)
@settings(deadline=None)
def test_expansion_dedekind_identity(pq):
    # -12 s(q,p) + (q + q_star)/p = 3(l - 1 + sign p) - sum(ms), exactly.
    p, q = pq
    ms = good_expansion(p, q)
    q_star, _ = expansion_star_pair(p, q)
    lhs = -12 * dedekind_sum(q, p) + Fraction(q + q_star, p)
    assert lhs == 3 * (len(ms) - 1 + sign(p)) - sum(ms)


@given(st.integers(-10**4, 10**4).filter(bool), st.integers(1, 10**4))
@settings(deadline=None)
def test_leg_data_reads_no_expansion(p, q):
    # leg_data's q_star = q^-1 mod |p| + shift*p and its exponent
    # (q + q_star - 12 p s(q, p))/p against the good expansion: the exponent
    # is 3(l - 1 + sign p) - sum(ms) moved by k, where q_star lies k*p from
    # the expansion's own pair.
    assume(gcd(p, q) == 1)
    ms = good_expansion(p, q)
    q_star_exp, _ = expansion_star_pair(p, q)
    for shift in range(-3, 4):
        leg = leg_data(p, q, 15, shift)
        assert p * leg.p_star + q * leg.q_star == 1, shift
        k, rest = divmod(leg.q_star - q_star_exp, p)
        assert rest == 0
        assert leg.exponent_const == 3 * (len(ms) - 1 + sign(p)) - sum(ms) + k, shift


@pytest.mark.parametrize(
    "p,q,r,value",
    [(3, 1, 5, 1), (-3, 1, 5, 4), (5, 2, 7, 0), (-2, 1, 5, 0)],
)
def test_s_surd_residue_frozen(p, q, r, value):
    assert s_surd_residue(p, q, r) == value


def s_surd_residue(p: int, q: int, r: int) -> int:
    """The residue ``-12 s^surd(q, p) mod r`` as ``wrt.tau_rozansky_numeric``
    computes it: ``-(12 p s(q, p)) * p^-1 (mod r)``."""
    return -dedekind_integer(q, p) * mod_inverse(p, r) % r


def s_surd_residue_expansion(p: int, q: int, r: int) -> int:
    """:func:`s_surd_residue` from the good expansion of ``p/q``.

    ``3(l - 1 + sign p) - sum(ms) - p' * (q_star + q) (mod r)``, where ``p'``
    is the inverse of ``p`` mod ``r`` (see
    :func:`test_expansion_dedekind_identity`).
    """
    ms = good_expansion(p, q)
    q_star, _ = expansion_star_pair(p, q)
    p_prime = mod_inverse(p, r)
    return (3 * (len(ms) - 1 + sign(p)) - sum(ms) - p_prime * (q_star + q)) % r


@given(coprime_pairs, st.sampled_from([3, 5, 7, 9, 11, 13, 15, 45, 101]))
@settings(deadline=None)
def test_s_surd_residue_dual_route(pq, r):
    # The reciprocity route in integers against the good expansion and the
    # defining sum: -(12 p s(q,p)) * p^{-1} mod r, where 12 p s(q,p) is an
    # integer for every coprime pair.
    p, q = pq
    if gcd(p, r) != 1:
        return
    twelve_ps = 12 * p * dedekind_sum(q, p)
    assert twelve_ps.denominator == 1
    expected = (-int(twelve_ps) * mod_inverse(p, r)) % r
    assert s_surd_residue(p, q, r) == s_surd_residue_expansion(p, q, r) == expected


@pytest.mark.parametrize("p,q", [(354224848179261915075, 218922995834555169026),
                                 (-(2**89 - 1), 3**40)])
def test_s_surd_residue_of_large_legs(p, q):
    # Euclid's steps, not the O(p) defining sum: legs of any size.
    for r in (7, 13, 103):
        assert s_surd_residue(p, q, r) == s_surd_residue_expansion(p, q, r)


def test_prime_factors_match_a_sieve():
    top = 5000
    composite = [False] * (top + 1)
    primes = []
    for p in range(2, top + 1):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = [True] * len(composite[p * p :: p])
    for n in range(1, top + 1):
        assert prime_factors(n) == tuple(p for p in primes if n % p == 0), n
