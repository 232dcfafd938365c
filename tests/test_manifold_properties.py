"""Relations between whole manifolds, checked on both exact routes.

Each relation maps a manifold to another presentation of the same manifold
(or of its mirror image), so it tests the closed formula and the state-sum
oracle without comparing them with each other: a fault in the code they
share (``cyclotomic``), in the oracle's ``plumbing`` chains
or in its closing step shows up as a broken relation on one route.
"""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifertwrt.seifert import parse_normalize
from seifertwrt.statesum import xi_statesum
from seifertwrt.wrt import xi_closed_form

ROUTES = pytest.mark.parametrize(
    "xi", [xi_closed_form, xi_statesum], ids=["closed_form", "statesum"]
)
PROPERTY = settings(deadline=None, max_examples=40)

leg = st.sampled_from(
    [(p, q) for p in range(-7, 8) for q in range(1, 7) if p and gcd(p, q) == 1]
)
legs = st.lists(leg, min_size=1, max_size=3)
levels = st.sampled_from([3, 5, 7, 9, 11, 15])


@st.composite
def level_and_unit(draw):
    r = draw(levels)
    t = draw(st.sampled_from([u for u in range(1, r) if gcd(u, r) == 1]))
    return r, t


@ROUTES
@given(legs, level_and_unit(), st.randoms(use_true_random=False))
@PROPERTY
def test_leg_order_is_irrelevant(xi, pairs, rt, rng):
    r, t = rt
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert xi(parse_normalize(shuffled), r, t) == xi(parse_normalize(pairs), r, t)


@ROUTES
@given(legs, level_and_unit())
@PROPERTY
def test_mirror_image_conjugates(xi, pairs, rt):
    # X(-p_k/q_k) is X(p_k/q_k) with the orientation reversed; it swaps
    # b_plus and b_minus of the linking matrix.
    r, t = rt
    mirror = parse_normalize([(-p, q) for p, q in pairs])
    assert xi(mirror, r, t) == xi(parse_normalize(pairs), r, t).galois(-1)


@ROUTES
@given(
    st.lists(leg, min_size=2, max_size=3),
    level_and_unit(),
    st.sampled_from([-2, -1, 1, 2]),
    st.data(),
)
@PROPERTY
def test_moving_an_integer_between_legs(xi, pairs, rt, k, data):
    # q_i/p_i + k and q_j/p_j - k present the same Seifert fibration.
    r, t = rt
    i, j = data.draw(st.permutations(range(len(pairs))))[:2]
    moved = list(pairs)
    moved[i] = (pairs[i][0], pairs[i][1] + k * pairs[i][0])
    moved[j] = (pairs[j][0], pairs[j][1] - k * pairs[j][0])
    if any(q == 0 for _, q in moved):
        return
    assert xi(parse_normalize(moved), r, t) == xi(parse_normalize(pairs), r, t)


@ROUTES
@given(legs, level_and_unit(), st.integers(1, 3))
@PROPERTY
def test_cancelling_leg_pair(xi, pairs, rt, k):
    r, t = rt
    padded = list(pairs) + [(1, k), (-1, k)]
    assert xi(parse_normalize(padded), r, t) == xi(parse_normalize(pairs), r, t)
