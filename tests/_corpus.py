"""Shared test corpus, memoized evaluation caches and the roots of unity.

The corpus spans leg counts 1..4, positive and negative leg numerators,
entries sharing factors with the levels (so composite-conductor Gauss sums
are exercised), and several fibrations with H = 0 (nu = 1).
"""

from __future__ import annotations

from functools import lru_cache

from seifertwrt import CyclotomicNumber, parse_manifold, xi_closed_form, xi_statesum

CORPUS_SPECS: tuple[str, ...] = (
    # one leg
    "X(1/1)",
    "X(2/1)",
    "X(3/1)",
    "X(-2/1)",
    "X(5/2)",
    "X(-5/3)",
    "X(7/5)",
    "X(3/2)",
    "X(6/1)",
    "X(-7/4)",
    "X(5/1)",
    "X(-6/5)",
    # two legs
    "X(2/1,3/1)",
    "X(2/1,-2/1)",
    "X(3/2,-3/2)",
    "X(5/2,7/3)",
    "X(-3/1,4/3)",
    "X(6/1,5/4)",
    "X(7/2,-7/2)",
    "X(5/3,-5/3)",
    "X(-6/1,7/5)",
    "X(4/3,-2/1)",
    # three legs
    "X(-2/1,3/1,6/1)",
    "X(2/1,3/1,5/1)",
    "X(2/1,3/1,7/1)",
    "X(6/1,5/2,-2/1)",
    "X(3/1,5/2,-7/3)",
    "X(-2/1,-3/1,-5/1)",
    "X(3/2,4/1,5/3)",
    "X(6/5,3/2,-5/4)",
    "X(7/3,-6/1,2/1)",
    "X(5/1,5/2,5/3)",
    "X(3/1,3/2,-3/1)",
    "X(2/1,-3/1,4/3)",
    # four legs
    "X(2/1,-2/1,3/1,-3/1)",
    "X(2/1,3/1,5/1,7/1)",
    "X(-2/1,3/2,5/4,-7/5)",
    "X(6/1,-6/5,2/1,3/2)",
    "X(3/1,4/3,5/2,-2/1)",
    "X(5/2,-5/3,6/1,-7/2)",
    "X(2/1,3/2,-6/1,6/5)",
    "X(7/1,-7/2,3/1,2/1)",
)

H_ZERO_SPECS: tuple[str, ...] = (
    "X(2/1,-2/1)",
    "X(3/2,-3/2)",
    "X(7/2,-7/2)",
    "X(5/3,-5/3)",
    "X(-2/1,3/1,6/1)",
    "X(2/1,-2/1,3/1,-3/1)",
)

SMALL_LEVELS: tuple[int, ...] = (3, 5, 7)
ORACLE_LEVELS: tuple[int, ...] = (3, 5, 7, 9, 11, 15)

SAMPLE_SPECS: tuple[str, ...] = (
    "X(3/1)",
    "X(-5/3)",
    "X(2/1,3/1)",
    "X(2/1,-2/1)",
    "X(6/1,5/4)",
    "X(-2/1,3/1,6/1)",
    "X(2/1,3/1,5/1)",
    "X(5/1,5/2,5/3)",
    "X(2/1,3/1,5/1,7/1)",
)


def root_power(r: int, k: int) -> CyclotomicNumber:
    """The root of unity ``zeta_r ** k`` as an exact cyclotomic number."""
    return CyclotomicNumber(r, [0] * (k % r) + [1])


@lru_cache(maxsize=None)
def manifold(spec: str):
    return parse_manifold(spec)


@lru_cache(maxsize=None)
def get_xi_formula(spec: str, r: int, t: int = 1):
    return xi_closed_form(manifold(spec), r, t)


@lru_cache(maxsize=None)
def get_xi_oracle(spec: str, r: int, t: int = 1):
    return xi_statesum(manifold(spec), r, t)
