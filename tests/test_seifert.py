from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _corpus import CORPUS_SPECS, H_ZERO_SPECS, manifold
from seifertwrt.numtheory import NotCoprime, good_expansion
from seifertwrt.seifert import (
    ParseError,
    SeifertData,
    ZeroEntry,
    b_counts_closed_form,
    parse_manifold,
    parse_normalize,
    plumbing,
    signature_counts,
    top_invariants,
)


def test_parse_basic():
    M = parse_manifold("X(2/1,3/1,5/1)")
    assert M.legs == ((2, 1), (3, 1), (5, 1))
    assert M.n == 3
    assert str(M) == "X(2/1,3/1,5/1)"


def test_parse_whitespace_and_bare_integers():
    M = parse_manifold("  X( -2 , 3/1 ,  6 )  ")
    assert M.legs == ((-2, 1), (3, 1), (6, 1))


def test_parse_roundtrip_through_str():
    for spec in CORPUS_SPECS:
        M = manifold(spec)
        assert parse_manifold(str(M)) == M


def test_normalization_flips_negative_denominators():
    M = parse_normalize([(2, -3), (-5, -2)])
    assert M.legs == ((-2, 3), (5, 2))


def test_parse_errors():
    for bad in ("", "X()", "X(1/2", "Y(1/2)", "X(1//2)", "X(a/b)", "X(1/2;3/4)"):
        with pytest.raises(ParseError):
            parse_manifold(bad)
    with pytest.raises(ZeroEntry):
        parse_manifold("X(0/1)")
    with pytest.raises(ZeroEntry):
        parse_manifold("X(1/0)")
    with pytest.raises(NotCoprime):
        parse_manifold("X(4/2)")
    with pytest.raises(ParseError):
        parse_normalize([])


@pytest.mark.parametrize(
    "spec,P,H,nu",
    [
        ("X(3/1)", 3, 1, 0),
        ("X(-2/1)", -2, 1, 0),
        ("X(2/1,3/1,5/1)", 30, 31, 0),
        ("X(-2/1,3/1,6/1)", -36, 0, 1),
        ("X(2/1,-2/1)", -4, 0, 1),
        ("X(5/2,7/3)", 35, 29, 0),
        ("X(2/1,3/1,5/1,7/1)", 210, 247, 0),
    ],
)
def test_top_invariants_frozen(spec, P, H, nu):
    tops = top_invariants(parse_manifold(spec))
    assert (tops.P, tops.H, tops.nu) == (P, H, nu)


def test_top_invariant_signs():
    tops = top_invariants(parse_manifold("X(-2/1,3/1)"))
    # P = -6, H = 3 - 2 = 1
    assert (tops.sign_P, tops.sign_H_abs, tops.sign_H_over_P) == (-1, 1, -1)
    zero = top_invariants(parse_manifold("X(2/1,-2/1)"))
    assert (zero.sign_H_abs, zero.sign_H_over_P, zero.nu) == (0, 0, 1)


def good_plumbing(M: SeifertData) -> tuple[tuple[int, ...], ...]:
    """Reference: the plumbing whose chains are the good expansions of the legs
    (entries at least 2 below the outermost), free end first."""
    return tuple(good_expansion(p, q)[::-1] for p, q in M.legs)


def chain_value(chain) -> Fraction:
    """The rational a chain presents, read from its free end inward."""
    value = Fraction(chain[0])
    for m in chain[1:]:
        value = m - 1 / value
    return value


def test_plumbing_chains():
    # 3/1 expands as <4,1>, 7/5 as <2,2,3>; chains run free end inward.
    assert good_plumbing(parse_manifold("X(3/1,7/5)")) == ((1, 4), (3, 2, 2))


@pytest.mark.parametrize(
    "spec,chains",
    [
        ("X(3/1,7/5)", ((3,), (2, -2, 1))),
        ("X(1/10000)", ((-10000, 0),)),
        ("X(-2/1,3/1,6/1)", ((-2,), (3,), (6,))),
        ("X(-7/4,89/55)", ((-4, -2), (3, 3, 3, 3, 2))),
    ],
)
def test_plumbing_takes_nearest_integer_steps(spec, chains):
    # An integer leg is one vertex; 7/5 = 1 - 1/(-2 - 1/2) and
    # 1/10000 = 0 - 1/(-10000).
    assert plumbing(parse_manifold(spec)) == chains


@given(st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6))
@settings(deadline=None, max_examples=300)
def test_plumbing_chain_is_short_and_exact(p, q):
    assume(gcd(p, q) == 1)
    (chain,) = plumbing(SeifertData(((p, q),)))
    assert chain_value(chain) == Fraction(p, q)
    assert len(chain) <= q.bit_length()  # floor(log2 q) + 1
    assert all(abs(m) >= 2 for m in chain[:-1])


def linking_matrix(chains) -> tuple[tuple[int, ...], ...]:
    """Reference: the plumbing's integer linking matrix, one row per vertex.

    Vertex order: the chains in sequence (free end first within each chain),
    then the 0-framed central vertex last.  Framings sit on the diagonal;
    each edge contributes a symmetric pair of ones.
    """
    size = 1 + sum(map(len, chains))
    a = [[0] * size for _ in range(size)]
    center = size - 1
    idx = 0
    for chain in chains:
        for offset, framing in enumerate(chain):
            a[idx][idx] = framing
            if offset > 0:
                a[idx][idx - 1] = a[idx - 1][idx] = 1
            idx += 1
        a[idx - 1][center] = a[center][idx - 1] = 1
    return tuple(tuple(row) for row in a)


def _dense_signature_counts(matrix) -> tuple[int, int, int]:
    """Reference: inertia of any symmetric matrix by congruence elimination
    over ``Fraction``, every entry visited.

    Pivot on a nonzero diagonal entry when one exists; otherwise repair a
    hyperbolic block by the shear ``row_i += row_j``, ``col_i += col_j``
    (which makes the diagonal entry ``2*a[i][j]`` nonzero); rows that are
    entirely zero count as null directions.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    remaining = list(range(len(a)))
    b_plus = b_minus = b_zero = 0
    while remaining:
        pivot = next((i for i in remaining if a[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in remaining for j in remaining if a[i][j] != 0),
                None,
            )
            if pair is None:
                b_zero += len(remaining)
                break
            i, j = pair
            for k in remaining:
                a[i][k] += a[j][k]
            for k in remaining:
                a[k][i] += a[k][j]
            continue
        p = a[pivot][pivot]
        if p > 0:
            b_plus += 1
        else:
            b_minus += 1
        remaining.remove(pivot)
        for i in remaining:
            factor = a[i][pivot] / p
            if factor:
                for k in remaining:
                    a[i][k] -= factor * a[pivot][k]
    return b_plus, b_minus, b_zero


def test_linking_matrix_frozen():
    chains = good_plumbing(parse_manifold("X(3/1)"))
    assert linking_matrix(chains) == ((1, 1, 0), (1, 4, 1), (0, 1, 0))


def test_linking_matrix_two_legs():
    chains = good_plumbing(parse_manifold("X(2/1,-2/1)"))
    # chains (1,3) and (1,-1); central vertex last.
    m = linking_matrix(chains)
    assert m == (
        (1, 1, 0, 0, 0),
        (1, 3, 0, 0, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, -1, 1),
        (0, 1, 0, 1, 0),
    )


@pytest.mark.parametrize(
    "matrix,counts",
    [
        (((0,),), (0, 0, 1)),
        (((2,),), (1, 0, 0)),
        (((-3,),), (0, 1, 0)),
        (((0, 1), (1, 0)), (1, 1, 0)),
        (((1, 0), (0, -1)), (1, 1, 0)),
        (((0, 0), (0, 0)), (0, 0, 2)),
        (((0, 2, 0), (2, 0, 0), (0, 0, 5)), (2, 1, 0)),
        (((1, 1, 0), (1, 4, 1), (0, 1, 0)), (2, 1, 0)),
    ],
)
def test_dense_signature_counts_frozen(matrix, counts):
    assert _dense_signature_counts(matrix) == counts


def _det(rows) -> Fraction:
    a = [list(map(Fraction, row)) for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            factor = a[i][col] / a[col][col]
            for k in range(col, n):
                a[i][k] -= factor * a[col][k]
    return det


symmetric_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(
        lambda rows: tuple(
            tuple(rows[i][j] if i <= j else rows[j][i] for j in range(n))
            for i in range(n)
        )
    )
)


@given(symmetric_matrices)
@settings(deadline=None, max_examples=80)
def test_dense_signature_counts_total(matrix):
    bp, bm, bz = _dense_signature_counts(matrix)
    assert bp + bm + bz == len(matrix)


@given(symmetric_matrices)
@settings(deadline=None, max_examples=80)
def test_dense_signature_matches_jacobi_minor_rule(matrix):
    # When every leading principal minor is nonzero, the number of negative
    # squares equals the number of sign changes in 1, D1, D2, ..., Dn.
    n = len(matrix)
    minors = [_det([row[: k + 1] for row in matrix[: k + 1]]) for k in range(n)]
    assume(all(m != 0 for m in minors))
    seq = [Fraction(1)] + minors
    changes = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
    bp, bm, bz = _dense_signature_counts(matrix)
    assert bz == 0
    assert bm == changes
    assert bp == n - changes


@given(symmetric_matrices, st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_dense_signature_congruence_invariance(matrix, seed):
    # P^T A P with unimodular P has the same inertia.
    import random

    rng = random.Random(seed)
    n = len(matrix)
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            p[k][j] += c * p[k][i]
    a = [list(row) for row in matrix]
    ap = [[sum(a[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    pap = [[sum(p[k][i] * ap[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert _dense_signature_counts(pap) == _dense_signature_counts(matrix)


star_plumbings = st.lists(
    st.lists(st.integers(-3, 3), min_size=1, max_size=6).map(tuple),
    min_size=1,
    max_size=5,
).map(tuple)


@given(star_plumbings)
@settings(deadline=None, max_examples=400)
def test_signature_counts_matches_dense_elimination(chains):
    assert signature_counts(chains) == _dense_signature_counts(linking_matrix(chains))


@pytest.mark.parametrize(
    "chains,counts",
    [
        # an inner zero pivot: 1, 1 - 1/1 = 0 pairs with 5; 2 starts afresh
        (((1, 1, 5, 2),), (3, 2, 0)),
        # a cut at the last vertex: the first chain no longer meets the center
        (((1, 1, 5), (3,)), (3, 2, 0)),
        # one zero end, which pairs with the center
        (((1, 1), (2,)), (3, 1, 0)),
        # two zero ends: the second is a null direction
        (((1, 1), (0,), (3,)), (3, 1, 1)),
        # a zero center: pivots 1, 2 and 1, -2 move it by -1/2 + 1/2
        (((1, 3), (1, -1)), (3, 1, 1)),
    ],
)
def test_signature_counts_branches(chains, counts):
    assert _dense_signature_counts(linking_matrix(chains)) == counts
    assert signature_counts(chains) == counts


def test_signature_counts_on_a_long_chain():
    # 100001 vertices: a dense matrix of them would hold 10^10 entries.
    M = parse_manifold("X(1/99999)")
    assert signature_counts(good_plumbing(M)) == b_counts_closed_form(M)


def test_b_counts_closed_form_matches_exact_signature():
    for spec in CORPUS_SPECS:
        M = manifold(spec)
        exact = signature_counts(good_plumbing(M))
        assert b_counts_closed_form(M) == exact, spec


@given(st.integers(-10**4, 10**4).filter(bool), st.integers(1, 10**4))
@settings(deadline=None, max_examples=300)
def test_b_counts_closed_form_counts_the_good_expansion(p, q):
    # One leg has H = q != 0: the rank is the expansion's length plus one.
    assume(gcd(p, q) == 1)
    b_plus, b_minus, _ = b_counts_closed_form(SeifertData(((p, q),)))
    assert b_plus + b_minus == len(good_expansion(p, q)) + 1


def test_null_count_is_nu():
    for spec in CORPUS_SPECS:
        M = manifold(spec)
        _, _, bz = b_counts_closed_form(M)
        assert bz == top_invariants(M).nu, spec
    for spec in H_ZERO_SPECS:
        assert top_invariants(manifold(spec)).nu == 1


def test_seifert_data_is_hashable():
    assert len({manifold(s) for s in CORPUS_SPECS}) == len(CORPUS_SPECS)
    assert SeifertData(((2, 1),)) == parse_manifold("X(2/1)")
