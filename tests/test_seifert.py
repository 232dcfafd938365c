from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _corpus import CORPUS_SPECS, H_ZERO_SPECS, manifold
from seifertwrt.numtheory import NotCoprime
from seifertwrt.seifert import (
    ParseError,
    SeifertData,
    ZeroEntry,
    b_counts_closed_form,
    linking_matrix,
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


def test_plumbing_chains():
    pres = plumbing(parse_manifold("X(3/1,7/5)"))
    # 3/1 expands as <4,1>, 7/5 as <2,2,3>; chains run free end inward.
    assert pres.chains == ((1, 4), (3, 2, 2))
    assert pres.central_framing == 0
    assert pres.component_count == 6
    assert pres.framing_total == 12


def test_linking_matrix_frozen():
    pres = plumbing(parse_manifold("X(3/1)"))
    assert linking_matrix(pres) == ((1, 1, 0), (1, 4, 1), (0, 1, 0))


def test_linking_matrix_two_legs():
    pres = plumbing(parse_manifold("X(2/1,-2/1)"))
    # chains (1,3) and (1,-1); central vertex last.
    m = linking_matrix(pres)
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
def test_signature_counts_frozen(matrix, counts):
    assert signature_counts(matrix) == counts


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
def test_signature_counts_total(matrix):
    bp, bm, bz = signature_counts(matrix)
    assert bp + bm + bz == len(matrix)


@given(symmetric_matrices)
@settings(deadline=None, max_examples=80)
def test_signature_matches_jacobi_minor_rule(matrix):
    # When every leading principal minor is nonzero, the number of negative
    # squares equals the number of sign changes in 1, D1, D2, ..., Dn.
    n = len(matrix)
    minors = [_det([row[: k + 1] for row in matrix[: k + 1]]) for k in range(n)]
    assume(all(m != 0 for m in minors))
    seq = [Fraction(1)] + minors
    changes = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
    bp, bm, bz = signature_counts(matrix)
    assert bz == 0
    assert bm == changes
    assert bp == n - changes


@given(symmetric_matrices, st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_signature_congruence_invariance(matrix, seed):
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
    assert signature_counts(pap) == signature_counts(matrix)


def test_b_counts_closed_form_matches_exact_signature():
    for spec in CORPUS_SPECS:
        M = manifold(spec)
        exact = signature_counts(linking_matrix(plumbing(M)))
        assert b_counts_closed_form(M) == exact, spec


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
