from __future__ import annotations

import math
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import SAMPLE_SPECS, get_xi_formula, get_xi_oracle, manifold
from seifertwrt.cyclotomic import CyclotomicNumber, root_power
from seifertwrt.numtheory import mod_inverse
from seifertwrt.seifert import top_invariants
from seifertwrt.statesum import xi_statesum
from seifertwrt.wrt import (
    TREFOIL_ZERO,
    HypothesisViolated,
    InvariantResult,
    _central_inverse,
    leg_data,
    tau_prime,
    tau_rozansky_numeric,
    tref_closed_form,
    tref_xi_closed,
    xi_all_coprime,
    xi_closed_form,
)

# Frozen values computed once by the independent plumbing state-sum route
# (transfer-DP contraction + exact linking-matrix signature), then pinned.
# Each entry maps (spec, r, t) to the canonical (numerators, denominator)
# coefficient vector of xi in the power basis of Q(zeta_r).
ORACLE_FROZEN = {
    ("X(3/1)", 5, 1): ((1, 0, 0, 0), 1),
    ("X(2/1,3/1,5/1)", 7, 1): ((-1, -1, 0, -2, -1, 0), 1),
    ("X(-2/1,3/1,6/1)", 5, 1): ((-2, -6, -2, 0), 1),
    ("X(2/1,-2/1)", 5, 1): ((4, 0, -2, -2), 1),
    ("X(5/1,5/2,5/3)", 5, 1): ((0, 0, 0, 0), 1),
    ("X(6/1,5/4)", 9, 1): ((0, -1, 0, 1, 0, -1), 1),
    ("X(2/1,3/1,5/1,7/1)", 11, 1): ((-5, -4, 0, -3, -3, -3, 0, -3, -3, 0), 1),
    ("X(-5/3)", 7, 2): ((0, 0, 1, 1, 0, 0), 1),
}


def test_formula_reproduces_frozen_oracle_values():
    for (spec, r, t), expected in ORACLE_FROZEN.items():
        xi = xi_closed_form(manifold(spec), r, t)
        assert xi.integer_coefficients() == expected, (spec, r, t)


def test_oracle_still_produces_frozen_values():
    for (spec, r, t), expected in ORACLE_FROZEN.items():
        oracle = xi_statesum(manifold(spec), r, t)
        assert oracle.integer_coefficients() == expected, (spec, r, t)


def test_three_sphere_is_normalized():
    S3 = manifold("X(1/1)")
    for r in (3, 5, 7, 9, 11, 13, 15):
        assert xi_closed_form(S3, r, 1) == 1
        res = tau_prime(S3, r)
        assert res.xi == 1
        assert abs(res.tau - 1) < 1e-12


@pytest.mark.parametrize("r", range(3, 64, 2))
def test_central_inverse_identity_at_every_color(r):
    # E(zeta^j) * (zeta^(2tj) - zeta^(-2tj)) = r for every j != 0 mod r,
    # including the non-units j that share a factor with r.
    t = mod_inverse(4, r)
    E = _central_inverse(r, t)
    for j in range(1, r):
        vec = [0] * r
        for m, c in enumerate(E):
            vec[(j * m) % r] += c
        E_j = CyclotomicNumber(r, vec)
        central_j = root_power(r, 2 * t * j) - root_power(r, -2 * t * j)
        assert E_j * central_j == r, (r, j)


@pytest.mark.parametrize(
    "spec,r",
    [
        ("X(2/1,3/1,7/1)", 31),
        ("X(2/1,3/1,7/1)", 43),
        ("X(5/2,-5/3,6/1,-7/2)", 31),
        ("X(5/2,-5/3,6/1,-7/2)", 43),
        ("X(2/1,-2/1,3/1,-3/1)", 45),
    ],
)
def test_formula_equals_oracle_at_larger_levels(spec, r):
    # Prime levels leave every color active; r = 45 has non-unit colors.
    M = manifold(spec)
    assert xi_closed_form(M, r, 1) == xi_statesum(M, r, 1)


def test_poincare_style_small_cases_against_oracle():
    for spec in ("X(2/1,3/1,5/1)", "X(-2/1,-3/1,-5/1)"):
        for r in (5, 7, 9):
            assert get_xi_formula(spec, r) == get_xi_oracle(spec, r)


@given(
    st.sampled_from(SAMPLE_SPECS),
    st.sampled_from([5, 7, 9, 15]),
    st.integers(2, 14),
)
@settings(deadline=None, max_examples=50)
def test_galois_equivariance(spec, r, u):
    if gcd(u, r) != 1:
        return
    base = get_xi_formula(spec, r, 1)
    assert base.galois(u) == xi_closed_form(manifold(spec), r, u)


@given(
    st.sampled_from(SAMPLE_SPECS),
    st.sampled_from([5, 9]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)
@settings(deadline=None, max_examples=40)
def test_star_shift_invariance(spec, r, shifts):
    M = manifold(spec)
    padded = tuple((shifts * 4)[: M.n])
    assert xi_closed_form(M, r, 1, star_shifts=padded) == get_xi_formula(spec, r, 1)


def test_star_shift_length_validation():
    with pytest.raises(ValueError):
        xi_closed_form(manifold("X(2/1)"), 5, 1, star_shifts=(1, 2))


def test_level_validation():
    M = manifold("X(2/1)")
    for bad_r in (1, 2, 4, -5):
        with pytest.raises(HypothesisViolated):
            xi_closed_form(M, bad_r, 1)
    with pytest.raises(HypothesisViolated):
        xi_closed_form(M, 9, 3)  # t not a unit


def test_leg_data_fields():
    leg = leg_data(3, 1, 5)
    assert (leg.c, leg.l, leg.q_star, leg.p_star) == (1, 2, 4, -1)
    assert leg.p_prime == mod_inverse(3, 5)
    assert leg.jac == -1 and leg.sf == 1
    # with c > 1 the inverse modulo r does not exist
    leg9 = leg_data(6, 1, 9)
    assert leg9.c == 3
    assert leg9.p_prime is None
    assert (leg9.pc_prime * 2) % 3 == 1


def test_chi_terms_activity_pattern():
    # For c = gcd(r, p) > 1, at most one branch is active, and none when
    # c divides j.
    leg = leg_data(6, 1, 9)  # c = 3, q_star = 7
    for j in range(1, 9):
        terms = leg.chi_terms(j)
        if j % 3 == 0:
            assert terms == ()
        else:
            assert len(terms) == 1
    # For c = 1 both branches are always active.
    leg1 = leg_data(3, 1, 5)
    for j in range(1, 5):
        assert len(leg1.chi_terms(j)) == 2


def test_shifted_leg_keeps_bezout_identity():
    for shift in (-2, 0, 3):
        leg = leg_data(5, 2, 7, shift=shift)
        assert leg.p * leg.p_star + leg.q * leg.q_star == 1


def test_invariant_result_bundle():
    res = tau_prime(manifold("X(2/1,3/1,7/1)"), 5)
    assert isinstance(res, InvariantResult)
    assert res.t == mod_inverse(4, 5)
    assert (res.nu, res.b_plus, res.b_minus) == (0, 6, 1)
    assert res.xi_is_integral and res.theta_is_integral
    assert abs(res.tau - (1.0 + 1.9021130325903073j)) < 1e-9


def test_h_zero_divisibility():
    # H = 0 forces nu = 1 and theta = xi / 2 to stay integral.
    res = tau_prime(manifold("X(2/1,-2/1)"), 5)
    assert res.nu == 1
    assert res.xi.integer_coefficients() == ((4, 0, -2, -2), 1)
    assert res.theta_is_integral
    assert (res.xi / 2).integer_coefficients() == ((2, 0, -1, -1), 1)


def test_tau_prime_high_precision_agrees_with_float():
    res_f = tau_prime(manifold("X(2/1,3/1,5/1)"), 7)
    res_p = tau_prime(manifold("X(2/1,3/1,5/1)"), 7, precision=40)
    assert abs(complex(res_p.tau) - res_f.tau) < 1e-12


def test_all_coprime_matches_general():
    cases = [
        ("X(3/1)", (5, 7, 11, 13)),
        ("X(-5/3)", (7, 9, 11)),
        ("X(2/1,3/1)", (5, 7, 11, 13)),
        ("X(2/1,3/1,5/1)", (7, 11, 13)),
        ("X(-2/1,-3/1,-5/1)", (7, 11, 13)),
        ("X(2/1,-2/1)", (5, 7, 9)),
        ("X(2/1,3/1,5/1,7/1)", (11, 13)),
    ]
    for spec, levels in cases:
        M = manifold(spec)
        for r in levels:
            t = mod_inverse(4, r)
            assert xi_all_coprime(M, r) == xi_closed_form(M, r, t), (spec, r)


def test_all_coprime_rejects_shared_factors():
    with pytest.raises(HypothesisViolated):
        xi_all_coprime(manifold("X(5/1)"), 5)
    with pytest.raises(HypothesisViolated):
        xi_all_coprime(manifold("X(6/1,5/4)"), 9)


def test_rozansky_matches_tau_prime():
    cases = [
        ("X(3/1)", (5, 7, 11, 13)),
        ("X(2/1,3/1)", (5, 7, 11)),
        ("X(5/2,7/3)", (11, 13)),
        ("X(2/1,3/1,5/1)", (7, 11, 13)),
        ("X(3/2,4/1,5/3)", (7, 11)),
        ("X(2/1,3/1,5/1,7/1)", (11, 13)),
    ]
    for spec, levels in cases:
        M = manifold(spec)
        for r in levels:
            with mpmath.workdps(40):
                a = tau_prime(M, r, precision=40).tau
                b = tau_rozansky_numeric(M, r, precision=40)
                assert abs(a - b) < mpmath.mpf(10) ** -30, (spec, r)


def test_rozansky_float_path():
    a = tau_prime(manifold("X(2/1,3/1)"), 5).tau
    b = tau_rozansky_numeric(manifold("X(2/1,3/1)"), 5)
    assert abs(a - b) < 1e-9


def test_rozansky_hypotheses():
    with pytest.raises(HypothesisViolated):
        tau_rozansky_numeric(manifold("X(3/1)"), 3)  # level too small
    with pytest.raises(HypothesisViolated):
        tau_rozansky_numeric(manifold("X(3/1)"), 9)  # composite level
    with pytest.raises(HypothesisViolated):
        tau_rozansky_numeric(manifold("X(2/1,-2/1)"), 5)  # H = 0
    with pytest.raises(HypothesisViolated):
        tau_rozansky_numeric(manifold("X(5/1)"), 5)  # p divisible by r
    with pytest.raises(HypothesisViolated):
        tau_rozansky_numeric(manifold("X(3/7)"), 7)  # q divisible by r


@pytest.mark.parametrize("spec,r", [("X(2/1,3/1,5/1,7/1)", 11), ("X(3/2,4/1,5/3)", 13)])
def test_rozansky_computes_each_root_once(monkeypatch, spec, r):
    # One table of the r roots e_r(x) per call, plus the prefactor's phase.
    calls = []
    expjpi = mpmath.expjpi

    def counted(x):
        calls.append(x)
        return expjpi(x)

    monkeypatch.setattr(mpmath, "expjpi", counted)
    tau_rozansky_numeric(manifold(spec), r, precision=40)
    assert len(calls) <= r + 3


def test_trefoil_closed_form_matches_general_machinery():
    for r in range(3, 26, 2):
        if r % 3 == 0:
            with pytest.raises(HypothesisViolated):
                tref_xi_closed(r, 1)
            continue
        t = mod_inverse(4, r)
        assert tref_xi_closed(r, t) == xi_closed_form(TREFOIL_ZERO, r, t), r


def test_trefoil_vanishing_pattern():
    for r in (7, 13, 19, 25):
        assert tref_xi_closed(r, 1).is_zero()
    for r in (5, 11, 17, 23):
        assert not tref_xi_closed(r, 1).is_zero()


def test_trefoil_tau_closed_numeric():
    # For r = -1 (mod 3): tau' = -(sqrt(r) / (2 sin(pi/r))) e^{-2 pi i / r}.
    for r in (5, 11, 17, 23):
        res = tref_closed_form(r)
        want = -(math.sqrt(r) / (2 * math.sin(math.pi / r))) * complex(
            math.cos(2 * math.pi / r), -math.sin(2 * math.pi / r)
        )
        assert abs(res.tau - want) < 1e-9, r
    res5 = tref_closed_form(5)
    assert abs(res5.tau - (-0.587785252292 + 1.809016994375j)) < 1e-9
    assert (res5.b_plus, res5.b_minus, res5.nu) == (5, 1, 1)
    assert res5.theta_is_integral


@pytest.mark.parametrize("r", [5, 7, 11])
def test_trefoil_closed_form_counts_match_tau_prime(r):
    closed = tref_closed_form(r)
    general = tau_prime(TREFOIL_ZERO, r)
    assert (closed.nu, closed.b_plus, closed.b_minus) == (
        general.nu,
        general.b_plus,
        general.b_minus,
    )


def test_trefoil_invariants_against_topology():
    from seifertwrt.seifert import (
        b_counts_closed_form,
        linking_matrix,
        plumbing,
        signature_counts,
    )

    assert top_invariants(TREFOIL_ZERO).H == 0
    assert b_counts_closed_form(TREFOIL_ZERO) == (5, 1, 1)
    assert signature_counts(linking_matrix(plumbing(TREFOIL_ZERO))) == (5, 1, 1)


def test_integrality_on_sample():
    for spec in SAMPLE_SPECS:
        M = manifold(spec)
        for r in (3, 5, 7):
            coprime_legs = sum(1 for p, _ in M.legs if gcd(p, r) == 1)
            if coprime_legs < M.n - 2:
                continue
            res = tau_prime(M, r)
            required = res.theta_is_integral if res.nu else res.xi_is_integral
            assert required, (spec, r)
