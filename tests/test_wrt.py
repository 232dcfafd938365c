from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (
    CORPUS_SPECS,
    SAMPLE_SPECS,
    get_xi_formula,
    get_xi_oracle,
    manifold,
    root_power,
)
from seifertwrt import cyclotomic, wrt
from seifertwrt.cli import _xi_pairs
from seifertwrt.cyclotomic import (
    CyclotomicNumber,
    _check_level,
    _gauss_vector,
    _reduce_int_vector,
    _ring_mul,
)
from seifertwrt.numtheory import dedekind_integer, jacobi, mod_inverse
from seifertwrt.seifert import SeifertData, top_invariants
from seifertwrt.statesum import _edge_inverse, xi_statesum
from seifertwrt.wrt import (
    TREFOIL_ZERO,
    HypothesisViolated,
    InvariantResult,
    _central_power,
    _color_sum,
    _gauss_product,
    _theta_is_integral,
    _times_central,
    leg_data,
    tau_prime,
    tau_rozansky_numeric,
    tref_xi_closed,
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


def xi_all_coprime(M: SeifertData, r: int) -> CyclotomicNumber:
    """``xi_r`` at ``A = zeta**(1/4 mod r)`` when every ``p_k`` is coprime to ``r``.

    The paper's all-coprime restatement of the general formula: all Gauss
    sums of composite conductor disappear and the per-leg data reduces to
    inverses modulo ``r``.  It sums its colors one by one
    (:func:`_color_sum_reference`), independently of the Gauss-sum core of
    :func:`xi_closed_form`, keeps the prefactor's Gauss sum ``conj(g_r)`` as
    a vector instead of evaluating it, and shares only ``wrt._reduced`` with
    it.  Raises :class:`HypothesisViolated` when some ``gcd(p_k, r) > 1``.
    """
    t = _check_level(r, None)
    tops = top_invariants(M)
    for p, _ in M.legs:
        if gcd(p, r) != 1:
            raise HypothesisViolated(f"leg numerator {p} shares a factor with {r}")
    P_prime = mod_inverse(tops.P, r)
    exponent = (
        -3 * tops.sign_H_over_P
        + P_prime * tops.H
        - sum(dedekind_integer(q, p) * mod_inverse(p, r) for p, q in M.legs)
    )
    scalar = jacobi(abs(tops.P), r) * tops.sign_P
    if ((r + 1) // 2) % 2 == 1:
        scalar *= -tops.sign_H_over_P + 1 - tops.sign_H_abs

    quad = (P_prime * tops.H) % r
    p_primes = [mod_inverse(p, r) for p, _ in M.legs]

    def factors(j):
        return [((1, -quad * j * j),)] + [
            ((1, 2 * pp * j), (-1, -2 * pp * j)) for pp in p_primes
        ]

    central = _central_power(r, t, 3)[0]
    # (zeta^(2t) - zeta^(-2t))^(|sign H| - 2) = (E/r)^(2 - |sign H|), and for
    # H != 0 (-2 g_r)^-1 = -conj(g_r) / (2r), conj(g_r) being g_r at zeta^-t.
    if tops.sign_H_abs:
        parts, sign, den = [central, _gauss_vector(r, r, -t)], -1, 2 * r * r
    else:
        parts, sign, den = [central, central], 1, r * r
    vec, sum_den = _color_sum_reference(r, t, M.n, factors)
    return wrt._reduced(r, _ring_mul(vec, *parts), t * exponent, sign * scalar,
                        den * sum_den)


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


@pytest.mark.parametrize("central_inverse",
                         [lambda r, t: _central_power(r, t, 3)[0], _edge_inverse],
                         ids=["wrt", "statesum"])
@pytest.mark.parametrize("r", range(3, 64, 2))
def test_central_inverse_identity_at_every_color(central_inverse, r):
    # E(zeta^j) * (zeta^(2tj) - zeta^(-2tj)) = r for every j != 0 mod r,
    # including the non-units j that share a factor with r.  The formula and
    # the oracle each keep their own copy of E.
    t = mod_inverse(4, r)
    E = central_inverse(r, t)
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
        ("X(2/1,3/1,7/1)", 61),
        ("X(5/2,-5/3,6/1,-7/2)", 61),
    ],
)
def test_formula_equals_oracle_at_larger_levels(spec, r):
    # Prime levels leave every color active; r = 45 has non-unit colors.
    M = manifold(spec)
    assert xi_closed_form(M, r, 1) == xi_statesum(M, r, 1)


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("r", [45, 63])
@pytest.mark.parametrize(
    "spec", ["X(3/1,5/2,-7/3)", "X(3/2,5/1,-7/3,9/4)", "X(6/5,-7/2,9/4,5/3)"]
)
def test_formula_equals_oracle_with_composite_conductors(spec, r, t):
    # Every manifold has legs with c = gcd(r, p) > 1 at both levels, so the
    # half-range color sum meets inactive colors and non-unit colors.
    M = manifold(spec)
    xi = xi_closed_form(M, r, t)
    assert not xi.is_zero()
    assert xi == xi_statesum(M, r, t)


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
        # the 1/4 convention is validated before 4 is inverted
        with pytest.raises(HypothesisViolated, match="level must be odd"):
            tau_prime(M, bad_r)
        with pytest.raises(HypothesisViolated, match="level must be odd"):
            xi_all_coprime(M, bad_r)
        with pytest.raises(HypothesisViolated, match="level must be odd"):
            tref_xi_closed(bad_r)
    with pytest.raises(HypothesisViolated):
        xi_closed_form(M, 9, 3)  # t not a unit


def test_leg_data_fields():
    # q_star = q^-1 mod |p|, p_star = (1 - q*q_star)/p and the exponent
    # (q + q_star - 12 p s(q, p))/p.
    leg = leg_data(3, 1, 5)
    assert (leg.c, leg.q_star, leg.p_star, leg.exponent_const) == (1, 1, 0, 0)
    assert leg.jac == -1 and leg.sf == 1
    # (q_star, p_star, pc_prime, sf, jac, exponent_const)
    assert leg_data(-5, 3, 7)[3:] == (2, 1, 4, 1, 1, -1)
    assert leg_data(7, 5, 9)[3:] == (3, -2, 4, 1, 1, 2)
    leg9 = leg_data(6, 1, 9)
    assert leg9.c == 3
    assert (leg9.pc_prime * 2) % 3 == 1


def test_chi_terms_activity_pattern():
    # For c = gcd(r, p) > 1, at most one branch is active, and none when
    # c divides j.
    leg = leg_data(6, 1, 9)  # c = 3, q_star = 1
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
    base = leg_data(5, 2, 7)
    for shift in (-2, 0, 3):
        leg = leg_data(5, 2, 7, shift=shift)
        assert leg.p * leg.p_star + leg.q * leg.q_star == 1
        assert leg.exponent_const == base.exponent_const + shift


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


@pytest.mark.parametrize("r", [5, 7, 9])
def test_tau_prime_high_precision_agrees_with_float_when_nu_is_one(r):
    # H = 0: both paths scale xi by sin(pi/r)/sqrt(r), the float one in doubles.
    M = manifold("X(2/1,-2/1)")
    res_f, res_p = tau_prime(M, r), tau_prime(M, r, precision=30)
    assert res_p.nu == 1
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


def _refuse_leg_expansion(monkeypatch, route: str) -> None:
    """Make ``good_expansion`` and ``plumbing`` raise in every module binding them."""
    import seifertwrt.cli as cli
    import seifertwrt.numtheory as numtheory
    import seifertwrt.seifert as seifert
    import seifertwrt.statesum as statesum

    def refuse(*args):
        raise AssertionError(f"the {route} expanded a leg")

    for module in (numtheory, seifert, statesum, wrt, cli):
        for name in ("good_expansion", "plumbing"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_rozansky_route_expands_no_leg(monkeypatch):
    # The residue form reads each leg through top_invariants and the Dedekind
    # integers 12 p s(q, p): neither good_expansion nor plumbing runs, so a
    # fault there cannot agree with itself through this check.
    M = manifold("X(5/2,-5/3,6/1,-7/2)")
    expected = tau_rozansky_numeric(M, 11)
    _refuse_leg_expansion(monkeypatch, "residue form")
    assert tau_rozansky_numeric(M, 11) == expected


def test_closed_formula_expands_no_leg(monkeypatch):
    # Each leg's Bezout pair is a modular inverse and its exponent comes from
    # a Dedekind sum: the formula shares neither good_expansion nor plumbing
    # with the oracle, so formula-equals-oracle checks the oracle's chains.
    # A record's b_plus and b_minus count the good chains' length from the
    # regular continued fraction, without expanding them.
    specs = (*CORPUS_SPECS, "X(1/99999)", "X(-1000/999,7/3)")
    expected = [xi_closed_form(manifold(spec), 15, 1) for spec in CORPUS_SPECS]
    records = [tau_prime(manifold(spec), 15) for spec in specs]
    _refuse_leg_expansion(monkeypatch, "closed formula")
    assert [xi_closed_form(manifold(spec), 15, 1) for spec in CORPUS_SPECS] == expected
    assert [tau_prime(manifold(spec), 15) for spec in specs] == records


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
    # At most the level's r roots e_r(x), each computed once, plus the
    # prefactor's phase.
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
        res = tau_prime(TREFOIL_ZERO, r)
        assert res.xi == tref_xi_closed(r, res.t), r
        want = -(math.sqrt(r) / (2 * math.sin(math.pi / r))) * complex(
            math.cos(2 * math.pi / r), -math.sin(2 * math.pi / r)
        )
        assert abs(res.tau - want) < 1e-9, r
        assert (res.b_plus, res.b_minus, res.nu) == (5, 1, 1)
    res5 = tau_prime(TREFOIL_ZERO, 5)
    assert abs(res5.tau - (-0.587785252292 + 1.809016994375j)) < 1e-9
    assert res5.theta_is_integral


def test_trefoil_invariants_against_topology():
    from seifertwrt.seifert import (
        b_counts_closed_form,
        plumbing,
        signature_counts,
    )
    from test_seifert import good_plumbing

    assert top_invariants(TREFOIL_ZERO).H == 0
    # Records report the inertia of the good chains (1, -1) (1, 4) (1, 7);
    # the oracle's short chains (-2) (3) (6) have a smaller one.
    assert b_counts_closed_form(TREFOIL_ZERO) == (5, 1, 1)
    assert signature_counts(good_plumbing(TREFOIL_ZERO)) == (5, 1, 1)
    assert signature_counts(plumbing(TREFOIL_ZERO)) == (2, 1, 1)


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


# -- the group-ring core ------------------------------------------------------


def _schoolbook_ring_mul(a: list[int], b: list[int]) -> list[int]:
    """Reference product in ``Z[x]/(x^r - 1)``: every pair of coefficients."""
    r = len(a)
    out = [0] * r
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[(i + j) % r] += ai * bj
    return out


def _color_sum_reference(r, t, n, factors):
    """The per-monomial loop: each monomial ``s*x^e`` of color ``j`` adds
    ``s * D[m]`` at index ``e + j*m`` for every index ``m`` of ``D``."""
    if n > 2:
        base, power, den = _central_power(r, t, 3)[0], n - 2, r ** (n - 2)
    else:
        base, power, den = [0] * r, 2 - n, 1
        base[(2 * t) % r] += 1
        base[(-2 * t) % r] -= 1
    central = [1] + [0] * (r - 1)
    for _ in range(power):
        central = _schoolbook_ring_mul(central, base)
    acc = [0] * r
    for j in range(1, r):
        terms = [(1, 0)]
        for factor in factors(j):
            terms = [(s * fs, e + t * fe) for s, e in terms for fs, fe in factor]
        for s, e in terms:
            for m, c in enumerate(central):
                acc[(e + j * m) % r] += s * c
    return acc, den


def _ring_vectors(r: int):
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(2**600), 2**600))
    dense = st.lists(coeff, min_size=r, max_size=r)
    sparse = st.dictionaries(st.integers(0, r - 1), coeff, max_size=3).map(
        lambda d: [d.get(i, 0) for i in range(r)]
    )
    return st.one_of(st.just([0] * r), sparse, dense)


@given(
    st.sampled_from([3, 5, 9, 15, 21, 25, 31, 45]).flatmap(
        lambda r: st.tuples(_ring_vectors(r), _ring_vectors(r))
    )
)
@settings(deadline=None, max_examples=200)
def test_ring_mul_equals_schoolbook(pair):
    a, b = pair
    assert _ring_mul(a, b) == _schoolbook_ring_mul(a, b)


@pytest.mark.parametrize("r", [3, 9, 45])
@pytest.mark.parametrize(
    "fill_a,fill_b",
    [
        (2**600, 2**600),  # every plain coefficient at its bound
        (-(2**600), 2**600),
        (2**600 - 1, -(2**600 - 1)),
        (2**600, 0),  # a zero operand: the slots must still hold the other
        (0, -(2**600)),
        (0, 0),
        (255, 1),  # one byte of magnitude, at the edge of a slot
    ],
)
def test_ring_mul_at_slot_bounds(r, fill_a, fill_b):
    a, b = [fill_a] * r, [fill_b] * r
    assert _ring_mul(a, b) == _schoolbook_ring_mul(a, b)


@st.composite
def _ramp_cases(draw):
    """``(r, t, vec)``: an odd level up to 151, prime powers and composites
    among them, any unit ``t``, and the zero vector, a single monomial or a
    dense vector with coefficients up to ``2^200``."""
    r = draw(st.one_of(
        st.sampled_from([9, 15, 21, 25, 27, 45, 63, 75, 105, 125]),
        st.integers(1, 75).map(lambda k: 2 * k + 1)))
    t = draw(st.sampled_from([u for u in range(1, r) if gcd(u, r) == 1]))
    coeff = st.integers(-(2**200), 2**200)
    monomial = st.tuples(st.integers(0, r - 1), coeff).map(
        lambda ic: [ic[1] if i == ic[0] else 0 for i in range(r)])
    dense = st.lists(coeff, min_size=r, max_size=r)
    return r, t, draw(st.one_of(st.just([0] * r), monomial, dense))


@given(_ramp_cases())
@settings(deadline=None, max_examples=200)
def test_running_sums_multiply_by_central_inverse(case):
    # vec * E by the running sums along w = x^(4t) is the packed product in
    # Z[C_r] itself, with no reduction modulo Phi_r.
    r, t, vec = case
    assert _times_central(vec, t) == _ring_mul(vec, _central_power(r, t, 3)[0])


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("r", [3, 9, 25, 31, 45, 105])
def test_central_power_by_passes_equals_packed_power(r, n):
    # n - 3 passes of the running sums on E are E^(n-2) as one packed product.
    for t in sorted({1, 2, r - 1, mod_inverse(4, r)}):
        E = _central_power(r, t, 3)[0]
        assert _central_power(r, t, n) == (_ring_mul(*[E] * (n - 2)), r ** (n - 2))


@st.composite
def _color_sums_with_parts(draw):
    """``(r, t, legs, parts)``: :class:`LegData` of 1 to 6 legs with star
    shifts at an odd level ``r`` up to 75, composite ones among them, and
    prefactor parts drawn from the Gauss sums ``g_c`` of every divisor ``c``
    of ``r``, ``E``, and constant or dense vectors whose coefficients fill
    wide slots.  Legs with ``c = gcd(r, p) > 1`` and ``gcd(H, r) > 1`` are
    drawn, and ``H = 0`` when the legs come with their mirrors ``-p/q``."""
    r = draw(st.sampled_from([3, 5, 7, 9, 11, 13, 15, 21, 25, 27, 31, 33, 35, 45,
                              49, 53, 55, 61, 63, 71, 73, 75]))
    t = draw(st.sampled_from([u for u in range(1, r) if gcd(u, r) == 1]))
    leg = st.tuples(st.integers(-30, 30), st.integers(1, 12)).filter(
        lambda pq: pq[0] != 0 and gcd(abs(pq[0]), pq[1]) == 1)
    legs = draw(st.lists(leg, min_size=1, max_size=3))
    if draw(st.booleans()):
        legs += [(-p, q) for p, q in legs]
    shifts = draw(st.lists(st.integers(-3, 3), min_size=len(legs), max_size=len(legs)))
    data = [leg_data(p, q, r, shift) for (p, q), shift in zip(legs, shifts)]

    fill = st.sampled_from([1, -1, 255, -256, 2**64, -(2**64) + 1])
    part = st.one_of(
        st.sampled_from([c for c in range(1, r + 1) if r % c == 0]).flatmap(
            lambda c: st.sampled_from([_gauss_vector(r, c, t), _gauss_vector(r, c, -t)])),
        st.just(_central_power(r, t, 3)[0]),
        fill.map(lambda c: [c] * r),
        st.lists(st.integers(-(2**40), 2**40), min_size=r, max_size=r),
    )
    return r, t, data, draw(st.lists(part, max_size=4))


def _color_sum_times_gauss(r, t, legs, parts=()):
    """:func:`_color_sum`'s ``W`` times its Gauss vector and the vectors
    ``parts``, and its denominator."""
    vec, den, (x, m) = _color_sum(r, t, legs)
    assert r % m == 0 and gcd(x, m) == 1
    return _ring_mul(vec, _gauss_vector(r, m, x), *parts), den


@given(_color_sums_with_parts())
@settings(deadline=None, max_examples=150)
def test_color_sum_equals_reference_modulo_phi(case):
    # The Gauss-sum core equals the color-by-color sum at every primitive
    # root, not in Z[C_r]: a class's sum over e vanishes only at zeta.  So
    # the two vectors agree after reduction modulo Phi_r.
    r, t, legs, parts = case
    expected, den = _color_sum_reference(
        r, t, len(legs), lambda j: [leg.chi_terms(j) for leg in legs])
    for part in parts:
        expected = _schoolbook_ring_mul(expected, part)
    vec, vec_den = _color_sum_times_gauss(r, t, legs, parts)
    assert vec_den == den
    assert _reduce_int_vector(r, vec) == _reduce_int_vector(r, expected)


COLOR_SUM_SPECS = (
    "X(5/3)",
    "X(3/1,-5/2)",
    "X(2/1,9/4,-5/3)",
    "X(3/2,5/1,-7/3,4/1)",
    "X(2/1,-3/1,5/2,-9/7,15/4)",
)


@pytest.mark.parametrize("r", [9, 15, 25, 31, 45])
@pytest.mark.parametrize("spec", COLOR_SUM_SPECS)
def test_color_sum_equals_per_monomial_loop(spec, r):
    M = manifold(spec)
    for t in (1, 2):
        if gcd(t, r) != 1:
            continue
        legs = [leg_data(p, q, r) for p, q in M.legs]
        expected, den = _color_sum_reference(
            r, t, M.n, lambda j: [leg.chi_terms(j) for leg in legs])
        vec, vec_den = _color_sum_times_gauss(r, t, legs)
        assert vec_den == den, (spec, r, t)
        assert _reduce_int_vector(r, vec) == _reduce_int_vector(r, expected), (spec, r, t)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("r,n", [(31, 5), (45, 3), (9, 1), (25, 4)])
def test_color_sum_with_every_monomial_alike(r, n, sign):
    # n + 4 equal legs fold into F = D * (x^a - x^-a)^(n+4): its monomials
    # pile up into binomial coefficients, and every color carries the same
    # 2^(n+4) terms in the per-monomial loop.
    legs = [leg_data(sign * 2, 1, r)] * (n + 4)
    expected, den = _color_sum_reference(
        r, 1, n + 4, lambda j: [leg.chi_terms(j) for leg in legs])
    vec, vec_den = _color_sum_times_gauss(r, 1, legs)
    assert vec_den == den
    assert _reduce_int_vector(r, vec) == _reduce_int_vector(r, expected)


def test_color_sum_with_no_live_class():
    # At r = 15 the leg 15/1 is active only at j = +-1 (mod 15) and 5/3 only
    # at j = +-2 (mod 5): no class of colors keeps both legs, and xi vanishes.
    M = manifold("X(15/1,5/3)")
    legs = [leg_data(p, q, 15) for p, q in M.legs]
    assert _color_sum(15, 1, legs)[:2] == ([0] * 15, 1)
    assert xi_closed_form(M, 15, 1).is_zero()
    assert xi_statesum(M, 15, 1).is_zero()


@st.composite
def _gauss_factors(draw):
    """``(r, factors)``: an odd level up to 315, prime powers and products of
    primes among them, and 1 to 5 Gauss-sum factors ``(x, m)`` with ``m | r``
    and ``gcd(x, m) = 1``."""
    r = draw(st.sampled_from([3, 5, 7, 9, 11, 13, 15, 21, 25, 27, 31, 45, 49, 63,
                              75, 81, 101, 105, 121, 125, 225, 243, 311, 315]))
    divisor = st.sampled_from([m for m in range(1, r + 1) if r % m == 0])
    factor = divisor.flatmap(lambda m: st.tuples(
        st.integers(-(10**6), 10**6).filter(lambda x: gcd(x, m) == 1), st.just(m)))
    return r, draw(st.lists(factor, min_size=1, max_size=5))


@given(_gauss_factors())
@settings(deadline=None, max_examples=150)
def test_gauss_product_collapses_to_one_gauss_sum(case):
    # Gauss's evaluation G(x; m) = (x/m) eps_m sqrt(m), checked against the
    # schoolbook product of the Gauss vectors themselves modulo Phi_r.
    r, factors = case
    k, m_star = _gauss_product(r, factors)
    assert r % m_star == 0
    assert all(m_star % (p * p) for p in range(3, m_star + 1, 2))  # squarefree
    assert k * k * m_star == math.prod(m for _, m in factors)
    expected = [1] + [0] * (r - 1)
    for x, m in factors:
        expected = _schoolbook_ring_mul(expected, _gauss_vector(r, m, x))
    collapsed = [k * c for c in _gauss_vector(r, m_star)]
    assert _reduce_int_vector(r, collapsed) == _reduce_int_vector(r, expected)


@pytest.mark.parametrize("spec", ["X(5/3)", "X(2/1,-2/1)", "X(2/1,3/1,5/1)",
                                  "X(3/2,5/1,-7/3,4/1)"])
@pytest.mark.parametrize("r", [9, 17, 45])
def test_one_central_inverse_per_record(spec, r):
    # One central power per record, whatever the leg count: the prefactor's
    # E and E^2 are passes of running sums, not vectors of their own.
    calls = []

    def spy(r_, t_, n_):
        calls.append((r_, t_, n_))
        return _central_power(r_, t_, n_)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wrt, "_central_power", spy)
        xi = xi_closed_form(manifold(spec), r, 2)
    assert calls == [(r, 2, manifold(spec).n)]
    assert xi == xi_statesum(manifold(spec), r, 2)


def _count_cyclotomic_calls(monkeypatch) -> dict[str, int]:
    """Count number builds, products, ``Phi_r`` reductions, and the operands
    packed into and the products unpacked from group-ring products."""
    counts = {"init": 0, "raw": 0, "mul": 0, "reduce": 0, "pack": 0, "unpack": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    init, mul = CyclotomicNumber.__init__, CyclotomicNumber.__mul__
    monkeypatch.setattr(CyclotomicNumber, "__init__", counted("init", init))
    monkeypatch.setattr(CyclotomicNumber, "_raw",
                        classmethod(counted("raw", CyclotomicNumber._raw.__func__)))
    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted("mul", mul))
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", counted("mul", mul))
    monkeypatch.setattr(wrt, "_reduce_int_vector",
                        counted("reduce", wrt._reduce_int_vector))
    monkeypatch.setattr(cyclotomic, "_pack", counted("pack", cyclotomic._pack))
    monkeypatch.setattr(cyclotomic, "_unpack", counted("unpack", cyclotomic._unpack))
    return counts


# (spec, r, t, m*: the conductor of the record's one Gauss sum)
ONE_NUMBER_CASES = [
    ("X(5/2,-5/3,6/1,-7/2)", 61, 1, 1),
    ("X(2/1,-2/1,3/1,-3/1)", 45, 2, 1),  # H = 0, non-unit colors
    ("X(6/1,5/4)", 9, 1, 1),  # a leg with c = 3
    ("X(3/1)", 7, 3, 1),
    ("X(2/1,3/1,7/1)", 31, 1, 1),
    ("X(2/1,3/1,5/1,7/1,9/2)", 15, 2, 3),  # Gauss sums of conductor 3
    ("X(2/1,3/1,7/1)", 21, 1, 1),  # legs with c = 3 and 7
    ("X(2/1,3/1,5/1)", 49, 1, 1),  # composite level, every leg coprime
    ("X(-2/1,3/1,6/1)", 15, 2, 1),  # H = 0 and a leg with c = 3
    ("X(2/1,3/1,5/1,7/1,-2/1,3/2)", 15, 1, 3),  # six legs: E^4 by three passes
    ("X(2/1,-2/1,3/1,-3/1,5/1,-5/1)", 13, 1, 1),  # six legs, H = 0
]


@pytest.mark.parametrize("spec,r,t,m_star", ONE_NUMBER_CASES,
                         ids=[f"{spec}-{r}-{t}" for spec, r, t, _ in ONE_NUMBER_CASES])
def test_closed_form_builds_one_cyclotomic_number(monkeypatch, spec, r, t, m_star):
    # The record is one vector of Z[C_r], reduced modulo Phi_r once into the
    # record's one number.  The central power E^(n-2) and the prefactor's E
    # (E twice when H = 0) are running sums (wrt._times_central), not packed
    # products.  The record's Gauss sums collapse into an integer and one
    # Gauss sum G(1; m*): only when m* > 1 is that vector a packed product,
    # of two operands, unpacked once.
    m_stars = []

    def gauss_product(r, factors):
        k, m = _gauss_product(r, factors)
        m_stars.append(m)
        return k, m

    monkeypatch.setattr(wrt, "_gauss_product", gauss_product)
    counts = _count_cyclotomic_calls(monkeypatch)
    xi_closed_form(manifold(spec), r, t)
    assert m_stars == [m_star]
    products = 1 if m_star > 1 else 0
    assert counts == {"init": 0, "raw": 1, "mul": 0, "reduce": 1,
                      "pack": 2 * products, "unpack": products}


@pytest.mark.parametrize(
    "spec,r,t",
    [
        ("X(2/1,3/1,7/1)", 31, 1),
        ("X(2/1,3/1,5/1)", 49, 2),
        ("X(5/2,-5/3,6/1,-7/2)", 61, 2),
        ("X(3/1)", 7, 3),
        ("X(1/1)", 3, 1),  # the 3-sphere: P = H = 1
        ("X(6/1,5/4)", 9, 1),  # a leg with gcd(p, r) = 3
        ("X(2/1,3/1,7/1)", 21, 1),  # legs with gcd(p, r) = 3 and 7
        ("X(2/1,3/1,5/1)", 31, 1),  # H = 31: gcd(H, r) = 31
        ("X(2/1,3/1)", 25, 2),  # H = 5: gcd(H, r) = 5, legs coprime
        ("X(-2/1,3/1,6/1)", 5, 1),  # H = 0, the paper's example
        ("X(2/1,-2/1,3/1,-3/1)", 7, 1),  # H = 0
    ],
)
def test_every_kind_of_record_equals_oracle(spec, r, t):
    # Shared factors, gcd(H, r) > 1 and H = 0 take the same Gauss-sum core
    # as the records with gcd(r, P*H) = 1.
    M = manifold(spec)
    assert xi_closed_form(M, r, t) == xi_statesum(M, r, t)


HIGH_LEVEL_DIGESTS = json.loads(
    Path(__file__).with_name("high_level_digests.json").read_text())


@pytest.mark.parametrize("pin", HIGH_LEVEL_DIGESTS["records"],
                         ids=lambda pin: f"{pin['manifold']}@{pin['r']}")
def test_formula_keeps_the_digests_at_the_highest_levels(pin):
    # Above r = 101 nothing else pins an exact value: these digests come from
    # two closed-form evaluations, not from the oracle (see the file).
    M, r, t = manifold(pin["manifold"]), pin["r"], pin["t"]
    xi = xi_closed_form(M, r, t)
    digest = hashlib.sha256(json.dumps(_xi_pairs(xi)).encode()).hexdigest()
    assert digest == pin["sha256"]


def test_all_coprime_and_trefoil_build_one_cyclotomic_number(monkeypatch):
    # Two records, one unpack each: the all-coprime restatement sums its
    # colors and its central power E^2 without packing, and packs them with
    # E and conj(g_r); the trefoil's closed form packs E twice.
    counts = _count_cyclotomic_calls(monkeypatch)
    xi_all_coprime(manifold("X(2/1,3/1,5/1,7/1)"), 13)
    tref_xi_closed(11, 3)
    assert counts == {"init": 0, "raw": 2, "mul": 0, "reduce": 2, "pack": 5,
                      "unpack": 2}


def _integral_candidates(r: int):
    ints = st.lists(st.integers(-6, 6), min_size=1, max_size=r)
    return st.builds(
        lambda cs, scale, den: CyclotomicNumber(r, [scale * c for c in cs], den),
        ints,
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 1, 2, 3]),
    )


@given(
    st.sampled_from([3, 5, 9, 15]).flatmap(_integral_candidates),
    st.sampled_from([0, 1, 2]),
)
@settings(deadline=None, max_examples=200)
def test_theta_divisibility_matches_scaled_integrality(xi, nu):
    scaled = xi * Fraction(1, 2**nu)
    assert _theta_is_integral(xi, nu) == scaled.is_algebraic_integer()
