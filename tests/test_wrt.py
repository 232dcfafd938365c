from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _corpus import (
    CORPUS_SPECS,
    SAMPLE_SPECS,
    get_xi_formula,
    get_xi_oracle,
    manifold,
)
from seifertwrt import wrt
from seifertwrt.cyclotomic import CyclotomicNumber, _check_level, _ring_mul, root_power
from seifertwrt.numtheory import jacobi, mod_inverse, s_surd_residue
from seifertwrt.seifert import SeifertData, top_invariants
from seifertwrt.statesum import xi_statesum
from seifertwrt.wrt import (
    TREFOIL_ZERO,
    HypothesisViolated,
    InvariantResult,
    _central_inverse,
    _color_sum,
    _theta_is_integral,
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
    inverses modulo ``r``.  It runs through the same ``wrt._evaluate`` and
    ``wrt._color_sum`` as :func:`xi_closed_form`, called through the module
    so that a spy on ``wrt._color_sum`` sees its calls.  Raises
    :class:`HypothesisViolated` when some ``gcd(p_k, r) > 1``.
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
        + sum(s_surd_residue(p, q, r) for p, q in M.legs)
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

    color_sum = wrt._color_sum(r, t, M.n, factors)
    return wrt._evaluate(r, t, exponent, scalar, tops.sign_H_abs, (), color_sum)


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
    assert leg_data(-5, 3, 7)[4:] == (2, 1, 4, 1, 1, -1)
    assert leg_data(7, 5, 9)[4:] == (3, -2, 4, 1, 1, 2)
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


def test_rozansky_route_expands_no_leg(monkeypatch):
    # The residue form reads each leg through top_invariants and the Dedekind
    # route of s_surd_residue: neither good_expansion nor plumbing runs, so a
    # fault there cannot agree with itself through this check.
    import seifertwrt.numtheory as numtheory
    import seifertwrt.seifert as seifert

    def refuse(*args):
        raise AssertionError("the residue form expanded a leg")

    M = manifold("X(5/2,-5/3,6/1,-7/2)")
    expected = tau_rozansky_numeric(M, 11)
    for module in (numtheory, seifert):
        monkeypatch.setattr(module, "good_expansion", refuse)
    monkeypatch.setattr(seifert, "plumbing", refuse)
    assert tau_rozansky_numeric(M, 11) == expected


def test_closed_formula_expands_no_leg(monkeypatch):
    # Each leg's Bezout pair is a modular inverse and its exponent comes from
    # a Dedekind sum: the formula shares neither good_expansion nor plumbing
    # with the oracle, so formula-equals-oracle checks the oracle's chains.
    import seifertwrt.numtheory as numtheory
    import seifertwrt.seifert as seifert

    def refuse(*args):
        raise AssertionError("the closed formula expanded a leg")

    expected = [xi_closed_form(manifold(spec), 15, 1) for spec in CORPUS_SPECS]
    for module in (numtheory, seifert):
        monkeypatch.setattr(module, "good_expansion", refuse)
    monkeypatch.setattr(seifert, "plumbing", refuse)
    assert [xi_closed_form(manifold(spec), 15, 1) for spec in CORPUS_SPECS] == expected


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


# -- the group-ring core ------------------------------------------------------


def _schoolbook_ring_mul(a: list[int], b: list[int]) -> list[int]:
    """Reference product in ``Z[x]/(x^r - 1)``: every pair of coefficients."""
    r = len(a)
    out = [0] * r
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[(i + j) % r] += ai * bj
    return out


def _color_sum_reference(r, t, n, factors):
    """The per-monomial loop: each monomial ``s*x^e`` of color ``j`` adds
    ``s * D[m]`` at index ``e + j*m`` for every index ``m`` of ``D``."""
    if n > 2:
        base, power, den = _central_inverse(r, t), n - 2, r ** (n - 2)
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

        def factors(j):
            return [leg.chi_terms(j) for leg in legs]

        expected = _color_sum_reference(r, t, M.n, factors)
        assert _color_sum(r, t, M.n, factors) == expected, (spec, r, t)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("r,n", [(31, 5), (45, 3), (9, 1), (25, 4)])
def test_color_sum_with_every_monomial_alike(r, n, sign):
    # 256 equal monomials per color pile up in every slot: the sums that the
    # slot width must hold come close to its bound here.  For odd n the odd
    # factor x^j - x^-j keeps the precondition T_(r-j) = (-1)^n T_j.
    def factors(j):
        odd = [((1, j), (-1, -j))] if n % 2 else []
        return [((sign, 0),)] + [((1, 0), (1, 0))] * 8 + odd

    assert _color_sum(r, 1, n, factors) == _color_sum_reference(r, 1, n, factors)


def _expanded(factors, j: int, r: int, t: int) -> list[int]:
    """The product of ``factors(j)`` as a vector of ``Z[C_r]``."""
    terms = [(1, 0)]
    for factor in factors(j):
        terms = [(s * fs, e + fe) for s, e in terms for fs, fe in factor]
    vec = [0] * r
    for s, e in terms:
        vec[t * e % r] += s
    return vec


def _factors_passed(call) -> list:
    """The ``(r, t, n, factors)`` of every ``_color_sum`` call that ``call()`` makes."""
    seen = []

    def spy(r, t, n, factors):
        seen.append((r, t, n, factors))
        return _color_sum(r, t, n, factors)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wrt, "_color_sum", spy)
        call()
    return seen


_LEGS = st.lists(
    st.tuples(st.integers(-15, 15), st.integers(1, 9)).filter(
        lambda pq: pq[0] != 0 and gcd(abs(pq[0]), pq[1]) == 1
    ),
    min_size=1,
    max_size=5,
)


@given(
    _LEGS,
    st.sampled_from(range(3, 64, 2)),
    st.integers(1, 200),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
)
@settings(deadline=None, max_examples=150)
def test_color_sum_precondition_holds_for_every_caller(legs, r, t, shifts):
    # _color_sum visits one color of each pair {j, r - j}; that is exact only
    # when the product of the factors satisfies T_(r-j) = (-1)^n T_j.
    assume(gcd(t, r) == 1)
    M = SeifertData(legs=tuple(legs))
    calls = _factors_passed(lambda: xi_closed_form(M, r, t, tuple(shifts[: M.n])))
    if all(gcd(p, r) == 1 for p, _ in legs):
        calls += _factors_passed(lambda: xi_all_coprime(M, r))
    for r_, t_, n, factors in calls:
        for j in range(1, r_):
            odd = [(-1) ** n * c for c in _expanded(factors, j, r_, t_)]
            assert _expanded(factors, r_ - j, r_, t_) == odd, (legs, r_, t_, j)


@pytest.mark.parametrize("r", [9, 31, 45])
def test_color_sum_visits_one_color_per_pair(r):
    legs = [leg_data(p, q, r) for p, q in manifold("X(2/1,9/4,-5/3)").legs]
    calls = []

    def factors(j):
        calls.append(j)
        return [leg.chi_terms(j) for leg in legs]

    _color_sum(r, 1, 3, factors)
    assert len(calls) <= (r - 1) // 2
    assert {min(j, r - j) for j in calls} == set(range(1, (r + 1) // 2))


def test_color_sum_with_no_active_color():
    assert _color_sum(9, 1, 3, lambda j: [()]) == ([0] * 9, 9)


def _count_cyclotomic_calls(monkeypatch) -> dict[str, int]:
    counts = {"init": 0, "mul": 0}
    init, mul = CyclotomicNumber.__init__, CyclotomicNumber.__mul__

    def counted_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(CyclotomicNumber, "__init__", counted_init)
    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted_mul)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", counted_mul)
    return counts


@pytest.mark.parametrize(
    "spec,r,t",
    [
        ("X(5/2,-5/3,6/1,-7/2)", 61, 1),
        ("X(2/1,-2/1,3/1,-3/1)", 45, 2),  # H = 0, non-unit colors
        ("X(6/1,5/4)", 9, 1),  # a leg with c = 3
        ("X(3/1)", 7, 3),
    ],
)
def test_closed_form_builds_one_cyclotomic_number(monkeypatch, spec, r, t):
    M = manifold(spec)
    counts = _count_cyclotomic_calls(monkeypatch)
    xi_closed_form(M, r, t)
    assert counts == {"init": 1, "mul": 0}


def test_all_coprime_and_trefoil_build_one_cyclotomic_number(monkeypatch):
    counts = _count_cyclotomic_calls(monkeypatch)
    xi_all_coprime(manifold("X(2/1,3/1,5/1,7/1)"), 13)
    tref_xi_closed(11, 3)
    assert counts == {"init": 2, "mul": 0}


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
