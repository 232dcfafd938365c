"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every test prints ``ACCEPTANCE <id> PASS/FAIL (<seconds>)`` so the gate can
be read off a plain pytest run.  Tolerances and runtime bounds are stated in
each docstring; exact comparisons are cyclotomic equality with zero
tolerance.  Runtime bounds are asserted where given.
"""

from __future__ import annotations

import json
import random
import time
from math import cos, gcd, pi, sin, sqrt

import mpmath
import pytest

from _corpus import (
    CORPUS_SPECS,
    ORACLE_LEVELS,
    SAMPLE_SPECS,
    SMALL_LEVELS,
    get_xi_formula,
    get_xi_oracle,
    manifold,
)
from test_seifert import good_plumbing
from seifertwrt.cli import main as cli_main
from seifertwrt.seifert import (
    b_counts_closed_form,
    signature_counts,
    top_invariants,
)
from seifertwrt.statesum import BudgetExceeded, xi_statesum_brute
from seifertwrt.wrt import (
    TREFOIL_ZERO,
    HypothesisViolated,
    tau_prime,
    tau_rozansky_numeric,
    tref_xi_closed,
    xi_closed_form,
)


def _criterion(label: str, capsys, bound: float | None, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"\nACCEPTANCE {label} FAIL ({elapsed:.1f} s)")
        raise
    elapsed = time.perf_counter() - start
    ok = bound is None or elapsed <= bound
    with capsys.disabled():
        print(f"\nACCEPTANCE {label} {'PASS' if ok else 'FAIL'} ({elapsed:.1f} s)")
    assert ok, f"{label}: runtime {elapsed:.1f} s exceeds the {bound:.0f} s bound"


def test_a1_formula_equals_oracle_small_levels(capsys):
    """A1: closed formula == state-sum oracle, exactly, for the whole corpus
    at levels 3, 5, 7 (t = 1).  Zero tolerance; bound 30 s."""

    def body():
        for spec in CORPUS_SPECS:
            for r in SMALL_LEVELS:
                assert get_xi_formula(spec, r, 1) == get_xi_oracle(spec, r, 1), (
                    f"{spec} r={r}"
                )

    _criterion("A1 formula==oracle (r<=7)", capsys, 30.0, body)


def test_a2_formula_equals_oracle_all_levels(capsys):
    """A2: closed formula == state-sum oracle, exactly, for the whole corpus
    at levels 3, 5, 7, 9, 11, 15 including composite levels (t = 1).
    Zero tolerance; bound 300 s."""

    def body():
        checked = 0
        for spec in CORPUS_SPECS:
            for r in ORACLE_LEVELS:
                assert get_xi_formula(spec, r, 1) == get_xi_oracle(spec, r, 1), (
                    f"{spec} r={r}"
                )
                checked += 1
        assert checked == len(CORPUS_SPECS) * len(ORACLE_LEVELS)

    _criterion("A2 formula==oracle (all levels)", capsys, 300.0, body)


def test_a3_galois_equivariance(capsys):
    """A3: for every unit u mod r, evaluating at t = u equals the Galois
    twist by u of the t = 1 value.  Exact equality; no runtime bound."""

    def body():
        for spec in SAMPLE_SPECS:
            for r in (5, 7, 9, 15):
                base = get_xi_formula(spec, r, 1)
                for u in range(2, r):
                    if gcd(u, r) != 1:
                        continue
                    assert get_xi_formula(spec, r, u) == base.galois(u), (
                        f"{spec} r={r} u={u}"
                    )

    _criterion("A3 Galois equivariance", capsys, None, body)


def test_a4_integrality(capsys):
    """A4: whenever at least n-2 leg numerators are coprime to r, xi is an
    algebraic integer when H != 0 and xi/2 is one when H = 0, over the whole
    corpus for odd 3 <= r <= 21.  Bound 60 s."""

    def body():
        cases = violations = 0
        for spec in CORPUS_SPECS:
            M = manifold(spec)
            tops = top_invariants(M)
            for r in range(3, 22, 2):
                coprime = sum(1 for p, _ in M.legs if gcd(p, r) == 1)
                if coprime < M.n - 2:
                    continue
                xi = get_xi_formula(spec, r, 1)
                target = xi if tops.H != 0 else xi / 2
                cases += 1
                if not target.is_algebraic_integer():
                    violations += 1
        assert cases >= 300, f"only {cases} cases met the hypothesis"
        assert violations == 0, f"{violations} of {cases} cases not integral"

    _criterion("A4 algebraic integrality", capsys, 60.0, body)


def test_a5_star_shift_independence(capsys):
    """A5: the formula is invariant under re-choosing each leg's Bezout pair
    by any integer shift (seeded random shifts in [-3, 3]).  Exact equality;
    no runtime bound."""

    def body():
        rng = random.Random(20260821)
        for spec in CORPUS_SPECS:
            M = manifold(spec)
            for r in (5, 9):
                shifts = tuple(rng.randint(-3, 3) for _ in range(M.n))
                shifted = xi_closed_form(M, r, 1, star_shifts=shifts)
                assert shifted == get_xi_formula(spec, r, 1), (
                    f"{spec} r={r} shifts={shifts}"
                )

    _criterion("A5 Bezout-shift independence", capsys, None, body)


def test_a6_rozansky_agreement(capsys):
    """A6: at prime levels 5, 7, 11, 13 with H != 0 and every p_k, q_k
    nonzero mod r, the residue-form numerical evaluation agrees with tau'
    to |difference| < 1e-25 at 40 working digits.  No runtime bound."""

    def body():
        cases = 0
        with mpmath.workdps(40):
            tol = mpmath.mpf(10) ** -25
            for spec in CORPUS_SPECS:
                M = manifold(spec)
                if top_invariants(M).H == 0:
                    continue
                for r in (5, 7, 11, 13):
                    if any(p % r == 0 or q % r == 0 for p, q in M.legs):
                        continue
                    exact = tau_prime(M, r, precision=40).tau
                    numeric = tau_rozansky_numeric(M, r, precision=40)
                    assert abs(exact - numeric) < tol, f"{spec} r={r}"
                    cases += 1
        assert cases >= 20, f"only {cases} cases met the hypothesis"

    _criterion("A6 residue-form agreement", capsys, None, body)


def test_a7_trefoil_surgery(capsys):
    """A7: for the zero-framed trefoil surgery X(-2/1,3/1,6/1): the closed
    form equals the general formula for odd 3 <= r <= 25 with gcd(r, 3) = 1
    and raises for 3 | r; xi vanishes for r = 1 mod 3; tau' matches
    -(sqrt(r)/(2 sin(pi/r))) e^{-2 pi i/r} for r = 2 mod 3 (|diff| < 1e-9);
    the joint brute force refuses r = 33 on budget; the good plumbing has
    (b+, b-, b0) = (5, 1, 1).  Bound 120 s."""

    def body():
        for r in range(3, 26, 2):
            if r % 3 == 0:
                with pytest.raises(HypothesisViolated):
                    tref_xi_closed(r)
                continue
            closed = tref_xi_closed(r)
            assert closed == xi_closed_form(TREFOIL_ZERO, r, 1), f"r={r}"
            if r % 3 == 1:
                assert closed.is_zero(), f"r={r}"
        for r in (5, 11, 17, 23):
            res = tau_prime(TREFOIL_ZERO, r)
            assert res.xi == tref_xi_closed(r, res.t), f"r={r}"
            expected = (-sqrt(r) / (2 * sin(pi / r))) * complex(
                cos(2 * pi / r), -sin(2 * pi / r)
            )
            assert abs(res.tau - expected) < 1e-9, f"r={r}"
            assert (res.b_plus, res.b_minus, res.nu) == (5, 1, 1)
        with pytest.raises(BudgetExceeded):
            xi_statesum_brute(TREFOIL_ZERO, 33)
        assert signature_counts(good_plumbing(TREFOIL_ZERO)) == (5, 1, 1)
        assert b_counts_closed_form(TREFOIL_ZERO) == (5, 1, 1)

    _criterion("A7 trefoil surgery", capsys, 120.0, body)


def test_a8_cli_end_to_end(capsys):
    """A8: the CLI computes, cross-checks, and reports: `tau --oracle
    --rozansky` exits 0 with all checks passing; `selftest` exits 0; the
    injected fault is detected with exit 1; malformed input exits 2.
    Bound 60 s."""

    def body():
        code = cli_main(
            [
                "tau",
                "X(2/1,3/1,5/1)",
                "--r",
                "7,11",
                "--oracle",
                "--rozansky",
                "--format",
                "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 2
        assert all(rec["checks"]["oracle"] is True for rec in records)
        assert all(rec["checks"]["rozansky"] is True for rec in records)

        assert cli_main(["selftest", "--trials", "4", "--seed", "3"]) == 0
        capsys.readouterr()
        assert (
            cli_main(
                [
                    "selftest",
                    "--trials",
                    "4",
                    "--seed",
                    "3",
                    "--inject-fault",
                    "flip-oracle-sign",
                ]
            )
            == 1
        )
        capsys.readouterr()
        assert cli_main(["tau", "X(2/0)", "--r", "5"]) == 2
        capsys.readouterr()

    _criterion("A8 CLI end-to-end", capsys, 60.0, body)
