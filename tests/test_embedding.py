"""The integer embedding of ``Q(zeta_r)`` into C and the residue form's roots.

``CyclotomicNumber.to_complex`` is one fixed-point sum whose error bound is
proven in ``CyclotomicNumber._fixed``; it prints the nearest doubles, decides
exact zeros by ``galois(-1)``, and keeps at most 16 tables of a level's
powers.  The residue form keeps its own roots (``wrt._roots``), so that the
check of ``tau'`` shares no root with the value it checks.  The references
below are direct mpmath sums, one ``expjpi`` root per coordinate.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

import seifertwrt.cli as cli
import seifertwrt.cyclotomic as cyclotomic
import seifertwrt.wrt as wrt
from _corpus import CORPUS_SPECS, get_xi_formula, manifold
from seifertwrt.cyclotomic import CyclotomicNumber, _powers
from seifertwrt.wrt import _roots, tau_prime, tau_rozansky_numeric

SMALL_LEVELS = tuple(range(3, 62, 2))
TOP_LEVELS = (3989, 3999, 4001)
TOP_SPECS = ("X(2/1,-2/1,3/1,-3/1)", "X(2/1,3/1,7/1)", "X(5/2,-5/3,6/1,-7/2)")


@lru_cache(maxsize=None)
def _direct_root(r: int, k: int, digits: int):
    """``zeta_r^k`` at ``digits`` digits, from its own ``expjpi`` call."""
    with mpmath.workdps(digits):
        return mpmath.expjpi(mpmath.mpf(2 * k) / r)


def _direct_roots(r: int, digits: int) -> list:
    return [_direct_root(r, k, digits) for k in range(r)]


def direct(x: CyclotomicNumber, nu: int = 0, digits: int = 80):
    """``(sin(pi/r)/sqrt(r))**nu`` times ``x`` at ``zeta_r``, summed term by term."""
    num, den = x.integer_coefficients()
    with mpmath.workdps(digits):
        total = mpmath.fsum(n * _direct_root(x.r, k, digits)
                            for k, n in enumerate(num) if n) / den
        if nu:
            total *= mpmath.sinpi(mpmath.mpf(1) / x.r) / mpmath.sqrt(x.r)
        return total


def nearest(part) -> float:
    """The double nearest an mpmath real, through an exact ``Fraction``."""
    sign, man, exp, _ = part._mpf_
    if not man:
        return 0.0
    return float((-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp))


def size(x: CyclotomicNumber) -> Fraction:
    num, den = x.integer_coefficients()
    return Fraction(sum(map(abs, num)), den)


def assert_within_bound(x: CyclotomicNumber, nu: int, bits_list) -> None:
    # The 80-digit reference is itself within 10^-70 sum|c_k|/den: an exact
    # zero, bounded by 0, reads about 1e-81.
    exact = direct(x, nu)
    for bits in bits_list:
        parts, scale = x._fixed(bits, nu)
        with mpmath.workdps(80):
            slack = mpmath.mpf(10) ** -70 * size(x) * scale
            for (value, bound), part in zip(parts, (exact.real, exact.imag)):
                assert abs(value - part * scale) <= bound + slack, (x.r, bits, nu)


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_fixed_point_sum_is_within_its_bound(spec):
    # At the first bits of the default and of --rozansky's 30 digits, and at
    # 64 bits, where the bound is widest against the value; nu as the
    # manifold has it, and the other one too.  Each manifold is also checked
    # at one of the top levels, and each top level sees 14 manifolds.
    i = CORPUS_SPECS.index(spec)
    for r in (*SMALL_LEVELS, TOP_LEVELS[i % 3]):
        x = get_xi_formula(spec, r)
        for nu in (0, 1):
            assert_within_bound(x, nu, (64, 128) if r < 100 else (128,))


def test_every_power_is_within_its_bound():
    for r in (3, 5, 9, 15, 101, 105, 4001):
        for bits in (64, 128):
            re, im = _powers(r, bits)
            assert len(re) == len(im) == (r + 1) // 2
            with mpmath.workdps(80):
                for k, root in enumerate(_direct_roots(r, 80)[: len(re)]):
                    z = root * mpmath.mpf(2) ** bits
                    assert abs(mpmath.mpc(re[k], im[k]) - z) <= 2 * r + 2, (r, bits, k)


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_records_print_the_nearest_doubles(spec):
    # Every part is the double nearest the direct sum, or 0.0 where
    # galois(-1) shows it to be 0 exactly.
    M = manifold(spec)
    for r in range(3, 32, 2):
        result = tau_prime(M, r)
        exact = direct(result.xi, result.nu)
        conj = result.xi.galois(-1)
        for got, part, zero in ((result.tau.real, exact.real, conj == -result.xi),
                                (result.tau.imag, exact.imag, conj == result.xi)):
            assert type(got) is float
            assert got == (0.0 if zero else nearest(part)), (r, got)


@pytest.mark.parametrize("r", TOP_LEVELS)
def test_top_level_records_print_the_nearest_doubles(r):
    for spec in TOP_SPECS:
        result = tau_prime(manifold(spec), r)
        exact = direct(result.xi, result.nu)
        for got, part in ((result.tau.real, exact.real), (result.tau.imag, exact.imag)):
            with mpmath.workdps(80):
                tiny = abs(part) < mpmath.mpf(10) ** -60
            assert got == (0.0 if tiny else nearest(part)), (spec, got)


def test_an_exact_zero_prints_zero_at_the_top_level():
    # The imaginary part is 0 exactly: xi is its own complex conjugate.
    result = tau_prime(manifold("X(2/1,-2/1,3/1,-3/1)"), 4001)
    assert result.xi.galois(-1) == result.xi
    assert result.tau == complex(53731483.68868534, 0.0)


def test_galois_decides_the_zeros_of_both_outputs():
    x = CyclotomicNumber(7, [0, 1, 0, 0, 0, 0, -1])  # zeta - zeta^-1: imaginary
    assert x.to_complex().real == 0.0 and x.to_complex(30).real == 0
    y = CyclotomicNumber(7, [0, 1, 0, 0, 0, 0, 1])  # zeta + zeta^-1: real
    assert y.to_complex().imag == 0.0 and y.to_complex(30).imag == 0


@pytest.mark.parametrize(("spec", "r"), [
    ("X(2/1,3/1,7/1)", 11), ("X(-2/1,3/1,6/1)", 5), ("X(5/2,-5/3,6/1,-7/2)", 31),
    ("X(2/1)", 4001)])
def test_thousand_digits_are_within_their_bound(spec, r):
    result = tau_prime(manifold(spec), r)
    got = result.xi.to_complex(1000, result.nu)
    exact = direct(result.xi, result.nu, 1010)
    with mpmath.workdps(1010):
        bound = mpmath.mpf(10) ** -1000 * size(result.xi)
        assert abs(got.real - exact.real) <= bound
        assert abs(got.imag - exact.imag) <= bound


@pytest.mark.parametrize(("x", "passes"), [
    (CyclotomicNumber(5, [2**53 + 1], 2), 1),
    (CyclotomicNumber(5, [Fraction(2**53 + 1, 2), 1, 0, 0, -1]), 4),
])
def test_a_part_on_a_midpoint_ends_at_a_nearest_double(monkeypatch, x, passes):
    # (2^53 + 1)/2 lies halfway between the doubles 2^52 and 2^52 + 1.  Alone
    # it is exact at once (zeta^0 is), and int / int picks a double.  Plus
    # zeta - 1/zeta, which moves only the imaginary part, its interval never
    # leaves the midpoint, and the bits double a fixed number of times.
    calls = []
    fixed = CyclotomicNumber._fixed
    monkeypatch.setattr(CyclotomicNumber, "_fixed",
                        lambda self, bits, nu: calls.append(bits) or fixed(self, bits, nu))
    _powers.cache_clear()
    start = time.perf_counter()
    value = x.to_complex()
    assert time.perf_counter() - start < 0.010
    assert value.real in (2.0**52, 2.0**52 + 1)
    assert calls == [128, 256, 512, 1024][:passes]


def test_both_caches_are_bounded(capsys):
    assert _powers.cache_info().maxsize == 16
    assert _roots.cache_info().maxsize == 16
    _powers.cache_clear()
    _roots.cache_clear()
    # 34 levels 5..71, each one table of powers; the residue form keeps one
    # table of roots at each of the 17 primes 7..71 (r = 5 divides a leg).
    assert cli.main(["tau", "X(2/1,3/1,5/1)", "--r-range", "5:71", "--rozansky",
                     "--format", "json"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 34
    assert _powers.cache_info()[1:] == (34, 16, 16)  # misses, maxsize, currsize
    assert _roots.cache_info()[1:] == (17, 16, 16)


@pytest.mark.parametrize("r", (5, 13, 61, 4001))
def test_residue_roots_are_the_direct_roots(r):
    M = manifold("X(2/1,3/1,7/1)")
    for digits in (30, 50):
        _roots.cache_clear()
        tau_rozansky_numeric(M, r, precision=digits)
        assert [z._mpc_ for z in _roots(r, digits)] == [
            z._mpc_ for z in _direct_roots(r, digits)]


def test_interrupted_roots_cache_nothing(monkeypatch):
    _roots.cache_clear()
    r, M = 13, manifold("X(2/1,3/1,5/1)")
    calls = []
    expjpi = mpmath.expjpi

    def failing_expjpi(x):
        calls.append(x)
        if len(calls) == 7:
            raise RuntimeError("interrupted")
        return expjpi(x)

    monkeypatch.setattr(mpmath, "expjpi", failing_expjpi)
    with pytest.raises(RuntimeError, match="interrupted"):
        tau_rozansky_numeric(M, r, precision=30)
    monkeypatch.undo()
    assert _roots.cache_info().currsize == 0
    tau_rozansky_numeric(M, r, precision=30)
    assert len(_roots(r, 30)) == r and _roots.cache_info().currsize == 1


def rozansky_verdicts(r: int) -> list:
    out = []
    for spec in CORPUS_SPECS:
        M = manifold(spec)
        result = tau_prime(M, r)
        out.append(cli._judge(("rozansky",), M, r, result.t, result.xi)["rozansky"])
    return out


def test_swapped_roots_fail_the_residue_check(monkeypatch):
    r = 7
    before = rozansky_verdicts(r)
    assert False not in before and True in before
    roots = list(_roots(r, cli.ROZANSKY_DPS))
    roots[1], roots[2] = roots[2], roots[1]
    monkeypatch.setattr(wrt, "_roots", lambda r, digits: tuple(roots))
    assert False in rozansky_verdicts(r)
    monkeypatch.undo()
    assert rozansky_verdicts(r) == before


def test_an_offset_embedding_root_fails_the_residue_check(monkeypatch):
    # The embedding's root off by 2^-60 relative: the residue form, which
    # keeps its own roots, must see it.
    r = 7
    before = rozansky_verdicts(r)
    fixed_root = cyclotomic._fixed_root

    def offset_root(n, bits):
        re, im = fixed_root(n, bits)
        return re + (re >> 60), im + (im >> 60)

    monkeypatch.setattr(cyclotomic, "_fixed_root", offset_root)
    _powers.cache_clear()
    try:
        assert False in rozansky_verdicts(r)
    finally:
        monkeypatch.undo()
        _powers.cache_clear()
    assert rozansky_verdicts(r) == before
