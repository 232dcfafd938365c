"""The table of roots of unity that the embedding and the residue form read.

The reference below is the embedding as it was computed term by term, one
root per nonzero coordinate.  The mpmath embedding reads its roots from the
level's table once the residue form has filled it whole, and computes them
otherwise; the float one computes them as it sums.  All must give the
reference's values to the last bit.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import mpmath
import pytest

import seifertwrt.cli as cli
from _corpus import CORPUS_SPECS, get_xi_formula, manifold
from seifertwrt.cyclotomic import _root_table
from seifertwrt.wrt import tau_prime, tau_rozansky_numeric

SMALL_LEVELS = tuple(range(3, 62, 2))
TOP_LEVELS = (3989, 3999, 4001)


@lru_cache(maxsize=None)
def _direct_root(r: int, k: int, digits: int):
    """``zeta_r^k`` at ``digits`` digits, from its own ``expjpi`` call."""
    with mpmath.workdps(digits):
        return mpmath.expjpi(mpmath.mpf(2 * k) / r)


def reference_to_complex(x, precision=None):
    """The embedding of ``x``, one root computed per nonzero coordinate.

    The mpmath roots are memoized by ``(r, k, digits)`` only to keep the
    top levels fast; each is still its own ``expjpi`` call.
    """
    num, den = x.integer_coefficients()
    if precision is None:
        total = 0j
        for k, n in enumerate(num):
            if n:
                total += n * cmath.exp(2j * cmath.pi * k / x.r)
        return total / den
    with mpmath.workdps(precision):
        total = mpmath.mpc(0)
        for k, n in enumerate(num):
            if n:
                total += n * _direct_root(x.r, k, precision)
        return total / den


def bits(z):
    """The exact bits of a ``complex`` or an mpmath complex."""
    if isinstance(z, complex):
        return z.real.hex(), z.imag.hex()
    return z._mpc_


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_embedding_matches_reference_at_small_levels(spec):
    for r in SMALL_LEVELS:
        xi = get_xi_formula(spec, r)
        for precision in (None, 30, 50):
            got = xi.to_complex(precision)
            assert bits(got) == bits(reference_to_complex(xi, precision)), (r, precision)


@pytest.mark.parametrize("r", TOP_LEVELS)
def test_embedding_matches_reference_at_top_levels(r):
    # Every corpus record in floats.  A sum of 4000 mpmath terms takes about
    # 20 ms, so each manifold is also checked at one top level, at 30 or 50
    # digits; each level sees both.
    level = TOP_LEVELS.index(r)
    for i, spec in enumerate(CORPUS_SPECS):
        xi = get_xi_formula(spec, r)
        digits = [(30, 50)[i % 2]] if i % 3 == level else []
        for precision in [None, *digits]:
            got = xi.to_complex(precision)
            assert bits(got) == bits(reference_to_complex(xi, precision)), (spec, precision)


@pytest.mark.parametrize("r", (5, 13, 61, 4001))
def test_table_entries_are_the_direct_roots(r):
    M = manifold("X(2/1,3/1,7/1)")
    for digits in (30, 50):
        _root_table.cache_clear()
        tau_rozansky_numeric(M, r, precision=digits)
        with mpmath.workdps(digits):
            direct = [mpmath.expjpi(mpmath.mpf(2 * k) / r) for k in range(r)]
        assert [bits(z) for z in _root_table(r, digits)] == [bits(z) for z in direct]


def test_residue_form_fills_the_table_and_the_embedding_keeps_no_root(monkeypatch):
    # The embedding computes the roots it does not find and keeps none, even
    # for a rational xi at 1000 digits and r = 4001.
    _root_table.cache_clear()
    lens = get_xi_formula("X(2/1)", 4001)
    assert lens.is_rational() and not lens.is_zero()
    assert bits(lens.to_complex(1000)) == bits(reference_to_complex(lens, 1000))
    assert len(_root_table(4001, 1000)) == 0
    # The residue form keeps all r roots; the embedding then reads them and
    # computes none.
    r, M = 13, manifold("X(2/1,3/1,5/1)")
    xi = tau_prime(M, r).xi
    cold = bits(xi.to_complex(30))
    assert len(_root_table(r, 30)) == 0
    tau_rozansky_numeric(M, r, precision=30)
    assert len(_root_table(r, 30)) == r
    calls = []
    expjpi = mpmath.expjpi
    monkeypatch.setattr(mpmath, "expjpi", lambda x: calls.append(x) or expjpi(x))
    assert bits(xi.to_complex(30)) == cold and calls == []


def test_interrupted_fill_leaves_the_table_empty(monkeypatch):
    # The embedding reads a table whole or not at all, so a fill that fails
    # partway must keep none of the roots it computed.
    _root_table.cache_clear()
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
    assert len(_root_table(r, 30)) == 0
    xi = tau_prime(M, r).xi
    assert bits(xi.to_complex(30)) == bits(reference_to_complex(xi, 30))
    tau_rozansky_numeric(M, r, precision=30)
    assert len(_root_table(r, 30)) == r


def test_table_cache_is_bounded(capsys):
    assert _root_table.cache_info().maxsize == 16
    _root_table.cache_clear()
    # 20 levels 3..41, each one 30-digit table.
    assert cli.main(["tau", "X(2/1,3/1,5/1)", "--r-range", "3:41", "--precision", "30",
                     "--format", "json"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20
    info = _root_table.cache_info()
    assert info.misses == 20 and info.currsize == 16


def test_swapped_roots_fail_the_residue_check():
    # Both sides of the residue check read the (r, 30) table; two swapped
    # entries must still make them disagree.
    r = 7

    def verdicts():
        out = []
        for spec in CORPUS_SPECS:
            M = manifold(spec)
            result = tau_prime(M, r)
            out.append(cli._judge(("rozansky",), M, r, result.t, result.xi)["rozansky"])
        return out

    before = verdicts()
    assert False not in before and True in before
    table = _root_table(r, cli.ROZANSKY_DPS)
    table[1], table[2] = table[2], table[1]
    try:
        assert False in verdicts()
    finally:
        table[1], table[2] = table[2], table[1]
    assert False not in verdicts()
