"""Seifert fibered spaces over S^2 and their plumbing presentations.

A manifold is described by surgery data ``X(p_1/q_1, ..., p_n/q_n)``:
an unknotted circle with framing 0 together with ``n`` meridian circles with
rational framings ``p_k/q_k``.  This module parses and normalizes that data,
computes the numerical topological invariants (``P``, ``H``, the orientation
signs, the count of null directions), plumbs each leg by Euclid's
nearest-integer steps into a short integral chain, and reads the inertia of
the plumbing's linking matrix, which feeds the framing-anomaly correction, off
the chains in one pass.
"""

from __future__ import annotations

import re
from math import gcd, prod
from typing import NamedTuple

from .numtheory import NotCoprime, sign


class ZeroEntry(ValueError):
    """Raised when a surgery coefficient has a zero numerator or denominator."""


class ParseError(ValueError):
    """Raised when a manifold description string fails to parse."""


class SeifertData(NamedTuple):
    """Normalized surgery data: legs ``(p_k, q_k)`` with ``q_k >= 1``, coprime."""

    legs: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.legs)

    def __str__(self) -> str:
        inner = ",".join(f"{p}/{q}" for p, q in self.legs)
        return f"X({inner})"


def parse_normalize(pairs) -> SeifertData:
    """Build :class:`SeifertData` from raw ``(p, q)`` pairs.

    Flips signs so denominators are positive, and validates: nonzero entries,
    coprimality, and at least one leg.
    """
    legs: list[tuple[int, int]] = []
    for p, q in pairs:
        p, q = int(p), int(q)
        if p == 0 or q == 0:
            raise ZeroEntry(f"surgery coefficient {p}/{q} has a zero entry")
        if q < 0:
            p, q = -p, -q
        if gcd(p, q) != 1:
            raise NotCoprime(f"surgery coefficient {p}/{q} is not reduced")
        legs.append((p, q))
    if not legs:
        raise ParseError("need at least one leg")
    return SeifertData(tuple(legs))


_ENTRY = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")


def parse_manifold(text: str) -> SeifertData:
    """Parse ``"X(p1/q1, p2/q2, ...)"`` (whitespace optional, ``/q`` optional)."""
    m = re.match(r"^\s*X\(\s*(.*?)\s*\)\s*$", text)
    if not m:
        raise ParseError(f"cannot parse manifold {text!r}: expected X(p/q,...)")
    body = m.group(1)
    if not body:
        raise ParseError("need at least one leg")
    pairs = []
    for chunk in body.split(","):
        em = _ENTRY.match(chunk.strip())
        if not em:
            raise ParseError(f"cannot parse surgery coefficient {chunk.strip()!r}")
        p = int(em.group(1))
        q = int(em.group(2)) if em.group(2) is not None else 1
        pairs.append((p, q))
    return parse_normalize(pairs)


class TopInvariants(NamedTuple):
    """Numerical invariants of the fibration read off the surgery data.

    ``P`` is the product of the ``p_k``; ``H = P * sum(q_k / p_k)`` is the
    order-determining integer (the first homology is finite of order ``|H|``
    iff ``H != 0``); ``nu`` is 1 when ``H = 0`` and 0 otherwise.
    """

    P: int
    H: int
    nu: int
    sign_P: int
    sign_H_abs: int
    sign_H_over_P: int


def top_invariants(M: SeifertData) -> TopInvariants:
    P = prod(p for p, _ in M.legs)
    H = sum(q * (P // p) for p, q in M.legs)
    return TopInvariants(
        P=P,
        H=H,
        nu=1 if H == 0 else 0,
        sign_P=sign(P),
        sign_H_abs=abs(sign(H)),
        sign_H_over_P=sign(H) * sign(P),
    )


def plumbing(M: SeifertData) -> tuple[tuple[int, ...], ...]:
    """Plumb each leg ``p/q`` into a chain by Euclid's nearest-integer steps.

    The plumbing is star-shaped: a central vertex of framing 0 and one chain
    per leg.  Each chain lists vertex framings from the free end inward; its
    last entry is the vertex attached to the central one.

    With ``m`` the integer nearest ``b/a``, ``b/a = m - 1/(a/(m a - b))``: from
    ``(b, a) = (p, q)`` the step ``(b, a) -> (a, m a - b)`` runs until
    ``a = 0``, and the entries, read in reverse, run from the free end to the
    vertex next to the center.  As ``|m a - b| <= |a|/2``, a chain has at most
    ``floor(log2 q) + 1`` vertices, whose framings may have either sign.
    """
    chains = []
    for b, a in M.legs:
        chain = []
        while a:
            m = (2 * b + a) // (2 * a)
            chain.insert(0, m)
            b, a = a, m * a - b
        chains.append(tuple(chain))
    return tuple(chains)


def signature_counts(chains: tuple[tuple[int, ...], ...]) -> tuple[int, int, int]:
    """Exact inertia ``(b_plus, b_minus, b_zero)`` of the linking matrix of the
    star-shaped plumbing on ``chains`` (:func:`plumbing`'s orientation).

    The matrix has the framings on its diagonal and a symmetric pair of ones
    per edge.  Each chain is eliminated from its free end: a vertex's pivot
    is its framing minus ``1/(previous pivot)`` and counts by its sign.  A
    zero pivot and the next vertex span a hyperbolic plane (one ``+``, one
    ``-``), after which the chain starts afresh at the next framing; a chain
    paired up to its last vertex no longer meets the center.  A last pivot
    ``x != 0`` moves the central framing by ``-1/x``.  The first chain whose
    last pivot is zero pairs with the center, and every further one is a null
    direction; without one, the center's remaining framing is a pivot, null
    if zero.  Congruence preserves inertia, so this is exact.

    Each pivot, and the center, is an integer numerator over a positive
    denominator: ``m - 1/(pn/pd) = (m pn - pd)/pn``, with the sign of ``pn``
    moved to the numerator, so every sign is a numerator's.
    """
    b_plus = b_minus = zero_ends = 0
    cn, cd = 0, 1  # the center's framing cn/cd
    for chain in chains:
        # the previous vertex's pivot pn/pd; pd = 0 at the free end and after a pair
        pn = pd = 0
        for m in chain:
            if pd and not pn:  # this vertex completes a hyperbolic pair
                b_plus += 1
                b_minus += 1
                pd = 0
            else:
                pn, pd = (m * pn - pd, pn) if pd else (m, 1)
                if pd < 0:
                    pn, pd = -pn, -pd
                if pn > 0:
                    b_plus += 1
                elif pn < 0:
                    b_minus += 1
        if pd and not pn:
            zero_ends += 1
        elif pd:  # the center minus pd/pn
            cn, cd = cn * pn - pd * cd, cd * pn
            if cd < 0:
                cn, cd = -cn, -cd
    if zero_ends:
        return b_plus + 1, b_minus + 1, zero_ends - 1
    return b_plus + (cn > 0), b_minus + (cn < 0), int(cn == 0)


def b_counts_closed_form(M: SeifertData) -> tuple[int, int, int]:
    """The inertia of the good plumbing's linking matrix from the surgery data.

    ``b_plus + b_minus = sum(l_k) + (1 if H != 0 else 0)``,
    ``b_minus = #{p_k < 0} + (1 if H/P > 0 else 0)``, and the null count is
    ``nu``.  ``l_k = len(numtheory.good_expansion(p_k, q_k))``: 2 for an
    integer, else ``1 + sum_{odd i} (a_i - 1) + #{even i >= 2}`` over the
    regular continued fraction ``[a_0; a_1, ..., a_k]``, in ``O(log q)`` steps.
    """
    tops = top_invariants(M)
    rank = tops.sign_H_abs
    for p, q in M.legs:
        a = []  # the regular continued fraction of p/q
        while q:
            a.append(p // q)
            p, q = q, p % q
        rank += 2 if len(a) == 1 else 1 + sum(a[1::2]) - len(a[1::2]) + len(a[2::2])
    b_minus = sum(1 for p, _ in M.legs if p < 0)
    if tops.sign_H_over_P > 0:
        b_minus += 1
    return rank - b_minus, b_minus, tops.nu
