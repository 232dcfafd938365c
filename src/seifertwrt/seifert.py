"""Seifert fibered spaces over S^2 and their plumbing presentations.

A manifold is described by surgery data ``X(p_1/q_1, ..., p_n/q_n)``:
an unknotted circle with framing 0 together with ``n`` meridian circles with
rational framings ``p_k/q_k``.  This module parses and normalizes that data,
computes the numerical topological invariants (``P``, ``H``, the orientation
signs, the count of null directions), expands each leg into an integral
plumbing chain, and builds the integer linking matrix whose signature feeds
the framing-anomaly correction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .numtheory import NotCoprime, good_expansion, sign


class ZeroEntry(ValueError):
    """Raised when a surgery coefficient has a zero numerator or denominator."""


class ParseError(ValueError):
    """Raised when a manifold description string fails to parse."""


@dataclass(frozen=True)
class SeifertData:
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


@dataclass(frozen=True)
class TopInvariants:
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
    P = 1
    for p, _ in M.legs:
        P *= p
    H = sum(q * (P // p) for p, q in M.legs)
    return TopInvariants(
        P=P,
        H=H,
        nu=1 if H == 0 else 0,
        sign_P=sign(P),
        sign_H_abs=abs(sign(H)),
        sign_H_over_P=sign(H) * sign(P),
    )


@dataclass(frozen=True)
class PlumbingPresentation:
    """Star-shaped plumbing: one central vertex (framing 0) and n chains.

    Each chain lists vertex framings from the free end inward; the last entry
    of each chain is the vertex attached to the central one.
    """

    chains: tuple[tuple[int, ...], ...]
    central_framing: int = 0

    @property
    def component_count(self) -> int:
        return 1 + sum(len(c) for c in self.chains)

    @property
    def framing_total(self) -> int:
        return self.central_framing + sum(sum(c) for c in self.chains)


def plumbing(M: SeifertData) -> PlumbingPresentation:
    """Expand each leg ``p/q`` into its chain of integer framings.

    The chain entries are the good-expansion entries of ``p/q`` read from the
    innermost one outward, so the free end carries ``m_1`` and the vertex next
    to the center carries ``m_l``.
    """
    chains = tuple(tuple(reversed(good_expansion(p, q).ms)) for p, q in M.legs)
    return PlumbingPresentation(chains=chains)


def linking_matrix(pres: PlumbingPresentation) -> tuple[tuple[int, ...], ...]:
    """Integer linking matrix of the plumbing graph.

    Vertex order: the chains in sequence (free end first within each chain),
    then the central vertex last.  Framings sit on the diagonal; each edge
    contributes a symmetric pair of ones.
    """
    size = pres.component_count
    a = [[0] * size for _ in range(size)]
    center = size - 1
    a[center][center] = pres.central_framing
    idx = 0
    for chain in pres.chains:
        for offset, framing in enumerate(chain):
            a[idx][idx] = framing
            if offset > 0:
                a[idx][idx - 1] = a[idx - 1][idx] = 1
            idx += 1
        a[idx - 1][center] = a[center][idx - 1] = 1
    return tuple(tuple(row) for row in a)


def signature_counts(matrix) -> tuple[int, int, int]:
    """Exact inertia ``(b_plus, b_minus, b_zero)`` of a symmetric matrix.

    Symmetric congruence elimination: pivot on a nonzero diagonal entry when
    one exists; otherwise repair a hyperbolic block by the symmetric shear
    ``row_i += row_j``, ``col_i += col_j`` (which makes the diagonal entry
    ``2*a[i][j]`` nonzero); rows that are entirely zero count as null
    directions.  Congruence preserves inertia, so this is exact.  Elimination
    visits only the nonzero entries of the pivot row and column, and entries
    stay integers until a division makes them fractions.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    remaining = list(range(n))
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
        pivot_row = a[pivot]
        support = [k for k in remaining if pivot_row[k]]
        for i in remaining:
            x = a[i][pivot]
            if x:
                factor = x // p if x % p == 0 else Fraction(x, p)
                row = a[i]
                for k in support:
                    row[k] -= factor * pivot_row[k]
    return b_plus, b_minus, b_zero


def b_counts_closed_form(M: SeifertData) -> tuple[int, int, int]:
    """The linking-matrix inertia from the surgery data alone.

    ``b_plus + b_minus = sum(l_k) + (1 if H != 0 else 0)``,
    ``b_minus = #{p_k < 0} + (1 if H/P > 0 else 0)``, and the null count is
    ``nu``.  Cross-validated against :func:`signature_counts` in the tests.
    """
    tops = top_invariants(M)
    total_l = sum(good_expansion(p, q).l for p, q in M.legs)
    rank = total_l + tops.sign_H_abs
    b_minus = sum(1 for p, _ in M.legs if p < 0)
    if tops.sign_H_over_P > 0:
        b_minus += 1
    return rank - b_minus, b_minus, tops.nu
