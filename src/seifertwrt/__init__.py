"""Exact SO(3) quantum invariants of Seifert fibered spaces at odd levels.

The package computes ``xi_r``, ``tau'_r`` and ``Theta_r`` of
``X(p_1/q_1, ..., p_n/q_n)`` for all odd ``r >= 3`` by closed Gauss-sum
formulas evaluated in exact cyclotomic arithmetic, and verifies them against
an independent plumbing state-sum contraction, against a numerical residue
formula, and against algebraic-integrality predictions.

The names below are the library's entry points; everything else is imported
from its defining module, e.g. ``from seifertwrt.cyclotomic import gauss_sum``.
"""

from .cyclotomic import CyclotomicNumber
from .seifert import parse_manifold
from .statesum import xi_statesum
from .wrt import tau_prime, tau_rozansky_numeric, xi_closed_form

__version__ = "0.1.0"

__all__ = [
    "CyclotomicNumber",
    "parse_manifold",
    "tau_prime",
    "tau_rozansky_numeric",
    "xi_closed_form",
    "xi_statesum",
]
