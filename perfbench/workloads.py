"""Inputs of the four benchmark workloads.

The benchmark keeps its own copy of the manifold corpus and of the level
lists, so that editing the test suite cannot change what is measured.  Every
request is the ``argv`` of one ``seifertwrt`` CLI call; the program sees
nothing else.  A pass is the workload's whole request list in a seeded order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

# The 42 manifolds of the acceptance corpus: 1 to 4 legs, numerators of both
# signs, entries that share factors with the levels (composite-conductor
# Gauss sums) and six fibrations with H = 0 (nu = 1).
CORPUS: tuple[str, ...] = (
    "X(1/1)", "X(2/1)", "X(3/1)", "X(-2/1)", "X(5/2)", "X(-5/3)",
    "X(7/5)", "X(3/2)", "X(6/1)", "X(-7/4)", "X(5/1)", "X(-6/5)",
    "X(2/1,3/1)", "X(2/1,-2/1)", "X(3/2,-3/2)", "X(5/2,7/3)",
    "X(-3/1,4/3)", "X(6/1,5/4)", "X(7/2,-7/2)", "X(5/3,-5/3)",
    "X(-6/1,7/5)", "X(4/3,-2/1)",
    "X(-2/1,3/1,6/1)", "X(2/1,3/1,5/1)", "X(2/1,3/1,7/1)",
    "X(6/1,5/2,-2/1)", "X(3/1,5/2,-7/3)", "X(-2/1,-3/1,-5/1)",
    "X(3/2,4/1,5/3)", "X(6/5,3/2,-5/4)", "X(7/3,-6/1,2/1)",
    "X(5/1,5/2,5/3)", "X(3/1,3/2,-3/1)", "X(2/1,-3/1,4/3)",
    "X(2/1,-2/1,3/1,-3/1)", "X(2/1,3/1,5/1,7/1)",
    "X(-2/1,3/2,5/4,-7/5)", "X(6/1,-6/5,2/1,3/2)",
    "X(3/1,4/3,5/2,-2/1)", "X(5/2,-5/3,6/1,-7/2)",
    "X(2/1,3/2,-6/1,6/5)", "X(7/1,-7/2,3/1,2/1)",
)

# table: every corpus manifold at every odd level 3..31, one record per
# request.  Many small records, so per-record fixed costs and cache fills
# weigh most.  The composite levels (9, 15, 21, 25, 27) leave most colors
# inactive, so a change to the inner color loop shows less here than on
# high_level.
TABLE_LEVELS: tuple[int, ...] = tuple(range(3, 32, 2))

# batch: the same records as table, one request per manifold through the
# ProcessPoolExecutor path.  It adds pool start-up, pickling and the
# record round trip, so a change to dispatch shows here and not on table.
BATCH_RANGE = "3:31"
BATCH_JOBS = 2

# verify: the only workload that runs the state-sum DP, the framing
# correction, the 30-digit embedding and the residue form.  Manifolds are
# drawn from the seed in the corpus ranges (|p| <= 7, 1 <= q <= 6), the same
# number with each leg count 1..4, so that the work of a pass varies little
# from seed to seed.
VERIFY_LEVELS: tuple[int, ...] = tuple(range(3, 16, 2))
VERIFY_MANIFOLDS = 48

# high_level: prime levels where every color is active for both manifolds,
# so the Fraction-bound inner loop dominates and the cost in r can be fitted.
HIGH_LEVEL_SPECS: tuple[str, ...] = ("X(2/1,3/1,7/1)", "X(5/2,-5/3,6/1,-7/2)")
HIGH_LEVELS: tuple[int, ...] = (31, 43, 61, 83, 101)

NAMES: tuple[str, ...] = ("table", "batch", "verify", "high_level")


@dataclass(frozen=True)
class Request:
    """One CLI call and the ``(manifold, r)`` records it must produce."""

    argv: tuple[str, ...]
    keys: tuple[tuple[str, int], ...]
    workers: int = 1


def _tau(spec: str, r: int, *extra: str) -> Request:
    return Request(("tau", spec, "--r", str(r), "--format", "json") + extra,
                   ((spec, r),))


def random_manifold(rng: random.Random, n_legs: int) -> str:
    legs = []
    for _ in range(n_legs):
        while True:
            p = rng.randint(-7, 7)
            q = rng.randint(1, 6)
            if p != 0 and gcd(abs(p), q) == 1:
                break
        legs.append(f"{p}/{q}")
    return f"X({','.join(legs)})"


def requests(name: str, seed: int) -> list[Request]:
    """The request list of one pass of workload ``name``, in corpus order."""
    if name == "table":
        return [_tau(spec, r) for spec in CORPUS for r in TABLE_LEVELS]
    if name == "batch":
        lo, hi = (int(x) for x in BATCH_RANGE.split(":"))
        keys_for = [r for r in range(lo, hi + 1) if r % 2]
        return [
            Request(("tau", spec, "--r-range", BATCH_RANGE, "--format", "json",
                     "--jobs", str(BATCH_JOBS)),
                    tuple((spec, r) for r in keys_for), BATCH_JOBS)
            for spec in CORPUS
        ]
    if name == "verify":
        rng = random.Random(f"verify-manifolds-{seed}")
        specs = [random_manifold(rng, 1 + i % 4) for i in range(VERIFY_MANIFOLDS)]
        return [_tau(spec, r, "--oracle", "--rozansky")
                for spec in specs for r in VERIFY_LEVELS]
    if name == "high_level":
        return [_tau(spec, r) for spec in HIGH_LEVEL_SPECS for r in HIGH_LEVELS]
    raise ValueError(f"unknown workload {name!r}")


def pass_order(reqs: list[Request], seed: int, pass_index: int) -> list[Request]:
    """The seeded order of one pass; every pass holds every request once."""
    order = list(reqs)
    random.Random(f"order-{seed}-{pass_index}").shuffle(order)
    return order
