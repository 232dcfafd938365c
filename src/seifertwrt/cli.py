"""Command-line interface.

Subcommands::

    tau               invariants of given manifolds at given levels
    tref-table        closed-form table for the zero-framed trefoil surgery
    integrality-scan  algebraic-integrality check over a level range
    selftest          randomized formula-vs-oracle consistency drill

Output formats: human ``text`` (default), ``json`` (one object per line),
``csv``.  Exit codes: 0 all requested checks passed, 1 some check failed,
2 usage or domain error, or a ``--jobs`` child that could not be started or
was lost before sending its records.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import gcd, isfinite
from time import perf_counter
from typing import Callable

from .cyclotomic import CyclotomicNumber, _check_level
from .numtheory import good_expansion, mod_inverse
from .seifert import (
    SeifertData,
    b_counts_closed_form,
    parse_manifold,
    parse_normalize,
    signature_counts,
    top_invariants,
)
from .statesum import BudgetExceeded, xi_statesum, xi_statesum_brute
from .wrt import (
    TREFOIL_ZERO,
    HypothesisViolated,
    InvariantResult,
    _theta_is_integral,
    tau_from_xi,
    tau_prime,
    tau_rozansky_numeric,
    tref_xi_closed,
    xi_closed_form,
)

ROZANSKY_DPS = 30
ROZANSKY_TOL_EXP = -20  # pass iff |difference| < 10**EXP at ROZANSKY_DPS digits
MAX_PRECISION = 1000  # the most --precision digits
# The highest level.  In-process on a shared 2 vCPU (Python 3.11.7), a record
# of X(2,3,7) (``_tau_record`` with no checks, after the level's first) took
# 11 ms at r = 4001 and 13 ms at 3999.  The value is kept, so that the same
# requests are refused.
MAX_LEVEL = 4001
# The most legs of a manifold.  A record of 64 legs of 2 took 2.0, 4.9 and
# 6.8 ms at r = 31, 101 and 151, and of 128 legs 4.2, 11 and 17 ms (same
# machine and way).  The value is kept, so that the same requests are refused.
MAX_LEGS = 64
# The highest estimated cost n^3 r^2 of one closed-form record of n legs at
# level r: a joint bound on legs and level.  A record of n legs of 2 at
# r = 4001 took 11, 20, 36 and 198 ms for n = 3, 8, 16 and 64, and one of 8
# legs of 3 took 29 ms at 3999; at the ceiling, 16 legs took 14 ms at 1561
# and 64 legs 8.6 ms at 195 (same machine and way).  The value is kept, so
# that the same requests are refused; every manifold of at most 8 legs runs
# at MAX_LEVEL.
MAX_RECORD_COST = 10**10
# The highest sum of q_k + 1 over the legs p_k/q_k of a manifold: a bound on
# the legs' size.  At r = 5, X(1/99999) took 4.5 ms and 5.0 ms with --oracle
# (same machine).  Far above it legs get slow: a leg of 4000 digits took 1.8 s
# in the formula's Dedekind sum and 0.4 s in the oracle's 5313-vertex chain.
MAX_DENOMINATOR_SUM = 100000
BRUTE_BUDGET = 20000  # joint brute-force terms selftest sums by default
# The most selftest trials and the highest --budget.  At the default budget,
# 1000 trials took 5.0 s.  At 10**6 joint states, 40 trials took 6.2 s and the
# slowest brute force of a trial 1.8 s (X(6/1,-4/5,5/2) at r = 9), on the same
# machine: a selftest at both ceilings runs for about half an hour.
MAX_TRIALS = 10**4
MAX_BUDGET = 10**6  # the library default of xi_statesum_brute
FAULT_NAMES = ("flip-oracle-sign",)
# Seconds a ``tau`` request runs in this process before ``--jobs`` hands the
# rest of its records to child processes.  Starting a child costs the fork,
# the copy-on-write page faults the parent takes while the child lives (about
# 500, against 10-15 in a serial run), and the join.  On a shared 2-vCPU
# machine (Python 3.11.7), in a process that had already served the 42-manifold
# corpus, 15 records at r = 3..31 took 6.6 ms serially for X(5/2) and 7.8 ms
# for X(2/1,3/1,5/1,7/1), and 13.7 and 15.8 ms with --jobs 2: a child costs
# 10-12 ms (quartiles 8.8-12.4 ms over 41 runs) beyond half the serial time.
# Waiting twice that long keeps such requests, with room for the machine's
# speed drift, in this process, and costs a long request at most this long.
CHILD_START_S = 0.020
# How a record is laid out: its CSV columns and its text line, each followed
# by the checks, whose results both formats spell as CHECK_STATES does.
CSV_COLUMNS = ("manifold", "r", "t", "nu", "b_plus", "b_minus", "tau_re", "tau_im",
               "xi_integral", "theta_integral", "xi")
CHECK_STATES = {None: "skip", True: "pass", False: "FAIL"}
TEXT_LINE = ("{manifold} r={r} t={t}: tau'={tau_re:+.9f}{tau_im:+.9f}i nu={nu} "
             "b+={b_plus} b-={b_minus} xi[{xi_str}] integral(xi)={xi_integral} "
             "integral(theta)={theta_integral}")


def _record(res: InvariantResult, checks: dict[str, bool | None]) -> dict:
    """One output record: the object a ``--format json`` line serializes."""
    tau_re, tau_im = float(res.tau.real), float(res.tau.imag)
    return {
        "manifold": str(res.manifold),
        "r": res.r,
        "t": res.t,
        "nu": res.nu,
        "b_plus": res.b_plus,
        "b_minus": res.b_minus,
        "xi": _xi_pairs(res.xi),
        "xi_str": str(res.xi),
        "tau_re": tau_re,
        "tau_im": tau_im,
        "xi_integral": res.xi_is_integral,
        "theta_integral": res.theta_is_integral,
        "checks": checks,
    }


def _xi_pairs(xi: CyclotomicNumber) -> list[list[int]]:
    """``xi``'s basis coefficients as ``[numerator, denominator]`` in lowest terms."""
    num, den = xi.integer_coefficients()
    return [[n // g, den // g] for n in num for g in (gcd(n, den),)]


def _rozansky_agrees(M, r, t, xi, budget) -> bool:
    """Whether ``tau'`` from ``xi`` matches the residue form to ``ROZANSKY_TOL_EXP``."""
    import mpmath

    with mpmath.workdps(ROZANSKY_DPS):
        b = tau_rozansky_numeric(M, r, precision=ROZANSKY_DPS)
        # tau' is xi at zeta^(1/4 mod r); twist xi there from zeta^t.
        quarter = mod_inverse(4, r)
        if t != quarter:
            xi = xi.galois(quarter * mod_inverse(t, r))
        a = tau_from_xi(xi, top_invariants(M).nu, precision=ROZANSKY_DPS)
        return bool(abs(a - b) < mpmath.mpf(10) ** ROZANSKY_TOL_EXP)


def _integrality_holds(M, r, t, xi, budget) -> bool:
    """Whether ``xi / 2**nu`` lies in ``Z[zeta_r]``, as the integrality theorem
    says when ``r`` is coprime to at least ``n - 2`` of the ``p_k``.
    """
    if sum(1 for p, _ in M.legs if gcd(p, r) == 1) < M.n - 2:
        raise HypothesisViolated(f"fewer than n - 2 legs are coprime to {r}")
    return _theta_is_integral(xi, top_invariants(M).nu)


# The checks of records and selftest trials, by name.  Each judges the exact
# xi of M at zeta_r^t: True passes, False fails, and HypothesisViolated or
# BudgetExceeded (over ``budget`` brute-force terms) skips.  Each calls its
# route by module-global name, so a patched route is the one that runs.
CHECKS: dict[str, Callable[..., bool]] = {
    "oracle": lambda M, r, t, xi, budget: xi_statesum(M, r, t) == xi,
    "brute": lambda M, r, t, xi, budget: xi_statesum_brute(M, r, t, budget) == xi,
    "rozansky": _rozansky_agrees,
    "integrality": _integrality_holds,
    "closed_matches_general": lambda M, r, t, xi, budget: tref_xi_closed(r, t) == xi,
}


def _judge(names, M, r, t, xi, budget=BRUTE_BUDGET) -> dict[str, bool | None]:
    """The ``CHECKS`` entries ``names`` run on ``xi``: True, False, or None (skip)."""
    checks = {}
    for name in names:
        try:
            checks[name] = CHECKS[name](M, r, t, xi, budget)
        except (HypothesisViolated, BudgetExceeded):
            checks[name] = None
    return checks


def _tau_record(M: SeifertData, r: int, t: int | None,
                names: tuple[str, ...], precision: int | None) -> dict:
    """The record of ``M`` at level ``r``, judged by the checks ``names``."""
    try:
        result = tau_prime(M, r, precision=precision, t=t)
        if not (isfinite(result.tau.real) and isfinite(result.tau.imag)):
            raise OverflowError
    except OverflowError:  # a tau' no double holds, on either numeric path
        raise ValueError(f"tau' is outside the double range ({M} at r={r})") from None
    return _record(result, _judge(names, M, r, result.t, result.xi))


def _within_ceilings(spec: str, M: SeifertData, top: int) -> None:
    """Refuse the manifold ``M``, parsed from ``spec``, when it has more than
    ``MAX_LEGS`` legs, has legs ``p/q`` whose ``q + 1`` sum to more than
    ``MAX_DENOMINATOR_SUM``, or has a record at the highest level ``top``
    whose estimated cost is above ``MAX_RECORD_COST``.
    """
    if M.n > MAX_LEGS:
        raise ValueError(f"{spec!r} has {M.n} legs, above the ceiling of "
                         f"{MAX_LEGS} legs")
    bound = sum(q + 1 for _, q in M.legs)
    if bound > MAX_DENOMINATOR_SUM:
        raise ValueError(f"{spec!r} has legs p/q whose q + 1 sum to {bound}, "
                         f"above the ceiling of {MAX_DENOMINATOR_SUM}")
    cost = M.n**3 * top**2
    if cost > MAX_RECORD_COST:
        raise ValueError(f"{spec!r} has {M.n} legs at level {top}, an estimated "
                         f"cost n^3 r^2 = {cost} above the ceiling of "
                         f"{MAX_RECORD_COST}")


def _run_share(tasks: list[tuple]) -> list[dict | Exception]:
    """The records of ``tasks`` in order, ending with the first error if any."""
    outcomes = []
    for task in tasks:
        try:
            outcomes.append(_tau_record(*task))
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _send_share(conn, tasks: list[tuple]) -> None:
    """Child-process target: compute one share and send it to the parent."""
    with conn:
        conn.send(_run_share(tasks))


def _run_tasks(tasks: list[tuple], jobs: int) -> list[dict]:
    """``_tau_record`` over ``tasks`` in ``jobs`` processes, this one included.

    ``_cmd_tau`` calls this only for the records left once a request has run
    for ``CHILD_START_S``; shorter requests never start a child.  Task ``i``
    runs in share ``i % jobs``. Shares ``1..jobs-1`` run in child processes
    and send their outcomes back over a one-way pipe, while share 0 runs
    here. Records come back in task order, and the first error in task order
    is raised, as a serial loop would raise it.  A child that exits before
    sending its share, or that cannot be started, ends the run at once with a
    ``ChildProcessError``, and every share not read by then is stopped.
    """
    # Imported here: serial runs need no child processes, and the import
    # adds start-up time and resident memory.
    import multiprocessing

    children = []
    shares = [None]  # this process's share, then each child's once read
    try:
        for k in range(1, jobs):
            recv_end, send_end = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_share,
                                            args=(send_end, tasks[k::jobs]))
            try:
                child.start()
            except OSError as exc:  # e.g. fork refused with EAGAIN
                raise ChildProcessError(
                    f"could not start the worker process for share {k}: "
                    f"{exc}") from None
            send_end.close()
            children.append((child, recv_end))
        shares[0] = _run_share(tasks[0::jobs])
        for k, (child, recv_end) in enumerate(children, start=1):
            try:
                shares.append(recv_end.recv())
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"worker process for share {k} exited with code "
                    f"{child.exitcode} before sending its records") from None
    finally:
        # A forked child keeps its own copy of its pipe's read end, so closing
        # ours cannot free a child blocked in a send larger than the pipe's
        # buffer: every share not read is stopped before it is joined.
        for child, _ in children[len(shares) - 1:]:
            child.terminate()
        for child, recv_end in children:
            recv_end.close()
            child.join()
    records = []
    for i in range(len(tasks)):
        outcome = shares[i % jobs][i // jobs]
        if isinstance(outcome, Exception):
            raise outcome
        records.append(outcome)
    return records


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _below_ceiling(top: int, given: str) -> None:
    """Refuse ``given`` when its highest level ``top`` is above ``MAX_LEVEL``."""
    if top > MAX_LEVEL:
        raise ValueError(f"{given} reaches level {top}, above the highest level "
                         f"{MAX_LEVEL}")


def _parse_levels(args) -> list[int]:
    levels: set[int] = set()
    if args.r:
        try:
            given = [int(chunk) for chunk in args.r.split(",")]
        except ValueError as exc:
            raise ValueError(
                f"bad --r {args.r!r}, expected comma-separated levels"
            ) from exc
        _below_ceiling(max(given), f"--r {args.r!r}")
        levels.update(given)
    if args.r_range:
        try:
            lo, hi = (int(x) for x in args.r_range.split(":"))
        except ValueError as exc:
            raise ValueError(f"bad --r-range {args.r_range!r}, expected A:B") from exc
        odd = range(lo | 1, hi + 1, 2)
        if not odd:
            raise ValueError(f"--r-range {args.r_range!r} holds no odd level")
        _below_ceiling(odd[-1], f"--r-range {args.r_range!r}")
        levels.update(odd)
    if not levels:
        raise ValueError("no levels given: use --r and/or --r-range")
    levels = sorted(levels)
    for r in levels:  # the lowest bad level is named, before any bad --t
        _check_level(r)
    for r in levels:
        _check_level(r, args.t)
    return levels


def _emit(records: list[dict], fmt: str, out) -> None:
    """Write ``records`` as JSON lines, one CSV table or one text line each."""
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
        return
    check_names = sorted({name for rec in records for name in rec["checks"]})
    if fmt == "csv":
        import csv  # here: only CSV output needs it, and start-up would pay

        writer = csv.writer(out)
        writer.writerow([*CSV_COLUMNS, *(f"check_{name}" for name in check_names)])
        for rec in records:
            cells = {**rec, "xi": ";".join(f"{n}/{d}" for n, d in rec["xi"])}
            writer.writerow([*(cells[name] for name in CSV_COLUMNS),
                             *(CHECK_STATES[rec["checks"].get(name)]
                               for name in check_names)])
        return
    for rec in records:
        states = (f"{name}={CHECK_STATES[value]}"
                  for name, value in sorted(rec["checks"].items()))
        out.write(" ".join([TEXT_LINE.format_map(rec), *states]) + "\n")


def _cmd_tau(args) -> list[dict]:
    levels = _parse_levels(args)
    manifolds = []
    for spec in args.manifolds:  # the whole request is refused before a record
        manifolds.append(parse_manifold(spec))
        _within_ceilings(spec, manifolds[-1], levels[-1])
    names = tuple(dict.fromkeys(args.checks))
    tasks = [(M, r, args.t, names, args.precision)
             for M in manifolds for r in levels]
    max_jobs = min(args.jobs, _usable_cpus())
    records = []
    start = perf_counter()
    for i, task in enumerate(tasks):
        jobs = min(max_jobs, len(tasks) - i)
        if jobs > 1 and perf_counter() - start >= CHILD_START_S:
            records += _run_tasks(tasks[i:], jobs)
            break
        records.append(_tau_record(*task))
    return records


def _cmd_tref_table(args) -> list[dict]:
    # The closed form needs gcd(r, 3) = 1: other levels are left out.
    levels = [r for r in _parse_levels(args) if r % 3]
    if not levels:
        raise ValueError("tref-table needs a level r with gcd(r, 3) = 1")
    return [_tau_record(TREFOIL_ZERO, r, None, ("closed_matches_general",),
                        args.precision) for r in levels]


RECORD_COMMANDS = {
    "tau": _cmd_tau,
    "tref-table": _cmd_tref_table,
    "integrality-scan": _cmd_tau,
}


def _random_manifold(rng) -> SeifertData:
    """A manifold of 1 to 3 small legs drawn from the ``random.Random`` ``rng``."""
    n = rng.randint(1, 3)
    legs = []
    for _ in range(n):
        while True:
            p = rng.randint(-7, 7)
            q = rng.randint(1, 6)
            if p != 0 and gcd(abs(p), q) == 1:
                break
        legs.append((p, q))
    return parse_normalize(legs)


def _cmd_selftest(args, out) -> int:
    import random  # here: only selftest needs it, and start-up would pay

    rng = random.Random(args.seed)
    flip = args.inject_fault == "flip-oracle-sign"
    results = []  # one per check: True, False, or None when skipped
    for trial in range(args.trials):
        M = _random_manifold(rng)
        r = rng.choice((3, 5, 7, 9))
        t = rng.choice([u for u in range(1, r) if gcd(u, r) == 1])
        xi = xi_closed_form(M, r, t)
        ok = _judge(("oracle",), M, r, t, -xi if flip else xi)["oracle"]
        out.write(f"selftest trial {trial}: {M} r={r} t={t} formula-vs-oracle "
                  f"{'ok' if ok else 'FAIL'}\n")
        u = rng.choice([u for u in range(1, r) if gcd(u, r) == 1])
        good = tuple(good_expansion(p, q)[::-1] for p, q in M.legs)  # reference chains
        checks = {
            f"galois twist by {u}": xi_closed_form(M, r, (t * u) % r) == xi.galois(u),
            "inertia closed form": signature_counts(good) == b_counts_closed_form(M),
            "joint brute force": _judge(("brute",), M, r, t, xi, args.budget)["brute"],
        }
        results += [ok, *checks.values()]
        for name, ok in checks.items():
            if ok is False:
                out.write(f"selftest trial {trial}: {name} FAIL\n")
    failures, skipped = results.count(False), results.count(None)
    out.write(f"selftest: {len(results) - skipped} checks, {failures} failures, "
              f"{skipped} skipped (brute force over --budget)\n")
    return 1 if failures else 0


def _int_range(floor: int, ceiling: int | None = None) -> Callable[[str], int]:
    """An argparse type: an integer of at least ``floor`` (and at most ``ceiling``)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        if ceiling is not None and value > ceiling:
            raise argparse.ArgumentTypeError(f"must be <= {ceiling}, got {value}")
        return value

    return integer


class _Parser(argparse.ArgumentParser):
    """Reads ``-3:5`` in ``--r-range -3:5`` as a value: no option is ``-<digit>``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seifertwrt",
        description="Exact SO(3) quantum invariants of Seifert fibered spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, manifolds: bool):
        if manifolds:
            p.add_argument("manifolds", nargs="+", metavar="MANIFOLD",
                           help='e.g. "X(2/1,3/1,5/1)"')
        p.add_argument("--r", help="comma-separated odd levels, e.g. 5,7,9")
        p.add_argument("--r-range", dest="r_range",
                       help="inclusive range A:B of odd levels")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        # 15 digits are the 53 bits of a double: fewer would report tau'
        # less accurately than the default float path.  The ceiling bounds a
        # record's run time: X(2,3,7) at r = 101 takes 0.15 s at 1000 digits,
        # and a minute at 20000.
        p.add_argument("--precision", type=_int_range(15, MAX_PRECISION),
                       default=None,
                       help=f"mpmath decimal digits (15..{MAX_PRECISION}) for "
                       "numerics (default float)")

    p_tau = sub.add_parser("tau", help="invariants of given manifolds")
    add_common(p_tau, manifolds=True)
    p_tau.add_argument("--t", type=int, default=None,
                       help="evaluation exponent (default: the inverse of 4 mod r)")
    p_tau.add_argument("--oracle", action="append_const", dest="checks",
                       const="oracle", default=[],
                       help="cross-check against the plumbing state sum")
    p_tau.add_argument("--rozansky", action="append_const", dest="checks",
                       const="rozansky",
                       help="cross-check tau' against the numerical residue form")
    p_tau.add_argument("--jobs", type=_int_range(1), default=1,
                       help="processes that compute records, this one included, "
                       "at most one per record and one per usable CPU; child "
                       "processes start only once the request has run for "
                       f"{CHILD_START_S * 1000:g} ms, so short requests run "
                       "here alone; output and errors are those of a serial "
                       "run")

    p_tref = sub.add_parser("tref-table",
                            help="closed-form trefoil-surgery table")
    add_common(p_tref, manifolds=False)
    p_tref.set_defaults(t=None)

    p_scan = sub.add_parser("integrality-scan",
                            help="algebraic-integrality check over levels")
    add_common(p_scan, manifolds=True)
    p_scan.set_defaults(checks=["integrality"], t=None, jobs=1)

    p_self = sub.add_parser("selftest", help="randomized consistency drill")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--trials", type=_int_range(1, MAX_TRIALS), default=8)
    p_self.add_argument("--budget", type=_int_range(1, MAX_BUDGET),
                        default=BRUTE_BUDGET, help="joint brute-force term budget")
    p_self.add_argument("--inject-fault", choices=FAULT_NAMES, default=None,
                        help="deliberately break a route to prove detection")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "selftest":
            return _cmd_selftest(args, out)
        records = RECORD_COMMANDS[args.command](args)
        _emit(records, args.format, out)
    except (ValueError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = any(value is False for rec in records for value in rec["checks"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
