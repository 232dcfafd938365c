"""Command-line interface.

Subcommands::

    tau               invariants of given manifolds at given levels
    tref-table        closed-form table for the zero-framed trefoil surgery
    integrality-scan  algebraic-integrality check over a level range
    selftest          randomized formula-vs-oracle consistency drill

Output formats: human ``text`` (default), ``json`` (one object per line),
``csv``.  Exit codes: 0 all requested checks passed, 1 some check failed,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from math import gcd
from time import perf_counter
from typing import Callable

from .cyclotomic import CyclotomicNumber, _check_level
from .numtheory import mod_inverse
from .seifert import (
    SeifertData,
    b_counts_closed_form,
    linking_matrix,
    parse_manifold,
    parse_normalize,
    plumbing,
    signature_counts,
)
from .statesum import BudgetExceeded, xi_statesum, xi_statesum_brute
from .wrt import (
    TREFOIL_ZERO,
    HypothesisViolated,
    InvariantResult,
    tau_from_xi,
    tau_prime,
    tau_rozansky_numeric,
    tref_closed_form,
    xi_closed_form,
)

ROZANSKY_DPS = 30
ROZANSKY_TOL_EXP = -20  # pass iff |difference| < 10**EXP at ROZANSKY_DPS digits
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
    return {
        "manifold": str(res.manifold),
        "r": res.r,
        "t": res.t,
        "nu": res.nu,
        "b_plus": res.b_plus,
        "b_minus": res.b_minus,
        "xi": _xi_pairs(res.xi),
        "xi_str": str(res.xi),
        "tau_re": float(res.tau.real),
        "tau_im": float(res.tau.imag),
        "xi_integral": res.xi_is_integral,
        "theta_integral": res.theta_is_integral,
        "checks": checks,
    }


def _xi_pairs(xi: CyclotomicNumber) -> list[list[int]]:
    """``xi``'s basis coefficients as ``[numerator, denominator]`` in lowest terms."""
    num, den = xi.integer_coefficients()
    return [[n // g, den // g] for n in num for g in (gcd(n, den),)]


def _tau_record(
    spec: str,
    r: int,
    t: int | None,
    want_oracle: bool,
    want_rozansky: bool,
    precision: int | None,
) -> dict:
    M = parse_manifold(spec)
    checks: dict[str, bool | None] = {}
    result = tau_prime(M, r, precision=precision, t=t)
    xi = result.xi
    if want_oracle:
        checks["oracle"] = xi_statesum(M, r, result.t) == xi
    if want_rozansky:
        try:
            import mpmath

            with mpmath.workdps(ROZANSKY_DPS):
                b = tau_rozansky_numeric(M, r, precision=ROZANSKY_DPS)
                # tau' is xi at zeta^(1/4 mod r); twist xi there from zeta^t.
                quarter = mod_inverse(4, r)
                at_quarter = xi
                if result.t != quarter:
                    at_quarter = xi.galois(quarter * mod_inverse(result.t, r))
                a = tau_from_xi(at_quarter, result.nu, precision=ROZANSKY_DPS)
                checks["rozansky"] = bool(
                    abs(a - b) < mpmath.mpf(10) ** ROZANSKY_TOL_EXP
                )
        except HypothesisViolated:
            checks["rozansky"] = None
    return _record(result, checks)


def _run_share(tasks: list[tuple]) -> tuple[list[dict], Exception | None]:
    """The records of ``tasks`` in order, up to the first error, and that error."""
    records = []
    for task in tasks:
        try:
            records.append(_tau_record(*task))
        except Exception as exc:
            return records, exc
    return records, None


def _send_share(conn, tasks: list[tuple]) -> None:
    """Child-process target: compute one share and send it to the parent."""
    with conn:
        conn.send(_run_share(tasks))


def _run_tasks(tasks: list[tuple], jobs: int) -> list[dict]:
    """``_tau_record`` over ``tasks`` in ``jobs`` processes, this one included.

    ``_cmd_tau`` calls this only for the records left once a request has run
    for ``CHILD_START_S``; shorter requests never start a child.  Task ``i``
    runs in share ``i % jobs``. Shares ``1..jobs-1`` run in child processes
    and send ``(records, first_error)`` back over a one-way pipe, while share
    0 runs here. Records come back in task order, and the first error in task
    order is raised, as a serial loop would raise it.
    """
    # Imported here: serial runs need no child processes, and the import
    # adds start-up time and resident memory.
    import multiprocessing

    children = []
    shares = []
    try:
        for k in range(1, jobs):
            recv_end, send_end = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_send_share, args=(send_end, tasks[k::jobs])
            )
            child.start()
            send_end.close()
            children.append((child, recv_end))
        shares.append(_run_share(tasks[0::jobs]))
        for child, recv_end in children:
            try:
                shares.append(recv_end.recv())
            except EOFError:
                shares.append(None)
    finally:
        # Closing the read end first lets a child still sending fail and exit.
        for child, recv_end in children:
            recv_end.close()
            child.join()
    for k, share in enumerate(shares[1:], start=1):
        if share is None:
            raise RuntimeError(
                f"worker process for share {k} exited with code "
                f"{children[k - 1][0].exitcode} before sending its records"
            )
    errors = [
        (k + jobs * len(records), exc)
        for k, (records, exc) in enumerate(shares)
        if exc is not None
    ]
    if errors:
        raise min(errors, key=lambda item: item[0])[1]
    return [shares[i % jobs][0][i // jobs] for i in range(len(tasks))]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_levels(args) -> list[int]:
    levels: set[int] = set()
    if args.r:
        try:
            levels.update(int(chunk) for chunk in args.r.split(","))
        except ValueError as exc:
            raise ValueError(
                f"bad --r {args.r!r}, expected comma-separated levels"
            ) from exc
    if args.r_range:
        try:
            lo, hi = (int(x) for x in args.r_range.split(":"))
        except ValueError as exc:
            raise ValueError(f"bad --r-range {args.r_range!r}, expected A:B") from exc
        odd = range(lo | 1, hi + 1, 2)
        if not odd:
            raise ValueError(f"--r-range {args.r_range!r} holds no odd level")
        levels.update(odd)
    if not levels:
        raise ValueError("no levels given: use --r and/or --r-range")
    for r in levels:
        _check_level(r)
    return sorted(levels)


def _emit(records: list[dict], fmt: str, out) -> None:
    """Write ``records`` as JSON lines, one CSV table or one text line each."""
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
        return
    check_names = sorted({name for rec in records for name in rec["checks"]})
    if fmt == "csv":
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
    tasks = [
        (spec, r, args.t, args.oracle, args.rozansky, args.precision)
        for spec in args.manifolds
        for r in levels
    ]
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
    levels = _parse_levels(args)
    records = []
    for r in levels:
        if r % 3 == 0:
            continue  # the closed form needs gcd(r, 3) = 1
        res = tref_closed_form(r, precision=args.precision)
        general = xi_closed_form(TREFOIL_ZERO, r, res.t)
        checks = {"closed_matches_general": res.xi == general}
        records.append(_record(res, checks))
    return records


def _cmd_integrality_scan(args) -> list[dict]:
    levels = _parse_levels(args)
    records = []
    for spec in args.manifolds:
        M = parse_manifold(spec)
        for r in levels:
            coprime_legs = sum(1 for p, _ in M.legs if gcd(p, r) == 1)
            hypothesis = coprime_legs >= M.n - 2
            res = tau_prime(M, r, precision=args.precision)
            required = res.theta_is_integral if res.nu else res.xi_is_integral
            checks = {"integrality": required if hypothesis else None}
            records.append(_record(res, checks))
    return records


RECORD_COMMANDS = {
    "tau": _cmd_tau,
    "tref-table": _cmd_tref_table,
    "integrality-scan": _cmd_integrality_scan,
}


def _random_manifold(rng: random.Random) -> SeifertData:
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
    rng = random.Random(args.seed)
    results = []  # one per check: True, False, or None when skipped
    for trial in range(args.trials):
        M = _random_manifold(rng)
        r = rng.choice((3, 5, 7, 9))
        t = rng.choice([u for u in range(1, r) if gcd(u, r) == 1])
        xi = xi_closed_form(M, r, t)
        oracle = xi_statesum(M, r, t)
        if args.inject_fault == "flip-oracle-sign":
            oracle = -oracle
        ok = xi == oracle
        out.write(f"selftest trial {trial}: {M} r={r} t={t} formula-vs-oracle "
                  f"{'ok' if ok else 'FAIL'}\n")
        u = rng.choice([u for u in range(1, r) if gcd(u, r) == 1])
        inertia = signature_counts(linking_matrix(plumbing(M)))
        brute = None  # skipped when its terms are over --budget
        if r ** (1 + sum(map(len, plumbing(M).chains))) <= args.budget:
            brute = xi_statesum_brute(M, r, t, budget=args.budget) == xi
        checks = {
            f"galois twist by {u}": xi_closed_form(M, r, (t * u) % r) == xi.galois(u),
            "inertia closed form": inertia == b_counts_closed_form(M),
            "joint brute force": brute,
        }
        results += [ok, *checks.values()]
        for name, ok in checks.items():
            if ok is False:
                out.write(f"selftest trial {trial}: {name} FAIL\n")
    failures, skipped = results.count(False), results.count(None)
    out.write(f"selftest: {len(results) - skipped} checks, {failures} failures, "
              f"{skipped} skipped (brute force over --budget)\n")
    return 1 if failures else 0


def _int_at_least(floor: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least ``floor``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        # less accurately than the default float path.
        p.add_argument("--precision", type=_int_at_least(15), default=None,
                       help="mpmath decimal digits (>= 15) for numerics "
                       "(default float)")

    p_tau = sub.add_parser("tau", help="invariants of given manifolds")
    add_common(p_tau, manifolds=True)
    p_tau.add_argument("--t", type=int, default=None,
                       help="evaluation exponent (default: the inverse of 4 mod r)")
    p_tau.add_argument("--oracle", action="store_true",
                       help="cross-check against the plumbing state sum")
    p_tau.add_argument("--rozansky", action="store_true",
                       help="cross-check tau' against the numerical residue form")
    p_tau.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="processes that compute records, this one included, "
                       "at most one per record and one per usable CPU; child "
                       "processes start only once the request has run for "
                       f"{CHILD_START_S * 1000:g} ms, so short requests run "
                       "here alone; output and errors are those of a serial "
                       "run")

    p_tref = sub.add_parser("tref-table",
                            help="closed-form trefoil-surgery table")
    add_common(p_tref, manifolds=False)

    p_scan = sub.add_parser("integrality-scan",
                            help="algebraic-integrality check over levels")
    add_common(p_scan, manifolds=True)

    p_self = sub.add_parser("selftest", help="randomized consistency drill")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--trials", type=_int_at_least(1), default=8)
    p_self.add_argument("--budget", type=_int_at_least(1), default=20000,
                        help="joint brute-force term budget")
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
    except (ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = any(value is False for rec in records for value in rec["checks"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
