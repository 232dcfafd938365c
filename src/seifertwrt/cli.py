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
import random
import sys
from dataclasses import dataclass, field
from math import gcd

from .cyclotomic import CyclotomicNumber
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


@dataclass
class OutputRecord:
    """One line of CLI output, format-independent."""

    manifold: str
    r: int
    t: int
    nu: int
    b_plus: int
    b_minus: int
    xi: list[list[int]]  # basis coefficients as [numerator, denominator] pairs
    xi_str: str
    tau_re: float
    tau_im: float
    xi_integral: bool
    theta_integral: bool
    checks: dict[str, bool | None] = field(default_factory=dict)

    def to_json_line(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    def failed(self) -> bool:
        return any(v is False for v in self.checks.values())


def _record(res: InvariantResult, checks: dict[str, bool | None]) -> OutputRecord:
    return OutputRecord(
        manifold=str(res.manifold),
        r=res.r,
        t=res.t,
        nu=res.nu,
        b_plus=res.b_plus,
        b_minus=res.b_minus,
        xi=_xi_pairs(res.xi),
        xi_str=str(res.xi),
        tau_re=float(res.tau.real),
        tau_im=float(res.tau.imag),
        xi_integral=res.xi_is_integral,
        theta_integral=res.theta_is_integral,
        checks=checks,
    )


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
) -> OutputRecord:
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


def _run_share(tasks: list[tuple]) -> tuple[list[OutputRecord], Exception | None]:
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


def _run_tasks(tasks: list[tuple], jobs: int) -> list[OutputRecord]:
    """``_tau_record`` over ``tasks`` in ``jobs`` processes, this one included.

    Task ``i`` runs in share ``i % jobs``. Shares ``1..jobs-1`` run in child
    processes and send ``(records, first_error)`` back over a one-way pipe,
    while share 0 runs here. Records come back in task order, and the first
    error in task order is raised, as a serial loop would raise it.
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


def _parse_levels(args) -> list[int]:
    levels: set[int] = set()
    if args.r:
        for chunk in args.r.split(","):
            levels.add(int(chunk))
    if args.r_range:
        try:
            lo, hi = (int(x) for x in args.r_range.split(":"))
        except ValueError as exc:
            raise ValueError(f"bad --r-range {args.r_range!r}, expected A:B") from exc
        for r in range(lo, hi + 1):
            if r % 2 == 1:
                levels.add(r)
    if not levels:
        raise ValueError("no levels given: use --r and/or --r-range")
    for r in levels:
        if r < 3 or r % 2 == 0:
            raise ValueError(f"levels must be odd and >= 3, got {r}")
    return sorted(levels)


def _emit(records: list[OutputRecord], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(rec.to_json_line() + "\n")
        return
    if fmt == "csv":
        check_names = sorted({name for rec in records for name in rec.checks})
        writer = csv.writer(out)
        writer.writerow(
            [
                "manifold",
                "r",
                "t",
                "nu",
                "b_plus",
                "b_minus",
                "tau_re",
                "tau_im",
                "xi_integral",
                "theta_integral",
                "xi",
            ]
            + [f"check_{name}" for name in check_names]
        )
        for rec in records:
            xi_field = ";".join(f"{n}/{d}" for n, d in rec.xi)
            row = [
                rec.manifold,
                rec.r,
                rec.t,
                rec.nu,
                rec.b_plus,
                rec.b_minus,
                repr(rec.tau_re),
                repr(rec.tau_im),
                rec.xi_integral,
                rec.theta_integral,
                xi_field,
            ]
            for name in check_names:
                value = rec.checks.get(name)
                row.append("skip" if value is None else ("pass" if value else "FAIL"))
            writer.writerow(row)
        return
    # text
    for rec in records:
        bits = [
            f"{rec.manifold} r={rec.r} t={rec.t}:",
            f"tau'={rec.tau_re:+.9f}{rec.tau_im:+.9f}i",
            f"nu={rec.nu}",
            f"b+={rec.b_plus}",
            f"b-={rec.b_minus}",
            f"xi[{rec.xi_str}]",
            f"integral(xi)={rec.xi_integral}",
            f"integral(theta)={rec.theta_integral}",
        ]
        for name, value in sorted(rec.checks.items()):
            state = "skip" if value is None else ("pass" if value else "FAIL")
            bits.append(f"{name}={state}")
        out.write(" ".join(bits) + "\n")


def _cmd_tau(args, out) -> int:
    levels = _parse_levels(args)
    tasks = [
        (spec, r, args.t, args.oracle, args.rozansky, args.precision)
        for spec in args.manifolds
        for r in levels
    ]
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        records = _run_tasks(tasks, jobs)
    else:
        records = [_tau_record(*task) for task in tasks]
    _emit(records, args.format, out)
    return 1 if any(rec.failed() for rec in records) else 0


def _cmd_tref_table(args, out) -> int:
    levels = _parse_levels(args)
    records = []
    for r in levels:
        if r % 3 == 0:
            continue  # the closed form needs gcd(r, 3) = 1
        res = tref_closed_form(r, precision=args.precision)
        general = xi_closed_form(TREFOIL_ZERO, r, res.t)
        checks = {"closed_matches_general": res.xi == general}
        records.append(_record(res, checks))
    _emit(records, args.format, out)
    return 1 if any(rec.failed() for rec in records) else 0


def _cmd_integrality_scan(args, out) -> int:
    levels = _parse_levels(args)
    records = []
    for spec in args.manifolds:
        M = parse_manifold(spec)
        for r in levels:
            coprime_legs = sum(1 for p, _ in M.legs if gcd(p, r) == 1)
            hypothesis = coprime_legs >= M.n - 2
            res = tau_prime(M, r)
            required = res.theta_is_integral if res.nu else res.xi_is_integral
            checks = {"integrality": required if hypothesis else None}
            records.append(_record(res, checks))
    _emit(records, args.format, out)
    return 1 if any(rec.failed() for rec in records) else 0


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
    failures = 0
    ran = 0
    for trial in range(args.trials):
        M = _random_manifold(rng)
        r = rng.choice((3, 5, 7, 9))
        t = rng.choice([u for u in range(1, r) if gcd(u, r) == 1])
        xi = xi_closed_form(M, r, t)
        oracle = xi_statesum(M, r, t)
        if args.inject_fault == "flip-oracle-sign":
            oracle = -oracle
        ok = xi == oracle
        ran += 1
        if not ok:
            failures += 1
        out.write(f"selftest trial {trial}: {M} r={r} t={t} formula-vs-oracle "
                  f"{'ok' if ok else 'FAIL'}\n")
        u = rng.choice([u for u in range(1, r) if gcd(u, r) == 1])
        galois_ok = xi_closed_form(M, r, (t * u) % r) == xi.galois(u)
        ran += 1
        if not galois_ok:
            failures += 1
            out.write(f"selftest trial {trial}: galois twist by {u} FAIL\n")
        counts_ok = (
            signature_counts(linking_matrix(plumbing(M))) == b_counts_closed_form(M)
        )
        ran += 1
        if not counts_ok:
            failures += 1
            out.write(f"selftest trial {trial}: inertia closed form FAIL\n")
        total_l = sum(len(c) for c in plumbing(M).chains)
        if r ** (1 + total_l) <= args.budget:
            brute_ok = xi_statesum_brute(M, r, t, budget=args.budget) == xi
            ran += 1
            if not brute_ok:
                failures += 1
                out.write(f"selftest trial {trial}: joint brute force FAIL\n")
    out.write(f"selftest: {ran} checks, {failures} failures\n")
    return 1 if failures else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
        p.add_argument("--precision", type=_positive_int, default=None,
                       help="mpmath decimal digits for numerics (default float)")

    p_tau = sub.add_parser("tau", help="invariants of given manifolds")
    add_common(p_tau, manifolds=True)
    p_tau.add_argument("--t", type=int, default=None,
                       help="evaluation exponent (default: the inverse of 4 mod r)")
    p_tau.add_argument("--oracle", action="store_true",
                       help="cross-check against the plumbing state sum")
    p_tau.add_argument("--rozansky", action="store_true",
                       help="cross-check tau' against the numerical residue form")
    p_tau.add_argument("--jobs", type=_positive_int, default=1,
                       help="processes that compute records, this one included, "
                       "at most one per record; output and errors are those "
                       "of a serial run")

    p_tref = sub.add_parser("tref-table",
                            help="closed-form trefoil-surgery table")
    add_common(p_tref, manifolds=False)

    p_scan = sub.add_parser("integrality-scan",
                            help="algebraic-integrality check over levels")
    add_common(p_scan, manifolds=True)

    p_self = sub.add_parser("selftest", help="randomized consistency drill")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--trials", type=_positive_int, default=8)
    p_self.add_argument("--budget", type=_positive_int, default=20000,
                        help="joint brute-force term budget")
    p_self.add_argument("--inject-fault", choices=FAULT_NAMES, default=None,
                        help="deliberately break a route to prove detection")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "tau":
            return _cmd_tau(args, out)
        if args.command == "tref-table":
            return _cmd_tref_table(args, out)
        if args.command == "integrality-scan":
            return _cmd_integrality_scan(args, out)
        if args.command == "selftest":
            return _cmd_selftest(args, out)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
