#!/usr/bin/env python3
"""End-to-end benchmark of the ``seifertwrt`` CLI, with a traced per-layer run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One closed-loop client drives the CLI in-process: each request is one
``seifertwrt.cli.main(argv)`` call with stdout captured, sent only after the
previous one returned.  The run starts in a fresh interpreter, so the
package's caches start cold as they do for one CLI invocation.  A run executes
whole passes over the workload's requests (each pass in a seeded order) and
starts another pass only while it is expected to end within ``--seconds``;
every pass holds the same requests, so figures from runs of different length
describe the same mix.  Every output is checked: against the stored reference
records (``reference.json``) on ``table``, ``batch`` and ``high_level``, and by
the program's own oracle and residue cross-checks on ``verify``.

With ``--trace 0`` the run reports the end-to-end metrics.  Request times are
scaled to a reference machine speed by the probe in ``speed.py``, because the
shared machine's speed drifts by more than the regressions the bounds must
catch; the raw figures are printed alongside.  ``latency_p50_ms`` is the
Harrell-Davis median of a pass's request latencies, the median over passes.
``setup_s`` is the median of fresh-interpreter set-up probes.
``failed_frac``, ``latency_tail_ms`` and, on high_level, the latency per level
and ``r_exponent`` are report lines: the first is 0 on a correct run, and the
others are not defined on every workload.

With ``--trace 1`` the run makes one traced pass (``spans.py``), then untraced
passes, and reports the per-layer metrics and the tracing overhead.

Report lines go to stdout; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics that ``BENCHMARK.json``
names for the mode.  Exit status: 0 when every output was correct, 1 when
some was not, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_PROBES = 15
TAIL_BEYOND = 10
EXACT_FIELDS = ("t", "nu", "b_plus", "b_minus", "xi", "xi_integral", "theta_integral")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


sys.path[:0] = [str(SRC), str(HERE)]
try:
    import seifertwrt.cli as cli
except ImportError as exc:
    die(f"cannot import seifertwrt from {SRC}: {exc}")
if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
    die(f"seifertwrt was imported from {cli.__file__}, not from {SRC}")

import spans  # noqa: E402  (needs seifertwrt on the path)
import speed  # noqa: E402
import workloads  # noqa: E402

PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import seifertwrt.cli\n"
    "seifertwrt.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Sample:
    request: workloads.Request
    start: float
    end: float
    records: int
    failure: str | None
    latency_s: float = 0.0  # measured, minus speed probes run inside it
    scaled_s: float = 0.0  # latency_s at the reference speed


@dataclass
class PassResult:
    samples: list[Sample] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def busy_s(self) -> float:
        return sum(s.end - s.start for s in self.samples)


def measure_setup() -> list[float]:
    """``import seifertwrt.cli`` plus ``build_parser()`` in fresh interpreters.

    The times are not scaled by the speed probe: a probe short enough to
    bracket one import added more noise than it removed.  The first probe,
    which may compile the package's bytecode, is discarded.
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        try:
            done = subprocess.run(
                [sys.executable, "-c", PROBE, str(SRC)],
                capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
            )
            times.append(float(done.stdout.strip()))
        except (subprocess.SubprocessError, ValueError) as exc:
            die(f"set-up probe failed: {exc}")
    return times[1:]


def call(argv: tuple[str, ...]) -> tuple[float, float, object, str]:
    """One CLI request: its start and end, its exit code (or exception), stdout."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a failed benchmark
        code = repr(exc)
    return t0, time.perf_counter(), code, out.getvalue()


def float_bound(ref: dict) -> float:
    """Error bound of the float embedding of the reference ``xi``.

    Each of the ``phi`` terms ``c_k * zeta^k`` is rounded a few times and the
    sum adds at most ``phi`` further roundings, all relative to ``sum |c_k|``.
    """
    size = sum(abs(n) / d for n, d in ref["xi"])
    return 4 * (len(ref["xi"]) + 4) * sys.float_info.epsilon * max(size, 1.0)


def check(workload: str, req: workloads.Request, code, stdout: str,
          reference: dict) -> tuple[int, str | None]:
    """Number of records and the reason the request failed, if it did."""
    if code != 0:
        return 0, f"exit status {code!r}"
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        keys = sorted((rec["manifold"], rec["r"]) for rec in records)
    except (ValueError, KeyError, TypeError):
        return 0, "unparseable output"
    if keys != sorted(req.keys):
        return len(records), f"records {keys} instead of {sorted(req.keys)}"
    for rec in records:
        where = f"{rec['manifold']} r={rec['r']}"
        if workload == "verify":
            checks = rec.get("checks", {})
            if checks.get("oracle") is not True:
                return len(records), f"{where}: oracle {checks.get('oracle')!r}"
            if "rozansky" not in checks or checks["rozansky"] is False:
                return len(records), f"{where}: rozansky {checks.get('rozansky')!r}"
            continue
        ref = reference.get(f"{rec['manifold']}|{rec['r']}")
        if ref is None:
            return len(records), f"{where}: no reference record"
        for name in EXACT_FIELDS:
            if rec.get(name) != ref[name]:
                return len(records), f"{where}: {name} differs from the reference"
        bound = float_bound(ref)
        for name in ("tau_re", "tau_im"):
            if not abs(rec[name] - ref[name]) <= bound:
                return len(records), f"{where}: {name} off by more than {bound:.3g}"
    return len(records), None


def run_pass(workload: str, order: list[workloads.Request], reference: dict,
             recorder: spans.Recorder | None = None,
             meter: speed.Speedometer | None = None) -> PassResult:
    result = PassResult()
    t0 = time.perf_counter()
    for i, req in enumerate(order):
        if recorder is not None:
            recorder.request = i
        # The probe must not take a core from the program's workers.
        quiet = meter.paused() if meter and req.workers > 1 else contextlib.nullcontext()
        with quiet:
            start, end, code, stdout = call(req.argv)
        records, failure = check(workload, req, code, stdout, reference)
        result.samples.append(Sample(req, start, end, records, failure))
    result.wall_s = time.perf_counter() - t0
    return result


def run_passes(workload: str, reqs: list[workloads.Request], seed: int,
               seconds: float, reference: dict, first_index: int = 0,
               meter: speed.Speedometer | None = None) -> list[PassResult]:
    """Whole passes, at least one, while the next is expected to end in time."""
    passes: list[PassResult] = []
    t0 = time.perf_counter()
    while True:
        order = workloads.pass_order(reqs, seed, first_index + len(passes))
        passes.append(run_pass(workload, order, reference, meter=meter))
        if time.perf_counter() - t0 + passes[-1].wall_s > seconds:
            return passes


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, sorted(latencies)[rank - 1]


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``, by continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 10_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * f


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A Beta-weighted mean of all order statistics instead of the middle one.
    The sample median of a workload whose requests fall into two clusters
    (batch: 1-2 legs against 3-4 legs) jumps between the clusters from run
    to run; this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a = b = (n + 1) / 2
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def pass_p50(latencies_per_pass: list[list[float]]) -> float:
    """Median over passes of each pass's Harrell-Davis median.

    Where the estimate falls between two clusters it depends on the number of
    samples, so it is taken per pass, whose size is fixed, and not over all
    the passes that happened to fit in the run.
    """
    return statistics.median(hd_median(pass_) for pass_ in latencies_per_pass)


def fit_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log latency on log r."""
    xs = [math.log(r) for r, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def level_latencies(samples: list[Sample]) -> dict[str, dict[int, float]]:
    """Median scaled latency per manifold and level, for one-record requests."""
    groups: dict[tuple[str, int], list[float]] = {}
    for s in samples:
        (spec, r), = s.request.keys
        groups.setdefault((spec, r), []).append(s.scaled_s)
    out: dict[str, dict[int, float]] = {}
    for (spec, r), values in sorted(groups.items()):
        out.setdefault(spec, {})[r] = statistics.median(values)
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Report:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, dict] = {}

    def line(self, text: str) -> None:
        print(f"{self.workload:<10} {text}")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.line(f"{name:<36} {value:>14.6g} {unit}")


def traced_metrics(name: str, reqs: list, args, reference: dict,
                   report: Report) -> tuple[dict[str, float], list[Sample]]:
    """One traced pass, then untraced passes to measure the tracing overhead."""
    SCRATCH.mkdir(exist_ok=True)
    spill = SCRATCH / f"workers-{os.getpid()}"
    spill.mkdir()
    tracer = spans.Tracer(spill)
    tracer.install()
    try:
        traced = run_pass(name, workloads.pass_order(reqs, args.seed, 0),
                          reference, tracer.recorder)
    finally:
        tracer.uninstall()
    states = tracer.collect()
    spill.rmdir()
    trace_file = SCRATCH / f"spans-{name}-seed{args.seed}.jsonl.gz"
    spans.write_spans(trace_file, states)
    passes = run_passes(name, reqs, args.seed, args.seconds, reference, 1)

    layer = spans.layer_metrics(states, sum(s.records for s in traced.samples))
    untraced_s = statistics.median(p.busy_s for p in passes)
    layer["tracing.overhead_s"] = traced.busy_s - untraced_s
    report.line(f"traced pass busy_s={traced.busy_s:.3f}, untraced pass busy_s="
                f"{untraced_s:.3f} (median of {len(passes)}); spans in {trace_file}")
    return layer, traced.samples + [s for p in passes for s in p.samples]


def end_to_end_metrics(name: str, reqs: list, args, reference: dict,
                       report: Report) -> tuple[dict[str, float], list[Sample]]:
    """Set-up probes and untraced passes, timed against the speed probe."""
    setup = measure_setup()
    with speed.Speedometer() as meter:
        passes = run_passes(name, reqs, args.seed, args.seconds, reference, meter=meter)
    samples = [s for p in passes for s in p.samples]
    for s in samples:
        s.latency_s = s.end - s.start - meter.probe_time(s.start, s.end)
        s.scaled_s = s.latency_s * meter.scale(s.start, s.end)
    records = sum(s.records for s in samples)
    raw = [s.latency_s for s in samples]
    scaled = [s.scaled_s for s in samples]
    raw_passes = [[s.latency_s for s in p.samples] for p in passes]
    scaled_passes = [[s.scaled_s for s in p.samples] for p in passes]
    values = {
        "setup_s": statistics.median(setup),
        "records_per_s": records / sum(scaled),
        "latency_p50_ms": 1e3 * pass_p50(scaled_passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report.line(f"passes={len(passes)} requests={len(samples)} records={records} "
                f"raw busy_s={sum(raw):.3f} scaled busy_s={sum(scaled):.3f} "
                f"speed probes={len(meter.durations)} "
                f"median probe={1e3 * statistics.median(meter.durations):.3f} ms "
                f"(reference {1e3 * speed.REFERENCE_S:g} ms)")
    report.line(f"raw records_per_s={records / sum(raw):.6g} "
                f"latency_p50_ms={1e3 * pass_p50(raw_passes):.6g}")
    report.line(f"setup_s probes: {' '.join(f'{t:.4f}' for t in setup)}")
    t = tail(scaled)
    if t is None:
        report.line(f"latency_tail_ms undefined: {len(scaled)} samples, "
                    f"need more than {TAIL_BEYOND}")
    else:
        report.line(f"latency_tail_ms p{t[0]:.1f} {1e3 * t[1]:.6g} ms "
                    f"(n={len(scaled)}, {TAIL_BEYOND} beyond)")
    if name == "high_level":
        slopes = []
        for manifold, by_r in level_latencies(samples).items():
            cells = " ".join(f"r={r}:{1e3 * v:.1f}" for r, v in by_r.items())
            report.line(f"latency_ms {manifold} {cells}")
            if len(by_r) > 1:
                slopes.append(fit_exponent(list(by_r.items())))
                report.line(f"r_exponent {manifold} {slopes[-1]:.4f}")
        if slopes:
            report.line(f"r_exponent {statistics.fmean(slopes):.4f} "
                        f"(mean of {len(slopes)} manifolds)")
    return values, samples


def run_workload(args, reference: dict, spec: dict) -> int:
    name = args.workload
    reqs = workloads.requests(name, args.seed)
    if args.limit:
        reqs = reqs[: args.limit]
    report = Report(name)
    report.line(
        f"context: nproc={os.cpu_count()} python={platform.python_version()} "
        f"mpmath={importlib.metadata.version('mpmath')} commit={git_commit()} "
        f"seed={args.seed} trace={args.trace} requests_per_pass={len(reqs)}"
    )
    if args.trace:
        values, samples = traced_metrics(name, reqs, args, reference, report)
        wanted = spec["per_layer"]
    else:
        values, samples = end_to_end_metrics(name, reqs, args, reference, report)
        wanted = spec["end_to_end"]
    failures = [s for s in samples if s.failure]
    for s in failures[:5]:
        report.line(f"FAILED {' '.join(s.request.argv)}: {s.failure}")
    report.line(f"failed_frac {len(failures) / len(samples):.6g} "
                f"({len(failures)}/{len(samples)})")
    for metric in wanted:
        report.metric(metric["name"], values[metric["name"]], metric["unit"])
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": report.metrics,
    }))
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload, each in its own fresh interpreter."""
    merged: dict[str, dict] = {}
    attempted = failed = 0
    status = 0
    for name in workloads.NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.limit:
            argv += ["--limit", str(args.limit)]
        if args.reference:
            argv += ["--reference", args.reference]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            die(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        status = max(status, done.returncode)
        for key, value in result["metrics"].items():
            merged[f"{name}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0,
                        help="use only the first N requests of a pass (self-check)")
    parser.add_argument("--reference", default=None,
                        help="reference records to check against (self-check)")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(Path(args.reference or HERE / "reference.json").read_text())
    return run_workload(args, reference["records"], spec)


if __name__ == "__main__":
    sys.exit(main())
