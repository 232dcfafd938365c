"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of every ``seifertwrt`` module and the
hot methods of ``CyclotomicNumber`` from the outside; the package itself is not
modified.  ``wrt``, ``statesum`` and ``cli`` bind names at import
(``from .cyclotomic import root_power``), so each wrapper is installed at every
binding site in the package, not only in the defining module.

Spans are kept in memory in flat arrays (name, parent, start, end, request)
and written out when the run ends.  Worker processes forked by the CLI's
process pool inherit the wrappers; each one starts an empty recorder after the
fork and writes its spans to ``worker-<pid>.json`` in the run's spill
directory when it exits, and the parent merges those files.
"""

from __future__ import annotations

import gzip
import inspect
import json
import multiprocessing.util
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

MODULES = ("numtheory", "cyclotomic", "seifert", "wrt", "statesum", "cli")
# Private CLI entry points that mark request boundaries: the record span is the
# unit of work a pool worker runs.
EXTRA = {"cli": ("_tau_record",)}
# CyclotomicNumber methods and the span names they are recorded under.
METHODS = {
    "__init__": "cyclotomic.init",
    "__mul__": "cyclotomic.mul",
    "__rmul__": "cyclotomic.mul",
    "inverse": "cyclotomic.inverse",
    "galois": "cyclotomic.galois",
    "to_complex": "cyclotomic.to_complex",
}
RECORD_SPAN = "cli._tau_record"
MAIN_SPAN = "cli.main"


class Recorder:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.request = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        """Drop recorded spans and counters; the wrappers stay valid."""
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.req = array("i")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.closed_form_args: list = []
        self.dp_keys: list = []
        self.cache_base = cache_snapshot()

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so that each call records one span named ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        rec = self

        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(name_id)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.req.append(rec.request)
            rec.end.append(0)
            rec._stack.append(idx)
            rec.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter_ns()
                rec._stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def state(self) -> dict:
        """Spans and counters as plain data; cache counts since the reset."""
        spans = [
            [self.names[n], p, s, e, q]
            for n, p, s, e, q in zip(self.name_id, self.parent, self.start,
                                     self.end, self.req)
        ]
        now = cache_snapshot()
        caches = {k: [now[k][0] - self.cache_base[k][0],
                      now[k][1] - self.cache_base[k][1]] for k in now}
        return {
            "pid": os.getpid(),
            "spans": spans,
            "counters": dict(self.counters),
            "closed_form_args": self.closed_form_args,
            "dp_keys": self.dp_keys,
            "caches": caches,
        }


def cache_snapshot() -> dict[str, tuple[int, int]]:
    """``(hits, misses)`` of the package's lru caches the metrics read."""
    from seifertwrt import cyclotomic, numtheory

    out = {}
    for name, fn in (("cyclotomic_polynomial", cyclotomic.cyclotomic_polynomial),
                     ("euler_phi", cyclotomic.euler_phi),
                     ("good_expansion", numtheory.good_expansion)):
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out


def _after_mul(rec: Recorder, args, result) -> None:
    if result is NotImplemented:
        return
    a, b = args
    nonzero_a = sum(1 for n in a.integer_coefficients()[0] if n)
    if hasattr(b, "integer_coefficients"):
        nonzero_b = sum(1 for n in b.integer_coefficients()[0] if n)
    else:
        nonzero_b = 1 if b else 0
    rec.counters["mul.coeff_products"] += nonzero_a * nonzero_b
    _note_bits(rec, result)


def _after_init(rec: Recorder, args, result) -> None:
    _note_bits(rec, args[0])


def _note_bits(rec: Recorder, x) -> None:
    num, den = x.integer_coefficients()
    bits = max(den.bit_length(), max((abs(n).bit_length() for n in num), default=0))
    if bits > rec.counters["max_coeff_bits"]:
        rec.counters["max_coeff_bits"] = bits


def _after_closed_form(rec: Recorder, args, result) -> None:
    M, r = args[0], args[1]
    rec.closed_form_args.append([list(map(list, M.legs)), r])


def _after_dp(rec: Recorder, args, result) -> None:
    rec.dp_keys.append([list(result.framings), result.r, result.t])


AFTER = {
    "cyclotomic.mul": _after_mul,
    "cyclotomic.init": _after_init,
    "wrt.xi_closed_form": _after_closed_form,
    "statesum.leg_sum_dp": _after_dp,
}


class Tracer:
    """Installs a :class:`Recorder` into the loaded ``seifertwrt`` package."""

    def __init__(self, spill_dir: Path) -> None:
        self.recorder = Recorder()
        self.spill_dir = spill_dir
        self._undo: list[tuple[object, str, object]] = []
        multiprocessing.util.register_after_fork(self, Tracer._in_child)

    def install(self) -> None:
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "seifertwrt" or name.startswith("seifertwrt.")]
        from seifertwrt import cyclotomic

        for short in MODULES:
            mod = sys.modules[f"seifertwrt.{short}"]
            names = [n for n, obj in vars(mod).items()
                     if not n.startswith("_") and inspect.isfunction(obj)
                     and obj.__module__ == mod.__name__]
            for attr in sorted(names) + list(EXTRA.get(short, ())):
                original = getattr(mod, attr)
                name = f"{short}.{attr}"
                wrapped = self.recorder.span(name, original, AFTER.get(name))
                for site in package:
                    for site_attr, value in list(vars(site).items()):
                        if value is original:
                            self._set(site, site_attr, wrapped)
        cls = cyclotomic.CyclotomicNumber
        wrapped_methods: dict[str, object] = {}
        for attr, name in METHODS.items():
            if name not in wrapped_methods:
                wrapped_methods[name] = self.recorder.span(
                    name, vars(cls)[attr], AFTER.get(name))
            self._set(cls, attr, wrapped_methods[name])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _in_child(self) -> None:
        if not self._undo:
            return
        self.recorder._reset()
        multiprocessing.util.Finalize(None, self._spill, exitpriority=10)

    def _spill(self) -> None:
        path = self.spill_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.recorder.state()))

    def collect(self) -> list[dict]:
        """This process's state followed by every worker's, spill files removed."""
        states = [self.recorder.state()]
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            states.append(json.loads(path.read_text()))
            path.unlink()
        return states


def write_spans(path: Path, states: list[dict]) -> None:
    """All spans of a run, one JSON array per line: pid, name, parent, start, end, request."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        for state in states:
            for span in state["spans"]:
                out.write(json.dumps([state["pid"]] + span) + "\n")


def _union_within(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def layer_metrics(states: list[dict], records: int) -> dict[str, float]:
    """Per-layer metrics from the merged spans and counters of one traced pass.

    Self time is a span's duration minus the part covered by its children.
    Worker-side record spans count as children of the ``cli.main`` span of
    the same request, so ``cli.dispatch_s`` is what ``main`` spends outside
    any record: pool start-up, pickling and the result round trip.
    """
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    worker_records: dict[int, list[tuple[int, int]]] = {}
    for state in states[1:]:
        for name, parent, s, e, req in state["spans"]:
            if name == RECORD_SPAN and parent == -1:
                worker_records.setdefault(req, []).append((s, e))
    dispatch_ns = 0
    for state in states:
        spans = state["spans"]
        children: dict[int, list[tuple[int, int]]] = {}
        record_children: dict[int, list[tuple[int, int]]] = {}
        for name, parent, s, e, req in spans:
            if parent >= 0:
                children.setdefault(parent, []).append((s, e))
                if name == RECORD_SPAN:
                    record_children.setdefault(parent, []).append((s, e))
        for idx, (name, parent, s, e, req) in enumerate(spans):
            kids = children.get(idx, [])
            if name == MAIN_SPAN:
                remote = worker_records.get(req, [])
                kids = kids + remote
                records_in = record_children.get(idx, []) + remote
                dispatch_ns += (e - s) - _union_within(records_in, s, e)
            calls[name] += 1
            self_ns[name] += (e - s) - _union_within(kids, s, e)

    counters: Counter = Counter()
    caches: Counter = Counter()
    closed_form_args: list = []
    dp_keys: list = []
    max_bits = 0
    for state in states:
        max_bits = max(max_bits, state["counters"].get("max_coeff_bits", 0))
        counters.update({k: v for k, v in state["counters"].items()
                         if k != "max_coeff_bits"})
        for key, (hits, misses) in state["caches"].items():
            caches[f"{key}.hits"] += hits
            caches[f"{key}.misses"] += misses
        closed_form_args += state["closed_form_args"]
        dp_keys += state["dp_keys"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def module_self(module: str) -> float:
        return sum(v for k, v in self_ns.items() if k.startswith(module + ".")) / 1e9

    seen: set = set()
    reused = 0
    for key in dp_keys:
        frozen = (tuple(key[0]), key[1], key[2])
        reused += frozen in seen
        seen.add(frozen)

    out: dict[str, float] = {}
    for name in ("cyclotomic.inverse", "cyclotomic.init", "cyclotomic.mul",
                 "cyclotomic.galois", "cyclotomic.to_complex",
                 "wrt.tau_rozansky_numeric", "wrt.xi_closed_form",
                 "wrt.tau_prime", "wrt.leg_data", "statesum.xi_statesum",
                 "statesum.leg_sum_dp"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    out["cyclotomic.mul.coeff_products"] = counters["mul.coeff_products"]
    out["cyclotomic.max_coeff_bits"] = max_bits
    cache_hits = caches["cyclotomic_polynomial.hits"] + caches["euler_phi.hits"]
    cache_all = cache_hits + caches["cyclotomic_polynomial.misses"] + caches["euler_phi.misses"]
    out["cyclotomic.cache_hit_ratio"] = ratio(cache_hits, cache_all)
    out["wrt.closed_form_evals_per_record"] = ratio(calls["wrt.xi_closed_form"], records)
    out["wrt.active_color_ratio"] = active_color_ratio(closed_form_args)
    out["statesum.leg_table_reuse_ratio"] = ratio(reused, len(dp_keys))
    out["cli.self_s"] = module_self("cli")
    out["cli.dispatch_s"] = dispatch_ns / 1e9
    out["seifert.self_s"] = module_self("seifert")
    out["seifert.signature_counts.self_s"] = self_ns["seifert.signature_counts"] / 1e9
    out["numtheory.self_s"] = module_self("numtheory")
    out["numtheory.good_expansion.hit_ratio"] = ratio(
        caches["good_expansion.hits"],
        caches["good_expansion.hits"] + caches["good_expansion.misses"])
    return out


def active_color_ratio(closed_form_args: list) -> float:
    """Share of colors ``j`` at which every leg's ``chi_terms(j)`` is non-empty.

    Called after the tracer is uninstalled, so ``leg_data`` is not traced.
    """
    from seifertwrt.wrt import leg_data

    active = total = 0
    for legs, r in closed_form_args:
        data = [leg_data(p, q, r) for p, q in legs]
        total += r - 1
        active += sum(1 for j in range(1, r) if all(leg.chi_terms(j) for leg in data))
    return active / total if total else 0.0
