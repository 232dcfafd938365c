from __future__ import annotations

import ast
import csv
import io
import itertools
import json
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seifertwrt
from seifertwrt import cli, wrt
from seifertwrt.cli import _xi_pairs, build_parser, main
from seifertwrt.cyclotomic import CyclotomicNumber
from seifertwrt.numtheory import mod_inverse
from seifertwrt.seifert import parse_manifold


README = Path(__file__).resolve().parents[1] / "README.md"
RECORD_KEYS = [
    "b_minus", "b_plus", "checks", "manifold", "nu", "r", "t", "tau_im", "tau_re",
    "theta_integral", "xi", "xi_integral", "xi_str",
]


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """The ``$ seifertwrt ...`` examples of README's "Command line" section.

    Each is its argv and the output lines shown under it; a first line
    ``...`` stands for lines left out.
    """
    section = README.read_text().split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    examples = []
    for block in section.split("\n$ seifertwrt ")[1:]:
        command, *lines = block.split("\n")
        shown = list(itertools.takewhile(
            lambda line: line and not line.startswith("```"), lines))
        examples.append((shlex.split(command), shown))
    return examples


def test_readme_command_line_examples(capsys):
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["tau", "tau", "tref-table", "selftest"]
    for argv, shown in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if shown[0] == "...":
            assert out.endswith("\n" + "\n".join(shown[1:]) + "\n"), argv
        else:
            assert out == "\n".join(shown) + "\n", argv


def test_readme_library_quick_start():
    # Every expression of the example equals the value its comment shows, and
    # the sentence after it names the package's exports, no more and no less.
    section = README.read_text().split("\n## Library quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code, prose = section.split("```python\n", 1)[1].split("\n```\n", 1)
    namespace, shown = {}, 0
    for line in code.splitlines():
        source, _, comment = line.partition("#")
        if not source.strip():
            continue
        if not isinstance(ast.parse(source).body[0], ast.Expr):
            exec(source, namespace)
            continue
        value, comment = eval(source, namespace), comment.strip()
        if isinstance(value, complex):
            assert abs(complex(comment) - value) < 1e-12, line
        else:
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            assert comment.startswith(text), line
        shown += 1
    assert shown == 5
    exports = prose.split("The package itself exports", 1)[1].split(";", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", exports)) == sorted(seifertwrt.__all__)


def test_tau_failed_check_exits_one(capsys, monkeypatch):
    # An oracle that disagrees everywhere; the residue form needs a prime
    # level, so it is skipped at r = 9.
    real = cli.xi_statesum
    monkeypatch.setattr(cli, "xi_statesum", lambda M, r, t: -real(M, r, t))
    argv = ["tau", "X(2/1,3/1,9/1)", "--r", "5,9", "--oracle", "--rozansky"]
    text = (
        "X(2/1,3/1,9/1) r=5 t=4: tau'=+1.000000000+0.000000000i nu=0 b+=6 b-=1 "
        "xi[1] integral(xi)=True integral(theta)=True oracle=FAIL rozansky=pass\n"
        "X(2/1,3/1,9/1) r=9 t=7: tau'=-7.290859369+0.000000000i nu=0 b+=6 b-=1 "
        "xi[-2 - z + z^2 + 2*z^4 + 3*z^5] integral(xi)=True integral(theta)=True "
        "oracle=FAIL rozansky=skip\n"
    )
    assert run_cli(capsys, *argv) == (1, text, "")
    table = (
        "manifold,r,t,nu,b_plus,b_minus,tau_re,tau_im,xi_integral,theta_integral,"
        "xi,check_oracle,check_rozansky\r\n"
        '"X(2/1,3/1,9/1)",5,4,0,6,1,1.0,0.0,True,True,1/1;0/1;0/1;0/1,FAIL,pass\r\n'
        '"X(2/1,3/1,9/1)",9,7,0,6,1,-7.2908593693815895,0.0,'
        "True,True,-2/1;-1/1;1/1;0/1;2/1;3/1,FAIL,skip\r\n"
    )
    assert run_cli(capsys, *argv, "--format", "csv") == (1, table, "")


def test_tau_text_output(capsys):
    code, out, err = run_cli(
        capsys, "tau", "X(2/1,3/1,7/1)", "--r", "5", "--oracle", "--rozansky"
    )
    assert code == 0
    assert err == ""
    assert "X(2/1,3/1,7/1) r=5" in out
    assert "oracle=pass" in out
    assert "rozansky=pass" in out
    assert "integral(xi)=True" in out


def test_tau_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "tau",
        "X(-2/1,3/1,6/1)",
        "X(5/2)",
        "--r",
        "5,7",
        "--oracle",
        "--format",
        "json",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        data = json.loads(line)
        assert sorted(data) == RECORD_KEYS
        assert data["checks"]["oracle"] is True
        assert data["r"] in (5, 7)
        assert line == json.dumps(data, sort_keys=True)
    first = json.loads(lines[0])
    assert first["manifold"] == "X(-2/1,3/1,6/1)"
    assert first["nu"] == 1
    assert first["xi"] == [[4, 1], [6, 1], [6, 1], [4, 1]]


def test_tau_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "tau", "X(2/1,3/1)", "--r", "5", "--oracle", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:6] == ["manifold", "r", "t", "nu", "b_plus", "b_minus"]
    assert "check_oracle" in rows[0]
    assert rows[1][0] == "X(2/1,3/1)"
    assert rows[1][rows[0].index("check_oracle")] == "pass"
    xi_field = rows[1][rows[0].index("xi")]
    assert all("/" in part for part in xi_field.split(";"))


def test_tau_r_range(capsys):
    code, out, _ = run_cli(
        capsys, "tau", "X(3/1)", "--r-range", "3:9", "--format", "json"
    )
    assert code == 0
    rs = [json.loads(line)["r"] for line in out.strip().splitlines()]
    assert rs == [3, 5, 7, 9]


def test_tau_explicit_t(capsys):
    code, out, _ = run_cli(
        capsys, "tau", "X(3/1)", "--r", "7", "--t", "3", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["t"] == 3


def use_cpus(monkeypatch, n: int) -> None:
    """Let this process run on ``n`` CPUs, as ``cli._usable_cpus`` sees them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def count_starts(monkeypatch) -> list:
    """The ``multiprocessing.Process`` objects started from now on."""
    started = []
    original = multiprocessing.Process.start

    def counting_start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    return started


@pytest.fixture
def children_at_once(monkeypatch):
    """``--jobs`` starts its children at a request's first record, on 3 CPUs."""
    monkeypatch.setattr(cli, "CHILD_START_S", 0)
    use_cpus(monkeypatch, 3)


def test_tau_jobs_match_serial(capsys, children_at_once):
    checked = ["tau", "X(2/1,3/1)", "X(5/2,-5/3,6/1)", "X(-2/1,3/1,6/1)",
               "--r", "5,7,9", "--oracle", "--rozansky"]
    cases = [
        (["tau", "X(2/1,3/1)", "X(5/2)", "--r", "5,7", "--format", "json"], "2"),
        (checked + ["--format", "json"], "3"),
        (checked + ["--format", "csv"], "3"),
    ]
    for argv, jobs in cases:
        code1, out1, err1 = run_cli(capsys, *argv)
        code2, out2, err2 = run_cli(capsys, *argv, "--jobs", jobs)
        assert code1 == code2 == 0
        assert err1 == err2 == ""
        assert out1 == out2


def plant_faults(monkeypatch, faulty) -> None:
    """``cli.tau_prime`` raises a ``ValueError`` at the records ``(spec, r)``
    of ``faulty``.  A request is validated before its first record, so this
    is how an error reaches a record; forked children inherit the patch."""
    planted = {(parse_manifold(spec), r) for spec, r in faulty}
    original = cli.tau_prime

    def tau_prime(M, r, **kwargs):
        if (M, r) in planted:
            raise ValueError(f"planted fault in {M} at r={r}")
        return original(M, r, **kwargs)

    monkeypatch.setattr(cli, "tau_prime", tau_prime)


def plant_overflow(monkeypatch, spec: str, r: int) -> None:
    """``wrt.xi_closed_form`` gives ``(spec, r)`` an ``xi`` far outside the
    double range, so its ``tau'`` overflows; forked children inherit it."""
    M = parse_manifold(spec)
    original = wrt.xi_closed_form

    def xi_closed_form(M_, r_, t):
        if (M_, r_) == (M, r):
            return CyclotomicNumber(r, [10**400])
        return original(M_, r_, t)

    monkeypatch.setattr(wrt, "xi_closed_form", xi_closed_form)


# The message of each faulty manifold's record at r = 5 in the parity test.
FAULTS = {
    "X(3/2)": "planted fault in X(3/2) at r=5",
    "X(7/4)": "planted fault in X(7/4) at r=5",
    "X(9/4)": "tau' is outside the double range (X(9/4) at r=5)",
}


@pytest.mark.parametrize(
    "manifolds",
    [
        ["X(3/2)", "X(2/1,3/1)", "X(5/2)"],
        ["X(2/1,3/1)", "X(3/2)", "X(5/2)"],
        ["X(2/1,3/1)", "X(5/2)", "X(3/2)"],
        # Two faults: at --jobs 3 this process's share meets X(3/2) while a
        # child's meets X(7/4), which comes first in task order.
        ["X(2/1,3/1)", "X(7/4)", "X(5/2)", "X(3/2)"],
        # A tau' beyond a double, in a child's share at --jobs 3.
        ["X(2/1,3/1)", "X(5/2)", "X(9/4)"],
    ],
)
def test_tau_jobs_error_parity(capsys, monkeypatch, children_at_once, manifolds):
    plant_faults(monkeypatch, [("X(3/2)", 5), ("X(7/4)", 5)])
    plant_overflow(monkeypatch, "X(9/4)", 5)
    results = {
        jobs: run_cli(capsys, "tau", *manifolds, "--r", "5", "--jobs", jobs)
        for jobs in ("1", "2", "3", "8")
    }
    first_bad = next(m for m in manifolds if m in FAULTS)
    # The records before the first fault are written, then its error line.
    before = "".join(run_cli(capsys, "tau", m, "--r", "5")[1]
                     for m in manifolds[:manifolds.index(first_bad)])
    serial = results["1"]
    assert serial == (2, before, f"error: {FAULTS[first_bad]}\n")
    for jobs, result in results.items():
        assert result == serial, jobs


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_each_manifold_is_parsed_once_per_request(capsys, monkeypatch,
                                                  children_at_once, jobs):
    # Every record, the ceilings and the --jobs children read the manifold
    # parsed once; tref-table parses none.
    parsed = []
    original = cli.parse_manifold
    monkeypatch.setattr(cli, "parse_manifold",
                        lambda spec: parsed.append(spec) or original(spec))
    argv = ["tau", "X(2/1,3/1)", "X(5/2)", "--r", "5,7,9", "--oracle",
            "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
    assert (code, len(out.splitlines())) == (0, 6)
    assert parsed == ["X(2/1,3/1)", "X(5/2)"]
    parsed.clear()
    assert run_cli(capsys, "tref-table", "--r", "5,7")[0] == 0
    assert parsed == []


def test_tau_jobs_start_one_child_per_extra_share(capsys, monkeypatch,
                                                  children_at_once):
    started = count_starts(monkeypatch)
    argv = ["tau", "X(2/1,3/1)", "--r", "5,7", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--jobs", "8")
    assert len(started) == 1
    assert not started[0].is_alive()
    assert (code, out) == run_cli(capsys, *argv)[:2]


def test_tau_jobs_success_terminates_no_child(capsys, monkeypatch,
                                              children_at_once):
    # A child whose share was read is left to exit by itself.
    terminated = []
    monkeypatch.setattr(multiprocessing.Process, "terminate",
                        lambda self: terminated.append(self))
    started = count_starts(monkeypatch)
    argv = ["tau", "X(2/1,3/1)", "X(5/2)", "--r", "5,7,9", "--format", "json"]
    assert run_cli(capsys, *argv, "--jobs", "3") == run_cli(capsys, *argv)
    assert (len(started), terminated) == (2, [])


def test_tau_jobs_child_death_raises(capsys, monkeypatch, children_at_once):
    monkeypatch.setattr(cli, "_send_share", lambda conn, tasks: os._exit(3))
    code, out, err = run_cli(capsys, "tau", "X(2/1,3/1)", "--r", "5,7,9",
                             "--jobs", "3")
    # Task 0 is this process's, and its record is written before task 1's
    # child is found dead.
    assert (code, out) == (2, run_cli(capsys, "tau", "X(2/1,3/1)", "--r", "5")[1])
    assert err == ("error: worker process for share 1 exited with code 3 "
                   "before sending its records\n")
    assert multiprocessing.active_children() == []


def test_tau_jobs_one_child_death_stops_the_other_shares(capsys, monkeypatch,
                                                        children_at_once):
    # Share 1 (r=7) dies while share 2 (r=9) sends more than a pipe's buffer
    # holds; that child is stopped, not read.
    def send_share(conn, tasks):
        if tasks[0][1] == 7:
            os._exit(3)
        with conn:
            conn.send(["x" * 200_000])

    monkeypatch.setattr(cli, "_send_share", send_share)
    code, _, err = run_cli(capsys, "tau", "X(2/1,3/1)", "--r", "5,7,9",
                           "--jobs", "3")
    assert code == 2
    assert err.startswith("error: worker process for share 1 exited with code 3")
    assert multiprocessing.active_children() == []


def start_fresh(*args: str) -> subprocess.Popen:
    """Start ``python *args`` in a fresh interpreter that imports this
    ``seifertwrt``, in a session and process group of its own, with its
    stdout and stderr piped as text.  Its stdout is block-buffered, as on a
    pipe from a shell, even where the environment sets ``PYTHONUNBUFFERED``."""
    src = str(Path(seifertwrt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)


def run_fresh(*args: str, timeout: float = 20) -> tuple[int, str, str]:
    """Run ``python *args`` with ``start_fresh``: its exit code, stdout and
    stderr.  A run past ``timeout`` seconds fails the test, and its whole
    process group is killed, so a hung request cannot hang the suite or leave
    a child running."""
    proc = start_fresh(*args)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"still running after {timeout} s")
    return proc.returncode, out, err


# A request whose this-process share raises (or whose second child fails to
# start) while a child sends a share larger than a pipe's buffer.  The script
# prints the exception it got and the children still alive afterwards.
CHILD_LEFT_SENDING = """
import errno, multiprocessing, sys
from seifertwrt import cli

cli.CHILD_START_S = 0
cli._usable_cpus = lambda: 3
def send_share(conn, tasks):
    with conn:
        conn.send(["x" * 200_000])
cli._send_share = send_share
if sys.argv[1] == "interrupt":
    def tau_record(*task):
        raise KeyboardInterrupt
    cli._tau_record = tau_record
else:
    start, started = multiprocessing.Process.start, []
    def start_once(self):
        if started:
            raise OSError(errno.EAGAIN, "fork refused")
        started.append(self)
        start(self)
    multiprocessing.Process.start = start_once
try:
    outcome = cli.main(["tau", "X(2/1,3/1)", "--r", "5,7,9", "--jobs", "3"])
except BaseException as exc:
    outcome = type(exc).__name__
print(outcome, multiprocessing.active_children())
"""


# An interrupt propagates; a refused fork exits 2 with one error line.
@pytest.mark.parametrize(("case", "outcome"), [("interrupt", "KeyboardInterrupt"),
                                               ("fork", "2")])
def test_tau_jobs_error_here_stops_a_child_mid_send(case, outcome):
    code, out, err = run_fresh("-c", CHILD_LEFT_SENDING, case)
    assert (code, out) == (0, f"{outcome} []\n")
    if case == "fork":
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:
        assert err == ""


# Forces a --jobs request to start its children at once, each of which exits
# with code 3 before sending its share.
LOST_SHARE = """
import os, sys
from seifertwrt import cli

cli.CHILD_START_S = 0
cli._usable_cpus = lambda: 3
cli._send_share = lambda conn, tasks: os._exit(3)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "args",
    [
        ["-m", "seifertwrt.cli", "tau", "garbage", "--r", "5"],
        ["-m", "seifertwrt.cli", "tau", "X(2/1,3/1)", "--r", "4"],
        ["-m", "seifertwrt.cli", "tau", "X(2/1,3/1)", "--r", "5", "--t", "5"],
        ["-m", "seifertwrt.cli", "tau", "X(2/1,3/1)", "--r", "4003"],
    ],
)
def test_error_requests_print_one_line_and_exit_2(args):
    code, out, err = run_fresh(*args)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


def test_lost_share_prints_the_records_before_it_and_one_line(capsys):
    # Task 0 (r = 5) is this process's; task 1 is the first lost share's.
    code, out, err = run_fresh("-c", LOST_SHARE, "tau", "X(2/1,3/1)",
                               "--r", "5,7,9", "--jobs", "3")
    assert (code, out) == (2, run_cli(capsys, "tau", "X(2/1,3/1)", "--r", "5")[1])
    assert err == ("error: worker process for share 1 exited with code 3 "
                   "before sending its records\n")


@pytest.mark.parametrize("affinity", [True, False])
def test_tau_jobs_capped_at_usable_cpus(capsys, monkeypatch, affinity):
    monkeypatch.setattr(cli, "CHILD_START_S", 0)
    if affinity:
        use_cpus(monkeypatch, 2)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = count_starts(monkeypatch)
    argv = ["tau", "X(2/1,3/1)", "--r", "5,7,9,11", "--format", "json"]
    code, out, err = run_cli(capsys, *argv, "--jobs", "4")
    assert len(started) == 1
    assert (code, out, err) == run_cli(capsys, *argv)


def test_tau_jobs_short_request_starts_no_process(capsys, monkeypatch):
    # About 6 ms of work once warm, a third of the default CHILD_START_S.
    use_cpus(monkeypatch, 2)
    argv = ["tau", "X(5/2)", "--r-range", "3:31", "--format", "json"]
    serial = run_cli(capsys, *argv)
    started = count_starts(monkeypatch)
    assert run_cli(capsys, *argv, "--jobs", "2") == serial
    assert started == []


@pytest.mark.parametrize(
    ("faulty", "children"),
    [
        ((), 2),
        # The error is task 3, in this process's share after the switch.
        ((("X(5/2,-5/3,6/1)", 5),), 2),
        # The error is task 4, in a child's share.
        ((("X(5/2,-5/3,6/1)", 7),), 2),
        # The error is task 1, in the serial prefix: raised before any child
        # starts.
        ((("X(2/1,3/1)", 7),), 0),
    ],
)
def test_tau_jobs_switch_to_children_partway(capsys, monkeypatch, faulty,
                                             children):
    use_cpus(monkeypatch, 3)
    plant_faults(monkeypatch, faulty)
    argv = ["tau", "X(2/1,3/1)", "X(5/2,-5/3,6/1)", "X(-2/1,3/1,6/1)",
            "--r", "5,7,9", "--oracle", "--format", "json"]
    serial = run_cli(capsys, *argv)
    assert serial[0] == (2 if faulty else 0)
    # The request's start and the checks before tasks 0, 1 and 2 read 0 s;
    # the check before task 3 reads 1 s, so tasks 3..8 go to 3 shares.
    clock = itertools.chain(itertools.repeat(0.0, 4), itertools.repeat(1.0))
    monkeypatch.setattr(cli, "perf_counter", lambda: next(clock))
    started = count_starts(monkeypatch)
    assert run_cli(capsys, *argv, "--jobs", "3") == serial
    assert len(started) == children


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "X(2/1,3/1)", "X(5/2)", "--r", "5,7,9"],
        ["tau", "X(2/1,3/1)", "--r", "5,7,9", "--oracle", "--format", "json"],
        ["tau", "X(2/1,3/1)", "--r", "5,7,9", "--rozansky", "--format", "csv"],
        ["tref-table", "--r", "5,7,11"],
        ["integrality-scan", "X(2/1,3/1)", "--r", "5,7,9", "--format", "csv"],
    ],
)
def test_each_record_is_written_before_the_next_is_computed(monkeypatch, argv):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written = []  # the lines written when each record starts
    original = cli._tau_record

    def tau_record(*task):
        written.append(out.getvalue().count("\n"))
        return original(*task)

    monkeypatch.setattr(cli, "_tau_record", tau_record)
    assert main(argv) == 0
    lines = out.getvalue().count("\n")
    header = 1 if "csv" in argv else 0  # written with the first row
    assert written == [0, *range(header + 1, lines)]


# Runs ``main`` on the arguments given with ``--jobs 2`` on 2 CPUs, where the
# request runs here alone for tasks 0..2 and starts its child at task 3.
JOBS_AFTER_RECORDS = """
import itertools, sys
from seifertwrt import cli

cli._usable_cpus = lambda: 2
clock = itertools.chain(itertools.repeat(0.0, 4), itertools.repeat(1.0))
cli.perf_counter = lambda: next(clock)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_tau_jobs_child_started_after_records_writes_none():
    # The records of tasks 0..2 are still in stdout's buffer at the fork; a
    # child that inherited them would write them again when it exits.
    argv = ["tau", "X(2/1,3/1)", "X(5/2,-5/3,6/1)", "--r", "5,7,9",
            "--format", "json"]
    serial = run_fresh("-m", "seifertwrt.cli", *argv)
    code, out, err = run_fresh("-c", JOBS_AFTER_RECORDS, *argv, "--jobs", "2")
    assert (code, err) == (0, "")
    records = [(rec["manifold"], rec["r"]) for rec in map(json.loads, out.splitlines())]
    assert records == [(m, r) for m in argv[1:3] for r in (5, 7, 9)]
    assert (code, out, err) == serial


# A --jobs 3 request whose stdout raises at the first record while each child
# sends more than a pipe's buffer holds.  The script prints the exception and
# the children alive while it handles it, then lets it end the interpreter,
# whose exit joins every child still alive.
WRITER_FAILS = """
import multiprocessing, sys
from seifertwrt import cli

class Failing:
    def write(self, text):
        raise OSError("the writer failed")
    def flush(self):
        pass

cli.CHILD_START_S = 0
cli._usable_cpus = lambda: 3
def send_share(conn, tasks):
    with conn:
        conn.send(["x" * 200_000])
cli._send_share = send_share
sys.stdout = Failing()
try:
    cli.main(["tau", "X(2/1,3/1)", "--r", "5,7,9", "--jobs", "3"])
except OSError as exc:
    print(exc, multiprocessing.active_children(), file=sys.__stdout__)
    raise
"""


def test_writer_failing_mid_request_stops_every_child():
    start = time.monotonic()
    code, out, err = run_fresh("-c", WRITER_FAILS, timeout=20)
    assert time.monotonic() - start < 10
    assert (code, out) == (1, "the writer failed []\n")
    assert err.endswith("OSError: the writer failed\n"), err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_exits_2_quietly(jobs):
    # The reader takes one line and, once --jobs has started its child and
    # stdout's pipe is full, closes its end.
    proc = start_fresh("-m", "seifertwrt.cli", "tau", "X(5/2,-5/3,6/1,-7/2)",
                       "--r-range", "3:2001", "--jobs", jobs)
    try:
        assert proc.stdout.readline().startswith("X(5/2,-5/3,6/1,-7/2) r=3 ")
        time.sleep(0.5)
        proc.stdout.close()
        code = proc.wait(timeout=20)
        err = proc.stderr.read()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stderr.close()
    assert code == 2
    assert err in ("", "error: [Errno 32] Broken pipe\n"), err
    with pytest.raises(ProcessLookupError):  # no child is left in the group
        os.killpg(proc.pid, 0)


def test_short_output_to_a_closed_stdout_exits_2_with_one_line():
    # Three records fit stdout's buffer: the reader, gone before the first,
    # is met when main flushes them, not at interpreter exit (exit 120 and
    # "Exception ignored ... BrokenPipeError").
    src = str(Path(seifertwrt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = ["-m", "seifertwrt.cli", "tau", "X(2,3,7)", "--r", "5,7,9"]
        done = subprocess.run([sys.executable, *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


# Runs ``main`` on its arguments with stdout to /dev/null and prints the exit
# code and the process's peak resident set in kB.  The peak is the kernel's
# VmHWM, which starts afresh at exec: ``getrusage``'s ``ru_maxrss`` keeps the
# peak of the process that forked it, here the test run's own.
PEAK_RSS = """
import contextlib, os, sys
from seifertwrt import cli

with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
    code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set from /proc")
def test_a_long_request_holds_about_one_record():
    def peak_kb(*levels: str) -> int:
        code, out, err = run_fresh("-c", PEAK_RSS, "tau", "X(5/2,-5/3,6/1,-7/2)",
                                   *levels, "--format", "json")
        assert (code, err) == (0, "")
        status, kb = map(int, out.split())
        assert status == 0
        return kb

    # 500 records of r <= 1001 against the one record at r = 1001.
    assert peak_kb("--r-range", "3:1001") <= peak_kb("--r", "1001") + 8 * 1024


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("X(2/0)", "X(2/1,3/1,7/1)", "X(5/2)", "--r-range", "3:301"),
         "surgery coefficient 2/0 has a zero entry"),
        (("X(2/1,3/1,7/1)", "X(4/2)", "X(5/2)", "--r-range", "3:301"),
         "surgery coefficient 4/2 is not reduced"),
        (("X(2/1,3/1,7/1)", "X(5/2)", "garbage", "--r-range", "3:301"),
         "cannot parse manifold 'garbage': expected X(p/q,...)"),
        # 4001 is a unit at every level but the last.
        (("X(2/1,3/1,7/1)", "--r-range", "3:4001", "--t", "4001"),
         "evaluation parameter 4001 is not a unit mod 4001"),
    ],
)
def test_request_is_refused_before_its_first_record(capsys, monkeypatch, argv,
                                                    message):
    calls = []
    monkeypatch.setattr(cli, "tau_prime", lambda *args, **kwargs: calls.append(args))
    code, out, err = run_cli(capsys, "tau", *argv, "--oracle")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert calls == []


def test_tau_rozansky_skip_marker(capsys):
    # Hypotheses unmet (7 divides a numerator at r = 7): reported as a skip,
    # not a failure.
    code, out, _ = run_cli(
        capsys, "tau", "X(2/1,3/1,7/1)", "--r", "7", "--rozansky"
    )
    assert code == 0
    assert "rozansky=skip" in out


def test_tref_table(capsys):
    code, out, _ = run_cli(
        capsys, "tref-table", "--r-range", "3:13", "--format", "json"
    )
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    # multiples of 3 are outside the closed form's domain and are skipped
    assert [rec["r"] for rec in recs] == [5, 7, 11, 13]
    assert all(rec["checks"]["closed_matches_general"] is True for rec in recs)
    vanishing = {rec["r"]: rec for rec in recs}
    assert vanishing[7]["tau_re"] == vanishing[7]["tau_im"] == 0.0
    assert vanishing[5]["tau_re"] == pytest.approx(-0.5877852522924731, abs=1e-9)


@pytest.mark.parametrize("levels", ["9", "3,9,15"])
def test_tref_table_without_a_level_prime_to_three_exits_two(capsys, levels):
    assert run_cli(capsys, "tref-table", "--r", levels) == (
        2, "", "error: tref-table needs a level r with gcd(r, 3) = 1\n")


def test_integrality_scan(capsys):
    code, out, _ = run_cli(
        capsys,
        "integrality-scan",
        "X(2/1,3/1,5/1)",
        "X(2/1,-2/1)",
        "--r-range",
        "3:9",
        "--format",
        "json",
    )
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 8
    assert all(rec["checks"]["integrality"] in (True, None) for rec in recs)


def test_integrality_scan_honours_precision(capsys):
    argv = ["X(2/1,3/1,7/1)", "--r", "7", "--precision", "50", "--format", "json"]
    _, scan, _ = run_cli(capsys, "integrality-scan", *argv)
    _, tau, _ = run_cli(capsys, "tau", *argv)
    scan, tau = json.loads(scan), json.loads(tau)
    assert scan["tau_re"] == 2.524458669761153
    assert {**scan, "checks": {}} == tau


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--trials", "3", "--seed", "1")
    assert code == 0
    assert "0 failures" in out


def test_selftest_fault_injection_detected(capsys):
    code, out, _ = run_cli(
        capsys,
        "selftest",
        "--trials",
        "4",
        "--seed",
        "3",
        "--inject-fault",
        "flip-oracle-sign",
    )
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("tau", "X(2/0)", "--r", "5"),
        ("tau", "X(4/2)", "--r", "5"),
        ("tau", "garbage", "--r", "5"),
        ("tau", "X(2/1)", "--r", "4"),
        ("tau", "X(2/1)", "--r-range", "bogus"),
        ("tau", "X(2/1)"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("--r", "5,,7"), "bad --r '5,,7', expected comma-separated levels"),
        (("--r", "5,seven"), "bad --r '5,seven', expected comma-separated levels"),
        (("--r", "5", "--t", "5"), "evaluation parameter 5 is not a unit mod 5"),
        (("--r", "9", "--t", "-3"), "evaluation parameter -3 is not a unit mod 9"),
        (("--r", "1"), "level must be odd and >= 3, got 1"),
        (("--r-range", "9:3"), "--r-range '9:3' holds no odd level"),
        (("--r-range", "4:4"), "--r-range '4:4' holds no odd level"),
        (("--r", "5", "--r-range", "9:3"), "--r-range '9:3' holds no odd level"),
        # The level ceiling is checked before any level is listed.
        (("--r", "5,4003"), "--r '5,4003' reaches level 4003, above the highest "
                            "level 4001"),
        (("--r-range", "3:1000000000000"), "--r-range '3:1000000000000' reaches "
         "level 999999999999, above the highest level 4001"),
        # The lowest bad level is named, not the first given.
        (("--r", "10,4"), "level must be odd and >= 3, got 4"),
    ],
)
def test_usage_error_names_the_given_value(capsys, argv, message):
    assert run_cli(capsys, "tau", "X(2/1)", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    ("spaced", "joined", "message"),
    [
        (("--r-range", "-3:5"), ("--r-range=-3:5",), "got -3"),
        (("--r", "-3,5"), ("--r=-3,5",), "got -3"),
    ],
)
def test_negative_level_start_in_both_forms(capsys, spaced, joined, message):
    # A value after a space that starts with "-" and a digit is a value, not
    # an unknown option: both forms reach the level check.
    expected = (2, "", f"error: level must be odd and >= 3, {message}\n")
    assert run_cli(capsys, "tau", "X(2/1)", *spaced) == expected
    assert run_cli(capsys, "tau", "X(2/1)", *joined) == expected


@pytest.mark.parametrize(
    ("argv", "floor"),
    [
        (("tau", "X(2/1,3/1,5/1)", "--r", "5", "--precision", "0"), 15),
        (("tau", "X(2/1,3/1,5/1)", "--r", "5", "--jobs", "0"), 1),
        (("selftest", "--trials", "0"), 1),
        (("selftest", "--budget", "0"), 1),
        (("selftest", "--budget", "-5"), 1),
    ],
)
def test_vacuous_counts_exit_two(capsys, argv, floor):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"must be >= {floor}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tau", "tref-table", "integrality-scan"])
@pytest.mark.parametrize("digits", ["3", "14"])
def test_precision_below_a_double_exits_two(capsys, command, digits):
    # Fewer than 15 digits would report tau' less accurately than a float.
    manifold = [] if command == "tref-table" else ["X(2/1,3/1,7/1)"]
    with pytest.raises(SystemExit) as exc:
        main([command, *manifold, "--r", "11", "--precision", digits])
    assert exc.value.code == 2
    assert f"must be >= 15, got {digits}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tau", "tref-table", "integrality-scan"])
def test_precision_above_the_ceiling_exits_two(capsys, command):
    # The ceiling bounds a record's run time; 20000 digits took a minute.
    manifold = [] if command == "tref-table" else ["X(2/1,3/1,7/1)"]
    with pytest.raises(SystemExit) as exc:
        main([command, *manifold, "--r", "11", "--precision", "1001"])
    assert exc.value.code == 2
    assert "must be <= 1000, got 1001" in capsys.readouterr().err


# --precision changes no record: both print the nearest double of tau'_re.
@pytest.mark.parametrize(("digits", "tau_re"),
                         [("15", 5.178621332438828), ("1000", 5.178621332438828)])
def test_precision_in_range_is_accepted(capsys, digits, tau_re):
    code, out, err = run_cli(
        capsys, "tau", "X(2/1,3/1,7/1)", "--r", "11", "--precision", digits,
        "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["tau_re"] == tau_re


@pytest.mark.parametrize("option,ceiling", [("--trials", cli.MAX_TRIALS),
                                            ("--budget", cli.MAX_BUDGET)])
def test_selftest_count_above_the_ceiling_exits_two(capsys, monkeypatch, option,
                                                    ceiling):
    # The ceilings bound a selftest's run time; the refusal comes before any
    # trial draws its manifold.
    monkeypatch.setattr(cli, "_random_manifold", lambda rng: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        main(["selftest", option, str(ceiling + 1)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"must be <= {ceiling}, got {ceiling + 1}" in err


def test_selftest_counts_at_the_ceilings_are_accepted():
    args = build_parser().parse_args(
        ["selftest", "--trials", str(cli.MAX_TRIALS), "--budget", str(cli.MAX_BUDGET)])
    assert (args.trials, args.budget) == (cli.MAX_TRIALS, cli.MAX_BUDGET)


@pytest.mark.parametrize(
    ("target", "fake", "check", "failures"),
    [("b_counts_closed_form", lambda real: lambda *a, **k: None,
      "inertia closed form", 3),
     # A wrong sum that keeps the real refusal over --budget.
     ("xi_statesum_brute", lambda real: lambda *a, **k: real(*a, **k) + 1,
      "joint brute force", 2)],
)
def test_selftest_names_each_failed_check(capsys, monkeypatch, target, fake,
                                          check, failures):
    monkeypatch.setattr(cli, target, fake(getattr(cli, target)))
    code, out, _ = run_cli(capsys, "selftest", "--trials", "3")
    assert code == 1
    assert f"selftest trial 2: {check} FAIL\n" in out
    assert out.endswith(f"selftest: 11 checks, {failures} failures, 1 skipped "
                        "(brute force over --budget)\n")


def test_selftest_reports_skipped_brute_force(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--trials", "3", "--budget", "1")
    assert code == 0
    assert out.endswith(
        "selftest: 9 checks, 0 failures, 3 skipped (brute force over --budget)\n")


def test_level_ceiling_admits_the_checked_levels_up_to_151(capsys):
    assert cli.MAX_LEVEL >= 151
    code, out, _ = run_cli(capsys, "tau", "X(2/1)", "--r", "151", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("X(2/1),151,")


@pytest.mark.parametrize("precision", [(), ("--precision", "30")])
def test_tau_beyond_a_double_exits_two(capsys, monkeypatch, precision):
    # An xi far outside the double range: the division that rounds its real
    # part overflows, with or without --precision.  Both name the record.
    monkeypatch.setattr(wrt, "xi_closed_form",
                        lambda M, r, t: CyclotomicNumber(r, [10**400]))
    for fmt in ("json", "csv", "text"):
        assert run_cli(capsys, "tau", "X(2/1,3/1)", "--r", "5", *precision,
                       "--format", fmt) == (
            2, "", "error: tau' is outside the double range (X(2/1,3/1) at r=5)\n")


def legs_of_two(n: int) -> str:
    return "X(" + ",".join(["2"] * n) + ")"


@pytest.mark.parametrize("command", ["tau", "integrality-scan"])
@pytest.mark.parametrize(("spec", "message"), [
    (legs_of_two(cli.MAX_LEGS), None),
    (legs_of_two(cli.MAX_LEGS + 1),
     f"{legs_of_two(cli.MAX_LEGS + 1)!r} has {cli.MAX_LEGS + 1} legs, above the "
     f"ceiling of {cli.MAX_LEGS} legs"),
    (f"X(1/{cli.MAX_DENOMINATOR_SUM - 1})", None),
    (f"X(1/{cli.MAX_DENOMINATOR_SUM})",
     f"'X(1/{cli.MAX_DENOMINATOR_SUM})' has legs p/q whose q + 1 sum to "
     f"{cli.MAX_DENOMINATOR_SUM + 1}, above the ceiling of {cli.MAX_DENOMINATOR_SUM}"),
    # The bound is a sum over the legs: 50001 + 50000.
    ("X(1/50000,-1/49999)",
     "'X(1/50000,-1/49999)' has legs p/q whose q + 1 sum to 100001, above the "
     "ceiling of 100000"),
])
def test_leg_ceilings(capsys, command, spec, message):
    code, out, err = run_cli(capsys, command, spec, "--r", "3", "--format", "csv")
    if message is None:
        assert (code, err, len(out.splitlines())) == (0, "", 2)
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_leg_ceilings_refuse_before_any_record(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a record was computed")

    monkeypatch.setattr(cli, "tau_prime", refuse)
    code, out, err = run_cli(capsys, "tau", "X(2/1)", legs_of_two(345), "--r", "31")
    assert (code, out) == (2, "")
    assert err.endswith("has 345 legs, above the ceiling of 64 legs\n")


def test_joint_cost_ceiling_refuses_before_any_record(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a record was computed")

    monkeypatch.setattr(cli, "tau_prime", refuse)
    spec = legs_of_two(16)
    for command in ("tau", "integrality-scan"):
        code, out, err = run_cli(capsys, command, "X(2/1)", spec, "--r", "3,4001")
        assert (code, out) == (2, "")
        assert err == (f"error: {spec!r} has 16 legs at level 4001, an estimated "
                       f"cost n^3 r^2 = {16**3 * 4001**2} above the ceiling of "
                       f"{cli.MAX_RECORD_COST}\n")


@pytest.mark.parametrize(("spec", "r"), [
    ("X(2,3,7)", cli.MAX_LEVEL),
    (legs_of_two(cli.MAX_LEGS), 3),
    (legs_of_two(cli.MAX_LEGS), 31),
])
def test_joint_cost_ceiling_admits(capsys, spec, r):
    assert parse_manifold(spec).n**3 * r**2 <= cli.MAX_RECORD_COST
    code, out, err = run_cli(capsys, "tau", spec, "--r", str(r), "--format", "csv")
    assert (code, err, len(out.splitlines())) == (0, "", 2)


# One passing and one skipped case per CHECKS entry: (name, manifold, level,
# budget, negate xi, result).  The oracle has no hypothesis to skip on, so it
# gets a failing case instead.  X(2/1,3/1) at r = 5 has 5**3 joint colorings.
CHECK_CASES = [
    ("oracle", "X(2/1,3/1,7/1)", 5, 1, False, True),
    ("oracle", "X(2/1,3/1,7/1)", 5, 1, True, False),
    ("brute", "X(2/1,3/1)", 5, 10**4, False, True),
    ("brute", "X(2/1,3/1)", 5, 124, False, None),
    ("rozansky", "X(2/1,3/1,7/1)", 5, 1, False, True),
    ("rozansky", "X(2/1,3/1,7/1)", 7, 1, False, None),
    ("integrality", "X(2/1,3/1,5/1)", 5, 1, False, True),
    ("integrality", "X(3/1,3/1,6/1,9/1)", 3, 1, False, None),
    ("closed_matches_general", "X(-2/1,3/1,6/1)", 5, 1, False, True),
    ("closed_matches_general", "X(-2/1,3/1,6/1)", 9, 1, False, None),
]


def test_check_cases_cover_every_entry():
    assert {case[0] for case in CHECK_CASES} == set(cli.CHECKS)


@pytest.mark.parametrize(("name", "spec", "r", "budget", "negate", "expected"),
                         CHECK_CASES)
def test_check_entry(name, spec, r, budget, negate, expected):
    M, t = parse_manifold(spec), mod_inverse(4, r)
    xi = wrt.xi_closed_form(M, r, t)
    judged = cli._judge((name,), M, r, t, -xi if negate else xi, budget)
    assert judged == {name: expected}


def test_rozansky_check_twists_xi_to_the_quarter(capsys):
    # At t = 2, xi is twisted from zeta^2 to zeta^(1/4) before the comparison.
    code, out, err = run_cli(capsys, "tau", "X(2,3,5)", "X(5/2,-7/3)", "--r", "11,13",
                             "--t", "2", "--rozansky")
    assert (code, err) == (0, "")
    assert [line.endswith(" rozansky=pass") for line in out.splitlines()] == [True] * 4


@pytest.mark.parametrize("t", [1, 2, 5, 10])
def test_rozansky_check_catches_a_mistwisted_xi(t):
    # The xi at zeta^(2t), labelled as at zeta^t, lands on the wrong conjugate.
    M, r = parse_manifold("X(2,3,5)"), 11
    assert cli._rozansky_agrees(M, r, t, wrt.xi_closed_form(M, r, t), None)
    assert not cli._rozansky_agrees(M, r, t, wrt.xi_closed_form(M, r, 2 * t % r), None)


def test_parser_help_smoke():
    parser = build_parser()
    assert parser.prog == "seifertwrt"
    with pytest.raises(SystemExit):
        parser.parse_args(["--help"])


@pytest.mark.parametrize("first,first_checks", [
    (["tau", "X(2/1,3/1,5/1)", "--r", "5", "--oracle"], ["oracle"]),
    (["tau", "X(2/1,3/1,5/1)", "--r", "5", "--oracle", "--rozansky"],
     ["oracle", "rozansky"]),
    (["integrality-scan", "X(2/1,3/1,5/1)", "--r-range", "3:9"], ["integrality"]),
])
def test_one_parser_parses_each_request_afresh(first, first_checks):
    # A parser kept for a second request must not share its checks lists:
    # neither --oracle's appended entries nor integrality-scan's default.
    parser = build_parser()
    earlier = parser.parse_args(first)
    later = parser.parse_args(["tau", "X(2/1,3/1,5/1)", "--r", "5"])
    again = parser.parse_args(first)
    assert later.checks == []
    assert earlier.checks == again.checks == first_checks
    assert later.checks is not earlier.checks


@given(
    st.sampled_from([3, 5, 9, 15]).flatmap(
        lambda r: st.lists(
            st.one_of(
                st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=12)
            ),
            min_size=1,
            max_size=r,
        ).map(lambda cs: CyclotomicNumber(r, cs))
    )
)
@settings(deadline=None, max_examples=200)
@example(CyclotomicNumber(15, [4, 0, -6, 9]))  # integral: the denominator 1
@example(CyclotomicNumber(15, [4, 0, Fraction(-6, 5), Fraction(9, 10)]))
def test_record_pairs_match_fraction_coefficients(xi):
    assert _xi_pairs(xi) == [[c.numerator, c.denominator] for c in xi.coefficients()]
