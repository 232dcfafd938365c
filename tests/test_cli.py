from __future__ import annotations

import csv
import io
import itertools
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifertwrt import cli
from seifertwrt.cli import _xi_pairs, build_parser, main
from seifertwrt.cyclotomic import CyclotomicNumber


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
        '"X(2/1,3/1,9/1)",9,7,0,6,1,-7.2908593693815895,6.661338147750939e-16,'
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


@pytest.mark.parametrize(
    "manifolds",
    [
        ["X(4/2)", "X(2/1,3/1)", "X(5/2)"],
        ["X(2/1,3/1)", "X(4/2)", "X(5/2)"],
        ["X(2/1,3/1)", "X(5/2)", "X(4/2)"],
        # Two bad entries: at --jobs 3 this process's share meets X(4/2)
        # while a child's meets X(6/4), which comes first in task order.
        ["X(2/1,3/1)", "X(6/4)", "X(5/2)", "X(4/2)"],
    ],
)
def test_tau_jobs_error_parity(capsys, children_at_once, manifolds):
    results = {
        jobs: run_cli(capsys, "tau", *manifolds, "--r", "5", "--jobs", jobs)
        for jobs in ("1", "2", "3", "8")
    }
    first_bad = next(m for m in manifolds if m in ("X(4/2)", "X(6/4)"))
    serial = results["1"]
    assert serial == (2, "", f"error: surgery coefficient {first_bad[2:-1]} "
                             "is not reduced\n")
    for jobs, result in results.items():
        assert result == serial, jobs


def test_tau_jobs_start_one_child_per_extra_share(capsys, monkeypatch,
                                                  children_at_once):
    started = count_starts(monkeypatch)
    argv = ["tau", "X(2/1,3/1)", "--r", "5,7", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--jobs", "8")
    assert len(started) == 1
    assert not started[0].is_alive()
    assert (code, out) == run_cli(capsys, *argv)[:2]


def test_tau_jobs_child_death_raises(monkeypatch, children_at_once):
    monkeypatch.setattr(cli, "_send_share", lambda conn, tasks: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        main(["tau", "X(2/1,3/1)", "--r", "5,7,9", "--jobs", "3"])
    assert multiprocessing.active_children() == []


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
    ("manifolds", "children"),
    [
        (["X(2/1,3/1)", "X(5/2,-5/3,6/1)", "X(-2/1,3/1,6/1)"], 2),
        # The error is in this process's share after the switch.
        (["X(2/1,3/1)", "X(4/2)", "X(5/2)"], 2),
        # The error is in the serial prefix: raised before any child starts.
        (["X(4/2)", "X(2/1,3/1)", "X(5/2)"], 0),
    ],
)
def test_tau_jobs_switch_to_children_partway(capsys, monkeypatch, manifolds,
                                             children):
    use_cpus(monkeypatch, 3)
    argv = ["tau", *manifolds, "--r", "5,7,9", "--oracle", "--format", "json"]
    serial = run_cli(capsys, *argv)
    # The request's start and the checks before tasks 0, 1 and 2 read 0 s;
    # the check before task 3 reads 1 s, so tasks 3..8 go to 3 shares.
    clock = itertools.chain(itertools.repeat(0.0, 4), itertools.repeat(1.0))
    monkeypatch.setattr(cli, "perf_counter", lambda: next(clock))
    started = count_starts(monkeypatch)
    assert run_cli(capsys, *argv, "--jobs", "3") == serial
    assert len(started) == children


def test_cli_import_loads_no_processes_or_mpmath():
    # Serial runs and the set-up probe of the benchmark pay for none of these.
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import seifertwrt.cli\n"
        "seifertwrt.cli.build_parser()\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'mpmath')"
        " if m in sys.modules])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", probe, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


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
    ],
)
def test_usage_error_names_the_given_value(capsys, argv, message):
    assert run_cli(capsys, "tau", "X(2/1)", *argv) == (2, "", f"error: {message}\n")


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


def test_precision_of_a_double_is_accepted(capsys):
    code, out, err = run_cli(
        capsys, "tau", "X(2/1,3/1,7/1)", "--r", "11", "--precision", "15",
        "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["tau_re"] == 5.178621332438829


@pytest.mark.parametrize(
    ("target", "check", "failures"),
    [("b_counts_closed_form", "inertia closed form", 3),
     ("xi_statesum_brute", "joint brute force", 2)],
)
def test_selftest_names_each_failed_check(capsys, monkeypatch, target, check,
                                          failures):
    monkeypatch.setattr(cli, target, lambda *args, **kwargs: None)
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


def test_parser_help_smoke():
    parser = build_parser()
    assert parser.prog == "seifertwrt"
    with pytest.raises(SystemExit):
        parser.parse_args(["--help"])


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
def test_record_pairs_match_fraction_coefficients(xi):
    assert _xi_pairs(xi) == [[c.numerator, c.denominator] for c in xi.coefficients()]
