from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifertwrt import cli
from seifertwrt.cli import OutputRecord, _xi_pairs, build_parser, main
from seifertwrt.cyclotomic import CyclotomicNumber


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        rec = OutputRecord(**data)
        assert rec.checks["oracle"] is True
        assert rec.r in (5, 7)
        assert rec.to_json_line() == json.dumps(data, sort_keys=True)
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


def test_tau_jobs_match_serial(capsys):
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
def test_tau_jobs_error_parity(capsys, manifolds):
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


def test_tau_jobs_start_one_child_per_extra_share(capsys, monkeypatch):
    started = []
    original = multiprocessing.Process.start

    def counting_start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    argv = ["tau", "X(2/1,3/1)", "--r", "5,7", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--jobs", "8")
    assert len(started) == 1
    assert not started[0].is_alive()
    assert (code, out) == run_cli(capsys, *argv)[:2]


def test_tau_jobs_child_death_raises(monkeypatch):
    monkeypatch.setattr(cli, "_send_share", lambda conn, tasks: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        main(["tau", "X(2/1,3/1)", "--r", "5,7,9", "--jobs", "3"])
    assert multiprocessing.active_children() == []


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
    "argv",
    [
        ("tau", "X(2/1,3/1,5/1)", "--r", "5", "--precision", "0"),
        ("tau", "X(2/1,3/1,5/1)", "--r", "5", "--jobs", "0"),
        ("selftest", "--trials", "0"),
        ("selftest", "--budget", "0"),
        ("selftest", "--budget", "-5"),
    ],
)
def test_vacuous_counts_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


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
