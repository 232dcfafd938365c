from __future__ import annotations

import csv
import io
import json

import pytest

from seifertwrt.cli import OutputRecord, build_parser, main


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
        rec = OutputRecord.from_json_dict(data)
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
    argv = ["tau", "X(2/1,3/1)", "X(5/2)", "--r", "5,7", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


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
