"""Command-line interface: outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import epibvp
from epibvp import cli
from epibvp.cli import main


def run(argv):
    return main(argv)


def _rejected_before_output(argv, out, capsys, lam):
    # the rate is checked before the output directory or the echo is made
    assert run(argv + ["--out", str(out)]) == 1
    assert f"the rate must be finite, got {lam}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_profiles_and_summary(tmp_path):
    code = run(["solve", "--bc", "navier1", "--lambda", "15",
                "--out", str(tmp_path)])
    assert code == 0
    lower = tmp_path / "profile_navier1_15p0_lower.csv"
    upper = tmp_path / "profile_navier1_15p0_upper.csv"
    summary = tmp_path / "summary_navier1_15p0.csv"
    assert lower.exists() and upper.exists() and summary.exists()
    header, *rows = lower.read_text().splitlines()
    assert header == "r,w,phi,residual"
    assert len(rows) == 101
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert (tmp_path / "effective_config.json").exists()


def test_solve_nonexistence_exit_code(tmp_path):
    code = run(["solve", "--bc", "dirichlet", "--lambda", "200",
                "--out", str(tmp_path)])
    assert code == 3
    summary = (tmp_path / "summary_dirichlet_200p0.csv").read_text().splitlines()
    assert summary == ["label,a_star,band,sup_norm_phi"]


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_solve_non_finite_rate_is_usage_error(tmp_path, lam, capsys):
    # "--lambda -inf" would read as a missing value: argparse takes -inf
    # for an option
    _rejected_before_output(["solve", "--bc", "navier1", f"--lambda={lam}"],
                            tmp_path / "out", capsys, lam)


def test_solve_malformed_rate_is_usage_error(tmp_path, capsys):
    assert run(["solve", "--bc", "navier1", "--lambda", "abc",
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "argument --lambda: invalid float value: 'abc'" in err
    assert not (tmp_path / "out").exists()


def test_solve_depth_above_maximum_is_usage_error(tmp_path):
    code = run(["solve", "--bc", "navier1", "--lambda", "1", "--n-iter", "11",
                "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("command", [
    ["solve", "--bc", "navier1", "--lambda", "15"],
    ["sweep", "--bc", "navier1", "--lambdas", "1", "--jobs", "1"],
    ["residual-table", "--bc", "navier1", "--branch", "upper", "--lambdas", "1",
     "--jobs", "1"],
    ["critical", "--bc", "navier2", "--lo", "5", "--hi", "20"],
    ["oracle-check", "--bc", "navier1", "--lambda", "15"],
])
@pytest.mark.parametrize("depth,message", [
    ("0", "iteration depth 0 is below the minimum of 1"),
    ("11", "iteration depth 11 exceeds the maximum of 10"),
])
@pytest.mark.parametrize("from_config", [False, True])
def test_bad_depth_writes_nothing(tmp_path, capsys, command, depth, message,
                                  from_config):
    out = tmp_path / "out"
    if from_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_iter": int(depth)}))
        argv = command + ["--config", str(config)]
    else:
        argv = command + ["--n-iter", depth]
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_solve_trivial_branch_profile_is_zero(tmp_path):
    code = run(["solve", "--bc", "navier2", "--lambda", "0",
                "--out", str(tmp_path), "--grid-step", "0.1"])
    assert code == 0
    rows = (tmp_path / "profile_navier2_0p0_lower.csv").read_text().splitlines()[1:]
    for row in rows:
        _, w, phi, res = row.split(",")
        assert float(w) == 0.0
        assert float(phi) == 0.0
        assert float(res) == 0.0


def test_solve_outputs_are_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["solve", "--bc", "navier2", "--lambda", "8",
                    "--out", str(out)]) == 0
    name = "profile_navier2_8p0_upper.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _csv_cells(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


@pytest.mark.parametrize("argv", [
    ["solve", "--bc", "navier1", "--lambda", "15", "--grid-step", "0.1"],
    ["solve", "--bc", "navier2", "--lambda", "-50", "--grid-step", "0.25"],
])
def test_solve_csv_and_json_carry_the_same_floats(tmp_path, argv):
    for fmt in ("csv", "json"):
        assert run(argv + ["--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    profiles = sorted((tmp_path / "csv").glob("profile_*.csv"))
    summaries = list((tmp_path / "csv").glob("summary_*.csv"))
    assert len(profiles) == 2 and len(summaries) == 1
    for path in profiles:
        header, rows = _csv_cells(path)
        payload = json.loads((tmp_path / "json" / f"{path.stem}.json").read_text())
        assert set(payload) == set(header)
        for j, name in enumerate(header):
            assert [row[j] for row in rows] == [repr(v) for v in payload[name]]
    header, rows = _csv_cells(summaries[0])
    payload = json.loads(
        (tmp_path / "json" / f"{summaries[0].stem}.json").read_text())
    assert payload["branch_count"] == len(rows) == 2
    for row, branch in zip(rows, payload["branches"]):
        assert row[0] == branch["label"]
        assert row[1:] == [repr(branch[name]) for name in header[1:]]


def test_solve_json_format(tmp_path):
    code = run(["solve", "--bc", "navier1", "--lambda", "0",
                "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    payload = json.loads((tmp_path / "summary_navier1_0p0.json").read_text())
    assert payload["branch_count"] == 2
    for branch in payload["branches"]:
        assert set(branch) == {"label", "a_star", "band", "sup_norm_phi"}
        assert 0.0 <= branch["band"] < 1e-10
    profile = json.loads(
        (tmp_path / "profile_navier1_0p0_lower.json").read_text())
    assert set(profile) == {"r", "w", "phi", "residual"}


# ---------------------------------------------------------------------------
# residual-table
# ---------------------------------------------------------------------------

def test_residual_table_layout(tmp_path):
    code = run(["residual-table", "--bc", "navier1", "--branch", "upper",
                "--lambdas", "0,15", "--out", str(tmp_path), "--jobs", "1"])
    assert code == 0
    lines = (tmp_path / "residual_table_navier1_upper.csv").read_text().splitlines()
    assert lines[0] == "r,lambda=0.0,lambda=15.0"
    assert len(lines) == 11
    assert lines[1].startswith("0.0,")


def test_residual_table_zero_column(tmp_path):
    code = run(["residual-table", "--bc", "navier1", "--branch", "lower",
                "--lambdas", "0", "--out", str(tmp_path), "--jobs", "1"])
    assert code == 0
    lines = (tmp_path / "residual_table_navier1_lower.csv").read_text().splitlines()
    for line in lines[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_residual_table_missing_branch(tmp_path):
    code = run(["residual-table", "--bc", "navier1", "--branch", "upper",
                "--lambdas", "40", "--out", str(tmp_path), "--jobs", "1"])
    assert code == 3


def test_residual_table_negative_branch(tmp_path):
    code = run(["residual-table", "--bc", "navier2", "--branch", "negative",
                "--lambdas", "-1,-50", "--out", str(tmp_path), "--jobs", "1"])
    assert code == 0
    lines = (tmp_path / "residual_table_navier2_negative.csv").read_text().splitlines()
    assert lines[0] == "r,lambda=-1.0,lambda=-50.0"
    assert len(lines) == 11


# ---------------------------------------------------------------------------
# critical
# ---------------------------------------------------------------------------

def test_critical_json_output(tmp_path, capsys):
    code = run(["critical", "--bc", "navier2", "--lo", "5", "--hi", "20",
                "--tol", "0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["bc"] == "navier2"
    assert abs(payload["lambda_crit"] - 11.34) <= 0.8
    assert payload["n_iter"] == 7
    assert set(payload["sensitivity"]) == {"6", "8"}
    assert set(payload) == {"bc", "lambda_crit", "bracket", "n_iter",
                            "sensitivity", "a_fold", "lambda_star"}
    assert payload["lambda_star"] == pytest.approx(11.3426, abs=1e-4)


def test_critical_solves_the_depth_n_fold_once(capsys, monkeypatch):
    # the neighbouring depths start from the estimate's fold, so the count
    # at lo and the depth-n Newton solve are not repeated: four counts for
    # the bracket and two for each neighbouring depth, where the library's
    # find_critical_lambda and depth_sensitivity make nine
    bc = epibvp.BoundaryKind.NAVIER_TWO
    estimate = epibvp.find_critical_lambda(bc, 5.0, 20.0, 0.01)
    sensitivity = epibvp.depth_sensitivity(bc, 5.0, 20.0, 0.01)
    expected = json.dumps({
        "bc": "navier2", "lambda_crit": estimate.lambda_crit,
        "bracket": list(estimate.bracket), "n_iter": estimate.n_iter_used,
        "a_fold": estimate.a_fold, "lambda_star": estimate.lambda_star,
        "sensitivity": {str(k): v for k, v in sensitivity.items()},
    }, sort_keys=True)
    rates = []
    count = epibvp.shooting._accepted

    def counted(lam, *args, **kwargs):
        rates.append(lam)
        return count(lam, *args, **kwargs)

    monkeypatch.setattr(epibvp.shooting, "_accepted", counted)
    assert run(["critical", "--bc", "navier2", "--lo", "5", "--hi", "20"]) == 0
    assert len(rates) == 8, rates
    assert capsys.readouterr().out == expected + "\n"


def test_critical_sensitivity_is_around_the_depth_used(capsys):
    code = run(["critical", "--bc", "navier2", "--lo", "11.2", "--hi", "11.6",
                "--n-iter", "6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["n_iter"] == 6
    assert set(payload["sensitivity"]) == {"5", "7"}


def test_critical_bad_bracket_exit_code(capsys):
    code = run(["critical", "--bc", "navier2", "--lo", "15", "--hi", "20",
                "--tol", "0.5"])
    assert code == 2


def test_critical_uses_the_window(tmp_path, capsys):
    # no branch has a in [10, 20], so lo = 5 fails the predicate
    assert run(["critical", "--bc", "navier2", "--lo", "5", "--hi", "20",
                "--tol", "0.05", "--a-window=10:20"]) == 2
    assert "invalid bracket" in capsys.readouterr().err
    # near the fold both roots lie in [-4.7, -4.1], so the narrow window
    # finds the same fold
    argv = ["critical", "--bc", "navier2", "--lo", "11.31", "--hi", "12",
            "--tol", "0.05"]
    assert run(argv) == 0
    default = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert run(argv + ["--a-window=-4.7:-4.1", "--out", str(tmp_path)]) == 0
    narrow = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(narrow["lambda_crit"] - default["lambda_crit"]) <= 0.05
    config = json.loads((tmp_path / "effective_config.json").read_text())
    assert config["a_window"] == [-4.7, -4.1]


def test_critical_writes_to_the_environment_directory(tmp_path, monkeypatch,
                                                      capsys):
    argv = ["critical", "--bc", "navier2", "--lo", "11.31", "--hi", "12",
            "--tol", "0.05", "--a-window=-4.7:-4.1"]
    monkeypatch.delenv(cli._OUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert not list(tmp_path.iterdir())
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    monkeypatch.setenv(cli._OUT_DIR_ENV, str(tmp_path / "env"))
    assert run(argv) == 0
    assert (tmp_path / "env" / "effective_config.json").exists()
    written = (tmp_path / "env" / "critical_navier2.json").read_text()
    assert written == printed + "\n"


@pytest.mark.parametrize("flag,value", [
    ("--lo", "nan"), ("--hi", "inf"), ("--tol", "nan"), ("--tol", "inf"),
    ("--tol", "0"), ("--tol", "-1"), ("--lo", "40"),
])
def test_critical_non_finite_bracket_exit_code(tmp_path, flag, value, capsys):
    # the bracket is checked before the output directory or the echo
    # (which would hold a NaN, not valid JSON) is made
    out = tmp_path / "out"
    bracket = {"--lo": "5", "--hi": "20", "--tol": "0.5", flag: value}
    argv = ["critical", "--bc", "navier2", "--out", str(out)]
    for name, text in bracket.items():
        argv += [name, text]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "invalid bracket: need finite lo < hi and tol > 0\n")
    assert not out.exists()


@pytest.mark.parametrize("lo,hi,message", [
    ("20", "21", "branches persist at hi = 21.0"),
    ("33", "40", "fewer than two branches at lo = 33.0"),
])
def test_critical_failed_count_writes_nothing(tmp_path, lo, hi, message,
                                              capsys):
    # the output directory and its echo are made only once the counts at
    # the bracket ends hold
    out = tmp_path / "out"
    assert run(["critical", "--bc", "navier1", "--lo", lo, "--hi", hi,
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"invalid bracket: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv(tmp_path):
    code = run(["sweep", "--bc", "navier1", "--lambdas", "0,40",
                "--out", str(tmp_path), "--jobs", "1"])
    assert code == 0
    lines = (tmp_path / "sweep_navier1.csv").read_text().splitlines()
    assert lines[0] == "lambda,branch_count,label,a_star,band,sup_norm_phi"
    zero_rows = [l for l in lines[1:] if l.startswith("0.0,")]
    forty_rows = [l for l in lines[1:] if l.startswith("40.0,")]
    assert len(zero_rows) == 2
    for row in zero_rows:
        assert 0.0 <= float(row.split(",")[4]) < 1e-10
    assert forty_rows == ["40.0,0,,,,"]


@pytest.fixture
def three_cpus(monkeypatch):
    # --jobs runs on at most as many processes as processors it may use
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)


def _no_job_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 40 lies past navier1's fold (no branch) and -20 has no upper branch
_FAN_OUT_RATES = "0,15,40,-20"


def _bytes_by_jobs(tmp_path, argv, name):
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / jobs
        assert run(argv + ["--out", str(out), "--jobs", jobs]) == 0
        _no_job_left()
        outputs.append((out / name).read_bytes())
    return outputs


def test_sweep_jobs_write_the_same_bytes(tmp_path):
    # with two jobs the records, roots and all, come back through a pipe
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert run(["sweep", "--bc", "navier2", "--lambdas", "0,8",
                    "--out", str(out), "--jobs", jobs]) == 0
        outputs.append((out / "sweep_navier2.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_at_one_to_three_jobs_writes_the_same_bytes(tmp_path,
                                                          three_cpus):
    outputs = _bytes_by_jobs(tmp_path, ["sweep", "--bc", "navier1", "--lambdas",
                                        _FAN_OUT_RATES], "sweep_navier1.csv")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert b"\n40.0,0,,,,\n" in outputs[0]


def test_sweep_csv_and_json_carry_the_same_floats(tmp_path):
    argv = ["sweep", "--bc", "navier1", "--lambdas", "0,40,-20", "--jobs", "1"]
    for fmt in ("csv", "json"):
        assert run(argv + ["--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    header, rows = _csv_cells(tmp_path / "csv" / "sweep_navier1.csv")
    payload = json.loads((tmp_path / "json" / "sweep_navier1.json").read_text())
    expected = []
    for entry in payload:
        head = [repr(entry["lambda"]), str(entry["branch_count"])]
        expected += [head + [branch["label"]] + [repr(branch[name])
                                                 for name in header[3:]]
                     for branch in entry["branches"]] or [head + [""] * 4]
    assert rows == expected
    assert [row[0] for row in rows] == ["0.0", "0.0", "40.0", "-20.0", "-20.0"]


@pytest.mark.parametrize("step", ["0.03", "0.5"])
def test_solve_and_sweep_take_the_same_sup_norm(tmp_path, step):
    # the summary's sup_norm_phi is taken on the 101-point grid, whatever
    # --grid-step the profiles use
    assert run(["solve", "--bc", "navier1", "--lambda", "15", "--grid-step", step,
                "--out", str(tmp_path)]) == 0
    assert run(["sweep", "--bc", "navier1", "--lambdas", "15", "--jobs", "1",
                "--out", str(tmp_path)]) == 0
    _, summary = _csv_cells(tmp_path / "summary_navier1_15p0.csv")
    _, sweep = _csv_cells(tmp_path / "sweep_navier1.csv")
    assert len(summary) == 2
    assert summary == [row[2:] for row in sweep]


def test_sweep_lambda_range(tmp_path):
    code = run(["sweep", "--bc", "navier2", "--lambda-range", "0:10:5",
                "--out", str(tmp_path), "--jobs", "1", "--format", "json"])
    assert code == 0
    payload = json.loads((tmp_path / "sweep_navier2.json").read_text())
    assert [entry["lambda"] for entry in payload] == [0.0, 5.0, 10.0]
    assert all(entry["branch_count"] == 2 for entry in payload)
    assert all(set(entry) == {"lambda", "branch_count", "branches"}
               for entry in payload)
    assert all(set(branch) == {"label", "a_star", "band", "sup_norm_phi"}
               for entry in payload for branch in entry["branches"])


def _range_reference(lo, hi, step):
    values, k = [], 0
    while lo + k * step <= hi + 1e-12 * max(1.0, abs(hi)):
        values.append(lo + k * step)
        k += 1
    return values


@pytest.mark.parametrize("text, bounds", [
    ("0:12:2", (0.0, 12.0, 2.0)),
    ("-3.7:5.1:0.3", (-3.7, 5.1, 0.3)),
    ("0:0.3:0.1", (0.0, 0.3, 0.1)),
    ("1e-3:2e-3:1e-7", (1e-3, 2e-3, 1e-7)),
    ("5:5:1", (5.0, 5.0, 1.0)),
])
def test_lambda_range_matches_stepping_loop(text, bounds):
    assert cli._parse_lambda_range(text) == _range_reference(*bounds)


def test_lambda_range_count_limit():
    assert len(cli._parse_lambda_range("0:99999:1")) == 100000
    with pytest.raises(cli.UsageError):
        cli._parse_lambda_range("0:100000:1")


@pytest.mark.parametrize("text", [
    "0:nan:1", "0:inf:1", "nan:1:1", "-inf:0:1", "0:1:nan", "0:1:inf",
    "0:1e9:1e-9",   # a billion rates
    "1e20:1e20:1",  # the step is below half an ulp of lo
    "0:1e308:1e-308",
])
def test_lambda_range_rejects_without_building_the_list(text):
    # called directly: a stepping loop never ends on these
    with pytest.raises(cli.UsageError):
        cli._parse_lambda_range(text)


@pytest.mark.parametrize("text", ["", "0", "0:12", "0:12:2:1", "0:x:1",
                                  "0::1", "1e3e:2:1"])
def test_lambda_range_with_a_bad_part_count_or_number(text):
    with pytest.raises(cli.UsageError, match=r"^bad --lambda-range \(want "
                                             r"lo:hi:step\): "):
        cli._parse_lambda_range(text)


@pytest.mark.parametrize("text", ["", "0", "0:1:2", "0:x", ":1", "a:b"])
def test_a_window_with_a_bad_part_count_or_number(text):
    with pytest.raises(cli.UsageError,
                       match=r"^bad --a-window \(want lo:hi\): "):
        cli._parse_window(text)


@pytest.mark.parametrize("text", ["-1e400:0", "0:1e400", "nan:0", "-inf:0",
                                  "-1e308:1e308"])
def test_a_window_bounds_must_be_finite(text):
    with pytest.raises(cli.UsageError, match="--a-window"):
        cli._parse_window(text)


def test_solve_overflowing_window_is_usage_error(tmp_path, capsys):
    code = run(["solve", "--bc", "navier1", "--lambda", "1",
                "--a-window=-1e400:0", "--out", str(tmp_path)])
    assert code == 1
    assert "--a-window" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_solve_window_whose_width_overflows_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["solve", "--bc", "navier1", "--lambda", "1",
                "--a-window=-1e308:1e308", "--out", str(out)])
    assert code == 1
    assert "--a-window" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--a-window=-1e200:0"],
    ["--n-iter", "8", "--a-window=-1e5:0"],
    ["--a-window=-2e5:0"],
    # no window helps here: the rate alone overflows the iterates
    ["--lambda", "1e9", "--a-window=-0.001:0.001"],
    ["--bc", "dirichlet", "--lambda", "1e15", "--a-window=-0.001:0.001"],
])
def test_solve_window_that_overflows_the_iteration(tmp_path, capsys, extra):
    code = run(["solve", "--bc", "navier1", "--lambda", "1", "--out",
                str(tmp_path)] + extra)
    assert code == 1
    err = capsys.readouterr().err
    assert "overflow" in err and "--a-window" in err and "the rate" in err
    assert "r**0" not in err
    assert err.count("\n") == 1


def test_sweep_window_that_overflows_the_iteration(tmp_path, capsys):
    code = run(["sweep", "--bc", "navier1", "--lambdas", "1", "--jobs", "1",
                "--a-window=-1e200:0", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "overflow" in err and "--a-window" in err and "the rate" in err


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_closed_form_output(tmp_path):
    code = run(["linear", "--bc", "dirichlet", "--lambda", "0.5",
                "--out", str(tmp_path), "--grid-step", "0.5"])
    assert code == 0
    lines = (tmp_path / "linear_dirichlet_0p5.csv").read_text().splitlines()
    assert lines[0] == "r,w,phi"
    r0 = lines[1].split(",")
    assert float(r0[2]) == pytest.approx(0.5 / 64.0, rel=1e-15)
    r1 = lines[3].split(",")
    assert float(r1[2]) == 0.0
    coeffs = json.loads(
        (tmp_path / "linear_dirichlet_0p5_coefficients.json").read_text())
    assert coeffs["w"][4] == pytest.approx(0.5 / 16.0, rel=1e-15)


def test_linear_zero_rate(tmp_path):
    code = run(["linear", "--bc", "navier2", "--lambda", "0",
                "--out", str(tmp_path), "--grid-step", "0.25"])
    assert code == 0
    lines = (tmp_path / "linear_navier2_0p0.csv").read_text().splitlines()[1:]
    for line in lines:
        _, w, phi = line.split(",")
        assert float(w) == 0.0 and float(phi) == 0.0


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("bc", ["dirichlet", "navier1", "navier2"])
def test_linear_at_the_largest_rates_writes_finite_numbers(tmp_path, bc):
    for lam in ("1e308", "-1e308", repr(sys.float_info.max)):
        out = tmp_path / lam
        assert run(["linear", "--bc", bc, f"--lambda={lam}",
                    "--out", str(out)]) == 0
        (table,) = out.glob("linear_*[0-9].csv")
        rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
        assert all(math.isfinite(float(x)) for row in rows for x in row)
        assert rows[-1][2] == "0.0"
        (coefficients,) = out.glob("*_coefficients.json")
        _strict_json(coefficients.read_text())


def test_grid_step_that_does_not_divide_one(tmp_path):
    assert run(["linear", "--bc", "navier1", "--lambda", "1",
                "--grid-step", "0.03", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "linear_navier1_1p0.csv").read_text().splitlines()
    r = [line.split(",")[0] for line in lines[1:]]
    assert len(r) == 35
    assert r[:2] == ["0.0", "0.03"] and r[-2:] == ["0.99", "1.0"]


@pytest.mark.parametrize("flag", [["--n-iter", "7"], ["--a-window=-1:1"]])
def test_linear_takes_no_iteration_flags(tmp_path, capsys, flag):
    # the closed form neither iterates nor shoots
    out = tmp_path / "out"
    assert run(["linear", "--bc", "navier1", "--lambda", "1", "--out", str(out)]
               + flag) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: ")
    assert not out.exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_linear_non_finite_rate_is_usage_error(tmp_path, lam, capsys):
    _rejected_before_output(["linear", "--bc", "dirichlet", f"--lambda={lam}"],
                            tmp_path / "out", capsys, lam)


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def test_oracle_check_trivial_rate(capsys):
    code = run(["oracle-check", "--bc", "navier1", "--lambda", "0",
                "--tol", "5e-2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lower" in out and "upper" in out


def test_oracle_check_agrees_on_nonexistence(capsys):
    code = run(["oracle-check", "--bc", "navier1", "--lambda", "40"])
    assert code == 0
    assert "both methods agree" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
def test_oracle_check_bad_tolerance_is_usage_error(tol, capsys):
    # nan used to pass every comparison and exit 0 whatever the deviation
    assert run(["oracle-check", "--bc", "dirichlet", "--lambda", "1",
                "--tol", tol]) == 1
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_oracle_check_non_finite_rate_is_usage_error(tmp_path, lam, capsys):
    _rejected_before_output(["oracle-check", "--bc", "navier1",
                             f"--lambda={lam}"], tmp_path / "out", capsys, lam)


def test_oracle_check_echoes_its_flags(tmp_path, monkeypatch, capsys):
    out = tmp_path / "check"
    argv = ["oracle-check", "--bc", "NAVIER1", "--lambda", "40"]
    assert run(argv + ["--out", str(out)]) == 0
    printed = capsys.readouterr()
    echo = json.loads((out / "effective_config.json").read_text())
    assert set(echo) == _flag_names("oracle-check")
    assert (echo["bc"], echo["lambda"]) == ("navier1", 40.0)
    # the directory may come from the environment; stdout is unchanged
    monkeypatch.setenv(cli._OUT_DIR_ENV, str(tmp_path / "env"))
    assert run(argv) == 0
    assert capsys.readouterr() == printed
    assert (tmp_path / "env" / "effective_config.json").exists()


def test_oracle_check_without_a_directory_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv(cli._OUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert run(["oracle-check", "--bc", "navier1", "--lambda", "40"]) == 0
    assert not list(tmp_path.iterdir())


def test_oracle_check_deviation_above_tolerance(capsys):
    assert run(["oracle-check", "--bc", "navier1", "--lambda", "15",
                "--tol", "0"]) == 4
    assert "above tolerance 0" in capsys.readouterr().err


def test_oracle_check_count_mismatch_lists_both_roots(monkeypatch, capsys):
    monkeypatch.setattr(cli.oracle, "oracle_branches",
                        lambda lam, bc, window: [-0.5])
    code = run(["oracle-check", "--bc", "navier1", "--lambda", "0"])
    assert code == 4
    err = capsys.readouterr().err
    assert "branch count mismatch: 2 (iteration) vs 1 (integrator)" in err
    iteration = [line for line in err.splitlines()
                 if "iteration roots:" in line]
    assert len(iteration) == 1 and iteration[0].count(", ") == 1
    assert "integrator roots: -0.5" in err


# ---------------------------------------------------------------------------
# usage errors and configuration
# ---------------------------------------------------------------------------

def test_unknown_bc_is_usage_error(capsys):
    assert run(["solve", "--bc", "robin", "--lambda", "1"]) == 1


@pytest.mark.parametrize("command,flag,text", [
    (["solve", "--lambda", "1"], "--bc", "robin"),
    (["residual-table", "--bc", "navier1", "--lambdas", "1"], "--branch", "middle"),
])
def test_unknown_name_lists_the_choices(tmp_path, capsys, command, flag, text):
    assert run(command + [flag, text, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert repr(text) in err and "expected one of" in err
    assert not (tmp_path / "effective_config.json").exists()


def test_echo_records_canonical_names(tmp_path):
    assert run(["residual-table", "--bc", " NAVIER1", "--branch", "Upper",
                "--lambdas", "40", "--jobs", "1", "--out", str(tmp_path)]) == 3
    echo = _echo(tmp_path)
    assert (echo["bc"], echo["branch"]) == ("navier1", "upper")


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["solve", "--bc", "navier1"]) == 1


def test_sweep_requires_exactly_one_lambda_source(tmp_path):
    assert run(["sweep", "--bc", "navier1", "--out", str(tmp_path)]) == 1
    assert run(["sweep", "--bc", "navier1", "--lambdas", "1",
                "--lambda-range", "0:1:1", "--out", str(tmp_path)]) == 1


def test_bad_lambda_list(tmp_path):
    assert run(["sweep", "--bc", "navier1", "--lambdas", "a,b",
                "--out", str(tmp_path)]) == 1


def test_config_file_fills_missing_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_step": 0.5}))
    code = run(["linear", "--bc", "dirichlet", "--lambda", "1",
                "--out", str(tmp_path), "--config", str(config)])
    assert code == 0
    lines = (tmp_path / "linear_dirichlet_1p0.csv").read_text().splitlines()
    assert len(lines) == 4  # header + r in {0, 0.5, 1}


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_step": 0.5}))
    code = run(["linear", "--bc", "dirichlet", "--lambda", "1",
                "--out", str(tmp_path), "--config", str(config),
                "--grid-step", "0.25"])
    assert code == 0
    lines = (tmp_path / "linear_dirichlet_1p0.csv").read_text().splitlines()
    assert len(lines) == 6


_SWEEP = ["sweep", "--bc", "navier1", "--lambdas", "0"]
_LINEAR = ["linear", "--bc", "dirichlet", "--lambda", "1"]


@pytest.mark.parametrize("command, config", [
    (_SWEEP, {"jobs": True}),
    (_SWEEP, {"jobs": 1.5}),
    (_SWEEP, {"format": "xml"}),
    (["sweep", "--bc", "navier1"], {"lambdas": [0, True]}),
    (["solve", "--bc", "navier1", "--lambda", "1"], {"n_iter": "seven"}),
    (_LINEAR, {"grid_step": [0.5]}),
    (_SWEEP, {"a_window": [-1, 0, 1]}),
    (_SWEEP, {"jobs": [1]}),
])
def test_config_values_are_type_checked(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(command + ["--out", str(tmp_path), "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, config, message", [
    (["solve", "--bc", "navier1", "--lambda", "1", "--grid-step", "x"], None,
     "argument --grid-step: invalid float value: 'x'"),
    (["oracle-check", "--bc", "navier1", "--lambda", "1", "--tol", "x"], None,
     "argument --tol: invalid float value: 'x'"),
    (["sweep", "--bc", "navier1", "--lambdas", "1", "--jobs", "x"], None,
     "argument --jobs: invalid int value: 'x'"),
    (["residual-table", "--bc", "navier1", "--branch", "upper",
      "--lambdas", "1", "--jobs", "x"], None,
     "argument --jobs: invalid int value: 'x'"),
    (_LINEAR, {"grid-step": "x"}, "bad config value for 'grid-step': 'x'"),
    (_SWEEP, {"jobs": "x"}, "bad config value for 'jobs': 'x'"),
])
def test_malformed_numbers_name_their_type(tmp_path, capsys, argv, config,
                                           message):
    out = tmp_path / "out"
    argv = argv + ["--out", str(out)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["solve", "--bc", "navier1", "--lambda", "15"],
    ["residual-table", "--bc", "navier1", "--branch", "upper",
     "--lambdas", "15", "--jobs", "1"],
    ["critical", "--bc", "navier2", "--lo", "11.31", "--hi", "12",
     "--tol", "0.05", "--a-window=-4.7:-4.1"],
    ["sweep", "--bc", "navier1", "--lambdas", "15", "--jobs", "1"],
    ["linear", "--bc", "navier1", "--lambda", "1"],
    ["oracle-check", "--bc", "navier1", "--lambda", "15"],
])
@pytest.mark.parametrize("below", [False, True])
def test_unusable_out_is_usage_error(tmp_path, capsys, command, below):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    assert run(command + ["--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.err.startswith(f"error: cannot use --out {str(out)!r}: ")
    # every command checks the directory before it prints anything;
    # critical does so after its fold search, every other command before
    # it computes
    assert printed.out == ""
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command,name", [
    (["linear", "--bc", "navier1", "--lambda", "1"], "effective_config.json"),
    (["sweep", "--bc", "navier1", "--lambdas", "1", "--jobs", "1"],
     "sweep_navier1.csv"),
])
def test_output_file_taken_by_a_directory_is_usage_error(tmp_path, capsys,
                                                         command, name):
    (tmp_path / name).mkdir()
    assert run(command + ["--out", str(tmp_path)]) == 1
    printed = capsys.readouterr()
    assert printed.err.startswith(f"error: cannot write {tmp_path / name}: ")
    assert printed.err.count("\n") == 1
    assert printed.out == ""


def test_config_strings_convert_like_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_step": "0.5", "n_iter": "7"}))
    code = run(_LINEAR + ["--out", str(tmp_path), "--config", str(config)])
    assert code == 0
    lines = (tmp_path / "linear_dirichlet_1p0.csv").read_text().splitlines()
    assert len(lines) == 4
    # linear has no --n-iter, so the key is not one of its flags
    assert "n_iter" not in _echo(tmp_path)


@pytest.mark.parametrize("required, optional", [
    (["solve", "--bc", "navier2", "--lambda", "8"],
     ["--grid-step", "0.1", "--format", "json", "--n-iter", "6",
      "--a-window=-10:0"]),
    (["residual-table", "--bc", "navier2", "--branch", "lower"],
     ["--lambdas", "0,8", "--jobs", "1"]),
    (["sweep", "--bc", "navier2"],
     ["--lambda-range", "0:8:8", "--jobs", "1", "--a-window=-10:0"]),
    (["linear", "--bc", "navier1", "--lambda", "1"], ["--grid-step", "0.25"]),
    (["critical", "--bc", "navier2", "--lo", "11.31", "--hi", "12"],
     ["--tol", "0.05", "--a-window=-4.7:-4.1"]),
    (["oracle-check", "--bc", "navier1", "--lambda", "40"], ["--tol", "0.01"]),
])
def test_rerun_from_the_echo_writes_the_same_files(tmp_path, capsys, required,
                                                   optional):
    # the echo writes the window and the rates as JSON lists
    first, second = tmp_path / "first", tmp_path / "second"
    code = run(required + optional + ["--out", str(first)])
    assert code in (0, 3)
    echo = first / "effective_config.json"
    assert run(required + ["--config", str(echo), "--out", str(second)]) == code
    names = sorted(path.name for path in first.iterdir())
    assert len(names) > 1 or required[0] == "oracle-check"
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("EPIBVP_OUT_DIR", str(tmp_path / "envout"))
    code = run(["linear", "--bc", "navier1", "--lambda", "1",
                "--grid-step", "0.5"])
    assert code == 0
    assert (tmp_path / "envout" / "linear_navier1_1p0.csv").exists()


def test_flag_overrides_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("EPIBVP_OUT_DIR", str(tmp_path / "envout"))
    code = run(["linear", "--bc", "navier1", "--lambda", "1",
                "--grid-step", "0.5", "--out", str(tmp_path / "flagout")])
    assert code == 0
    assert (tmp_path / "flagout" / "linear_navier1_1p0.csv").exists()
    assert not (tmp_path / "envout").exists()


def test_residual_table_at_one_to_three_jobs_writes_the_same_bytes(
        tmp_path, three_cpus):
    outputs = _bytes_by_jobs(tmp_path, [
        "residual-table", "--bc", "navier1", "--branch", "upper",
        "--lambdas", _FAN_OUT_RATES], "residual_table_navier1_upper.csv")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert outputs[0].startswith(b"r,lambda=0.0,lambda=15.0\n")


def _failing_job(monkeypatch, fail):
    """Make the sweep worker call fail on the rate 3, the second task of
    the forked job's share at --jobs 2 over the rates 0,1,2,3."""
    caller, worker = os.getpid(), cli._sweep_worker

    def failing(task):
        # never in the calling process: os._exit there would end the tests
        if task[0] == 3.0 and os.getpid() != caller:
            fail()
        return worker(task)

    monkeypatch.setattr(cli, "_sweep_worker", failing)


_FAILING_SWEEP = ["sweep", "--bc", "navier1", "--lambdas", "0,1,2,3",
                  "--jobs", "2"]


def test_exception_in_a_job_is_raised_by_the_caller(tmp_path, monkeypatch,
                                                    capsys, three_cpus):
    def fail():
        raise ValueError("rate 3 refused")

    _failing_job(monkeypatch, fail)
    assert run(_FAILING_SWEEP + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: rate 3 refused\n"
    _no_job_left()
    assert not (tmp_path / "sweep_navier1.csv").exists()


def test_job_that_dies_fails_the_command(tmp_path, monkeypatch, capsys,
                                         three_cpus):
    _failing_job(monkeypatch, lambda: os._exit(9))
    assert run(_FAILING_SWEEP + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: job 2 of 2 ended with exit status 9 before "
                   "sending its results\n")
    _no_job_left()


def test_jobs_are_killed_when_the_caller_fails(three_cpus):
    # the caller's own share fails at once; the job still running is
    # killed and reaped, not waited for
    caller = os.getpid()

    def worker(task):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli._run_pool(worker, [0, 1, 2], 3)
    assert time.monotonic() - start < 30
    _no_job_left()


def test_residual_table_parallel_jobs(tmp_path):
    code = run(["residual-table", "--bc", "navier2", "--branch", "lower",
                "--lambdas", "0,8", "--out", str(tmp_path), "--jobs", "2"])
    assert code == 0
    lines = (tmp_path / "residual_table_navier2_lower.csv").read_text().splitlines()
    assert lines[0] == "r,lambda=0.0,lambda=8.0"


# ---------------------------------------------------------------------------
# --jobs limits
# ---------------------------------------------------------------------------

def test_sweep_non_finite_rate_is_usage_error(tmp_path, capsys):
    # one bad entry among finite ones is enough
    _rejected_before_output(["sweep", "--bc", "navier1", "--lambdas=1,nan",
                             "--jobs", "1"], tmp_path / "out", capsys, "nan")


@pytest.mark.parametrize("rates,lam", [("1,nan", "nan"), ("-inf", "-inf"),
                                       ("0,inf,1", "inf")])
def test_residual_table_non_finite_rate_is_usage_error(tmp_path, capsys,
                                                        rates, lam):
    _rejected_before_output(["residual-table", "--bc", "navier1", "--branch",
                             "upper", f"--lambdas={rates}", "--jobs", "1"],
                            tmp_path / "out", capsys, lam)


@pytest.mark.parametrize("command", [
    ["sweep", "--bc", "navier1", "--lambdas", "0,1"],
    ["residual-table", "--bc", "navier1", "--branch", "upper", "--lambdas", "0,1"],
])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(tmp_path, command, jobs):
    assert run(command + ["--out", str(tmp_path), "--jobs", jobs]) == 1


@pytest.mark.parametrize("command", [
    ["sweep", "--bc", "navier1", "--lambdas", "0,5,10"],
    ["residual-table", "--bc", "navier1", "--branch", "upper",
     "--lambdas", "0,5"],
])
def test_default_jobs_start_no_pool(tmp_path, monkeypatch, command):
    # one job by default: a few rates run faster in the calling process
    # than a second process can start, even on a machine with many processors
    def no_fork():
        raise AssertionError("a job was forked")

    monkeypatch.setattr(cli.os, "fork", no_fork)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert run(command + ["--out", str(tmp_path)]) == 0
    assert _echo(tmp_path)["jobs"] == 1


def test_pool_size_is_clamped(monkeypatch):
    # pure arithmetic: no process is started; the processors counted are
    # those this process may run on, not those the machine has
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert cli._pool_size(100000, 7) == 2
    assert cli._pool_size(2, 1) == 1
    assert cli._pool_size(1, 7) == 1
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    assert cli._pool_size(2, 7) == 1
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(64)))
    assert cli._pool_size(100000, 7) == 7
    assert cli._pool_size(3, 7) == 3
    # a platform without affinity masks counts the machine's processors
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._pool_size(100000, 7) == 7
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._pool_size(4, 7) == 1


def test_import_does_not_load_multiprocessing():
    # the jobs are forked directly: no executor to import
    env = dict(os.environ,
               PYTHONPATH=str(Path(epibvp.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, epibvp.cli; sys.exit('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# flag defaults, the configuration echo and input limits
# ---------------------------------------------------------------------------

def _echo(path):
    return json.loads((path / "effective_config.json").read_text())


@pytest.mark.parametrize("command", [
    ["sweep", "--bc", "navier1", "--lambdas", "40", "--jobs", "1"],
    ["residual-table", "--bc", "navier1", "--branch", "upper",
     "--lambdas", "40", "--jobs", "1"],
])
def test_echo_records_the_window(tmp_path, command):
    run(command + ["--a-window=-50:0", "--out", str(tmp_path)])
    assert _echo(tmp_path)["a_window"] == [-50.0, 0.0]


def _flag_names(command):
    commands = next(action for action in cli._build_parser()._actions
                    if action.dest == "command")
    dests = {action.dest for action in commands.choices[command]._actions}
    names = {"lambda" if dest == "lam" else dest for dest in dests}
    return names - {"help", "out", "config"} | {"command"}


@pytest.mark.parametrize("command", [
    ["solve", "--bc", "navier1", "--lambda", "40"],
    ["residual-table", "--bc", "navier1", "--branch", "upper", "--lambdas", "40",
     "--jobs", "1"],
    ["critical", "--bc", "navier2", "--lo", "11.31", "--hi", "12", "--tol", "0.05",
     "--a-window=-4.7:-4.1"],
    ["sweep", "--bc", "navier1", "--lambdas", "40", "--jobs", "1"],
    ["linear", "--bc", "dirichlet", "--lambda", "1"],
])
def test_echo_lists_every_flag_of_the_command(tmp_path, command, capsys):
    run(command + ["--out", str(tmp_path)])
    assert set(_echo(tmp_path)) == _flag_names(command[0])


def test_echo_expands_a_lambda_range(tmp_path):
    assert run(["sweep", "--bc", "navier1", "--lambda-range", "40:41:1",
                "--jobs", "1", "--out", str(tmp_path)]) == 0
    echo = _echo(tmp_path)
    assert echo["lambdas"] == [40.0, 41.0]
    assert echo["lambda_range"] is None


def test_config_window_is_used_and_a_flag_overrides_it(tmp_path):
    # no navier1 branch at lambda = 15 has a in [10, 20]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"a_window": "10:20"}))
    argv = ["sweep", "--bc", "navier1", "--lambdas", "15", "--jobs", "1",
            "--out", str(tmp_path), "--config", str(config)]
    assert run(argv) == 0
    assert _echo(tmp_path)["a_window"] == [10.0, 20.0]
    lines = (tmp_path / "sweep_navier1.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["0"]
    assert run(argv + ["--a-window=-120:20"]) == 0
    assert _echo(tmp_path)["a_window"] == [-120.0, 20.0]
    lines = (tmp_path / "sweep_navier1.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["2", "2"]


@pytest.mark.parametrize("command", [
    ["critical", "--bc", "navier2", "--lo", "5", "--hi", "20", "--n-iter", "0"],
    ["oracle-check", "--bc", "navier1", "--lambda", "15", "--n-iter", "-1"],
])
def test_depth_below_one_is_usage_error(command, capsys):
    assert run(command) == 1
    assert capsys.readouterr().err.startswith("error: iteration depth")


@pytest.mark.parametrize("text", ["1e-9", "5e-324", "9.99e-6", "0", "0.7", "nan", "inf"])
def test_grid_step_rejects_without_building_the_grid(text):
    # called directly: a step of 1e-9 would ask for a billion points
    with pytest.raises(cli.UsageError, match="--grid-step"):
        cli._grid_step(text)


def test_grid_step_point_limit():
    step = cli._grid_step("1e-5")
    assert cli._profile_grid(step).size == cli._MAX_GRID_POINTS


def test_grid_step_is_checked_before_the_output_directory(tmp_path):
    out = tmp_path / "out"
    assert run(["solve", "--bc", "navier1", "--lambda", "15",
                "--grid-step", "0.7", "--out", str(out)]) == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# python -m epibvp
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam,code", [("1", 0), ("nan", 1)])
def test_module_entry_point_exit_code(tmp_path, lam, code):
    env = dict(os.environ,
               PYTHONPATH=str(Path(epibvp.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "epibvp", "linear", "--bc", "navier1",
         f"--lambda={lam}", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert (tmp_path / "out").exists() == (code == 0)
