"""Command-line interface: outputs, exit codes, determinism."""

import json

import pytest

from epibvp import cli
from epibvp.cli import main


def run(argv):
    return main(argv)


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
def test_solve_non_finite_rate_is_usage_error(tmp_path, lam):
    code = run(["solve", "--bc", "navier1", "--lambda", lam,
                "--out", str(tmp_path)])
    assert code == 1


def test_solve_depth_above_maximum_is_usage_error(tmp_path):
    code = run(["solve", "--bc", "navier1", "--lambda", "1", "--n-iter", "11",
                "--out", str(tmp_path)])
    assert code == 1


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
])
def test_critical_non_finite_bracket_exit_code(flag, value, capsys):
    bracket = {"--lo": "5", "--hi": "20", "--tol": "0.5", flag: value}
    argv = ["critical", "--bc", "navier2"]
    for name, text in bracket.items():
        argv += [name, text]
    assert run(argv) == 2
    assert "invalid bracket" in capsys.readouterr().err


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


def test_sweep_jobs_write_the_same_bytes(tmp_path):
    # with two jobs the records, roots and all, cross the process pool
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert run(["sweep", "--bc", "navier2", "--lambdas", "0,8",
                    "--out", str(out), "--jobs", jobs]) == 0
        outputs.append((out / "sweep_navier2.csv").read_bytes())
    assert outputs[0] == outputs[1]


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
])
def test_solve_window_that_overflows_the_iteration(tmp_path, capsys, extra):
    code = run(["solve", "--bc", "navier1", "--lambda", "1", "--out",
                str(tmp_path)] + extra)
    assert code == 1
    err = capsys.readouterr().err
    assert "overflow" in err and "--a-window" in err
    assert "r**0" not in err


def test_sweep_window_that_overflows_the_iteration(tmp_path, capsys):
    code = run(["sweep", "--bc", "navier1", "--lambdas", "1", "--jobs", "1",
                "--a-window=-1e200:0", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "overflow" in err and "--a-window" in err


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


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_linear_non_finite_rate_is_usage_error(tmp_path, lam):
    assert run(["linear", "--bc", "dirichlet", "--lambda", lam,
                "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.glob("linear_*"))


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
    (["sweep", "--bc", "navier1"], {"lambdas": [0, 15]}),
    (_LINEAR, {"n_iter": "seven"}),
    (_LINEAR, {"grid_step": [0.5]}),
])
def test_config_values_are_type_checked(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(command + ["--out", str(tmp_path), "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


def test_config_strings_convert_like_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_step": "0.5", "n_iter": "7"}))
    code = run(_LINEAR + ["--out", str(tmp_path), "--config", str(config)])
    assert code == 0
    lines = (tmp_path / "linear_dirichlet_1p0.csv").read_text().splitlines()
    assert len(lines) == 4


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


def test_residual_table_parallel_jobs(tmp_path):
    code = run(["residual-table", "--bc", "navier2", "--branch", "lower",
                "--lambdas", "0,8", "--out", str(tmp_path), "--jobs", "2"])
    assert code == 0
    lines = (tmp_path / "residual_table_navier2_lower.csv").read_text().splitlines()
    assert lines[0] == "r,lambda=0.0,lambda=8.0"


# ---------------------------------------------------------------------------
# worker pool limits
# ---------------------------------------------------------------------------

def test_sweep_non_finite_rate_is_usage_error(tmp_path):
    code = run(["sweep", "--bc", "navier1", "--lambdas", "nan",
                "--out", str(tmp_path), "--jobs", "1"])
    assert code == 1
    assert not (tmp_path / "sweep_navier1.csv").exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--bc", "navier1", "--lambdas", "0,1"],
    ["residual-table", "--bc", "navier1", "--branch", "upper", "--lambdas", "0,1"],
])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(tmp_path, command, jobs):
    assert run(command + ["--out", str(tmp_path), "--jobs", jobs]) == 1


def test_pool_size_is_clamped(monkeypatch):
    # pure arithmetic: no process is started
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._pool_size(100000, 7) == 2
    assert cli._pool_size(2, 1) == 1
    assert cli._pool_size(1, 7) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._pool_size(100000, 7) == 7
    assert cli._pool_size(3, 7) == 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._pool_size(4, 7) == 1


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
