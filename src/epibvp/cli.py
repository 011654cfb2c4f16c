"""Command-line front end: batch solving and deterministic CSV/JSON output.

Every command writes numbers in full round-trip decimal form, so identical
configurations produce byte-identical files.  Exit codes distinguish the
interesting outcomes::

    0   branches found / all checks passed
    1   usage error
    2   invalid critical-rate bracket
    3   no branches (non-existence; the expected signal past the fold)
    4   oracle cross-check deviation above tolerance
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import re
import signal
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from . import critical, oracle, recover, shooting
from .polyring import evaluate
from .shooting import BoundaryKind, BranchLabel
from .vim import IterationOverflow, _check_depth

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_BRACKET = 2
EXIT_NO_BRANCHES = 3
EXIT_DEVIATION = 4

_OUT_DIR_ENV = "EPIBVP_OUT_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-1,-50,-100" (rate lists) and "-120:20" (windows)
        # start with a dash; widen the negative-number heuristic so they
        # parse as values rather than unknown options
        self._negative_number_matcher = re.compile(r"^-\d[\d.,:eE+-]*$")

    # argparse exits with status 2 on bad flags; the contract wants 1
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return repr(float(x))


def _number(kind, text: str):
    """text as a ``kind`` (float or int), failing with the message argparse
    gives a malformed value of a plain float or int flag."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}")


def _rate(text: str) -> float:
    """Flag type of a rate: a finite float, checked before any output is
    written, with the message the library raises."""
    lam = _number(float, text)
    if not math.isfinite(lam):
        raise UsageError(f"the rate must be finite, got {lam!r}")
    return lam


def _parse_lambda_list(text: str):
    try:
        values = [_rate(part) for part in text.split(",") if part.strip() != ""]
    except argparse.ArgumentTypeError:
        raise UsageError(f"bad --lambdas list: {text!r}")
    if not values:
        raise UsageError("--lambdas list is empty")
    return values


_MAX_RATES = 100_000


def _parse_lambda_range(text: str):
    try:
        lo, hi, step = map(float, text.split(":"))
    except ValueError:
        raise UsageError(f"bad --lambda-range (want lo:hi:step): {text!r}")
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise UsageError(f"--lambda-range parts must be finite: {text!r}")
    if step <= 0 or hi < lo:
        raise UsageError("--lambda-range needs lo <= hi and step > 0")
    if lo + step == lo:
        raise UsageError(f"--lambda-range step {step!r} does not advance lo")
    # the rates are lo + k * step while they do not pass the limit
    limit = hi + 1e-12 * max(1.0, abs(hi))
    count = 0
    while lo + count * step <= limit:
        if count == _MAX_RATES:
            raise UsageError(
                f"--lambda-range gives more than {_MAX_RATES} rates")
        count += 1
    return [lo + k * step for k in range(count)]


def _parse_window(text: str):
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:
        raise UsageError(f"bad --a-window (want lo:hi): {text!r}")
    # a width that overflows would put the search's points at inf and NaN
    if not math.isfinite(hi - lo):
        raise UsageError(f"--a-window bounds and width must be finite: {text!r}")
    if not lo < hi:
        raise UsageError("--a-window needs lo < hi")
    return (lo, hi)


_MAX_GRID_POINTS = 100_001


def _grid_step(text: str) -> float:
    step = _number(float, text)
    if not 0.0 < step <= 0.5:
        raise UsageError("--grid-step must lie in (0, 0.5]")
    # the grid has at most 1/step + 1 points; count them before any is made
    if not 1.0 / step <= _MAX_GRID_POINTS - 1:
        raise UsageError(f"--grid-step gives more than {_MAX_GRID_POINTS} points")
    return step


def _tolerance(text: str) -> float:
    tol = _number(float, text)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"--tol must be finite and non-negative, got {tol!r}")
    return tol


def _jobs(text: str) -> int:
    jobs = _number(int, text)
    if jobs < 1:
        raise UsageError(f"--jobs must be a positive integer, got {jobs!r}")
    return jobs


def _member(kind):
    """Flag type for a name of the enum ``kind``: its member, which the echo
    writes by its canonical name ("navier1" for "NAVIER1"); an unknown name
    exits with the message that lists the choices."""
    def parse(text: str):
        try:
            return kind.parse(text)
        except ValueError as exc:
            raise UsageError(str(exc))
    return parse


def _profile_grid(step: float) -> np.ndarray:
    count = int(round(1.0 / step))
    if abs(count * step - 1.0) < 1e-9:
        return np.linspace(0.0, 1.0, count + 1)
    pts = list(np.arange(0.0, 1.0, step))
    pts.append(1.0)
    return np.asarray(pts)


def _write_text(path: Path, text: str):
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _write_csv(path: Path, header, rows):
    # a string cell is written as it is, a number in round-trip form
    lines = [",".join(header)]
    lines.extend(",".join(cell if isinstance(cell, str) else _fmt(cell)
                          for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload):
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_columns(path: Path, fmt: str, columns):
    """Write (name, floats) columns as a CSV table or as a JSON object of
    lists."""
    if fmt == "json":
        _write_json(path, {name: [float(v) for v in values]
                           for name, values in columns})
    else:
        _write_csv(path, [name for name, _ in columns],
                   zip(*(values for _, values in columns)))


_BRANCH_COLUMNS = ("label", "a_star", "band", "sup_norm_phi")


def _branch_record(root) -> dict:
    """The summary of one branch, as the CSV and JSON forms of solve and
    sweep write it; sup_norm_phi is taken on the 101-point profile grid."""
    return dict(zip(_BRANCH_COLUMNS, (root.label.value, root.a_star, root.band,
                                      root.sup_norm)))


def _open_out(args: argparse.Namespace, optional: bool = False):
    """Make the command's output directory, --out, else $EPIBVP_OUT_DIR,
    else ./epibvp_out, and write the echo ``effective_config.json`` in it:
    every flag but --out and --config with the value the run used, an enum
    by its name.  With ``optional``, write nothing and return None unless
    --out or the variable names a directory."""
    named = args.out or os.environ.get(_OUT_DIR_ENV)
    if optional and not named:
        return None
    out = Path(named or "epibvp_out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(
            f"cannot use --out {str(out)!r}: {exc.strerror or exc}")
    _write_json(out / "effective_config.json", {
        ("lambda" if key == "lam" else key):
        (value.value if isinstance(value, Enum) else value)
        for key, value in vars(args).items() if key not in ("out", "config")})
    return out


def _lambda_tag(lam: float) -> str:
    return _fmt(lam).replace("-", "m").replace(".", "p")


# the echo writes these flags as JSON lists; a list joins back into the text
_LIST_SEPARATORS = {"a_window": ":", "lambdas": ","}


def _config_text(key: str, value) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config value for {key!r} must be a string or a number")
    return value if isinstance(value, str) else repr(value)


def _config_value(action: argparse.Action, key: str, value):
    # a value goes through the conversion its flag's text would, so a
    # boolean, a misplaced list or a malformed number fails as a bad flag does
    separator = _LIST_SEPARATORS.get(action.dest)
    if separator and isinstance(value, list):
        text = separator.join(_config_text(key, item) for item in value)
    else:
        text = _config_text(key, value)
    try:
        converted = action.type(text) if action.type else text
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"bad config value for {key!r}: {value!r}")
    if action.choices is not None and converted not in action.choices:
        raise UsageError(f"config value for {key!r} must be one of "
                         f"{', '.join(map(str, action.choices))}")
    return converted


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    # a --config file becomes the defaults of the command's optional flags,
    # so a second parse lets the flags on the command line win
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    command = commands.choices[args.command]
    actions = {action.dest: action for action in command._actions
               if action.option_strings and not action.required
               and action.dest != "help"}
    defaults = {}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr in actions and value is not None:
            defaults[attr] = _config_value(actions[attr], key, value)
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class JobFailed(Exception):
    """A forked job ended without sending its results."""


def _sweep_worker(task):
    lam, bc, n_iter, window = task
    return critical.sweep([lam], bc, n_iter=n_iter, window=window)[0]


def _pool_size(jobs: int, n_tasks: int) -> int:
    # never more processes than tasks or than processors this process may
    # run on: a job forked onto a busy processor only slows the other down
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return max(1, min(jobs, n_tasks, usable))


def _run_share(worker, share, write: int, pipes):
    """In a forked job: run worker over share and send one pickle of
    (True, results) or (False, exception) through the pipe end write.
    Leaves through ``os._exit``, so nothing the parent registered (atexit
    handlers, stdio buffers, a test runner's teardown) runs a second time;
    the exit status is 0 only once the whole payload is written."""
    status = 1
    try:
        for pipe in pipes:
            pipe.close()
        try:
            payload = (True, [worker(task) for task in share])
        except Exception as exc:
            payload = (False, exc)
        data = pickle.dumps(payload)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_pool(worker, tasks, jobs: int):
    """worker over tasks, in task order, on n = ``_pool_size`` processes:
    the caller is job 1 and runs tasks[0::n], and job k, forked from it,
    runs tasks[k - 1::n] and sends its results back through a pipe.
    Forked jobs start from the caller's loaded modules and warm caches,
    and worker and tasks need no pickling.  An exception a job raised is
    raised again here; a job that ends without sending its results raises
    :class:`JobFailed`.  Every job is reaped before this returns, and on
    an exception here the jobs still running are killed first."""
    n = _pool_size(jobs, len(tasks))
    if n == 1:
        return [worker(task) for task in tasks]
    pids, pipes = [], []
    received = False
    try:
        for i in range(1, n):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(worker, tasks[i::n], write, pipes)
            finally:
                os.close(write)
            pids.append(pid)
        own = [worker(task) for task in tasks[0::n]]
        data = [pipe.read() for pipe in pipes]
        received = True
    finally:
        for pipe in pipes:
            pipe.close()
        if not received:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    results = [None] * len(tasks)
    results[0::n] = own
    for i, (payload, code) in enumerate(zip(data, codes), 1):
        if code != 0:
            raise JobFailed(f"job {i + 1} of {n} ended with exit status "
                            f"{code} before sending its results")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results[i::n] = value
    return results


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    lam = args.lam
    out_dir = _open_out(args)
    grid = _profile_grid(args.grid_step)
    roots = shooting.find_branches(lam, args.bc, args.a_window, n_iter=args.n_iter)
    stem = f"{args.bc.value}_{_lambda_tag(lam)}"
    for root in roots:
        residual = recover.residual_table(root.w, lam, grid).values
        _write_columns(out_dir / f"profile_{stem}_{root.label.value}.{args.format}",
                       args.format, [("r", grid), ("w", evaluate(root.w, grid)),
                                     ("phi", evaluate(root.phi, grid)),
                                     ("residual", residual)])
    branches = [_branch_record(root) for root in roots]
    path = out_dir / f"summary_{stem}.{args.format}"
    if args.format == "json":
        _write_json(path, {"bc": args.bc.value, "lambda": lam,
                           "branch_count": len(roots), "branches": branches})
    else:
        _write_csv(path, _BRANCH_COLUMNS, [list(b.values()) for b in branches])
    print(f"{len(roots)} branch(es) at lambda={_fmt(lam)} [{args.bc.value}] -> {out_dir}")
    return EXIT_OK if roots else EXIT_NO_BRANCHES


def _cmd_residual_table(args) -> int:
    bc, label = args.bc, args.branch
    if args.lambdas is None:
        raise UsageError("residual-table requires --lambdas")
    out_dir = _open_out(args)
    tasks = [(lam, bc, args.n_iter, args.a_window) for lam in args.lambdas]
    records = _run_pool(_sweep_worker, tasks, args.jobs)
    tables = {}
    for lam, rec in zip(args.lambdas, records):
        wanted = [b for b in rec.branches if b.label is label]
        if wanted:
            tables[lam] = wanted[0].table.values
    found = [lam for lam in args.lambdas if lam in tables]
    missing = [lam for lam in args.lambdas if lam not in tables]
    for lam in missing:
        print(f"no {label.value} branch at lambda={_fmt(lam)}", file=sys.stderr)
    if not found:
        return EXIT_NO_BRANCHES
    path = out_dir / f"residual_table_{bc.value}_{label.value}.csv"
    _write_columns(path, "csv", [("r", recover.TABLE_GRID)] + [
        (f"lambda={_fmt(lam)}", tables[lam]) for lam in found])
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_critical(args) -> int:
    bc = args.bc
    # a bracket that fails its checks or its counts raises before any output
    estimate = critical.find_critical_lambda(
        bc, args.lo, args.hi, args.tol, n_iter=args.n_iter, window=args.a_window)
    out_dir = _open_out(args, optional=True)
    sensitivity = critical._neighbours(
        bc, estimate.n_iter_used, estimate.a_fold, estimate.lambda_star,
        args.tol, args.a_window)
    payload = {
        "bc": bc.value,
        "lambda_crit": estimate.lambda_crit,
        "bracket": list(estimate.bracket),
        "n_iter": estimate.n_iter_used,
        "a_fold": estimate.a_fold,
        "lambda_star": estimate.lambda_star,
        "sensitivity": {str(k): v for k, v in sensitivity.items()},
    }
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if out_dir is not None:
        _write_text(out_dir / f"critical_{bc.value}.json", text + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.lambdas is not None and args.lambda_range is not None:
        raise UsageError("give exactly one of --lambdas / --lambda-range")
    if args.lambdas is None and args.lambda_range is None:
        raise UsageError("sweep requires --lambdas or --lambda-range")
    if args.lambda_range is not None:
        # the echo lists the rates a range expands to
        args.lambdas, args.lambda_range = args.lambda_range, None
    out_dir = _open_out(args)
    tasks = [(lam, args.bc, args.n_iter, args.a_window) for lam in args.lambdas]
    records = _run_pool(_sweep_worker, tasks, args.jobs)
    path = out_dir / f"sweep_{args.bc.value}.{args.format}"
    if args.format == "json":
        _write_json(path, [{"lambda": rec.lam, "branch_count": rec.branch_count,
                            "branches": [_branch_record(b) for b in rec.branches]}
                           for rec in records])
    else:
        rows = []
        for rec in records:
            head = [rec.lam, str(rec.branch_count)]
            if not rec.branches:
                rows.append(head + [""] * len(_BRANCH_COLUMNS))
            rows.extend(head + list(_branch_record(b).values()) for b in rec.branches)
        _write_csv(path, ("lambda", "branch_count") + _BRANCH_COLUMNS, rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_linear(args) -> int:
    out_dir = _open_out(args)
    grid = _profile_grid(args.grid_step)
    profile = recover.linear_approximation(args.bc, args.lam)
    stem = f"linear_{args.bc.value}_{_lambda_tag(args.lam)}"
    path = out_dir / f"{stem}.csv"
    _write_columns(path, "csv", [("r", grid), ("w", evaluate(profile.w, grid)),
                                 ("phi", evaluate(profile.phi, grid))])
    _write_columns(out_dir / f"{stem}_coefficients.json", "json",
                   [("w", profile.w.coeffs), ("phi", profile.phi.coeffs)])
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    bc, lam = args.bc, args.lam
    _open_out(args, optional=True)
    roots = shooting.find_branches(lam, bc, args.a_window, n_iter=args.n_iter)
    ivp_roots = oracle.oracle_branches(lam, bc, args.a_window)
    if not roots and not ivp_roots:
        print(f"no branches at lambda={_fmt(lam)} [{bc.value}]: both methods agree")
        return EXIT_OK
    if len(roots) != len(ivp_roots):
        print(
            f"branch count mismatch: {len(roots)} (iteration) vs "
            f"{len(ivp_roots)} (integrator)",
            file=sys.stderr,
        )
        for method, values in (("iteration", [r.a_star for r in roots]),
                               ("integrator", ivp_roots)):
            listed = ", ".join(_fmt(x) for x in values) or "none"
            print(f"  {method} roots: {listed}", file=sys.stderr)
        return EXIT_DEVIATION
    worst = 0.0
    for root in roots:
        nearest = min(ivp_roots, key=lambda x: abs(x - root.a_star))
        da = abs(nearest - root.a_star)
        rs, ws, _ = oracle.ivp_trajectory(nearest, lam)
        phi_ivp = oracle.profile_from_trajectory(rs, ws)
        sample = slice(0, rs.size, max(1, rs.size // 512))
        dphi = float(np.max(np.abs(
            evaluate(root.phi, rs[sample]) - phi_ivp[sample])))
        worst = max(worst, da, dphi)
        print(
            f"{root.label.value}: a*={_fmt(root.a_star)} vs {_fmt(nearest)} "
            f"(|da|={da:.3e}), profile deviation {dphi:.3e}"
        )
    if worst > args.tol:
        print(f"deviation {worst:.3e} above tolerance {args.tol:g}", file=sys.stderr)
        return EXIT_DEVIATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, iterates=True):
    sub.add_argument("--bc", type=_member(BoundaryKind), required=True,
                     help="boundary condition: dirichlet | navier1 | navier2")
    if iterates:
        sub.add_argument("--n-iter", type=int, default=None,
                         help="iteration depth (default: 7, or 6 for dirichlet)")
        sub.add_argument("--a-window", type=_parse_window,
                         default=shooting.DEFAULT_WINDOW,
                         help="shooting window lo:hi (default -120:20)")
    sub.add_argument("--out", default=None,
                     help=f"output directory (default ${_OUT_DIR_ENV} or ./epibvp_out)")
    sub.add_argument("--config", default=None,
                     help="JSON file with defaults; explicit flags win")


def _build_parser() -> _Parser:
    parser = _Parser(prog="epibvp",
                     description="Radial epitaxial-deposition boundary value solver")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve all branches at one rate")
    _add_common(solve)
    solve.add_argument("--lambda", dest="lam", type=_rate, required=True)
    solve.add_argument("--grid-step", type=_grid_step, default=0.01)
    solve.add_argument("--format", choices=("csv", "json"), default="csv")

    table = commands.add_parser("residual-table",
                                help="defect table for one branch over several rates")
    _add_common(table)
    table.add_argument("--branch", type=_member(BranchLabel), required=True,
                       help="lower | upper | positive | negative")
    table.add_argument("--lambdas", type=_parse_lambda_list, default=None,
                       help="comma-separated rates")
    table.add_argument("--jobs", type=_jobs, default=1)

    crit = commands.add_parser("critical", help="count bracket of the fold rate")
    _add_common(crit)
    crit.add_argument("--lo", type=float, required=True)
    crit.add_argument("--hi", type=float, required=True)
    crit.add_argument("--tol", type=float, default=0.01)

    swp = commands.add_parser("sweep", help="branch census over many rates")
    _add_common(swp)
    swp.add_argument("--lambdas", type=_parse_lambda_list, default=None,
                     help="comma-separated rates")
    swp.add_argument("--lambda-range", type=_parse_lambda_range, default=None,
                     help="lo:hi:step")
    swp.add_argument("--jobs", type=_jobs, default=1)
    swp.add_argument("--format", choices=("csv", "json"), default="csv")

    lin = commands.add_parser("linear", help="closed-form small-rate approximation")
    _add_common(lin, iterates=False)
    lin.add_argument("--lambda", dest="lam", type=_rate, required=True)
    lin.add_argument("--grid-step", type=_grid_step, default=0.01)

    check = commands.add_parser("oracle-check",
                                help="cross-validate against the Taylor-series integrator")
    _add_common(check)
    check.add_argument("--lambda", dest="lam", type=_rate, required=True)
    check.add_argument("--tol", type=_tolerance, default=5e-2)

    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "residual-table": _cmd_residual_table,
    "critical": _cmd_critical,
    "sweep": _cmd_sweep,
    "linear": _cmd_linear,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse_args(parser, argv)
        # a bad depth fails before any output is written
        if vars(args).get("n_iter") is not None:
            _check_depth(args.n_iter)
        return _COMMANDS[args.command](args)
    except critical.InvalidBracket as exc:
        print(f"invalid bracket: {exc}", file=sys.stderr)
        return EXIT_BAD_BRACKET
    except IterationOverflow as exc:
        print(f"error: {exc}; narrow --a-window or take a rate of smaller "
              f"magnitude", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ValueError, JobFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
