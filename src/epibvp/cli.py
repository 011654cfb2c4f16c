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
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import critical, oracle, recover, shooting
from .polyring import evaluate
from .shooting import BoundaryKind, BranchLabel
from .vim import IterationOverflow

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


def _parse_lambda_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"bad --lambdas list: {text!r}")
    if not values:
        raise UsageError("--lambdas list is empty")
    return values


_MAX_RATES = 100_000


def _parse_lambda_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad --lambda-range (want lo:hi:step): {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad --lambda-range (want lo:hi:step): {text!r}")
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise UsageError(f"--lambda-range parts must be finite: {text!r}")
    if step <= 0 or hi < lo:
        raise UsageError("--lambda-range needs lo <= hi and step > 0")
    if lo + step == lo:
        raise UsageError(f"--lambda-range step {step!r} does not advance lo")
    limit = hi + 1e-12 * max(1.0, abs(hi))
    span = (limit - lo) / step
    if not span < _MAX_RATES:
        raise UsageError(f"--lambda-range gives more than {_MAX_RATES} rates")
    # the rates are lo + k * step while they do not pass the limit; the
    # quotient can round either way, so settle the count on the rates
    count = int(span) + 1
    while count > 1 and lo + (count - 1) * step > limit:
        count -= 1
    while lo + count * step <= limit:
        count += 1
    if count > _MAX_RATES:
        raise UsageError(f"--lambda-range gives more than {_MAX_RATES} rates")
    return [lo + k * step for k in range(count)]


def _parse_window(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"bad --a-window (want lo:hi): {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad --a-window (want lo:hi): {text!r}")
    # a width that overflows would fill the scan grid with inf and NaN
    if not math.isfinite(hi - lo):
        raise UsageError(f"--a-window bounds and width must be finite: {text!r}")
    if not lo < hi:
        raise UsageError("--a-window needs lo < hi")
    return (lo, hi)


_MAX_GRID_POINTS = 100_001


def _grid_step(text: str) -> float:
    step = float(text)
    if not 0.0 < step <= 0.5:
        raise UsageError("--grid-step must lie in (0, 0.5]")
    # the grid has at most 1/step + 1 points; count them before any is made
    if not 1.0 / step <= _MAX_GRID_POINTS - 1:
        raise UsageError(f"--grid-step gives more than {_MAX_GRID_POINTS} points")
    return step


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"--tol must be finite and non-negative, got {tol!r}")
    return tol


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise UsageError(f"--jobs must be a positive integer, got {jobs!r}")
    return jobs


def _canonical(kind):
    """Flag type for a name of the enum ``kind``: the canonical value, so
    that the echo reads "navier1" for "NAVIER1"; an unknown name exits
    with the message that lists the choices."""
    def parse(text: str) -> str:
        try:
            return kind.parse(text).value
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


def _resolve_out_dir(flag_value) -> Path:
    if flag_value:
        out = Path(flag_value)
    elif os.environ.get(_OUT_DIR_ENV):
        out = Path(os.environ[_OUT_DIR_ENV])
    else:
        out = Path("epibvp_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _optional_out_dir(flag_value):
    """The output directory of a command whose files are optional: the one
    that --out or $EPIBVP_OUT_DIR names, else None (write nothing)."""
    if flag_value or os.environ.get(_OUT_DIR_ENV):
        return _resolve_out_dir(flag_value)
    return None


def _write_text(path: Path, text: str):
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload):
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _echo_config(out_dir: Path, args: argparse.Namespace):
    # every flag of the command with the value the run used
    payload = {("lambda" if key == "lam" else key): value
               for key, value in vars(args).items() if key not in ("out", "config")}
    _write_json(out_dir / "effective_config.json", payload)


def _lambda_tag(lam: float) -> str:
    return _fmt(lam).replace("-", "m").replace(".", "p")


def _config_value(action: argparse.Action, key: str, value):
    # a value goes through the conversion its flag's text would, so a
    # boolean, a list or a malformed number fails as a bad flag does
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config value for {key!r} must be a string or a number")
    text = value if isinstance(value, str) else repr(value)
    try:
        converted = action.type(text) if action.type else text
    except (TypeError, ValueError):
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
# workers (module level so they survive pickling into the pool)
# ---------------------------------------------------------------------------

def _sweep_worker(task):
    lam, bc, n_iter, window = task
    return critical.sweep([lam], bc, n_iter=n_iter, window=window)[0]


def _pool_size(jobs: int, n_tasks: int) -> int:
    # a fork-based pool starts all its workers at once, so never ask for
    # more than there are tasks or processors
    return max(1, min(jobs, n_tasks, os.cpu_count() or 1))


def _run_pool(worker, tasks, jobs: int):
    workers = _pool_size(jobs, len(tasks))
    if workers == 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    bc = BoundaryKind(args.bc)
    lam = args.lam
    out_dir = _resolve_out_dir(args.out)
    grid = _profile_grid(args.grid_step)
    _echo_config(out_dir, args)
    roots = shooting.find_branches(lam, bc, args.a_window, n_iter=args.n_iter)
    summary_rows = []
    for root in roots:
        w_vals = evaluate(root.w, grid)
        phi_vals = evaluate(root.phi, grid)
        res_vals = np.asarray(recover.residual_table(root.w, lam, grid).values)
        sup = float(np.max(np.abs(phi_vals)))
        summary_rows.append((root.label.value, root.a_star, root.band, sup))
        stem = f"profile_{bc.value}_{_lambda_tag(lam)}_{root.label.value}"
        if args.format == "json":
            _write_json(out_dir / f"{stem}.json", {
                "r": [float(g) for g in grid],
                "w": [float(v) for v in w_vals],
                "phi": [float(v) for v in phi_vals],
                "residual": [float(v) for v in res_vals],
            })
        else:
            rows = [
                (_fmt(g), _fmt(wv), _fmt(pv), _fmt(rv))
                for g, wv, pv, rv in zip(grid, w_vals, phi_vals, res_vals)
            ]
            _write_csv(out_dir / f"{stem}.csv", ("r", "w", "phi", "residual"), rows)
    stem = f"summary_{bc.value}_{_lambda_tag(lam)}"
    if args.format == "json":
        _write_json(out_dir / f"{stem}.json", {
            "bc": bc.value, "lambda": lam, "branch_count": len(roots),
            "branches": [
                {"label": lab, "a_star": a, "band": band, "sup_norm_phi": sup}
                for lab, a, band, sup in summary_rows
            ],
        })
    else:
        _write_csv(out_dir / f"{stem}.csv",
                   ("label", "a_star", "band", "sup_norm_phi"),
                   [(lab, _fmt(a), _fmt(band), _fmt(sup))
                    for lab, a, band, sup in summary_rows])
    print(f"{len(roots)} branch(es) at lambda={_fmt(lam)} [{bc.value}] -> {out_dir}")
    return EXIT_OK if roots else EXIT_NO_BRANCHES


def _cmd_residual_table(args) -> int:
    bc = BoundaryKind(args.bc)
    label = BranchLabel(args.branch)
    if args.lambdas is None:
        raise UsageError("residual-table requires --lambdas")
    out_dir = _resolve_out_dir(args.out)
    _echo_config(out_dir, args)
    tasks = [(lam, bc, args.n_iter, args.a_window) for lam in args.lambdas]
    records = _run_pool(_sweep_worker, tasks, args.jobs)
    columns = {}
    for lam, rec in zip(args.lambdas, records):
        wanted = [b for b in rec.branches if b.label is label]
        if wanted:
            columns[lam] = wanted[0].table.values
    found = [lam for lam in args.lambdas if lam in columns]
    missing = [lam for lam in args.lambdas if lam not in columns]
    for lam in missing:
        print(f"no {label.value} branch at lambda={_fmt(lam)}", file=sys.stderr)
    if not found:
        return EXIT_NO_BRANCHES
    header = ["r"] + [f"lambda={_fmt(lam)}" for lam in found]
    rows = []
    for i, r in enumerate(recover.TABLE_GRID):
        rows.append([_fmt(r)] + [_fmt(columns[lam][i]) for lam in found])
    path = out_dir / f"residual_table_{bc.value}_{label.value}.csv"
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_critical(args) -> int:
    bc = BoundaryKind(args.bc)
    try:
        estimate = critical.find_critical_lambda(
            bc, args.lo, args.hi, args.tol, n_iter=args.n_iter, window=args.a_window)
        sensitivity = critical.depth_sensitivity(
            bc, args.lo, args.hi, args.tol, n_iter=args.n_iter,
            window=args.a_window)
    except critical.InvalidBracket as exc:
        print(f"invalid bracket: {exc}", file=sys.stderr)
        return EXIT_BAD_BRACKET
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
    out_dir = _optional_out_dir(args.out)
    if out_dir is not None:
        _echo_config(out_dir, args)
        _write_text(out_dir / f"critical_{bc.value}.json", text + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    bc = BoundaryKind(args.bc)
    if args.lambdas is not None and args.lambda_range is not None:
        raise UsageError("give exactly one of --lambdas / --lambda-range")
    if args.lambdas is None and args.lambda_range is None:
        raise UsageError("sweep requires --lambdas or --lambda-range")
    if args.lambda_range is not None:
        # the echo lists the rates a range expands to
        args.lambdas, args.lambda_range = args.lambda_range, None
    out_dir = _resolve_out_dir(args.out)
    _echo_config(out_dir, args)
    tasks = [(lam, bc, args.n_iter, args.a_window) for lam in args.lambdas]
    records = _run_pool(_sweep_worker, tasks, args.jobs)
    if args.format == "json":
        payload = [
            {
                "lambda": rec.lam,
                "branch_count": rec.branch_count,
                "branches": [
                    {"a_star": b.a_star, "band": b.band,
                     "sup_norm_phi": recover._sup_norm(b.phi),
                     "label": b.label.value}
                    for b in rec.branches
                ],
            }
            for rec in records
        ]
        path = out_dir / f"sweep_{bc.value}.json"
        _write_json(path, payload)
    else:
        rows = []
        for rec in records:
            if not rec.branches:
                rows.append((_fmt(rec.lam), "0", "", "", "", ""))
            for b in rec.branches:
                rows.append((_fmt(rec.lam), str(rec.branch_count),
                             b.label.value, _fmt(b.a_star), _fmt(b.band),
                             _fmt(recover._sup_norm(b.phi))))
        path = out_dir / f"sweep_{bc.value}.csv"
        _write_csv(path, ("lambda", "branch_count", "label", "a_star",
                          "band", "sup_norm_phi"), rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_linear(args) -> int:
    bc = BoundaryKind(args.bc)
    lam = args.lam
    out_dir = _resolve_out_dir(args.out)
    grid = _profile_grid(args.grid_step)
    _echo_config(out_dir, args)
    profile = recover.linear_approximation(bc, lam)
    w_vals = evaluate(profile.w, grid)
    phi_vals = evaluate(profile.phi, grid)
    stem = f"linear_{bc.value}_{_lambda_tag(lam)}"
    rows = [
        (_fmt(g), _fmt(wv), _fmt(pv))
        for g, wv, pv in zip(grid, w_vals, phi_vals)
    ]
    _write_csv(out_dir / f"{stem}.csv", ("r", "w", "phi"), rows)
    _write_json(out_dir / f"{stem}_coefficients.json", {
        "w": [float(c) for c in profile.w.coeffs],
        "phi": [float(c) for c in profile.phi.coeffs],
    })
    print(f"wrote {out_dir / (stem + '.csv')}")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    bc = BoundaryKind(args.bc)
    lam = args.lam
    out_dir = _optional_out_dir(args.out)
    if out_dir is not None:
        _echo_config(out_dir, args)
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

def _add_common(sub):
    sub.add_argument("--bc", type=_canonical(BoundaryKind), required=True,
                     help="boundary condition: dirichlet | navier1 | navier2")
    sub.add_argument("--n-iter", type=int, default=None,
                     help="iteration depth (default: 7, or 6 for dirichlet)")
    sub.add_argument("--a-window", type=_parse_window, default=shooting.DEFAULT_WINDOW,
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
    solve.add_argument("--lambda", dest="lam", type=float, required=True)
    solve.add_argument("--grid-step", type=_grid_step, default=0.01)
    solve.add_argument("--format", choices=("csv", "json"), default="csv")

    table = commands.add_parser("residual-table",
                                help="defect table for one branch over several rates")
    _add_common(table)
    table.add_argument("--branch", type=_canonical(BranchLabel), required=True,
                       help="lower | upper | positive | negative")
    table.add_argument("--lambdas", type=_parse_lambda_list, default=None,
                       help="comma-separated rates")
    table.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)

    crit = commands.add_parser("critical", help="bisect for the fold rate")
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
    swp.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)
    swp.add_argument("--format", choices=("csv", "json"), default="csv")

    lin = commands.add_parser("linear", help="closed-form small-rate approximation")
    _add_common(lin)
    lin.add_argument("--lambda", dest="lam", type=float, required=True)
    lin.add_argument("--grid-step", type=_grid_step, default=0.01)

    check = commands.add_parser("oracle-check",
                                help="cross-validate against the RK4 integrator")
    _add_common(check)
    check.add_argument("--lambda", dest="lam", type=float, required=True)
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
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IterationOverflow as exc:
        print(f"error: {exc}; narrow --a-window", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
