"""epibvp benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the workload runs as a closed loop of about
``--seconds`` seconds (a fixed number of rounds, see
``workloads.ROUND_NOMINAL_S``) and the end-to-end metrics are reported.
With ``--trace 1`` three census or oracle rounds, or one fold or cli
round, run once untraced and once with every public function of the
package wrapped in a span, and the per-layer metrics are reported; the
spans are written to ``.perfbench/trace-<workload>-seed<seed>.csv``.

Times are nominal seconds (see ``calibrate.py``).

Lines before the last are informational (host facts, the workload's own
named metrics, failure causes).  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

# one thread per process for BLAS and OpenMP, inherited by the CLI's pool
# workers and the set-up probes; must be set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import stats  # noqa: E402
import workloads as wl  # noqa: E402
from calibrate import NominalClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 15
SETUP_CODE = (
    "import epibvp\n"
    "from epibvp.shooting import BoundaryKind, boundary_residual\n"
    "for bc in BoundaryKind:\n"
    "    boundary_residual(-1.0, 1.0, bc)\n"
)

WARNING_KINDS = {
    "did not resolve below tolerance": "unresolved",
    "is not sign-definite": "not_sign_definite",
    "not pointwise ordered": "not_ordered",
}

PER_LAYER_CALLS = (
    "shooting.boundary_residual", "shooting.find_branches",
    "shooting.classify_branch", "vim.iterate", "recover.solve_profile",
    "recover.recover_phi", "recover.residual_table", "polyring.evaluate",
    "critical.find_critical_lambda", "critical.depth_sensitivity",
    "oracle.oracle_branches", "oracle.ivp_integrate",
)
PER_LAYER_BUSY = PER_LAYER_CALLS + (
    "oracle.ivp_trajectory", "oracle.profile_from_trajectory",
    "cli.main.solve", "cli.main.sweep", "cli.main.residual-table",
)
PER_LAYER_SELF = (
    "shooting.find_branches", "critical.find_critical_lambda",
    "oracle.oracle_branches", "cli.main.solve", "cli.main.sweep",
    "cli.main.residual-table",
)
DEPTHS = (5, 6, 7, 8)


def host_facts() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def current_cpu() -> int:
    with open("/proc/self/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[36])


def measure_setup() -> float:
    """Median time from interpreter start to the first warm call.

    The probes and the speed reference share one processor, so that the
    reference measures the speed the probes ran at.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {current_cpu()})
    try:
        clock = NominalClock()
        times = []
        for _ in range(SETUP_REPEATS):
            _, _, raw = clock.call(
                subprocess.run, [sys.executable, "-c", SETUP_CODE], env=env,
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            times.append(raw)
    finally:
        os.sched_setaffinity(0, allowed)
    # one factor for all probes: their samples are short, so a window of
    # them would be noisy
    return clock.factor * stats.median(times)


def load_package() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    from epibvp import cli, critical, oracle, polyring, recover, shooting, vim

    return SimpleNamespace(cli=cli, critical=critical, oracle=oracle, polyring=polyring,
                           recover=recover, shooting=shooting, vim=vim)


def warm_up(modules):
    # fills the per-length kernel caches for every depth the workloads use
    for bc in modules.shooting.BoundaryKind:
        for depth in DEPTHS:
            modules.shooting.boundary_residual(-1.0, 1.0, bc, depth)


class Runner:
    """Runs one workload's cases, capturing warnings and tallying outcomes."""

    def __init__(self, workload: str, ops: wl.Operations):
        self.cases = {
            "census": lambda seed, n: wl.point_cases("census", seed, n),
            "oracle": lambda seed, n: wl.point_cases("oracle", seed, n),
            "fold": wl.fold_rounds,
            "cli": wl.cli_rounds,
        }[workload]
        self.op = getattr(ops, workload)
        self.warnings = Counter()
        self.outcomes = []

    def run(self, case) -> float:
        """Run one case; returns its latency in nominal seconds."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = self.op(case)
        for item in caught:
            text = str(item.message)
            kind = next((k for pat, k in WARNING_KINDS.items() if pat in text), "other")
            self.warnings[kind] += 1
        self.outcomes.append(outcome)
        return outcome.seconds

    def summary(self):
        attempted = sum(o.attempted for o in self.outcomes)
        failed = sum(o.failed for o in self.outcomes)
        codes = Counter(code for o in self.outcomes for code in o.failures)
        correct = all(code in wl.KNOWN_FAILURES for code in codes)
        return attempted, failed, correct, codes

    def parts(self, name):
        return [t for o in self.outcomes for t in o.parts.get(name, ())]


def metric(value, unit):
    return {"value": value, "unit": unit}


def workload_metrics(workload: str, runner: Runner, latencies, factor: float) -> dict:
    """The workload's own named figures, in nominal seconds (informational).

    ``factor`` is the run's mean speed factor (nominal per raw second).
    """
    out = {}
    if workload in ("census", "oracle"):
        out[f"{workload}.case_p50_s"] = metric(stats.median(latencies), "s")
        out[f"{workload}.cases_per_s"] = metric(len(latencies) / sum(latencies), "1/s")
        tail = stats.tail(latencies)
        if tail is not None:
            value, pct, n = tail
            out[f"{workload}.case_tail_s"] = dict(metric(value, "s"), percentile=pct, n=n)
    elif workload == "fold":
        for part in ("critical", "sensitivity"):
            rounds = [sum(o.parts[part]) for o in runner.outcomes]
            out[f"fold.{part}_wall_s"] = metric(stats.median(rounds), "s")
    else:
        for part in ("solve", "sweep", "table"):
            out[f"cli.{part}_s"] = metric(stats.median(runner.parts(part)), "s")
    # unscaled, so a reader can check that nominal and raw times agree
    out["raw.case_p50_s"] = metric(stats.median([o.raw for o in runner.outcomes]), "s")
    out["speed_factor"] = metric(factor, "ratio")
    return out


def per_layer_metrics(summary, runner: Runner, speed: float) -> dict:
    """Per-layer figures from the spans; times are scaled to nominal seconds."""
    calls, busy, own = summary["calls"], summary["busy"], summary["self"]
    results, child = summary["results"], summary["child_calls"]
    out = {}
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    for name in PER_LAYER_BUSY:
        out[f"{name}.busy_s"] = metric(speed * busy.get(name, 0.0), "s")
    for name in PER_LAYER_SELF:
        out[f"{name}.self_s"] = metric(speed * own.get(name, 0.0), "s")
    for depth in DEPTHS:
        n = summary["depth_calls"].get(depth, 0)
        mean = 1e6 * speed * summary["depth_busy"][depth] / n if n else 0.0
        out[f"shooting.boundary_residual.mean_us.d{depth}"] = metric(mean, "us")

    def ratio(num, den):
        return num / den if den else 0.0

    out["shooting.evals_per_root"] = metric(
        ratio(calls.get("shooting.boundary_residual", 0),
              results.get("shooting.find_branches", 0)), "ratio")
    for kind in WARNING_KINDS.values():
        out[f"shooting.warnings.{kind}"] = metric(runner.warnings.get(kind, 0), "count")
    out["critical.find_critical_lambda.scans_per_call"] = metric(
        ratio(child.get(("critical.find_critical_lambda", "shooting.find_branches"), 0),
              calls.get("critical.find_critical_lambda", 0)), "ratio")
    out["critical.depth_sensitivity.searches_per_call"] = metric(
        ratio(child.get(("critical.depth_sensitivity", "critical.find_critical_lambda"), 0),
              calls.get("critical.depth_sensitivity", 0)), "ratio")
    out["oracle.ivp_calls_per_root"] = metric(
        ratio(child.get(("oracle.oracle_branches", "oracle.ivp_integrate"), 0),
              results.get("oracle.oracle_branches", 0)), "ratio")
    out["trace.spans"] = metric(sum(calls.values()), "count")
    return out


def run_untraced(workload, runner, ops, seed, seconds, modules):
    setup_s = measure_setup()
    warm_up(modules)
    ops.clock = NominalClock()
    cases = runner.cases(seed, wl.rounds_for(workload, seconds))
    latencies = [runner.run(case) for case in cases]
    factor = ops.clock.factor
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("workload " + json.dumps(workload_metrics(workload, runner, latencies, factor)))
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "case_p50_s": metric(stats.median(latencies), "s"),
        "cases_per_s": metric(len(latencies) / sum(latencies), "1/s"),
    }


def run_traced(workload, runner, ops, seed, modules):
    """Fixed cases, untraced then traced; per-layer figures from the second pass."""
    from tracing import Tracer, summarise

    warm_up(modules)
    cases = runner.cases(seed, 1 if workload in ("fold", "cli") else 3)
    ops.clock = NominalClock()
    untraced = sum(runner.run(case) for case in cases)
    runner.warnings.clear()
    first = len(runner.outcomes)
    ops.clock = NominalClock()
    tracer = Tracer()
    tracer.install()
    try:
        traced = 0.0
        for index, case in enumerate(cases):
            tracer.case = index
            traced += runner.run(case)
    finally:
        tracer.uninstall()
    factor = ops.clock.factor
    tracer.write(OUT / f"trace-{workload}-seed{seed}.csv")
    out = per_layer_metrics(summarise(tracer.spans), runner, factor)
    out["trace.overhead_share"] = metric((traced - untraced) / untraced, "ratio")
    out["cli.output_bytes"] = metric(
        sum(o.output_bytes for o in runner.outcomes[first:]), "B")
    efficiency = 0.0
    if workload == "cli":
        bc, rates = cases[0].sweep[1]
        times = {}
        for jobs in (1, ops.jobs):
            probe = wl.Outcome()
            _, out_dir = ops.cli_main(ops.sweep_argv(bc, rates, jobs), probe, "sweep")
            ops.collect(probe, out_dir)
            times[jobs] = probe.seconds
        efficiency = times[1] / (ops.jobs * times[ops.jobs])
    out["cli.pool.efficiency"] = metric(efficiency, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "fold", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "epibvp" / "__init__.py").is_file():
        print(f"error: no epibvp sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    modules = load_package()
    print("host " + json.dumps(host_facts()))
    OUT.mkdir(exist_ok=True)
    # never more pool workers than processors this process may use
    jobs = min(2, len(os.sched_getaffinity(0)))
    if args.workload != "cli":
        # one processor for the whole run: the speed reference then always
        # measures the processor the timed call ran on
        os.sched_setaffinity(0, {current_cpu()})
    with tempfile.TemporaryDirectory(prefix="cli-", dir=OUT) as scratch:
        ops = wl.Operations(modules, Path(scratch), jobs)
        runner = Runner(args.workload, ops)
        if args.trace:
            metrics = run_traced(args.workload, runner, ops, args.seed, modules)
        else:
            metrics = run_untraced(args.workload, runner, ops, args.seed,
                                   args.seconds, modules)
    attempted, failed, correct, codes = runner.summary()
    if codes:
        print("failures " + json.dumps({
            code: {"count": n, "cause": wl.KNOWN_FAILURES.get(code, "unexpected")}
            for code, n in sorted(codes.items())}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
