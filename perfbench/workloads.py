"""Seeded inputs, the operations each workload runs, and their correctness gates.

Every workload is a closed loop driven by one caller: the next case starts
when the previous one has returned.  Only ``cli`` starts other processes,
through the ``--jobs`` pool of the command line.

Rates are drawn uniformly on [-100, 1.2 * lambda_ref(bc)] by systematic
sampling (one seeded shift per stream).  A run makes a fixed number of
rounds, derived from ``--seconds``, so the same seed and length give the
same cases on every commit.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BCS = ("dirichlet", "navier1", "navier2")

# acceptance references: (lambda_ref, half-width w, tol of the fold search)
REFERENCE = {
    "dirichlet": (169.0, 10.0, 0.1),
    "navier1": (31.94, 1.0, 0.01),
    "navier2": (11.34, 0.5, 0.01),
}
LAMBDA_MIN = -100.0
LAMBDA_MAX_FACTOR = 1.2
ORACLE_TOL = 5e-2
GRID_POINTS = 101

# Failures whose cause is known and recorded.  They are counted as failed
# operations; any other failure makes the run incorrect.  Each code holds
# only in the bc and lam range its cause names; the range edges leave a
# margin beyond the last failure seen on lam grids of step 0.05 to 1.
STEEP_BRANCH_MISSING = "dirichlet-steep-branch-missing"
ROOT_BEYOND_REACH = "root-beyond-reach"
TRUNCATION_DEVIATION = "dirichlet-truncation-deviation"
NEAR_FOLD_COUNT = "near-fold-count-mismatch"
# dirichlet, the steep branch (a below -83 for lam below -10): missing, seen
# up to lam = -29.1; its residual table over the cap (seen up to -17.7) or
# its root or profile off RK4 (seen up to -16.8)
STEEP_MISSING_BELOW = -18.0
STEEP_NOISE_BELOW = -10.0
FOLD_DEVIATION_ABOVE = 148.0    # dirichlet; seen from lam = 149.3
# spurious roots just beyond reach: seen at a = -74.5 to -73.1, on navier1
# (lam = -96.0 to -66.05 and 29.2) and navier2 (lam = -82.07, -76.07), each
# in a lam window narrower than 0.05
SPURIOUS_A_MIN = -76.0
KNOWN_FAILURES = {
    STEEP_BRANCH_MISSING: (
        "dirichlet at depth 6 and lam below -18: the steep branch (a below "
        "-85) is beyond the truncation's reach, so one branch is returned "
        "where two are expected (RK4 finds two)"),
    ROOT_BEYOND_REACH: (
        "a root with a below -70, where the truncated iteration diverges, is "
        "accepted on its noise-adjusted residual although its residual table "
        "exceeds DEFAULT_RESIDUAL_CAP: the steep dirichlet branch for lam "
        "below -10, or spurious extra roots with a between -76 and -70, the "
        "other roots matching the expected count"),
    TRUNCATION_DEVIATION: (
        "dirichlet at depth 6: on the steep branch (lam below -10) and near "
        "the fold (lam above 148) the root or profile differs from RK4 by "
        "more than 5e-2"),
    NEAR_FOLD_COUNT: (
        "within the acceptance half-width of lambda_ref the truncated fold "
        "and the RK4 fold may fall on either side of lam"),
}

# the depth-7 iteration diverges for a below about -70 (package README,
# numerical notes)
REACH = -70.0


def lambda_range(bc: str):
    return LAMBDA_MIN, LAMBDA_MAX_FACTOR * REFERENCE[bc][0]


def systematic(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n points on [lo, hi], one in each n-th, all shifted by one uniform draw.

    Each point is uniform on [lo, hi], and every seed covers the range
    evenly, so runs of different seeds see the same mix of cheap and dear
    cases.
    """
    shift = rng.random()
    return [lo + (k + shift) / n * (hi - lo) for k in range(n)]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# nominal seconds of one round of each workload at the seed commit; a run
# makes the rounds that fill its seconds best, so two commits run the same
# cases
ROUND_NOMINAL_S = {"census": 0.96, "oracle": 4.2, "fold": 11.7, "cli": 5.1}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_NOMINAL_S[workload]))


@dataclass(frozen=True)
class Case:
    bc: str
    lam: float


def point_cases(workload: str, seed: int, rounds: int) -> list:
    """``rounds`` rounds of one (bc, lam) case per boundary condition."""
    rng = _rng(workload, seed)
    rates = {bc: systematic(rng, *lambda_range(bc), rounds) for bc in BCS}
    return [Case(bc, rates[bc][k]) for k in range(rounds) for bc in BCS]


@dataclass(frozen=True)
class FoldSearch:
    bc: str
    lo: float
    hi: float
    tol: float


def fold_rounds(seed: int, rounds: int) -> list:
    """Rounds of one valid fold bracket per boundary condition.

    lo lies between 2w and w below lambda_ref and the span is 3w, so both
    ends sit outside the acceptance band (two branches at lo, none at hi)
    and every bracket takes the same number of bisection steps.
    """
    rng = _rng("fold", seed)
    shifts = {bc: systematic(rng, 1.0, 2.0, rounds) for bc in BCS}
    out = []
    for k in range(rounds):
        round_ = []
        for bc in BCS:
            ref, w, tol = REFERENCE[bc]
            lo = ref - w * shifts[bc][k]
            round_.append(FoldSearch(bc, lo, lo + 3.0 * w, tol))
        out.append(tuple(round_))
    return out


@dataclass(frozen=True)
class CliRound:
    solve: tuple        # one Case per bc
    sweep: tuple        # (bc, rates) per bc
    table: tuple        # navier1 upper-branch rates


# as many rates as the package README's examples: ``sweep --lambda-range
# 0:12:2`` (7 rates) and ``residual-table --lambdas 0,15,20,31`` (4)
SWEEP_RATES = 7
TABLE_RATES = 4


def cli_rounds(seed: int, rounds: int) -> list:
    """Rounds of invocations; each round's rate lists span the whole range."""
    rng = _rng("cli", seed)
    solve = {bc: systematic(rng, *lambda_range(bc), rounds) for bc in BCS}
    sweep = {bc: systematic(rng, *lambda_range(bc), SWEEP_RATES * rounds) for bc in BCS}
    ref, w, _ = REFERENCE["navier1"]
    table = systematic(rng, 0.0, ref - w, TABLE_RATES * rounds)
    return [
        CliRound(
            solve=tuple(Case(bc, solve[bc][k]) for bc in BCS),
            sweep=tuple((bc, tuple(sweep[bc][k::rounds])) for bc in BCS),
            table=tuple(table[k::rounds]),
        )
        for k in range(rounds)
    ]


# ---------------------------------------------------------------------------
# gates: each returns the list of failure codes of one operation
# ---------------------------------------------------------------------------

def expected_count(bc: str, lam: float):
    """2 below the acceptance band, 0 above it, None (either) inside."""
    ref, w, _ = REFERENCE[bc]
    if lam < ref - w:
        return 2
    if lam > ref + w:
        return 0
    return None


def census_failures(case: Case, branches, residual_cap: float) -> list:
    """``branches`` holds (label, a_star, table maximum, phi(1)) per root."""
    expected = expected_count(case.bc, case.lam)
    dirichlet = case.bc == "dirichlet"
    beyond = [b for b in branches if b[1] < REACH and not b[2] <= residual_cap]
    steep = dirichlet and case.lam < STEEP_NOISE_BELOW
    spurious = (all(b[1] > SPURIOUS_A_MIN for b in beyond)
                and expected in (None, len(branches) - len(beyond)))
    if not (steep or spurious):
        beyond = []
    within = [b for b in branches if b not in beyond]
    codes = [ROOT_BEYOND_REACH] * len(beyond)
    if expected is not None and len(within) != expected and len(branches) != expected:
        missing = dirichlet and case.lam < STEEP_MISSING_BELOW and len(branches) == 1
        codes.append(STEEP_BRANCH_MISSING if missing else "branch-count")
    labels = {label for label, *_ in within}
    allowed = {"lower", "upper"} if case.lam >= 0.0 else {"positive", "negative"}
    if not labels <= allowed or len(labels) != len(within):
        codes.append("labels")
    for _, _, table_max, phi_at_one in within:
        if not table_max <= residual_cap:
            codes.append("residual-cap")
        if phi_at_one != 0.0:
            codes.append("phi(1)")
    return codes


def oracle_failures(case: Case, count: int, oracle_count: int, worst: float,
                    unmatched_beyond: int = 0) -> list:
    """``unmatched_beyond``: roots with a between SPURIOUS_A_MIN and REACH
    and no RK4 root within 5e-2."""
    dirichlet = case.bc == "dirichlet"
    if count != oracle_count:
        ref, w, _ = REFERENCE[case.bc]
        if unmatched_beyond and count - unmatched_beyond == oracle_count:
            return [ROOT_BEYOND_REACH]
        if (dirichlet and case.lam < STEEP_MISSING_BELOW
                and (count, oracle_count) == (1, 2)):
            return [STEEP_BRANCH_MISSING]
        if abs(case.lam - ref) <= w:
            return [NEAR_FOLD_COUNT]
        return ["count-mismatch"]
    if not worst <= ORACLE_TOL:
        known = dirichlet and (case.lam < STEEP_NOISE_BELOW
                               or case.lam > FOLD_DEVIATION_ABOVE)
        return [TRUNCATION_DEVIATION if known else "deviation"]
    return []


def fold_failures(search: FoldSearch, lambda_crit: float, sensitivity: dict,
                  expected_depths) -> list:
    """``sensitivity`` is what ``depth_sensitivity`` returned: depth -> estimate."""
    ref, w, _ = REFERENCE[search.bc]
    codes = []
    if not abs(lambda_crit - ref) <= w:
        codes.append("lambda-crit")
    if tuple(sensitivity) != tuple(expected_depths) or not all(
            isinstance(v, float) and math.isfinite(v) for v in sensitivity.values()):
        codes.append("sensitivity-depths")
    return codes


def csv_rows(path: Path) -> tuple:
    """(data rows, header) of a CSV file written by the command line."""
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]], lines[0].split(",")


def solve_failures(case: Case, code: int, out: Path) -> list:
    expected = expected_count(case.bc, case.lam)
    allowed = {0, 3} if expected is None else {0 if expected else 3}
    if code not in allowed:
        return ["exit-code"]
    summaries = list(out.glob("summary_*.csv"))
    profiles = sorted(out.glob("profile_*.csv"))
    if len(summaries) != 1:
        return ["summary-file"]
    rows, _ = csv_rows(summaries[0])
    codes = []
    if len(rows) != len(profiles) or (code == 3) != (not rows):
        codes.append("summary-rows")
    for path in profiles:
        prows, header = csv_rows(path)
        if header != ["r", "w", "phi", "residual"] or len(prows) != GRID_POINTS:
            codes.append("profile-rows")
    return codes


def sweep_failures(bc: str, rates, code: int, out: Path) -> list:
    if code != 0:
        return ["exit-code"]
    rows, _ = csv_rows(out / f"sweep_{bc}.csv")
    per_rate = {}
    for row in rows:
        per_rate.setdefault(float(row[0]), []).append(int(row[1]))
    codes = []
    if sorted(per_rate) != sorted(rates):
        codes.append("sweep-rates")
    for counts in per_rate.values():
        if len(set(counts)) != 1 or len(counts) != max(1, counts[0]):
            codes.append("sweep-rows")
    return codes


def table_failures(rates, code: int, out: Path) -> list:
    # the upper branch exists at every rate below the acceptance band
    if code != 0:
        return ["exit-code"]
    rows, header = csv_rows(out / "residual_table_navier1_upper.csv")
    if len(header) != 1 + len(rates) or len(rows) != 10:
        return ["table-shape"]
    if not all(math.isfinite(float(v)) for row in rows for v in row):
        return ["table-values"]
    return []


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one case did: operations attempted and failed, timed parts.

    ``parts`` maps a part name to its nominal seconds, one entry per call;
    ``raw`` sums the unscaled seconds of all the calls.
    """

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    parts: dict = field(default_factory=dict)
    raw: float = 0.0
    output_bytes: int = 0

    def check(self, codes):
        """Count one operation, failed when its gate returned any code."""
        self.attempted += 1
        self.failed += bool(codes)
        self.failures.extend(codes)

    def time(self, part: str, seconds: float, raw: float):
        self.parts.setdefault(part, []).append(seconds)
        self.raw += raw

    @property
    def seconds(self) -> float:
        return sum(sum(times) for times in self.parts.values())


class Operations:
    """Runs cases through the public functions of the epibvp modules.

    Functions are looked up on their modules at call time, so a tracer
    that replaces them is seen.  Every call into the package is timed by
    ``clock``, a :class:`calibrate.NominalClock` that the caller sets
    before each timed pass.
    """

    def __init__(self, epibvp_modules, scratch: Path, jobs: int):
        import numpy as np

        self.m = epibvp_modules
        self.clock = None
        self.scratch = scratch
        self.jobs = jobs
        self.grid = np.linspace(0.0, 1.0, GRID_POINTS)
        self._runs = 0

    def bc(self, name: str):
        return self.m.shooting.BoundaryKind(name)

    def timed(self, outcome: Outcome, part: str, fn, *args):
        """Call ``fn`` on the clock, record its time under ``part``, return its result."""
        result, seconds, raw = self.clock.call(fn, *args)
        outcome.time(part, seconds, raw)
        return result

    def _census(self, case: Case):
        shooting, recover, polyring = self.m.shooting, self.m.recover, self.m.polyring
        bc = self.bc(case.bc)
        roots = shooting.find_branches(case.lam, bc)
        branches = []
        for root in roots:
            profile = recover.solve_profile(root.a_star, case.lam, bc)
            table = recover.residual_table(profile.w, case.lam)
            phi = polyring.evaluate(profile.phi, self.grid)
            branches.append((root.label.value, root.a_star, table.max_abs(),
                             float(phi[-1])))
        return branches

    def census(self, case: Case) -> Outcome:
        outcome = Outcome()
        branches = self.timed(outcome, "case", self._census, case)
        outcome.check(census_failures(case, branches, self.m.shooting.DEFAULT_RESIDUAL_CAP))
        return outcome

    def oracle(self, case: Case) -> Outcome:
        """oracle-check through the library; each call is timed on its own."""
        import numpy as np

        shooting, recover, oracle = self.m.shooting, self.m.recover, self.m.oracle
        evaluate = self.m.polyring.evaluate
        bc = self.bc(case.bc)
        outcome = Outcome()
        roots = self.timed(outcome, "case", shooting.find_branches, case.lam, bc)
        ivp_roots = self.timed(outcome, "case", oracle.oracle_branches, case.lam, bc,
                               shooting.DEFAULT_WINDOW)
        worst = 0.0
        unmatched = sum(
            1 for root in roots if SPURIOUS_A_MIN < root.a_star < REACH
            and not any(abs(x - root.a_star) <= ORACLE_TOL for x in ivp_roots))

        def compare(root, nearest):
            profile = recover.solve_profile(root.a_star, case.lam, bc)
            rs, ws, _ = oracle.ivp_trajectory(nearest, case.lam)
            phi_ivp = oracle.profile_from_trajectory(rs, ws)
            sample = slice(0, rs.size, max(1, rs.size // 512))
            return float(np.max(np.abs(
                evaluate(profile.phi, rs[sample]) - phi_ivp[sample])))

        if len(roots) == len(ivp_roots):
            for root in roots:
                nearest = min(ivp_roots, key=lambda x: abs(x - root.a_star))
                dphi = self.timed(outcome, "case", compare, root, nearest)
                worst = max(worst, abs(nearest - root.a_star), dphi)
        outcome.check(oracle_failures(case, len(roots), len(ivp_roots), worst, unmatched))
        return outcome

    def fold(self, round_) -> Outcome:
        critical = self.m.critical
        outcome = Outcome()
        for search in round_:
            bc = self.bc(search.bc)
            args = (bc, search.lo, search.hi, search.tol)
            estimate = self.timed(outcome, "critical", critical.find_critical_lambda, *args)
            sensitivity = self.timed(outcome, "sensitivity", critical.depth_sensitivity, *args)
            base = bc.default_iterations
            outcome.check(fold_failures(search, estimate.lambda_crit, sensitivity,
                                        (base - 1, base + 1)))
        return outcome

    def _main(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.m.cli.main(argv)

    def cli_main(self, argv, outcome: Outcome, part: str):
        """One in-process ``epibvp`` invocation, timed under ``part``: (exit code, out dir)."""
        self._runs += 1
        out = self.scratch / f"run{self._runs}"
        code = self.timed(outcome, part, self._main, list(argv) + ["--out", str(out)])
        return code, out

    @staticmethod
    def collect(outcome: Outcome, out: Path):
        """Add the invocation's output size to ``outcome`` and delete the output."""
        for path in out.iterdir():
            outcome.output_bytes += path.stat().st_size
            path.unlink()
        out.rmdir()

    def cli(self, round_: CliRound) -> Outcome:
        outcome = Outcome()
        for case in round_.solve:
            code, out = self.cli_main(
                ["solve", "--bc", case.bc, "--lambda", repr(case.lam)], outcome, "solve")
            outcome.check(solve_failures(case, code, out))
            self.collect(outcome, out)
        for bc, rates in round_.sweep:
            code, out = self.cli_main(self.sweep_argv(bc, rates, self.jobs), outcome, "sweep")
            outcome.check(sweep_failures(bc, rates, code, out))
            self.collect(outcome, out)
        code, out = self.cli_main(
            ["residual-table", "--bc", "navier1", "--branch", "upper",
             "--lambdas", ",".join(repr(x) for x in round_.table),
             "--jobs", str(self.jobs)], outcome, "table")
        outcome.check(table_failures(round_.table, code, out))
        self.collect(outcome, out)
        return outcome

    @staticmethod
    def sweep_argv(bc: str, rates, jobs: int):
        return ["sweep", "--bc", bc, "--lambdas", ",".join(repr(x) for x in rates),
                "--jobs", str(jobs)]
