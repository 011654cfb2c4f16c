"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a source checkout::

    python3 perfbench/spread.py --workload census --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric its median, the quartile spread (q3 - q1) as a share
of the median, and the bound from BENCHMARK.json.  A spread above a third
of the bound is flagged, except for ``setup_s``, whose median alone is
compared between runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed = attempted = 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{args.workload}: failed {failed} of {attempted} attempted")
    worst = 0
    for m in spec["end_to_end"]:
        spread = stats.quartile_spread(values[m["name"]])
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"] / 3.0:
            flag = "  <-- above a third of the bound"
            worst = 1
        print(f"{m['name']:>14}: median {stats.median(values[m['name']]):.5g} "
              f"{m['unit']}, spread {spread:.4f}, bound {m['bound']}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
