"""Steadiness check: do repeated runs agree within the benchmark's bounds?

Runs the benchmark --runs times per workload and set, each time with
another seed, and for every end-to-end metric in BENCHMARK.json reports
the spread of each set (the distance between the first and third
quartile, as statistics.quantiles(values, n=4) gives them, over the
median) and how far the second set's median moved from the first's.  The
check fails when a spread exceeds its metric's bound, or when a median
moved by more than the bound, either way.

    python3 perfbench/steady.py --runs 10 --sets 2

Raw results are saved to perfbench/out/steady-<n>.json as they arrive.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def assess(sets: list[dict], spec: dict) -> tuple[bool, list[str]]:
    """sets[k][workload][metric] is the list of values of set k.

    Returns whether every spread and median drift stays within the bounds
    of spec["end_to_end"], with one report line per workload and metric.
    """
    ok = True
    lines = []
    for workload in sets[0]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            spreads = [spread(s[workload][name]) for s in sets]
            medians = [statistics.median(s[workload][name]) for s in sets]
            flags = []
            if any(x > bound for x in spreads):
                flags.append("SPREAD")
            if len(medians) > 1:
                change = (medians[1] - medians[0]) / medians[0]
                if abs(change) > bound:
                    flags.append("DRIFT")
            else:
                change = 0.0
            ok = ok and not flags
            lines.append(
                f"{workload:16s} {name:14s} bound {bound:.2f}  "
                + "  ".join(f"median {md:.6g} spread {sp:.3f}" for md, sp in zip(medians, spreads))
                + (f"  change {change:+.3f}" if len(medians) > 1 else "")
                + (f"  {' '.join(flags)}" if flags else "")
            )
    return ok, lines


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    k = 1
    while (OUT / f"steady-{k}.json").exists():
        k += 1
    path = OUT / f"steady-{k}.json"
    names = [w["name"] for w in spec["workloads"]]
    sets = [{w: {} for w in names} for _ in range(args.sets)]
    seed = args.first_seed
    for s in sets:
        for w in names:
            for _ in range(args.runs):
                metrics = run_once(w, seed, spec["run_seconds"])
                seed += 1
                for name, value in metrics.items():
                    s[w].setdefault(name, []).append(value)
                path.write_text(json.dumps({"sets": sets}, indent=1) + "\n")
                print(f"{w} seed {seed - 1}: " + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
    print(f"raw results in {path}")
    ok, lines = assess(sets, spec)
    print("\n".join(lines))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
