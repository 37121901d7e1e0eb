"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/collect.py --seeds 10 --out perfbench/results/<name>.json
    python3 perfbench/collect.py --seeds 10 --compare perfbench/results/baseline.json

Runs ``perfbench/run.py`` once per workload and seed (seeds 1..N), one run
at a time, and reports per metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median. With ``--compare`` it also reports
how far each median moved against an earlier summary, as a share of that
summary's median, next to the metric's bound (worse is positive).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing: {proc.stderr[-2000:]}")
    environment = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), environment


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative = better)."""
    if not old:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON")
    parser.add_argument("--compare", help="earlier summary to compare medians against")
    args = parser.parse_args()

    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    base = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    summary = {"run_seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            result, environment = run_once(workload, seed, args.seconds, args.trace)
            summary.setdefault("environment", environment)
            runs.append(result)
            ok &= result["correct"]
        metrics = {}
        print(f"== {workload}: {sum(r['attempted'] for r in runs)} jobs, "
              f"{sum(r['failed'] for r in runs)} failed")
        for m in declared:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            stats["unit"] = m["unit"]
            metrics[m["name"]] = stats
            line = (f"  {m['name']:<36} median {stats['median']:<12.6g} {m['unit']:<6}"
                    f" spread {stats['spread']:.4f}")
            if "bound" in m:
                stats["bound"] = m["bound"]
                line += f" (bound {m['bound']}, third {m['bound'] / 3:.4f})"
            old = base.get(workload, {}).get("metrics", {}).get(m["name"])
            if old:
                moved = worse_by(old["median"], stats["median"], m["better"])
                stats["worse_by"] = moved
                line += f" worse by {moved:+.4f}"
            print(line, flush=True)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
