"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/baseline.py --seeds 1-10 --sets 2 --output bench/BENCH_1.json

A set makes, for each workload, one `run.py` call per seed, back to back,
with `--trace 0` and the `run_seconds` of BENCHMARK.json.  For each
end-to-end metric it records every value, the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and their distance as a
share of the median.  The first set adds one traced run per workload, with
the first seed, and the exact counts of the first seed's pass.  Each later
set is compared with the first: its median's change as a share of the
first median, against the metric's bound.  The machine facts come from
the first run's result file.
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


def seed_range(text: str) -> list[int]:
    lo, _sep, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)}


def run_set(names: list[str], seeds: list[int], seconds: int, bounds: dict, label: str) -> dict:
    workloads = {}
    for name in names:
        results = [run(name, seed, seconds, 0) for seed in seeds]
        metrics = {}
        for metric in bounds:
            summary = spread([r["metrics"][metric]["value"] for r in results])
            summary["unit"] = results[0]["metrics"][metric]["unit"]
            summary["bound"] = bounds[metric]
            metrics[metric] = summary
            print(f"{label} {name} {metric} median {summary['median']:.6g} "
                  f"iqr/median {summary['iqr_share']:.4f} (bound {bounds[metric]})", flush=True)
        workloads[name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
        }
    return workloads


def main() -> None:
    ap = argparse.ArgumentParser(prog="bench/baseline.py")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--output", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_range(args.seeds)
    seconds = spec["run_seconds"]

    report: dict = {"seeds": seeds, "run_seconds": seconds}
    report["workloads"] = run_set(names, seeds, seconds, bounds, "set 1")
    for name, entry in report["workloads"].items():
        detail = json.loads((BENCH / "out" / f"{name}-seed{seeds[0]}-trace0.json").read_text())
        report.setdefault("machine", detail["machine"])
        entry["why"] = detail["why"]
        entry["counts"] = detail["child"]["counts"]
        traced = run(name, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}

    report["later_sets"] = []
    for k in range(2, args.sets + 1):
        later = run_set(names, seeds, seconds, bounds, f"set {k}")
        agreement = {}
        for name, entry in later.items():
            agreement[name] = {}
            for metric, summary in entry["end_to_end"].items():
                first = report["workloads"][name]["end_to_end"][metric]["median"]
                change = summary["median"] / first - 1
                agreement[name][metric] = {"change": change, "bound": bounds[metric],
                                           "within": change <= bounds[metric]}
                print(f"set {k} vs set 1 {name} {metric} change {change:+.4f} "
                      f"(bound {bounds[metric]})", flush=True)
        report["later_sets"].append({"workloads": later, "against_set_1": agreement})
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
