"""trustb benchmark: time to verdict, trust-API latency, per-layer traces.

    python3 bench/run.py --workload check-l2|query|scenario --seed N \
        --seconds S --trace 0|1 [--smoke]

Run it from the root of a trustb checkout; trustb is imported from `src/`.
With `--trace 0` a call makes one warm-up process and then twelve fresh
processes that import trustb and build the workload's models, half before
and half after one child process that drives the workload as a
single-client closed loop: one process, one thread, the next operation
sent when the last one returned.

`--trace 0` prints the end-to-end metrics, `--trace 1` makes the separate
traced run and prints the per-layer metrics.  Every metric is printed as
`name value unit`; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result, with the
machine facts, goes to bench/out/.  `--smoke` shrinks every input so a
run takes seconds.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WHY, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0
SETUP_RUNS = 12

# Per workload: the workload-specific names (see README.md) under which the
# operation latency is also printed, with their unit and scale.
QUOTED = {
    "check-l2": {"p50": ("verdict_s", "s", 1.0), "tail": None},
    "query": {"p50": ("query_p50_us", "us", 1e6), "tail": ("query_p99_us", "us", 1e6)},
    "scenario": {"p50": ("session_p50_ms", "ms", 1e3), "tail": ("session_p99_ms", "ms", 1e3)},
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def child(args: list[str], deadline: float) -> dict:
    """Run worker.py with args; return its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("out of time before starting a child")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=remaining,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, smoke: bool, runs: int, deadline: float) -> list[float]:
    """`runs` fresh set-up processes; setup_s is the median of their times."""
    extra = ["--smoke"] if smoke else []
    return [child(["setup", "--workload", workload, *extra], deadline)["setup_s"] for _ in range(runs)]


def end_to_end(workload: str, result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat = result["latency"]
    metrics = {
        "op_p50_ms": (lat["p50_s"] * 1e3, "ms"),
        "op_p99_ms": (lat["tail_s"] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = [f"operations {lat['n']}"]
    name, unit, scale = QUOTED[workload]["p50"]
    notes.append(f"{name} {lat['p50_s'] * scale:.6g} {unit}")
    if QUOTED[workload]["tail"] is not None and lat["tail_is_p99"]:
        name, unit, scale = QUOTED[workload]["tail"]
        notes.append(f"{name} {lat['tail_s'] * scale:.6g} {unit} ({lat['beyond_tail']} samples beyond it)")
    else:
        notes.append("op_p99_ms is the slowest operation: too few samples for a p99")
    notes.append(f"error_rate {result['failed'] / max(1, result['attempted']):.6g}")
    notes.append("exact counts per pass: " + ", ".join(f"{k} {v}" for k, v in result["counts"].items()))
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trustb" / "__init__.py").is_file():
        return fail(f"no trustb sources under {ROOT / 'src'}; run from a trustb checkout")
    deadline = time.monotonic() + DEADLINE_S
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)

    run_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    runs = 0 if args.trace else (2 if args.smoke else SETUP_RUNS) // 2
    try:
        # The first set-up fills the bytecode caches and is not counted.  The
        # counted ones sit on both sides of the run, so they see the same
        # stretch of machine time as the operations.
        setups = setup_seconds(args.workload, args.smoke, runs + 1, deadline)[1:] if runs else []
        result = child(run_args + (["--smoke"] if args.smoke else []), deadline)
        setups += setup_seconds(args.workload, args.smoke, runs, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        return fail(str(err))

    if "error" in result:
        return fail("the workload raised:\n" + result["error"])
    if not result["counts_steady"]:
        return fail(f"exact counts did not repeat, refusing to report timings: {result['counts']}")

    if args.trace:
        metrics = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        notes = [f"trace overhead: traced median {result['overhead']['traced_median_s']:.6g} s, "
                 f"untraced median {result['overhead']['untraced_median_s']:.6g} s",
                 f"spans stored {result['spans_stored']} in {result['spans_file']}"]
        for name, layers in result["self_ms_per_workload"].items():
            shown = ", ".join(f"{k} {v:.1f}" for k, v in layers.items() if v > 0)
            notes.append(f"self ms per layer, {name}: {shown}")
    else:
        metrics, notes = end_to_end(args.workload, result, setups)

    correct = result["failed"] == 0
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "why": WHY[args.workload],
        "machine": machine_facts(), "setup_runs_s": setups, "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "child": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  correct {str(correct).lower()}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
