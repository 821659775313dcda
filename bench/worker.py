"""Child process of the benchmark; `run.py` starts it, nothing else should.

    worker.py setup --workload W [--smoke]
        import trustb and build every model W uses; print the seconds taken.
    worker.py run --workload W --seed N --seconds S --trace 0|1 [--smoke]
        set up, then drive W for S seconds (trace 0), or make the traced
        run (trace 1); print one JSON object with the figures.

trustb is imported from the checkout's `src/` directory.
"""

from __future__ import annotations

import argparse
from array import array
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import probes
from tracer import LAYERS, Tracer
from workloads import CLASSES, WORKLOADS, Sizes, records_facts

ROOT = Path(__file__).resolve().parent.parent


def import_trustb():
    sys.path.insert(0, str(ROOT / "src"))
    import trustb
    from trustb import cli, dsl, kernel, models, po, runtime, scenario, typecheck, values  # noqa: F401

    return trustb


def build_models(trustb, workload: str, sizes: Sizes) -> None:
    """Build every model the workload uses, as its first operation would."""
    models = trustb.models
    bounds = models.BoundSpec.parse(sizes.bounds)
    if workload == "check-l2":
        models.machine_setup(2, bounds)
    elif workload == "query":
        for level in (0, 1, 2):
            models.machine_setup(level, bounds)
            models.TrustState(level, bounds.trustor_names(), bounds.trustee_names(), bounds.task_names())
    else:
        for level in (0, 1, 2):
            models.build_model(level)


def setup(workload: str, sizes: Sizes):
    t0 = time.perf_counter()
    trustb = import_trustb()
    build_models(trustb, workload, sizes)
    return time.perf_counter() - t0, trustb


class Histogram:
    """Latency counts in log-spaced buckets 0.1% wide, from 0.1 us to 1000 s.

    The buckets are allocated up front, so the memory a run takes does not
    grow with the number of operations it makes, and peak_rss_mb does not
    move when trustb gets faster.  A quantile reads as its bucket's
    geometric midpoint, within 0.05% of the sample; the slowest operation
    is kept exactly.
    """

    LO = 1e-7
    STEP = math.log1p(1e-3)
    BINS = int(math.log(1e3 / LO) / STEP) + 1

    def __init__(self):
        self.counts = array("q", bytes(8 * self.BINS))
        self.n = 0
        self.slowest = 0.0

    def add(self, latencies) -> None:
        counts, lo, step, top = self.counts, self.LO, self.STEP, self.BINS - 1
        for x in latencies:
            counts[min(top, max(0, int(math.log(x / lo) / step)))] += 1
            if x > self.slowest:
                self.slowest = x
        self.n += len(latencies)

    def at_rank(self, rank: int) -> float:
        """The rank-th smallest latency (1-based), as its bucket's midpoint."""
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.LO * math.exp((i + 0.5) * self.STEP)
        raise ValueError(f"rank {rank} beyond {self.n} samples")

    def summary(self) -> dict:
        """Median and nearest-rank p99.  With under 1000 samples fewer than
        ten lie beyond the p99, so the tail reported is the slowest operation."""
        n = self.n
        rank = -(-n * 99 // 100)
        has_p99 = n >= 1000
        return {"n": n, "p50_s": self.at_rank((n + 1) // 2),
                "tail_s": self.at_rank(rank) if has_p99 else self.slowest,
                "tail_is_p99": has_p99, "beyond_tail": n - rank if has_p99 else 0}


def drive(workload, seconds: float) -> dict:
    """The untraced closed loop: whole slices until `seconds` have passed."""
    attempted, failed = workload.warm_up()
    latencies = Histogram()
    steady = True
    slices = 0
    started = time.perf_counter()
    while True:
        lat, a, f, counts = workload.run_slice()
        latencies.add(lat)
        attempted += a
        failed += f
        steady = steady and counts == workload.counts
        slices += 1
        if time.perf_counter() - started >= seconds:
            break
    if not latencies.n:
        raise RuntimeError(f"all {attempted} operations failed")
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency": latencies.summary(),
        "attempted": attempted,
        "failed": failed,
        "counts": workload.counts,
        "counts_steady": steady,
        "slices": slices,
    }


# --- the traced run ------------------------------------------------------

WRITES = tuple(f"models.TrustState.{m}" for m in ("allocate_task", "learn", "commit", "establish_trust"))

# metric, workload whose traced pass it comes from, span names ("x.*" is a
# prefix), statistic, scale, unit.  Statistics: "call" is the median span
# duration; "op" and "op_self" are the median over operations of the
# summed duration or self time of the matching spans.
SPAN_METRICS = (
    ("po.discharge_all_s", "check-l2", "po.discharge_all", "op", 1, "s"),
    ("po.detect_vacuous_guards_s", "check-l2", "po.detect_vacuous_guards", "op", 1, "s"),
    ("po.goal_invariant_report_s", "check-l2", "po.goal_invariant_report", "op", 1, "s"),
    ("cli.self_ms", "check-l2", "cli.*", "op_self", 1e3, "ms"),
    ("models.machine_setup_ms", "check-l2", "models.machine_setup", "op", 1e3, "ms"),
    ("dsl.parse_file_ms", "scenario", "dsl.parse_file", "op", 1e3, "ms"),
    ("typecheck.elaborate_ms", "scenario", "typecheck.elaborate", "op", 1e3, "ms"),
    ("models.trust_state_init_ms", "scenario", "models.TrustState.__init__", "call", 1e3, "ms"),
    ("models.write_us", "scenario", WRITES, "call", 1e6, "us"),
    ("models.invariant_warnings_us", "scenario", "models.TrustState.invariant_warnings", "call", 1e6, "us"),
    ("runtime.invariant_report_us", "scenario", "runtime.invariant_report", "call", 1e6, "us"),
    ("scenario.parse_scenario_us", "scenario", "scenario.parse_scenario", "call", 1e6, "us"),
    ("scenario.self_ms", "scenario", "scenario.*", "op_self", 1e3, "ms"),
)


def span_statistic(spans, names, ops: tuple[int, int], how: str) -> float:
    if isinstance(names, tuple):
        match = names.__contains__
    elif names.endswith(".*"):
        prefix = names[:-1]
        match = lambda n: n.startswith(prefix)  # noqa: E731
    else:
        match = names.__eq__
    lo, hi = ops
    chosen = [s for s in spans if lo <= s[2] < hi and match(s[3])]
    if how == "call":
        # A function no operation called any more reads as zero time.
        return statistics.median(s[5] - s[4] for s in chosen) if chosen else 0.0
    sums = dict.fromkeys(range(lo, hi), 0.0)
    for s in chosen:
        sums[s[2]] += s[6] if how == "op_self" else s[5] - s[4]
    return statistics.median(sums.values())


def traced_run(trustb, sizes: Sizes, target: str, seed: int) -> dict:
    """Warm every workload up, time one untraced pass of the target, then
    make one traced pass of each workload and run the layer probes."""
    loads = {name: CLASSES[name](trustb, sizes, seed) for name in WORKLOADS}
    attempted = failed = 0
    for wl in loads.values():
        a, f = wl.warm_up()
        attempted += a
        failed += f
    untraced, a, f, _c = loads[target].run_slice()
    attempted += a
    failed += f

    tracer = Tracer()
    ranges: dict[str, tuple[int, int]] = {}
    traced_lat: dict[str, list[float]] = {}
    steady = True
    tracer.install(trustb)
    try:
        op = 1
        for name in WORKLOADS:
            before = Counter(tracer.calls)
            lat, a, f, counts = loads[name].run_slice(tracer, first_op=op)
            ranges[name] = (op, op + a)
            op += a
            traced_lat[name] = lat
            attempted += a
            failed += f
            steady = steady and counts == loads[name].counts
            if name == "check-l2":
                calls_in_check = tracer.calls - before
    finally:
        tracer.uninstall()

    tm2, env2, states2 = loads["query"].level2()
    metrics = probes.universe(trustb, tm2, env2)
    layer, bindings_per_state = probes.layer_probes(
        trustb, tm2, env2, states2, loads["query"].bindings, 3 if sizes.smoke else 5
    )
    metrics.update(layer)
    query = loads["query"]
    metrics.update(probes.trust_api(trustb, query.levels, query.queries, query.bindings,
                                    3 if sizes.smoke else 5))

    facts = records_facts(loads["check-l2"].last_output)
    for metric, workload, names, how, scale, unit in SPAN_METRICS:
        metrics[metric] = (span_statistic(tracer.spans, names, ranges[workload], how) * scale, unit)
    passes = calls_in_check["runtime.state_universe"]
    metrics["po.cases"] = (facts["cases"], "count")
    metrics["po.cases_per_s"] = (facts["cases"] / metrics["po.discharge_all_s"][0], "1/s")
    metrics["po.universe_passes"] = (passes, "count")
    metrics["po.useful_ratio"] = (
        facts["cases"] / (facts["pos"] * facts["states"] * bindings_per_state), "ratio")
    for layer_name, secs in tracer.layer_self().items():
        if layer_name in LAYERS:
            metrics[f"self_ms.{layer_name}"] = (secs * 1e3, "ms")
    t_med, u_med = statistics.median(traced_lat[target]), statistics.median(untraced)
    metrics["trace.overhead_pct"] = ((t_med - u_med) / u_med * 100, "%")

    counts = {
        "runtime.universe_states": metrics["runtime.universe_states"][0],
        "po.universe_passes": passes,
        "po.cases": facts["cases"],
        "query": loads["query"].counts,
        "scenario": loads["scenario"].counts,
    }
    # The universe probe and the check's goal line count the same states.
    steady = steady and counts["runtime.universe_states"] == facts["states"]

    spans_path = ROOT / "bench" / "out" / f"spans-{target}-seed{seed}.json"
    tracer.dump(str(spans_path))
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "counts_steady": steady,
        "overhead": {"traced_median_s": t_med, "untraced_median_s": u_med},
        "self_ms_per_workload": {
            name: {k: v * 1e3 for k, v in tracer.layer_self(*ranges[name]).items()} for name in WORKLOADS
        },
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_stored": len(tracer.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    sizes = Sizes(args.smoke)

    setup_s, trustb = setup(args.workload, sizes)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        if args.trace:
            result = traced_run(trustb, sizes, args.workload, args.seed)
        else:
            result = drive(CLASSES[args.workload](trustb, sizes, args.seed), args.seconds)
    except Exception:
        traceback.print_exc()
        result = {"attempted": 1, "failed": 1, "error": traceback.format_exc(limit=3)}
    result["setup_s_in_run"] = setup_s
    result.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
