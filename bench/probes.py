"""Layer probes: single layers timed alone, without tracing.

The probes run on the level-2 machine and on the query workload's seeded
sample, so they repeat for a seed.  Each figure is the median over
`repeats` passes of the per-call mean.
"""

from __future__ import annotations

import statistics
import time


def _per_call(fn, items, repeats: int) -> float:
    """Median over passes of the mean seconds per call of fn(item)."""
    perf = time.perf_counter
    passes = []
    for _ in range(repeats):
        t0 = perf()
        for item in items:
            fn(item)
        passes.append((perf() - t0) / len(items))
    return statistics.median(passes)


def universe(trustb, tm, env) -> dict:
    """Iterate the level-2 state universe alone, counting states."""
    t0 = time.perf_counter()
    n = 0
    for _state in trustb.runtime.state_universe(tm, env):
        n += 1
    dt = time.perf_counter() - t0
    return {"runtime.universe_states": (n, "count"), "runtime.universe_states_per_s": (n / dt, "1/s")}


def layer_probes(trustb, tm, env, states, bindings, repeats: int) -> tuple[dict, float]:
    """Kernel, runtime and values figures; also returns bindings per state."""
    kernel, runtime, values = trustb.kernel, trustb.runtime, trustb.values
    info = tm.event("trust")
    bound = env.powerset_bound
    out: dict[str, tuple[float, str]] = {}

    n_bindings = sum(1 for st in states for _b in runtime.param_bindings(info, st, env))
    per_state = _per_call(lambda st: sum(1 for _b in runtime.param_bindings(info, st, env)),
                          states, repeats)
    out["runtime.param_bindings_per_s"] = (n_bindings / len(states) / per_state, "1/s")

    pairs = [(st, b) for st in states for b in bindings]
    frames = [runtime.event_frame(env, st, b) for st, b in pairs]
    preds = [(lbl, inv.pred) for lbl, inv, _o in tm.invariant_scope]
    preds += [(g.label, g.pred) for g in info.ast.guards]
    for label, pred in sorted(preds):
        secs = _per_call(lambda fr: kernel.eval_pred_frame(pred, fr, bound), frames, repeats)
        out[f"kernel.eval_us.{label}"] = (secs * 1e6, "us")

    secs = _per_call(
        lambda p: runtime.fire_event(tm, "trust", p[0], p[1], env, check_guards=False), pairs, repeats
    )
    out["runtime.fire_event_us"] = (secs * 1e6, "us")

    vals = [st.values[v] for st in states for v in tm.var_order]
    element_lists = [list(v.elements) for v in vals]
    secs = _per_call(values.SetV, element_lists, repeats)
    out["values.setv_build_us"] = (secs * 1e6, "us")
    copies = [values.SetV(elems) for elems in element_lists]
    originals = set(vals)
    secs = _per_call(originals.__contains__, copies, repeats)
    out["values.hash_eq_ns"] = (secs * 1e9, "ns")
    secs = _per_call(values.canon, vals, repeats)
    out["values.canon_us"] = (secs * 1e6, "us")
    return out, n_bindings / len(states)


def trust_api(trustb, levels, queries, bindings, repeats: int) -> dict:
    """The trust API's read path on the query sample of every level.

    `levels` holds the query workload's (level, machine, env, TrustState,
    states); each state is adopted, untimed, before its calls are timed.
    """
    perf = time.perf_counter
    guard_report = trustb.runtime.guard_report
    passes: dict[str, list[float]] = {"embed": [], "trust_query": [], "guard_report": []}
    for _ in range(repeats):
        spent = dict.fromkeys(passes, 0.0)
        calls = 0
        for _level, tm, env, ts, states in levels:
            for state in states:
                ts.adopt(state)
                t0 = perf()
                for _q in queries:
                    ts.embed()
                t1 = perf()
                for trustor, group, task in queries:
                    ts.trust_query(trustor, group, task)
                t2 = perf()
                for binding in bindings:
                    guard_report(tm, "trust", state, binding, env)
                t3 = perf()
                spent["embed"] += t1 - t0
                spent["trust_query"] += t2 - t1
                spent["guard_report"] += t3 - t2
                calls += len(queries)
        for key, secs in spent.items():
            passes[key].append(secs / calls)
    return {
        "models.embed_us": (statistics.median(passes["embed"]) * 1e6, "us"),
        "models.trust_query_us": (statistics.median(passes["trust_query"]) * 1e6, "us"),
        "runtime.guard_report_us": (statistics.median(passes["guard_report"]) * 1e6, "us"),
    }
