"""The three workloads: their inputs, their operations and their references.

Every input comes from the benchmark seed; trustb only ever sees the
generated inputs.  A workload's constructor makes its inputs once per
process.  `warm_up` makes one untimed pass that fixes the exact counts;
`run_slice` makes one pass (a fixed block of operations), times each
operation with `time.perf_counter` and checks each answer against its
reference outside the timed region.  Given a tracer, it opens one root
span per operation.

* check-l2 - one operation is one `cli.run_command` of a full level-2
  check; its records output must equal the golden recorded for it.
* query - seeded typed states of levels 0, 1 and 2 are adopted into a
  `TrustState`, and each gets all (trustor, group, task) `trust_query`
  calls; every answer must equal `runtime.event_enabled` on the same
  machine state.
* scenario - a seeded deck of generated sessions, each run through
  `scenario.run_scenario_text`; each output must match its golden digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import time
from contextlib import nullcontext
from itertools import combinations
from pathlib import Path

WORKLOADS = ("check-l2", "query", "scenario")

WHY = {
    "check-l2": "The paper's top machine at the default bounds with every po pass on; "
    "kernel quantifier evaluation inside three universe walks dominates.",
    "query": "The read path of the trust API: embed, value construction and guard "
    "evaluation dominate while po does no work.",
    "scenario": "Writes beside reads on one TrustState, each session building its model "
    "afresh, so cost moved into model build or onto writes shows here.",
}

GOLDEN = Path(__file__).resolve().parent / "golden"

FULL_BOUNDS = "2,2,2"
SMOKE_BOUNDS = "1,1,1"


def check_args(bounds: str) -> list[str]:
    return [
        "check", "--level", "2", "--bounds", bounds, "--refinement", "--vacuity",
        "--goal-invariant", "inv4", "--format", "records",
    ]


def op_span(tracer, name: str, op: int):
    return nullcontext() if tracer is None else tracer.span(name, op)


class Mismatch(Exception):
    """An operation's output differs from its reference."""


class Sizes:
    """Input sizes; the smoke mode shrinks every one of them."""

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.bounds = SMOKE_BOUNDS if smoke else FULL_BOUNDS
        self.states_per_level = 4 if smoke else 128
        self.deck = 8 if smoke else 512
        self.golden_records = GOLDEN / ("check_l2_smoke.records" if smoke else "check_l2.records")


# --- check-l2 ------------------------------------------------------

# Known facts of the level-2 check at 2,2,2; the golden must agree with them.
L2_FACTS = {"pos": 14, "discharged": 14, "init_cases": 3, "trust_cases": 15120,
            "trust_pos": 11, "states": 56592, "vacuity_lines": 8}


def records_facts(text: str) -> dict:
    """Counts a records output states about itself."""
    pos = re.findall(r"^po name=(\S+) .* verdict=(\S+) cases=(\d+)$", text, re.M)
    goal = re.search(r"^goal label=inv4 holds=(\d+) states=(\d+) reachable_holds=\d+ reachable=(\d+)$",
                     text, re.M)
    vac = re.findall(r"^vacuity event=\S+ guard=\S+ vacuous=\S+ cases=(\d+)$", text, re.M)
    if goal is None or not pos:
        raise Mismatch("records output lacks po or goal lines")
    return {
        "pos": len(pos),
        "discharged": sum(1 for _n, v, _c in pos if v == "discharged"),
        "cases": sum(int(c) for _n, _v, c in pos),
        "init_cases": sum(int(c) for n, _v, c in pos if n.startswith("INITIALISATION/")),
        "trust_cases": sorted({int(c) for n, _v, c in pos if n.startswith("trust/")}),
        "trust_pos": sum(1 for n, _v, _c in pos if n.startswith("trust/")),
        "goal_holds": int(goal.group(1)),
        "states": int(goal.group(2)),
        "reachable": int(goal.group(3)),
        "vacuity_lines": len(vac),
        "vacuity_cases": sum(int(c) for c in vac),
    }


def load_check_golden(sizes: Sizes) -> tuple[str, dict]:
    text = sizes.golden_records.read_text(encoding="utf-8")
    facts = records_facts(text)
    if not sizes.smoke:
        expected = dict(L2_FACTS, trust_cases=[L2_FACTS["trust_cases"]], goal_holds=0,
                        reachable=1, vacuity_cases=0,
                        cases=L2_FACTS["init_cases"] + L2_FACTS["trust_pos"] * L2_FACTS["trust_cases"])
        wrong = {k: (facts[k], v) for k, v in expected.items() if facts[k] != v}
        if wrong:
            raise Mismatch(f"golden records disagree with the known facts: {wrong}")
    return text, facts


class CheckWorkload:
    def __init__(self, trustb, sizes: Sizes, seed: int):
        self.cli = trustb.cli
        self.args = check_args(sizes.bounds)
        self.golden, self.facts = load_check_golden(sizes)
        self.counts = {"cases": self.facts["cases"], "states": self.facts["states"]}
        self.last_output = ""

    def warm_up(self) -> tuple[int, int]:
        """None: the first check pays any lazy set-up, as a user's would."""
        return 0, 0

    def run_slice(self, tracer=None, first_op: int = 1):
        """One check; returns latencies, attempted, failed and the slice's counts.

        Every run_slice returns these four; a failed operation has no latency.
        """
        out, err = io.StringIO(), io.StringIO()
        try:
            with op_span(tracer, "bench.check", first_op):
                t0 = time.perf_counter()
                rc = self.cli.run_command(self.args, stdout=out, stderr=err)
                latencies = [time.perf_counter() - t0]
        except Exception:  # an exception is a failed operation
            rc, latencies = None, []
        self.last_output = out.getvalue()
        failed = 0 if rc == 0 and self.last_output == self.golden else 1
        return latencies, 1, failed, dict(self.counts)


# --- query ------------------------------------------------------


def systematic(stream, k: int, rng: random.Random) -> list:
    """k items spread evenly over a re-iterable stream, from a seeded offset.

    Every seed covers the whole canonical order, so samples of different
    seeds differ in which states they hold but not in their mix.
    """
    n = sum(1 for _item in stream())
    if n <= k:
        return list(stream())
    step = n / k
    offset = rng.random() * step
    wanted = {int(offset + j * step) for j in range(k)}
    return [item for pos, item in enumerate(stream()) if pos in wanted]


class QueryWorkload:
    def __init__(self, trustb, sizes: Sizes, seed: int):
        models, runtime, values = trustb.models, trustb.runtime, trustb.values
        self.runtime = runtime
        rng = random.Random(seed)
        bounds = models.BoundSpec.parse(sizes.bounds)
        trustors, trustees, tasks = bounds.trustor_names(), bounds.trustee_names(), bounds.task_names()
        groups = [g for r in range(len(trustees) + 1) for g in combinations(trustees, r)]
        self.queries = [(i, g, t) for i in trustors for g in groups for t in tasks]
        self.bindings = [
            {"i": values.Atom(i), "j": values.SetV(values.Atom(x) for x in g), "t": values.Atom(t)}
            for i, g, t in self.queries
        ]
        self.levels = []
        for level in (0, 1, 2):
            tm, _inst, env = models.machine_setup(level, bounds)
            ts = models.TrustState(level, trustors, trustees, tasks)
            states = systematic(lambda: runtime.state_universe(tm, env), sizes.states_per_level, rng)
            self.levels.append((level, tm, env, ts, states))
        self.expected: list[bool] | None = None
        self.counts: dict | None = None

    def level2(self):
        _level, tm, env, _ts, states = self.levels[2]
        return tm, env, states

    def warm_up(self) -> tuple[int, int]:
        """One pass that also records the oracle answer of every query."""
        expected = []
        for _level, tm, env, _ts, states in self.levels:
            for state in states:
                for binding in self.bindings:
                    expected.append(self.runtime.event_enabled(tm, "trust", state, binding, env))
        self.expected = expected
        _lat, attempted, failed, self.counts = self.run_slice()
        return attempted, failed

    def run_slice(self, tracer=None, first_op: int = 1):
        """One pass over every sampled state and query."""
        perf = time.perf_counter
        queries = self.queries
        latencies = []
        answers = []
        op = first_op
        for _level, _tm, _env, ts, states in self.levels:
            for state in states:
                ts.adopt(state)
                for trustor, group, task in queries:
                    try:
                        with op_span(tracer, "bench.query", op):
                            t0 = perf()
                            granted = ts.trust_query(trustor, group, task).granted
                            latencies.append(perf() - t0)
                    except Exception:  # an exception is a failed operation
                        granted = None
                    op += 1
                    answers.append(granted)
        failed = sum(1 for got, want in zip(answers, self.expected) if got != want)
        counts = {"cases": len(answers), "granted": answers.count(True)}
        return latencies, len(answers), failed, counts


# --- scenario ------------------------------------------------------

POOL_SIZE = 2048
POOL_SEED = 2311_09777


def session_script(index: int) -> str:
    """Pool session `index`: a level, a small instantiation and 20-60 commands.

    Allocations never conflict: a group that already has a task is only
    ever re-allocated the same task.
    """
    rng = random.Random(POOL_SEED * 1000 + index)
    level = rng.randrange(3)
    trustors = [f"a{k}" for k in range(1, rng.randint(1, 3) + 1)]
    trustees = [f"b{k}" for k in range(1, rng.randint(1, 3) + 1)]
    tasks = [f"k{k}" for k in range(1, rng.randint(1, 2) + 1)]
    groups = [g for r in range(1, len(trustees) + 1) for g in combinations(trustees, r)]
    kinds = ["allocate", "trust", "query"]
    weights = [3, 3, 4]
    if level >= 1:
        kinds.append("learn")
        weights.append(2)
    if level >= 2:
        kinds.append("commit")
        weights.append(2)
    allocated: dict[tuple[str, ...], str] = {}

    def braces(g) -> str:
        return "{" + ", ".join(g) + "}"

    def target() -> tuple[tuple[str, ...], str]:
        if allocated and rng.random() < 0.6:
            g = rng.choice(sorted(allocated))
            return g, allocated[g]
        return rng.choice(groups), rng.choice(tasks)

    lines = [f"level {level}", "trustors " + " ".join(trustors),
             "trustees " + " ".join(trustees), "tasks " + " ".join(tasks)]
    for _ in range(rng.randint(20, 60)):
        kind = rng.choices(kinds, weights)[0]
        if kind == "allocate":
            g = rng.choice(groups)
            task = allocated.setdefault(g, rng.choice(tasks))
            lines.append(f"allocate {braces(g)} {task}")
        elif kind == "learn":
            lines.append(f"learn {rng.choice(trustors)} {rng.choice(trustees)}")
        elif kind == "commit":
            g, task = target()
            flag = "TRUE" if rng.random() < 0.7 else "FALSE"
            lines.append(f"commit {rng.choice(trustors)} {braces(g)} {task} {flag}")
        else:
            g, task = target()
            lines.append(f"{kind} {rng.choice(trustors)} {braces(g)} {task}")
    return "\n".join(lines) + "\n"


def deal(rng: random.Random, size: int) -> list[int]:
    """A deck of pool sessions, one from each of `size` strata.

    The pool is ordered by level and command count and cut into equal
    strata, so every seed's deck has the same mix of session sizes.
    """
    def cost(i: int) -> tuple[int, int]:
        lines = session_script(i).splitlines()
        return int(lines[0].split()[1]), len(lines)

    order = sorted(range(POOL_SIZE), key=lambda i: (cost(i), i))
    width = POOL_SIZE // size
    deck = [order[k * width + rng.randrange(width)] for k in range(size)]
    rng.shuffle(deck)
    return deck


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def session_digest(result) -> str:
    return digest(("ok\n" if result.ok else "refused\n") + result.text)


COUNT_KEYS = ("sessions", "commands", "reads", "writes", "trust_granted", "trust_denied",
              "query_granted", "query_denied", "warnings")


def session_counts(script: str, result) -> dict:
    """What a session did: its commands by kind, and the verdicts.

    Every trust and query command prints one `trust(...)` head line, in
    script order, so the two are told apart by zipping them.
    """
    kinds = [ln.split(" ", 1)[0] for ln in script.splitlines()[4:]]
    heads = [ln for ln in result.lines if ln.startswith("trust(")]
    asked = [k for k in kinds if k in ("trust", "query")]
    if len(asked) != len(heads):
        raise Mismatch("a trust or query command printed no verdict")
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counts["sessions"] = 1
    counts["commands"] = len(kinds)
    counts["reads"] = kinds.count("query")
    counts["writes"] = sum(kinds.count(k) for k in ("allocate", "learn", "commit"))
    for kind, head in zip(asked, heads):
        verdict = "granted" if head.endswith(" granted") else "denied"
        counts[f"{kind}_{verdict}"] += 1
    counts["warnings"] = sum(1 for ln in result.lines if ln.startswith("warning:"))
    return counts


def load_pool_golden() -> dict:
    with open(GOLDEN / "scenario_pool.json", encoding="utf-8") as fh:
        return json.load(fh)


class ScenarioWorkload:
    def __init__(self, trustb, sizes: Sizes, seed: int):
        self.scenario = trustb.scenario
        golden = load_pool_golden()
        if golden["pool_size"] != POOL_SIZE or golden["pool_seed"] != POOL_SEED:
            raise Mismatch("scenario golden was recorded for another pool")
        self.deck = deal(random.Random(seed), sizes.deck)
        self.scripts = {i: session_script(i) for i in self.deck}
        self.golden = {}
        for i, script in self.scripts.items():
            script_digest, output_digest = golden["sessions"][i]
            if digest(script) != script_digest:
                raise Mismatch(f"pool session {i} no longer generates its recorded script")
            self.golden[i] = output_digest
        self.counts: dict | None = None

    def warm_up(self) -> tuple[int, int]:
        """One untimed pass over the deck, which fixes the exact counts."""
        _lat, attempted, failed, self.counts = self.run_slice()
        return attempted, failed

    def run_slice(self, tracer=None, first_op: int = 1):
        """One pass over the deck."""
        perf = time.perf_counter
        latencies = []
        failed = 0
        counts = dict.fromkeys(COUNT_KEYS, 0)
        for n, i in enumerate(self.deck):
            script = self.scripts[i]
            try:
                with op_span(tracer, "bench.session", first_op + n):
                    t0 = perf()
                    result = self.scenario.run_scenario_text(script)
                    dt = perf() - t0
                if session_digest(result) != self.golden[i]:
                    raise Mismatch(f"pool session {i} output differs from its golden")
                latencies.append(dt)
                for key, value in session_counts(script, result).items():
                    counts[key] += value
            except Exception:  # an exception or a mismatch is a failed operation
                failed += 1
        return latencies, len(self.deck), failed, counts


CLASSES = {"check-l2": CheckWorkload, "query": QueryWorkload, "scenario": ScenarioWorkload}
