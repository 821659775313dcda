"""Acceptance checklist for the verification kernel.

Each test exercises one end-to-end claim the package stands behind, from
PO discharge parity on the shipped machines through scenario replay of
the adversary example.  Every test finishes by printing a single
`criterion N: PASS` line (run pytest with -s to see them); a failing
assertion turns that criterion's line into a pytest FAILED entry.
"""

import io
import itertools
import random
import re
import time

import pytest

from trustb.cli import run_command
from trustb.dsl import parse_expression, parse_file, pretty_print
from trustb.errors import ParseError
from trustb.kernel import eval_expr_frame
from trustb.models import (
    DEFAULT_BOUNDS,
    BoundSpec,
    TrustState,
    builtin_source,
    builtin_units,
    machine_setup,
)
from trustb.po import (
    DISCHARGED,
    FAILED,
    check_refinement,
    detect_vacuous_guards,
    discharge_all,
    generate_pos,
)
from trustb.runtime import (
    State,
    event_enabled,
    fire_event,
    invariant_report,
    state_universe,
)
from trustb.values import Atom, mkset


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def report(num, detail):
    print(f"criterion {num}: PASS - {detail}")


def atom_frame(env, bounds=DEFAULT_BOUNDS, variant_atoms=()):
    """Evaluation frame binding every instantiation atom to itself."""
    frame = dict(env.bindings)
    names = (
        bounds.trustor_names() + bounds.trustee_names() + bounds.task_names()
    ) + tuple(variant_atoms)
    frame.update({n: Atom(n) for n in names})
    return frame


def parse_counterexample(out, po_name, frame, bound):
    """Rebuild the pre state, binding and post state a records run printed."""
    parts = {"pre": {}, "binding": {}, "post": {}}
    prefix = f"ce po={po_name} part="
    for ln in out.splitlines():
        if not ln.startswith(prefix):
            continue
        rest = ln[len(prefix):]
        part, rest = rest.split(" var=", 1)
        var, value = rest.split(" value=", 1)
        parts[part][var] = eval_expr_frame(parse_expression(value), frame, bound)
    pre = State(parts["pre"]) if parts["pre"] else None
    post = State(parts["post"]) if parts["post"] else None
    return pre, parts["binding"], post


def test_criterion_1_po_discharge_parity():
    t0 = time.perf_counter()
    code, out, _ = run(["check", "--level", "0", "--format", "records"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    lines = out.splitlines()
    for label in ("inv3", "inv4"):
        po = next(ln for ln in lines if ln.startswith(f"po name=trust/{label}/INV "))
        assert "verdict=discharged" in po
        assert not any(ln.startswith(f"ce po=trust/{label}/INV") for ln in lines)
    report(1, f"trust/inv3/INV and trust/inv4/INV discharged at bounds 2,2,2 in {elapsed:.1f}s")


@pytest.mark.parametrize("guard", ["grd7", "grd8"])
def test_criterion_2_mutation_necessity(guard):
    mutation = f"drop:{guard}"
    code, out, _ = run(
        ["check", "--level", "2", "--mutate", mutation, "--format", "records"]
    )
    assert code == 1
    po_line = next(
        ln for ln in out.splitlines() if ln.startswith("po name=trust/inv4/INV ")
    )
    assert "verdict=failed" in po_line

    # replay the printed counterexample through the runtime, bit for bit
    tm, inst, env = machine_setup(2, mutate=mutation)
    frame = atom_frame(env)
    pre, binding, post = parse_counterexample(
        out, "trust/inv4/INV", frame, env.powerset_bound
    )
    assert pre is not None and post is not None
    replayed = fire_event(tm, "trust", pre, binding, env)
    assert replayed == post
    assert ("inv4", False) in invariant_report(tm, post, env)
    report(2, f"{mutation} makes trust/inv4/INV fail; counterexample replays exactly")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    b = DEFAULT_BOUNDS
    combos = []
    for i in b.trustor_names():
        for r in range(len(b.trustee_names()) + 1):
            for group in itertools.combinations(b.trustee_names(), r):
                for t in b.task_names():
                    binding = {
                        "i": Atom(i),
                        "j": mkset(Atom(g) for g in group),
                        "t": Atom(t),
                    }
                    combos.append((i, group, t, binding))
    assert len(combos) == 16

    total = 0
    mismatches = 0
    for level in (0, 1, 2):
        tm, inst, env = machine_setup(level)
        ts = TrustState(level, b.trustor_names(), b.trustee_names(), b.task_names())
        for state in state_universe(tm, env):
            ts.adopt(state)
            for i, group, t, binding in combos:
                granted = ts.trust_query(i, group, t).granted
                if granted != event_enabled(tm, "trust", state, binding, env):
                    mismatches += 1
                total += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert total == (1161 + 18576 + 56592) * 16 == 1221264
    assert elapsed < 60.0
    report(3, f"trust_query agrees with event_enabled on {total} cases in {elapsed:.1f}s")


def test_criterion_4_refinement_validity():
    for level, grd_count in ((1, 6), (2, 7)):
        tm, inst, env = machine_setup(level, BoundSpec(2, 2, 1))
        reports = check_refinement(tm, env)
        assert all(r.verdict == DISCHARGED for r in reports)
        assert sum(r.po.kind == "GRD" for r in reports) == grd_count
        assert sum(r.po.kind == "SIM" for r in reports) == 1

    tm, inst, env = machine_setup(2, BoundSpec(2, 2, 1), "bad_act")
    sim = next(r for r in check_refinement(tm, env) if r.po.kind == "SIM")
    assert sim.verdict == FAILED
    assert sim.counterexample.expected != sim.counterexample.actual
    report(4, "guard strengthening and simulation discharge up the chain; the altered-action mutant fails simulation")


def test_criterion_5_vacuity_finding():
    for bounds in (BoundSpec(1, 1, 1), BoundSpec(2, 2, 1), BoundSpec(2, 2, 2)):
        tm, inst, env = machine_setup(0, bounds)
        grd5 = next(v for v in detect_vacuous_guards(tm, env) if v.guard == "grd5")
        assert grd5.vacuous, str(bounds)

    # without the partition axiom a trustor may sit inside a trustee group,
    # falsifying grd5; dropping grd5 then lets the step break inv3
    tm, inst, env = machine_setup(0, BoundSpec(2, 2, 1), "nopart", overlap=True)
    grd5 = next(v for v in detect_vacuous_guards(tm, env) if v.guard == "grd5")
    assert not grd5.vacuous and grd5.witness is not None

    tm, inst, env = machine_setup(
        0, BoundSpec(2, 2, 1), "nopart", mutate="drop:grd5", overlap=True
    )
    reports = discharge_all(tm, env, generate_pos(tm)).reports
    inv3 = next(r for r in reports if r.po.name == "trust/inv3/INV")
    assert inv3.verdict == FAILED
    report(5, "grd5 is vacuous under the partition at all tested bounds, falsifiable without it, and necessary for inv3 there")


def test_criterion_6_fidelity_findings():
    # the refined trust demand fails at initialisation whenever somebody
    # could demand trust: every bound with a trustor and a task
    for bounds in ("1,1,1", "2,2,1", "2,2,2"):
        code, out, _ = run(
            ["check", "--level", "2", "--bounds", bounds, "--format", "records"]
        )
        assert code == 1, bounds
        line = next(
            ln
            for ln in out.splitlines()
            if ln.startswith("po name=INITIALISATION/inv4/INV ")
        )
        assert "verdict=failed" in line, bounds
        assert any(
            ln.startswith("ce po=INITIALISATION/inv4/INV part=post")
            for ln in out.splitlines()
        )

    # the trust record is declared functional, yet the step lets one
    # trustor accumulate a second triple.  At level 2 the commitment
    # totality required by inv1 freezes the step (any firable triple is
    # already recorded), so the defect shows unmutated at level 1 and
    # resurfaces at level 2 the moment grd8 is dropped.
    code, out, _ = run(
        ["check", "--level", "1", "--bounds", "2,2,1", "--format", "records"]
    )
    assert code == 1
    line = next(
        ln for ln in out.splitlines() if ln.startswith("po name=trust/inv2/INV ")
    )
    assert "verdict=failed" in line
    tm, inst, env = machine_setup(1, BoundSpec(2, 2, 1))
    frame = atom_frame(env, BoundSpec(2, 2, 1))
    pre, binding, post = parse_counterexample(
        out, "trust/inv2/INV", frame, env.powerset_bound
    )
    lefts = [p.left for p in post.values["trustor_trustee_task"].elements]
    assert len(lefts) != len(set(lefts))  # one trustor, two triples

    code, out, _ = run(
        ["check", "--level", "2", "--bounds", "2,2,1", "--mutate", "drop:grd8",
         "--format", "records"]
    )
    assert code == 1
    line = next(
        ln for ln in out.splitlines() if ln.startswith("po name=trust/inv2/INV ")
    )
    assert "verdict=failed" in line

    # the documented repairs check out clean
    code, _, _ = run(
        ["check", "--level", "2", "--bounds", "2,2,1", "--goal-invariant", "inv4"]
    )
    assert code == 0
    code, out, _ = run(
        ["check", "--level", "2", "--variant", "rel", "--bounds", "1,2,1",
         "--goal-invariant", "inv4"]
    )
    assert code == 0
    assert "goal invariant inv4" in out
    report(6, "initialisation/inv4 and the inv2 functionality defect surface with counterexamples; goal-invariant and rel variants check clean")


def test_criterion_7_parser_round_trip():
    units = builtin_units("base")
    assert len(units) == 6  # three contexts, three machines
    for unit in units:
        reparsed = parse_file(pretty_print(unit))
        assert len(reparsed) == 1
        assert reparsed[0] == unit

    rng = random.Random(20260819)
    vocab = (
        list(":=(){}[]@.,&!#|<>+-/\\= \n\t\"'")
        + ["CONTEXT", "MACHINE", "EVENT", "END", "WHERE", "THEN", "ANY", "SETS",
           "AXIOMS", "INVARIANTS", "VARIABLES", "CONSTANTS", "REFINES", "SEES",
           "EXTENDS", "|->", "=>", "<->", "+->", "-->", ":=", "/:", "/=", "<:",
           "pow", "dom", "x", "inv1", "@grd1:", "{}", "0", "9"]
    )
    t0 = time.perf_counter()
    crashes = 0
    for _ in range(10**5):
        n = rng.randrange(0, 30)
        joiner = " " if rng.random() < 0.6 else ""
        text = joiner.join(rng.choice(vocab) for _ in range(n))
        try:
            parse_file(text)
        except ParseError as e:
            assert re.match(r"\d+:\d+:", str(e))  # positioned line:column
        except Exception:
            crashes += 1
    elapsed = time.perf_counter() - t0
    assert crashes == 0
    report(7, f"six shipped units round-trip; 100000 fuzz inputs in {elapsed:.1f}s raised only positioned parse errors")


def test_criterion_8_scenario_reproduction(tmp_path):
    script = tmp_path / "adv.scn"
    script.write_text(builtin_source("adv"))
    code, out, _ = run(["simulate", str(script)])
    assert code == 0
    decisions = [ln for ln in out.splitlines() if ln.startswith("trust(")]
    assert decisions == [
        "trust(i, {adv1}, deliver5kg) denied; failing: grd7 grd8",
        "trust(i, {adv1}, deliver5kg) denied; failing: grd8",
        "trust(i, {adv1}, deliver5kg) granted",
    ]
    assert "  grd7 FALSE" in out and "  grd8 FALSE" in out

    # the same progression through the library API
    ts = TrustState(2, ["i"], ["adv1"], ["deliver5kg"])
    ts.allocate_task(["adv1"], "deliver5kg")
    assert ts.trust_query("i", ["adv1"], "deliver5kg").failing == ["grd7", "grd8"]
    ts.learn("i", "adv1")
    assert ts.trust_query("i", ["adv1"], "deliver5kg").failing == ["grd8"]
    ts.commit("i", ["adv1"], "deliver5kg", True)
    decision = ts.establish_trust("i", ["adv1"], "deliver5kg")
    assert decision.granted and decision.failing == []
    assert ts.trusts("i", ["adv1"], "deliver5kg")
    report(8, "the adversary scenario is denied on grd7, then grd8, then granted, in script and API alike")
