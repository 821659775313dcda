"""Command line front end.

Four subcommands:

    trustb check     generate and discharge proof obligations
    trustb simulate  run a scenario script
    trustb query     explain a trust query against a saved state
    trustb dump-po   print obligations without discharging them

`check` works on the built-in model family (pick with --level/--variant)
or on a model file given as a positional argument.  Exit status: 0 when
nothing failed, 1 when at least one obligation or scenario assertion
failed, 2 on usage errors, 3 on file, parse and model errors.  A vacuous
obligation is a warning, not a failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import __version__
from .dsl import parse_file, pp_expr, pp_pred
from .errors import ParseError, TrustbError
from .kernel import DEFAULT_POWERSET_BOUND
from .models import (
    BoundSpec,
    Mutation,
    import_state,
    export_state,
    machine_setup,
)
from .po import (
    ALL_STATES,
    REACHABLE,
    FAILED,
    VACUOUS,
    DischargeReport,
    discharge_all,
    generate_pos,
)
from .runtime import enumerate_instantiations, state_lines
from .scenario import decision_lines, run_scenario_text
from .syntax import MachineAST
from .typecheck import TypedMachine, elaborate
from .values import canon


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trustb", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"trustb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common_model_flags(p):
        p.add_argument("--level", type=int, choices=(0, 1, 2), default=None,
                       help="trust level of the built-in model (default 2)")
        p.add_argument("--variant", default="base",
                       choices=("base", "rel", "nopart", "bad_act"),
                       help="built-in model family member")
        p.add_argument("--mutate", metavar="drop:LABEL", default=None,
                       help="drop a guard by label before checking")
        p.add_argument("--machine", default=None,
                       help="machine name to check when a model file is given")
        p.add_argument("file", nargs="?", default=None,
                       help="model file (.ebt); omit to use the built-in model")

    p_check = sub.add_parser("check", help="discharge proof obligations")
    common_model_flags(p_check)
    p_check.add_argument("--bounds", default=None, metavar="A,B,C",
                         help="trustors,trustees,tasks (default: TRUSTB_BOUNDS or 2,2,2)")
    p_check.add_argument("--state-source", default=ALL_STATES,
                         choices=(ALL_STATES, REACHABLE),
                         help="which pre-states obligations quantify over")
    p_check.add_argument("--goal-invariant", metavar="LABEL", default=None,
                         help="treat LABEL as a goal: drop its obligations and "
                              "report where it holds instead")
    p_check.add_argument("--refinement", action="store_true",
                         help="include guard strengthening and simulation obligations")
    p_check.add_argument("--vacuity", action="store_true",
                         help="also report guards never falsified at these bounds")
    p_check.add_argument("--overlap", action="store_true",
                         help="instantiate with a shared trustor/trustee agent")
    p_check.add_argument("--carrier", action="append", default=[], metavar="SET=N",
                         help="carrier size for model files (default 2 each)")
    p_check.add_argument("--powerset-bound", type=int, default=DEFAULT_POWERSET_BOUND,
                         help="log2 cap on enumerated powersets and function spaces")
    p_check.add_argument("--format", default="table", choices=("table", "records"),
                         help="report style")

    p_sim = sub.add_parser("simulate", help="run a scenario script")
    p_sim.add_argument("script", help="scenario file (.scn)")
    p_sim.add_argument("--export-state", metavar="PATH", default=None,
                       help="write the final state to PATH")

    p_query = sub.add_parser("query", help="explain a trust query against a saved state")
    p_query.add_argument("--state", required=True, metavar="FILE",
                         help="state file produced by simulate --export-state")
    p_query.add_argument("--level", type=int, choices=(0, 1, 2), default=None,
                         help="expected trust level (checked against the file)")
    p_query.add_argument("atoms", nargs="+",
                         help="trustor, one or more trustees, then the task")

    p_dump = sub.add_parser("dump-po", help="print obligations without discharging")
    common_model_flags(p_dump)
    p_dump.add_argument("--format", default="table", choices=("table", "records"),
                        help="report style")
    return parser


# --- report rendering ------------------------------------------------------


def _table_counterexample(rep: DischargeReport, order) -> list[str]:
    ce = rep.counterexample
    lines = ["  counterexample:"]
    if ce.state is not None:
        for text in state_lines(ce.state, order):
            lines.append("    pre   " + text)
    if ce.binding:
        pairs = ", ".join(f"{n} = {canon(v)}" for n, v in ce.binding)
        lines.append("    with  " + pairs)
    if ce.post is not None:
        for text in state_lines(ce.post, order):
            lines.append("    post  " + text)
    if ce.expected is not None or ce.actual is not None:
        lines.append(f"    expected {rep.po.label} = {canon(ce.expected)}")
        lines.append(f"    actual   {rep.po.label} = {canon(ce.actual)}")
    return lines


def _render_reports(reports: list[DischargeReport], order, fmt: str) -> list[str]:
    lines: list[str] = []
    if fmt == "records":
        for rep in reports:
            po = rep.po
            lines.append(
                f"po name={po.name} machine={po.machine} event={po.event} "
                f"kind={po.kind} verdict={rep.verdict} cases={rep.cases}"
            )
            ce = rep.counterexample
            if ce is not None:
                if ce.state is not None:
                    for var in order:
                        lines.append(
                            f"ce po={po.name} part=pre var={var} value={canon(ce.state.values[var])}"
                        )
                for name, value in ce.binding:
                    lines.append(f"ce po={po.name} part=binding var={name} value={canon(value)}")
                if ce.post is not None:
                    for var in order:
                        lines.append(
                            f"ce po={po.name} part=post var={var} value={canon(ce.post.values[var])}"
                        )
                if ce.expected is not None or ce.actual is not None:
                    lines.append(f"ce po={po.name} part=expected value={canon(ce.expected)}")
                    lines.append(f"ce po={po.name} part=actual value={canon(ce.actual)}")
            if rep.note:
                lines.append(f"note po={po.name} text={rep.note}")
    else:
        width = max([len(r.po.name) for r in reports], default=10) + 2
        lines.append(f"{'obligation'.ljust(width)} {'verdict'.ljust(10)} {'cases':>10}")
        for rep in reports:
            lines.append(
                f"{rep.po.name.ljust(width)} {rep.verdict.ljust(10)} {rep.cases:>10}"
            )
            if rep.counterexample is not None:
                lines.extend(_table_counterexample(rep, order))
            if rep.note:
                lines.append(f"  note: {rep.note}")
    failed = sum(1 for r in reports if r.verdict == FAILED)
    vacuous = sum(1 for r in reports if r.verdict == VACUOUS)
    discharged = len(reports) - failed - vacuous
    if fmt == "records":
        lines.append(
            f"summary pos={len(reports)} discharged={discharged} "
            f"failed={failed} vacuous={vacuous}"
        )
    else:
        lines.append(
            f"summary: {len(reports)} obligations, {discharged} discharged, "
            f"{failed} failed, {vacuous} vacuous"
        )
    return lines


# --- model file instantiation ------------------------------------------------------


def _carrier_sizes(specs: list[str], carriers: tuple[str, ...]) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for spec in specs:
        name, eq, num = spec.partition("=")
        if not eq or not num.isdigit() or int(num) < 1:
            raise _Usage(f"trustb: error: bad --carrier '{spec}', expected SET=N")
        if name not in carriers:
            raise _Usage(
                f"trustb check: error: --carrier {name}: the model has no carrier set "
                f"of that name; its carrier sets are {', '.join(carriers) or '(none)'}"
            )
        sizes[name] = int(num)
    return sizes


# --- subcommand handlers ------------------------------------------------------


@dataclass
class _Out:
    stream: object

    def line(self, text: str = "") -> None:
        self.stream.write(text + "\n")


def _load_file_model(args) -> TypedMachine:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    units = parse_file(text, args.file)
    model = elaborate(units)
    machines = [u.name for u in units if isinstance(u, MachineAST)]
    if not machines:
        raise TrustbError(f"{args.file}: no machine to check")
    name = args.machine or machines[-1]
    if name not in machines:
        raise TrustbError(f"{args.file}: no machine named '{name}'")
    return model.machine(name)


def _builtin_setup(args, bounds: BoundSpec, powerset_bound: int):
    level = 2 if args.level is None else args.level
    mutate = Mutation.parse(args.mutate) if args.mutate else None
    overlap = getattr(args, "overlap", False)
    return machine_setup(level, bounds, args.variant, mutate, overlap, powerset_bound)


def _cmd_check(args, out: _Out) -> int:
    fmt = args.format
    exclude = frozenset({args.goal_invariant}) if args.goal_invariant else frozenset()

    if args.file is not None:
        builtin_only = {
            "--level": args.level is not None,
            "--mutate": args.mutate,
            "--vacuity": args.vacuity,
            "--goal-invariant": args.goal_invariant,
        }
        for flag, given in builtin_only.items():
            if given:
                raise _Usage(f"trustb check: error: {flag} applies only to the "
                             "built-in model, not to a model file")
        return _check_file(args, out)

    bounds = BoundSpec.parse(args.bounds or os.environ.get("TRUSTB_BOUNDS", "2,2,2"))
    tm, inst, env = _builtin_setup(args, bounds, args.powerset_bound)
    if args.goal_invariant and not any(
        lbl == args.goal_invariant for lbl, _i, _o in tm.invariant_scope
    ):
        raise TrustbError(f"no invariant labelled '{args.goal_invariant}' in {tm.name}")

    pos = generate_pos(tm, include_refinement=args.refinement, exclude_labels=exclude)
    result = discharge_all(
        tm, env, pos, args.state_source, exclude,
        vacuity=args.vacuity, goal=args.goal_invariant or None,
    )

    if fmt == "table":
        head = f"machine {tm.name}  bounds {bounds}  source {args.state_source}"
        if args.mutate:
            head += f"  mutation {args.mutate}"
        out.line(head)
    else:
        mut = f" mutation={args.mutate}" if args.mutate else ""
        out.line(f"run machine={tm.name} bounds={bounds} source={args.state_source}{mut}")
    for text in _render_reports(result.reports, tm.var_order, fmt):
        out.line(text)

    rep = result.goal
    if rep is not None:
        if fmt == "records":
            out.line(
                f"goal label={rep.label} holds={rep.holds} states={rep.states} "
                f"reachable_holds={rep.holds_reachable} reachable={rep.reachable}"
            )
        else:
            out.line(
                f"goal invariant {rep.label}: holds in {rep.holds} of {rep.states} "
                f"typed states and {rep.holds_reachable} of {rep.reachable} reachable states"
            )
    for vac in result.vacuity:
        if fmt == "records":
            out.line(
                f"vacuity event={vac.event} guard={vac.guard} "
                f"vacuous={'true' if vac.vacuous else 'false'} cases={vac.cases}"
            )
        else:
            verdict = "vacuous" if vac.vacuous else "falsifiable"
            out.line(
                f"guard {vac.guard} of {vac.event}: {verdict} over {vac.cases} cases"
            )
    return 1 if any(r.verdict == FAILED for r in result.reports) else 0


def _check_file(args, out: _Out) -> int:
    tm = _load_file_model(args)
    sizes = _carrier_sizes(args.carrier, tm.context.carriers)
    insts = enumerate_instantiations(tm.context, sizes, args.powerset_bound)
    if not insts:
        raise TrustbError(
            f"{args.file}: no axiom-consistent instantiation at these carrier sizes"
        )
    pos = generate_pos(tm, include_refinement=args.refinement)

    merged: dict[str, DischargeReport] = {}
    for inst in insts:
        env = inst.env(args.powerset_bound)
        for rep in discharge_all(tm, env, pos, args.state_source).reports:
            prev = merged.get(rep.po.name)
            if prev is None:
                if rep.verdict == FAILED and rep.counterexample is not None:
                    rep.note = (rep.note + "; " if rep.note else "") + f"under {inst.label}"
                merged[rep.po.name] = rep
                continue
            prev.cases += rep.cases
            if prev.verdict != FAILED:
                if rep.verdict == FAILED:
                    prev.verdict = FAILED
                    prev.counterexample = rep.counterexample
                    prev.note = (prev.note + "; " if prev.note else "") + f"under {inst.label}"
                elif rep.verdict != VACUOUS:
                    prev.verdict = rep.verdict
    reports = list(merged.values())
    if args.format == "table":
        out.line(
            f"machine {tm.name}  file {args.file}  instantiations {len(insts)}"
        )
    else:
        out.line(f"run machine={tm.name} file={args.file} instantiations={len(insts)}")
    for text in _render_reports(reports, tm.var_order, args.format):
        out.line(text)
    return 1 if any(r.verdict == FAILED for r in reports) else 0


def _cmd_simulate(args, out: _Out) -> int:
    with open(args.script, encoding="utf-8") as fh:
        text = fh.read()
    result = run_scenario_text(text)
    for line in result.lines:
        out.line(line)
    if args.export_state:
        with open(args.export_state, "w", encoding="utf-8") as fh:
            fh.write(export_state(result.state))
        out.line(f"state written to {args.export_state}")
    return 0 if result.ok else 1


def _cmd_query(args, out: _Out) -> int:
    if len(args.atoms) < 3:
        raise _Usage(
            "trustb query: error: need a trustor, at least one trustee, and a task"
        )
    with open(args.state, encoding="utf-8") as fh:
        text = fh.read()
    ts = import_state(text)
    if args.level is not None and int(ts.level) != args.level:
        raise _Usage(
            f"trustb query: error: state file is level {int(ts.level)}, not {args.level}"
        )
    trustor, *trustees, task = args.atoms
    decision = ts.trust_query(trustor, tuple(trustees), task)
    for line in decision_lines(decision):
        out.line(line)
    return 0


def _hypothesis_lines(tm: TypedMachine, po) -> list[str]:
    axioms = " ".join(lab.label for lab in tm.context.axioms)
    lines = [f"  hypothesis axioms: {axioms}" if axioms else "  hypothesis axioms: (none)"]
    info = tm.events[po.event]
    if not info.ast.is_init:
        if po.kind == "INV":
            scope = [lbl for lbl, _inv, _o in tm.invariant_scope if lbl != po.label]
        else:
            scope = [lbl for lbl, _inv, _o in tm.invariant_scope]
        if scope:
            lines.append("  hypothesis invariants: " + " ".join(scope))
        guards = " ".join(g.label for g in info.ast.guards)
        if guards:
            lines.append("  hypothesis guards: " + guards)
    return lines


def _cmd_dump(args, out: _Out) -> int:
    if args.file is not None:
        tm = _load_file_model(args)
    else:
        level = 2 if args.level is None else args.level
        mutate = Mutation.parse(args.mutate) if args.mutate else None
        from .models import build_model

        _model, tm = build_model(level, args.variant, mutate)
    pos = generate_pos(tm, include_refinement=True)
    if args.format == "records":
        for po in pos:
            out.line(
                f"po name={po.name} machine={po.machine} event={po.event} "
                f"kind={po.kind} label={po.label}"
            )
        return 0
    for po in pos:
        out.line(f"po {po.name}")
        info = tm.events[po.event]
        params = ", ".join(info.ast.params) if info.ast.params else "(none)"
        out.line(f"  machine {po.machine}  event {po.event}  parameters {params}")
        for line in _hypothesis_lines(tm, po):
            out.line(line)
        if po.kind == "INV":
            out.line(f"  goal after {po.event}: {po.label}: {pp_pred(po.goal)}")
        elif po.kind == "GRD":
            out.line(f"  goal abstract guard {po.label}: {pp_pred(po.goal)}")
        else:
            out.line(
                f"  goal simulate abstract {po.label} := {pp_expr(po.sim_expr)}"
            )
        if po.note:
            out.line(f"  note: {po.note}")
    out.line(f"total {len(pos)} obligations")
    return 0


# --- entry points ------------------------------------------------------


def run_command(argv=None, stdout=None, stderr=None) -> int:
    out_stream = stdout if stdout is not None else sys.stdout
    err_stream = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as usage:
        err_stream.write(str(usage).rstrip() + "\n")
        return 2
    except SystemExit as done:  # --help/--version print and leave
        code = done.code
        return int(code) if code else 0

    out = _Out(out_stream)
    handlers = {
        "check": _cmd_check,
        "simulate": _cmd_simulate,
        "query": _cmd_query,
        "dump-po": _cmd_dump,
    }
    try:
        return handlers[args.command](args, out)
    except _Usage as usage:
        err_stream.write(str(usage).rstrip() + "\n")
        return 2
    except ParseError as err:
        err_stream.write(str(err).rstrip() + "\n")
        return 3
    except OSError as err:
        name = getattr(err, "filename", None)
        detail = err.strerror or str(err)
        err_stream.write(f"{name}: {detail}\n" if name else f"{detail}\n")
        return 3
    except TrustbError as err:
        err_stream.write(f"error: {err}\n")
        return 3


def main(argv=None) -> None:
    sys.exit(run_command(argv))


if __name__ == "__main__":
    main()
