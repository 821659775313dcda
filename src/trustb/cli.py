"""Command line front end.

Four subcommands:

    trustb check     generate and discharge proof obligations
    trustb simulate  run a scenario script
    trustb query     explain a trust query against a saved state
    trustb dump-po   print obligations without discharging them

`check` works on the built-in model family (pick with --level/--variant)
or on a model file given as a positional argument.  A model file is
checked under each instantiation of its context and the reports merged;
a built-in model is checked by the same loop, as one instantiation at
--bounds.  Exit status: 0 when nothing failed, 1 when at least one
obligation or scenario assertion failed, 2 on usage errors, 3 on file,
parse and model errors.  A vacuous obligation is a warning, not a
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from . import __version__
from .dsl import parse_file, pp_expr, pp_pred
from .errors import ParseError, TrustbError
from .kernel import DEFAULT_POWERSET_BOUND
from .models import (
    VARIANTS,
    BoundSpec,
    Mutation,
    build_model,
    import_state,
    export_state,
)
from .po import (
    ALL_STATES,
    FAILED,
    STATE_SOURCES,
    VACUOUS,
    CheckResult,
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


def _bound(text: str) -> int:
    """A --powerset-bound: a log2 cap, so a whole number that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = _Parser(prog="trustb", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"trustb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common_model_flags(p):
        p.add_argument("--level", type=int, choices=(0, 1, 2), default=None,
                       help="trust level of the built-in model (default 2)")
        p.add_argument("--variant", default=None, choices=VARIANTS,
                       help="built-in model family member (default base)")
        p.add_argument("--mutate", metavar="drop:LABEL", default=None,
                       help="drop a guard by label before checking")
        p.add_argument("--machine", default=None,
                       help="machine name to check when a model file is given")
        p.add_argument("file", nargs="?", default=None,
                       help="model file (.ebt); omit to use the built-in model")

    p_check = sub.add_parser("check", help="discharge proof obligations")
    common_model_flags(p_check)
    p_check.add_argument("--bounds", default=None, metavar="A,B,C",
                         help="trustors,trustees,tasks (default 2,2,2)")
    p_check.add_argument("--state-source", default=ALL_STATES,
                         choices=STATE_SOURCES,
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
    p_check.add_argument("--powerset-bound", type=_bound, default=DEFAULT_POWERSET_BOUND,
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


# --- model loading ------------------------------------------------------

# The flags of check and dump-po that apply to one kind of model only.
_MODEL_FLAGS = {
    "the built-in model": ("--level", "--variant", "--mutate", "--bounds", "--overlap",
                           "--vacuity", "--goal-invariant"),
    "a model file": ("--machine", "--carrier"),
}


def _model(args) -> tuple[TypedMachine, BoundSpec | None]:
    """The machine that check or dump-po works on, and the bounds of a
    built-in check.  A flag given for the other kind of model is a usage
    error, not ignored; it counts as given when its value is not its
    default: None, False or [].  A built-in check reads --bounds before
    --mutate, so a bad --bounds is the error it reports."""
    kind = "the built-in model" if args.file is None else "a model file"
    for applies, flags in _MODEL_FLAGS.items():
        if applies == kind:
            continue
        for flag in flags:
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and value is not False and value != []:
                raise _Usage(f"trustb {args.command}: error: {flag} applies only to "
                             f"{applies}, not to {kind}")
    if args.file is None:
        bounds = None
        if args.command == "check":
            bounds = BoundSpec.parse("2,2,2" if args.bounds is None else args.bounds)
        level = 2 if args.level is None else args.level
        mutate = None if args.mutate is None else Mutation.parse(args.mutate)
        return build_model(level, args.variant or "base", mutate)[1], bounds
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    units = parse_file(text, args.file)
    model = elaborate(units)
    machines = [u.name for u in units if isinstance(u, MachineAST)]
    if not machines:
        raise TrustbError(f"{args.file}: no machine to check")
    name = machines[-1] if args.machine is None else args.machine
    if name not in machines:
        raise TrustbError(f"{args.file}: no machine named '{name}'")
    return model.machine(name), None


def _carrier_sizes(specs: list[str], carriers: tuple[str, ...]) -> dict[str, int]:
    sizes: dict[str, int] = {}
    for spec in specs:
        name, eq, num = spec.partition("=")
        if not eq or not num.isdecimal() or int(num) < 1:
            raise _Usage(f"trustb check: error: bad --carrier '{spec}', expected SET=N")
        if name not in carriers:
            raise _Usage(
                f"trustb check: error: --carrier {name}: the model has no carrier set "
                f"of that name; its carrier sets are {', '.join(carriers) or '(none)'}"
            )
        if name in sizes:
            raise _Usage(f"trustb check: error: --carrier {name}: given more than once")
        sizes[name] = int(num)
    return sizes


# --- check ------------------------------------------------------


def _check_lines(fields: list[tuple[str, object]], result: CheckResult, order,
                 fmt: str) -> list[str]:
    """A check's output: the header made of `fields`, each report, the
    summary, then the goal and vacuity lines, as records or as a table."""
    reports, goal = result.reports, result.goal
    failed = sum(1 for r in reports if r.verdict == FAILED)
    vacuous = sum(1 for r in reports if r.verdict == VACUOUS)
    counts = (len(reports), len(reports) - failed - vacuous, failed, vacuous)
    if fmt == "records":
        lines = ["run " + " ".join(f"{key}={value}" for key, value in fields)]
        for rep in reports:
            po, ce = rep.po, rep.counterexample
            lines.append(
                f"po name={po.name} machine={po.machine} event={po.event} "
                f"kind={po.kind} verdict={rep.verdict} cases={rep.cases}"
            )
            if ce is not None:
                part = f"ce po={po.name} part="
                if ce.state is not None:
                    lines += [f"{part}pre var={v} value={canon(ce.state.values[v])}"
                              for v in order]
                lines += [f"{part}binding var={n} value={canon(x)}" for n, x in ce.binding]
                if ce.post is not None:
                    lines += [f"{part}post var={v} value={canon(ce.post.values[v])}"
                              for v in order]
                if ce.expected is not None or ce.actual is not None:
                    lines.append(f"{part}expected value={canon(ce.expected)}")
                    lines.append(f"{part}actual value={canon(ce.actual)}")
            if rep.note:
                lines.append(f"note po={po.name} text={rep.note}")
        lines.append("summary pos={} discharged={} failed={} vacuous={}".format(*counts))
        if goal is not None:
            lines.append(
                f"goal label={goal.label} holds={goal.holds} states={goal.states} "
                f"reachable_holds={goal.holds_reachable} reachable={goal.reachable}"
            )
        lines += [
            f"vacuity event={vac.event} guard={vac.guard} "
            f"vacuous={'true' if vac.vacuous else 'false'} cases={vac.cases}"
            for vac in result.vacuity
        ]
        return lines
    width = max([len(r.po.name) for r in reports], default=10) + 2
    lines = ["  ".join(f"{key} {value}" for key, value in fields),
             f"{'obligation'.ljust(width)} {'verdict'.ljust(10)} {'cases':>10}"]
    for rep in reports:
        ce = rep.counterexample
        lines.append(f"{rep.po.name.ljust(width)} {rep.verdict.ljust(10)} {rep.cases:>10}")
        if ce is not None:
            lines.append("  counterexample:")
            if ce.state is not None:
                lines += ["    pre   " + text for text in state_lines(ce.state, order)]
            if ce.binding:
                lines.append("    with  " + ", ".join(f"{n} = {canon(x)}" for n, x in ce.binding))
            if ce.post is not None:
                lines += ["    post  " + text for text in state_lines(ce.post, order)]
            if ce.expected is not None or ce.actual is not None:
                lines.append(f"    expected {rep.po.label} = {canon(ce.expected)}")
                lines.append(f"    actual   {rep.po.label} = {canon(ce.actual)}")
        if rep.note:
            lines.append(f"  note: {rep.note}")
    lines.append("summary: {} obligations, {} discharged, {} failed, {} vacuous".format(*counts))
    if goal is not None:
        lines.append(
            f"goal invariant {goal.label}: holds in {goal.holds} of {goal.states} "
            f"typed states and {goal.holds_reachable} of {goal.reachable} reachable states"
        )
    lines += [
        f"guard {vac.guard} of {vac.event}: "
        f"{'vacuous' if vac.vacuous else 'falsifiable'} over {vac.cases} cases"
        for vac in result.vacuity
    ]
    return lines


def _cmd_check(args, out) -> int:
    """Check the machine under each of its instantiations: a model file's
    axiom-consistent ones at the --carrier sizes, or the one of a built-in
    model at --bounds."""
    tm, bounds = _model(args)
    goal = args.goal_invariant
    if goal == "":
        raise _Usage("trustb check: error: --goal-invariant needs a label")
    if args.file is None:
        inst = bounds.instantiation(args.overlap)
        inst.validate(tm.context, args.powerset_bound)
        runs = [(inst.env(args.powerset_bound), "")]
        fields = [("machine", tm.name), ("bounds", bounds), ("source", args.state_source)]
        if args.mutate is not None:
            fields.append(("mutation", args.mutate))
    else:
        sizes = _carrier_sizes(args.carrier, tm.context.carriers)
        insts = enumerate_instantiations(tm.context, sizes, args.powerset_bound)
        if not insts:
            raise TrustbError(
                f"{args.file}: no axiom-consistent instantiation at these carrier sizes"
            )
        runs = [(inst.env(args.powerset_bound), inst.label) for inst in insts]
        fields = [("machine", tm.name), ("file", args.file), ("instantiations", len(insts))]
    pos = generate_pos(tm, include_refinement=args.refinement, goal=goal)

    # Over the instantiations the cases add up, the first failure keeps its
    # counterexample, and a failure names the constants it happened under.
    reports: list[DischargeReport] = []
    for env, label in runs:
        result = discharge_all(tm, env, pos, args.state_source, args.vacuity, goal)
        reports = reports or result.reports
        for prev, rep in zip(reports, result.reports):
            if prev is not rep:
                prev.cases += rep.cases
                if prev.verdict == FAILED or rep.verdict == VACUOUS:
                    continue
                prev.verdict, prev.counterexample = rep.verdict, rep.counterexample
            if prev.verdict == FAILED and label:
                prev.note = (prev.note + "; " if prev.note else "") + f"under {label}"
    # The goal and vacuity lines come from the one built-in run; a model file has neither.
    result.reports = reports
    for line in _check_lines(fields, result, tm.var_order, args.format):
        print(line, file=out)
    return 1 if any(r.verdict == FAILED for r in reports) else 0


def _cmd_simulate(args, out) -> int:
    with open(args.script, encoding="utf-8") as fh:
        text = fh.read()
    result = run_scenario_text(text)
    for line in result.lines:
        print(line, file=out)
    if args.export_state:
        with open(args.export_state, "w", encoding="utf-8") as fh:
            fh.write(export_state(result.state))
        print(f"state written to {args.export_state}", file=out)
    return 0 if result.ok else 1


def _cmd_query(args, out) -> int:
    if len(args.atoms) < 3:
        raise _Usage(
            "trustb query: error: need a trustor, at least one trustee, and a task"
        )
    with open(args.state, encoding="utf-8") as fh:
        text = fh.read()
    try:
        ts = import_state(text)
    except ParseError as err:
        raise err.in_file(args.state) from None
    if args.level is not None and int(ts.level) != args.level:
        raise _Usage(
            f"trustb query: error: state file is level {int(ts.level)}, not {args.level}"
        )
    trustor, *trustees, task = args.atoms
    decision = ts.trust_query(trustor, tuple(trustees), task)
    for line in decision_lines(decision):
        print(line, file=out)
    return 0


def _hypothesis_lines(tm: TypedMachine, po) -> list[str]:
    axioms = " ".join(lab.label for lab in tm.context.axioms)
    lines = [f"  hypothesis axioms: {axioms}" if axioms else "  hypothesis axioms: (none)"]
    if po.hypothesis:
        lines.append("  hypothesis invariants: " + " ".join(po.hypothesis))
    guards = " ".join(g.label for g in tm.events[po.event].ast.guards)
    if guards:
        lines.append("  hypothesis guards: " + guards)
    return lines


def _cmd_dump(args, out) -> int:
    tm, _bounds = _model(args)
    pos = generate_pos(tm, include_refinement=True)
    if args.format == "records":
        for po in pos:
            print(
                f"po name={po.name} machine={po.machine} event={po.event} "
                f"kind={po.kind} label={po.label}",
                file=out,
            )
        return 0
    for po in pos:
        print(f"po {po.name}", file=out)
        info = tm.events[po.event]
        params = ", ".join(info.ast.params) if info.ast.params else "(none)"
        print(f"  machine {po.machine}  event {po.event}  parameters {params}", file=out)
        for line in _hypothesis_lines(tm, po):
            print(line, file=out)
        if po.kind == "INV":
            print(f"  goal after {po.event}: {po.label}: {pp_pred(po.goal)}", file=out)
        elif po.kind == "GRD":
            print(f"  goal abstract guard {po.label}: {pp_pred(po.goal)}", file=out)
        else:
            print(f"  goal simulate abstract {po.label} := {pp_expr(po.sim_expr)}", file=out)
        if po.note:
            print(f"  note: {po.note}", file=out)
    print(f"total {len(pos)} obligations", file=out)
    return 0


# --- entry points ------------------------------------------------------


def run_command(argv=None, stdout=None, stderr=None) -> int:
    out_stream = stdout if stdout is not None else sys.stdout
    err_stream = stderr if stderr is not None else sys.stderr
    handlers = {
        "check": _cmd_check,
        "simulate": _cmd_simulate,
        "query": _cmd_query,
        "dump-po": _cmd_dump,
    }
    try:
        with contextlib.redirect_stdout(out_stream):
            args = build_parser().parse_args(argv)
        return handlers[args.command](args, out_stream)
    except SystemExit as done:  # --help/--version print and leave
        code = done.code
        return int(code) if code else 0
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
