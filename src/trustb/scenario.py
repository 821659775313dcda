"""Line-oriented scenario scripts driving the trust API.

A scenario declares its instantiation, then issues commands:

    # comments run to end of line
    level 2
    trustors i
    trustees adv1
    tasks deliver5kg

    allocate {adv1} deliver5kg
    learn i adv1
    commit i {adv1} deliver5kg TRUE
    trust i {adv1} deliver5kg
    query i {adv1} deliver5kg
    assert-invariant inv4

`trust` fires the trust event and counts as a scenario failure when the
model denies it; `query` only reports the per-guard outcome.  After every
state change the invariants of the level are re-checked and violations
are printed as warnings, not failures: the model itself decides what it
accepts, the scenario merely narrates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ScenarioError, TrustbError, TrustDenied
from .models import TrustDecision, TrustState
from .runtime import state_lines

_TOKEN = re.compile(r"\{[^{}]*\}|\S+")

_DIRECTIVES = ("level", "trustors", "trustees", "tasks")
_COMMANDS = ("allocate", "learn", "commit", "trust", "query", "assert-invariant")


@dataclass
class Command:
    kind: str
    args: tuple
    line: int


@dataclass
class Scenario:
    level: int
    trustors: tuple[str, ...]
    trustees: tuple[str, ...]
    tasks: tuple[str, ...]
    commands: list[Command] = field(default_factory=list)


def _group(token: str, line: int) -> tuple[str, ...]:
    if not (token.startswith("{") and token.endswith("}")):
        raise ScenarioError(f"line {line}: expected a trustee group like {{a, b}}, got '{token}'")
    inner = token[1:-1].replace(",", " ").split()
    if not inner:
        raise ScenarioError(f"line {line}: trustee group must not be empty")
    return tuple(inner)


def _arity(tokens: list[str], n: int, line: int, kind: str) -> None:
    if len(tokens) != n:
        raise ScenarioError(
            f"line {line}: '{kind}' takes {n - 1} arguments, got {len(tokens) - 1}"
        )


def parse_scenario(text: str) -> Scenario:
    header: dict[str, list[str]] = {}
    commands: list[Command] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = _TOKEN.findall(stripped)
        kind = tokens[0]
        if kind in _DIRECTIVES:
            if commands:
                raise ScenarioError(f"line {lineno}: directives must precede commands")
            if kind in header:
                raise ScenarioError(f"line {lineno}: duplicate '{kind}' directive")
            header[kind] = tokens[1:]
            continue
        if kind not in _COMMANDS:
            raise ScenarioError(f"line {lineno}: unknown command '{kind}'")
        if kind == "allocate":
            _arity(tokens, 3, lineno, kind)
            commands.append(Command(kind, (_group(tokens[1], lineno), tokens[2]), lineno))
        elif kind == "learn":
            _arity(tokens, 3, lineno, kind)
            commands.append(Command(kind, (tokens[1], tokens[2]), lineno))
        elif kind == "commit":
            _arity(tokens, 5, lineno, kind)
            flag_text = tokens[4].upper()
            if flag_text not in ("TRUE", "FALSE"):
                raise ScenarioError(f"line {lineno}: commit flag must be TRUE or FALSE")
            commands.append(
                Command(
                    kind,
                    (tokens[1], _group(tokens[2], lineno), tokens[3], flag_text == "TRUE"),
                    lineno,
                )
            )
        elif kind in ("trust", "query"):
            _arity(tokens, 4, lineno, kind)
            commands.append(
                Command(kind, (tokens[1], _group(tokens[2], lineno), tokens[3]), lineno)
            )
        else:  # assert-invariant
            _arity(tokens, 2, lineno, kind)
            commands.append(Command(kind, (tokens[1],), lineno))

    for key in ("level", "trustors", "trustees", "tasks"):
        if key not in header:
            raise ScenarioError(f"scenario misses the '{key}' directive")
    level_args = header["level"]
    if len(level_args) != 1 or not level_args[0].isdecimal():
        raise ScenarioError("the 'level' directive takes a single number")
    return Scenario(
        int(level_args[0]),
        tuple(header["trustors"]),
        tuple(header["trustees"]),
        tuple(header["tasks"]),
        commands,
    )


@dataclass
class ScenarioResult:
    ok: bool
    lines: list[str]
    state: TrustState

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def decision_lines(decision: TrustDecision) -> list[str]:
    group = "{" + ", ".join(decision.trustees) + "}"
    verdict = "granted" if decision.granted else "denied"
    head = f"trust({decision.trustor}, {group}, {decision.task}) {verdict}"
    if not decision.granted:
        head += "; failing: " + " ".join(decision.failing)
    lines = [head]
    for lbl, ok in decision.guards:
        lines.append(f"  {lbl} {'ok' if ok else 'FALSE'}")
    return lines


def run_scenario(scn: Scenario) -> ScenarioResult:
    ts = TrustState(scn.level, scn.trustors, scn.trustees, scn.tasks)
    out: list[str] = [
        f"level {scn.level}",
        "trustors " + " ".join(scn.trustors),
        "trustees " + " ".join(scn.trustees),
        "tasks " + " ".join(scn.tasks),
    ]
    ok = True

    def warn_invariants() -> None:
        for lbl in ts.invariant_warnings():
            out.append(f"warning: invariant {lbl} does not hold")

    for cmd in scn.commands:
        try:
            if cmd.kind == "allocate":
                group, task = cmd.args
                ts.allocate_task(group, task)
                gtext = "{" + ", ".join(group) + "}"
                out.append(f"allocate: {gtext} |-> {task}")
                warn_invariants()
            elif cmd.kind == "learn":
                trustor, trustee = cmd.args
                ts.learn(trustor, trustee)
                out.append(f"learn: {trustor} knows {trustee}")
                warn_invariants()
            elif cmd.kind == "commit":
                trustor, group, task, flag = cmd.args
                ts.commit(trustor, group, task, flag)
                gtext = "{" + ", ".join(group) + "}"
                value = "TRUE" if flag else "FALSE"
                out.append(f"commit: ({trustor}, {gtext}, {task}) := {value}")
                warn_invariants()
            elif cmd.kind == "trust":
                trustor, group, task = cmd.args
                try:
                    decision = ts.establish_trust(trustor, group, task)
                    out.extend(decision_lines(decision))
                    warn_invariants()
                except TrustDenied as denied:
                    out.extend(decision_lines(denied.decision))
                    ok = False
            elif cmd.kind == "query":
                trustor, group, task = cmd.args
                out.extend(decision_lines(ts.trust_query(trustor, group, task)))
            else:  # assert-invariant
                (label,) = cmd.args
                held = dict(ts.invariants()).get(label)
                if held is None:
                    raise ScenarioError(f"no invariant labelled '{label}'")
                out.append(f"assert {label}: {'holds' if held else 'FAILS'}")
                if not held:
                    ok = False
        except TrustbError as err:
            # A command that cannot run names its line, as a parse error does.
            raise ScenarioError(f"line {cmd.line}: {err}") from err

    out.append("final state")
    state = ts.embed()
    out.extend("  " + line for line in state_lines(state, ts.variables()))
    return ScenarioResult(ok, out, ts)


def run_scenario_text(text: str) -> ScenarioResult:
    return run_scenario(parse_scenario(text))
