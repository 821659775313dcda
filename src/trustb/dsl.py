r"""Concrete syntax for contexts and machines.

The surface language is the ASCII form shown below; common mathematical
glyphs are accepted as aliases and normalised during lexing.

    CONTEXT cntx0
    SETS AGENTS TASKS
    CONSTANTS trustors trustees
    AXIOMS
      @axm1: trustors <: AGENTS
      @axm2: trustees <: AGENTS
    END

    MACHINE M0
    SEES cntx0
    VARIABLES agent_task
    INVARIANTS
      @inv1: agent_task : pow(trustees) +-> TASKS
    EVENT INITIALISATION
    THEN
      @act1: agent_task := {}
    END
    END

Predicates:   P & Q   P => Q   !x, y . P   #x . P   partition(S, a, b)
              e : S   e /: S   e <: S   e = f   e /= f
Expressions:  x   {}   {a, b}   e |-> f   e \/ f   e \ f   pow(e)   dom(e)
              r[e]   f(e)   S <-> T   S +-> T   S --> T

Comments run from // to end of line.  `pretty_print` renders parsed trees
back to this ASCII form; parsing that output yields an equal tree.

Nesting is limited to MAX_NESTING (200) levels, so that no tree is too deep
for the recursions over it.  A predicate, an atomic predicate, an expression
and a primary each count a level, and so does each link of an &, \/, \ or
|-> chain and each r[e] or f(e) applied: brackets, pow(, dom(, {, f( and r[
nest at most 98 deep, and an &, => or |-> chain has at most 196 links.
Deeper input is refused with a positioned ParseError, "expression nesting
too deep".
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import DuplicateLabel, MultipleAssignment, ParseError
from .syntax import (
    Action,
    And,
    ContextAST,
    Difference,
    Dom,
    EmptySetLit,
    Equal,
    EventAST,
    Exists,
    Expr,
    FnSpace,
    Forall,
    FunApp,
    Ident,
    Image,
    Implies,
    Labeled,
    MachineAST,
    Maplet,
    Member,
    NotEqual,
    NotMember,
    Partition,
    Pow,
    Pred,
    SetEnum,
    Subset,
    Union,
)

MAX_NESTING = 200

_KEYWORDS = {
    "CONTEXT",
    "EXTENDS",
    "SETS",
    "CONSTANTS",
    "AXIOMS",
    "MACHINE",
    "REFINES",
    "SEES",
    "VARIABLES",
    "INVARIANTS",
    "EVENT",
    "ANY",
    "WHERE",
    "THEN",
    "END",
}

# Multi-character operators, longest first so prefixes never win early.
_OPERATORS = [
    ":=",
    "|->",
    "<->",
    "+->",
    "-->",
    "<:",
    "/:",
    "/=",
    "=>",
    "\\/",
    "\\",
    ":",
    "=",
    "&",
    "!",
    "#",
    ".",
    ",",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "@",
]

# One table per operator family, from its token to the node it builds (to
# the FnSpace kind for relation spaces); the printer reads them inverted.
_RELATIONS = {":": Member, "/:": NotMember, "<:": Subset, "=": Equal, "/=": NotEqual}
_SET_OPERATORS = {"\\/": Union, "\\": Difference}
_CONJUNCTION = {"&": And}
_MAPLET = {"|->": Maplet}
_POSTFIX = {"[": (Image, "]"), "(": (FunApp, ")")}
_RELATION_SPACES = {"<->": "rel", "+->": "pfun", "-->": "tfun"}
_QUANTIFIERS = {"!": Forall, "#": Exists}
_SPELLING = {
    node: op
    for table in (_RELATIONS, _SET_OPERATORS, _RELATION_SPACES, _QUANTIFIERS)
    for op, node in table.items()
}

# Mathematical glyphs lex as their ASCII spelling.
_UNICODE_ALIASES = {
    "∈": ":",  # element of
    "∉": "/:",
    "⊆": "<:",
    "↦": "|->",
    "∪": "\\/",
    "∖": "\\",
    "≠": "/=",
    "∧": "&",
    "⇒": "=>",
    "∀": "!",
    "∃": "#",
    "↔": "<->",
    "⇸": "+->",
    "→": "-->",
    "≔": ":=",
    "·": ".",
    "∅": "EMPTYSET",
    "ℙ": "POW",
}


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "kw", "eof", or the normalised operator text
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _UNICODE_ALIASES:
            alias = _UNICODE_ALIASES[ch]
            if alias == "EMPTYSET":
                tokens.append(Token("{", "{", line, col))
                tokens.append(Token("}", "}", line, col))
            elif alias == "POW":
                tokens.append(Token("ident", "pow", line, col))
            else:
                tokens.append(Token(alias, alias, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "kw" if word in _KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += i - start
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(op, op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Nesting:
    """`with _Nesting(parser):` parses one nesting level deeper and puts the
    parser's depth back as it was when the block ends, on a parse error too,
    so a failed attempt leaves no depth behind."""

    __slots__ = ("parser", "depth")

    def __init__(self, parser: Parser):
        self.parser = parser
        self.depth = parser.depth

    def __enter__(self) -> None:
        self.parser.deeper()

    def __exit__(self, *exc) -> None:
        self.parser.depth = self.depth


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    # -- token helpers

    def peek(self, ahead: int = 0) -> Token:
        """The token `ahead` places on; never look past eof, where the
        parser stops."""
        return self.tokens[self.i + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(
                tok.line, tok.col, f"expected {want!r}, found {tok.text or 'end of input'!r}",
                expected=want,
            )
        return self.next()

    def expect_ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(
                tok.line, tok.col, f"expected {what}, found {tok.text or 'end of input'!r}",
                expected=what,
            )
        return self.next().text

    def deeper(self) -> None:
        """Count one more level of nesting at the next token.  Each rule
        that recurses counts one (see _Nesting) and so does each link of a
        chain, up to the end of the chain, so the count bounds the depth of
        the tree being built and of every recursion over it."""
        if self.depth >= MAX_NESTING:
            tok = self.peek()
            raise ParseError(tok.line, tok.col, "expression nesting too deep")
        self.depth += 1

    # -- top level

    def parse_file(self) -> list[ContextAST | MachineAST]:
        units: list[ContextAST | MachineAST] = []
        while not self.at("eof"):
            if self.at("kw", "CONTEXT"):
                units.append(self.parse_context())
            elif self.at("kw", "MACHINE"):
                units.append(self.parse_machine())
            else:
                tok = self.peek()
                raise ParseError(
                    tok.line, tok.col,
                    f"expected CONTEXT or MACHINE, found {tok.text or 'end of input'!r}",
                )
        if not units:
            tok = self.peek()
            raise ParseError(tok.line, tok.col, "empty input")
        return units

    def clause(self, keyword: str, read, *args, absent=()):
        """What read(*args) reads after `keyword`, or `absent` when the
        optional clause is not there."""
        if not self.at("kw", keyword):
            return absent
        self.next()
        return read(*args)

    def parse_context(self) -> ContextAST:
        self.expect("kw", "CONTEXT")
        name = self.expect_ident("context name")
        extends = self.clause("EXTENDS", self.ident_list, "context name")
        sets = self.clause("SETS", self.ident_list, "carrier set name")
        constants = self.clause("CONSTANTS", self.ident_list, "constant name")
        axioms = self.clause("AXIOMS", self.labeled_predicates)
        self.expect("kw", "END")
        return ContextAST(name, extends, sets, constants, axioms)

    def parse_machine(self) -> MachineAST:
        self.expect("kw", "MACHINE")
        name = self.expect_ident("machine name")
        refines = self.clause("REFINES", self.expect_ident, "machine name", absent=None)
        sees = self.clause("SEES", self.ident_list, "context name")
        variables = self.clause("VARIABLES", self.ident_list, "variable name")
        invariants = self.clause("INVARIANTS", self.labeled_predicates)
        events: list[EventAST] = []
        seen_events: set[str] = set()
        while self.at("kw", "EVENT"):
            start = self.peek()
            ev = self.parse_event()
            if ev.name in seen_events:
                raise DuplicateLabel(start.line, start.col, ev.name)
            seen_events.add(ev.name)
            events.append(ev)
        self.expect("kw", "END")
        return MachineAST(name, sees, refines, variables, invariants, tuple(events))

    def parse_event(self) -> EventAST:
        self.expect("kw", "EVENT")
        name = self.expect_ident("event name")
        refines_event = self.clause("REFINES", self.expect_ident, "event name", absent=None)
        params = self.clause("ANY", self.ident_list, "parameter name")
        guards = self.clause("WHERE", self.labeled_predicates)
        self.expect("kw", "THEN")
        actions = self.labeled_actions()
        self.expect("kw", "END")
        return EventAST(name, params, guards, actions, refines_event)

    def ident_list(self, what: str) -> tuple[str, ...]:
        names = [self.expect_ident(what)]
        while self.at("ident"):
            names.append(self.next().text)
        return tuple(names)

    def comma_list(self, read, *args) -> tuple:
        """read(*args), then again after each ','."""
        items = [read(*args)]
        while self.at(","):
            self.next()
            items.append(read(*args))
        return tuple(items)

    def labeled(self, what: str, read) -> tuple:
        """One or more `@label: ...` clauses, their labels distinct;
        read(label, pos) reads the rest of each, pos being its '@'."""
        out = []
        seen: set[str] = set()
        while self.at("@"):
            at = self.next()
            label = self.expect_ident("label")
            if label in seen:
                raise DuplicateLabel(at.line, at.col, label)
            seen.add(label)
            self.expect(":")
            out.append(read(label, (at.line, at.col)))
        if not out:
            tok = self.peek()
            raise ParseError(tok.line, tok.col, f"expected at least one @label: {what}")
        return tuple(out)

    def labeled_predicates(self) -> tuple[Labeled, ...]:
        return self.labeled("clause", lambda lbl, pos: Labeled(lbl, self.parse_pred(), pos=pos))

    def labeled_actions(self) -> tuple[Action, ...]:
        assigned: set[str] = set()

        def action(label: str, pos: tuple[int, int]) -> Action:
            var = self.expect_ident("variable name")
            self.expect(":=")
            if var in assigned:
                raise MultipleAssignment(*pos, var)
            assigned.add(var)
            return Action(label, var, self.parse_expr(), pos=pos)

        return self.labeled("action", action)

    def chain(self, operand, nodes: dict) -> Pred | Expr:
        """An operand, then `op operand` while the next token is an operator
        in `nodes`, each link building its node over all before it: a & b & c
        is (a & b) & c.  Each link nests one level deeper, until the chain
        ends."""
        depth = self.depth
        left = operand()
        while self.peek().kind in nodes:
            tok = self.next()
            self.deeper()
            left = nodes[tok.kind](left, operand(), pos=(tok.line, tok.col))
        self.depth = depth
        return left

    # -- predicates

    def parse_pred(self) -> Pred:
        with _Nesting(self):
            left = self.chain(self.atom_pred, _CONJUNCTION)
            if not self.at("=>"):
                return left
            tok = self.next()
            return Implies(left, self.parse_pred(), pos=(tok.line, tok.col))

    def atom_pred(self) -> Pred:
        tok = self.peek()
        with _Nesting(self):
            if tok.kind in _QUANTIFIERS:
                self.next()
                names = self.comma_list(self.expect_ident, "quantified variable")
                self.expect(".")
                return _QUANTIFIERS[tok.kind](names, self.parse_pred(), pos=(tok.line, tok.col))
            if tok.kind == "ident" and tok.text == "partition" and self.peek(1).kind == "(":
                self.next()
                self.next()
                whole, *parts = self.comma_list(self.parse_expr)
                self.expect(")")
                return Partition(whole, tuple(parts), pos=(tok.line, tok.col))
            if tok.kind == "(":
                return self.paren_or_relational()
            return self.relational()

    def paren_or_relational(self) -> Pred:
        """A '(' may open a grouped predicate or a parenthesised expression.

        Try the relational reading first (covers `(a |-> b) : S`); fall back
        to a grouped predicate (covers `(#x . P)`).  Report whichever
        attempt got further.
        """
        mark = self.i
        try:
            return self.relational()
        except ParseError as rel_err:
            rel_pos = self.i
            self.i = mark
            try:
                self.expect("(")
                inner = self.parse_pred()
                self.expect(")")
                return inner
            except ParseError as grp_err:
                if self.i > rel_pos:
                    raise grp_err from None
                raise rel_err from None

    def relational(self) -> Pred:
        left = self.parse_expr()
        tok = self.peek()
        if tok.kind in _RELATIONS:
            self.next()
            return _RELATIONS[tok.kind](left, self.parse_expr(), pos=(tok.line, tok.col))
        raise ParseError(
            tok.line, tok.col,
            f"expected a relational operator, found {tok.text or 'end of input'!r}",
        )

    # -- expressions

    def parse_expr(self) -> Expr:
        with _Nesting(self):
            left = self.chain(self.set_term, _MAPLET)
            tok = self.peek()
            if tok.kind not in _RELATION_SPACES:
                return left
            self.next()
            right = self.chain(self.set_term, _MAPLET)
            return FnSpace(_RELATION_SPACES[tok.kind], left, right, pos=(tok.line, tok.col))

    def set_term(self) -> Expr:
        return self.chain(self.postfix, _SET_OPERATORS)

    def postfix(self) -> Expr:
        """A primary, then any number of r[e] images and f(e) applications;
        like a chain link, each nests one level."""
        depth = self.depth
        e = self.primary()
        while self.peek().kind in _POSTFIX:
            tok = self.next()
            node, close = _POSTFIX[tok.kind]
            self.deeper()
            arg = self.parse_expr()
            self.expect(close)
            e = node(e, arg, pos=(tok.line, tok.col))
        self.depth = depth
        return e

    def primary(self) -> Expr:
        tok = self.peek()
        with _Nesting(self):
            if tok.kind == "ident":
                self.next()
                if tok.text not in ("pow", "dom"):
                    return Ident(tok.text, pos=(tok.line, tok.col))
                self.expect("(")
                inner = self.parse_expr()
                self.expect(")")
                node = Pow if tok.text == "pow" else Dom
                return node(inner, pos=(tok.line, tok.col))
            if tok.kind == "{":
                self.next()
                if self.at("}"):
                    self.next()
                    return EmptySetLit(pos=(tok.line, tok.col))
                items = self.comma_list(self.parse_expr)
                self.expect("}")
                return SetEnum(items, pos=(tok.line, tok.col))
            if tok.kind == "(":
                self.next()
                inner = self.parse_expr()
                self.expect(")")
                return inner
            raise ParseError(
                tok.line, tok.col,
                f"expected an expression, found {tok.text or 'end of input'!r}",
            )


# --- entry points ------------------------------------------------------


def parse_file(text: str, filename: str | None = None) -> list[ContextAST | MachineAST]:
    """Parse source text into contexts and machines, in order of appearance."""
    try:
        return Parser(tokenize(text)).parse_file()
    except ParseError as err:
        if filename is not None:
            err.in_file(filename)
        raise


def parse_predicate(text: str) -> Pred:
    parser = Parser(tokenize(text))
    pred = parser.parse_pred()
    parser.expect("eof")
    return pred


def parse_expression(text: str) -> Expr:
    parser = Parser(tokenize(text))
    expr = parser.parse_expr()
    parser.expect("eof")
    return expr


# --- pretty printing ------------------------------------------------------


def pp_expr(e: Expr, ctx: int = 0) -> str:
    """Render an expression; ctx is the binding level of the surrounding hole.

    Levels, loosest first: 0 relation-space arrows, 1 maplet, 2 union and
    difference, 3 postfix and primary.
    """
    t = type(e)
    if t is Ident:
        return e.name
    if t is EmptySetLit:
        return "{}"
    if t is SetEnum:
        return "{" + ", ".join(pp_expr(item) for item in e.items) + "}"
    if t is Pow:
        return f"pow({pp_expr(e.base)})"
    if t is Dom:
        return f"dom({pp_expr(e.rel)})"
    if t is Image:
        return f"{pp_expr(e.rel, 3)}[{pp_expr(e.arg)}]"
    if t is FunApp:
        return f"{pp_expr(e.fn, 3)}({pp_expr(e.arg)})"
    if t is Union or t is Difference:
        s = f"{pp_expr(e.left, 2)} {_SPELLING[t]} {pp_expr(e.right, 3)}"
        return f"({s})" if ctx > 2 else s
    if t is Maplet:
        s = f"{pp_expr(e.left, 1)} |-> {pp_expr(e.right, 2)}"
        return f"({s})" if ctx > 1 else s
    if t is FnSpace:
        s = f"{pp_expr(e.dom, 1)} {_SPELLING[e.kind]} {pp_expr(e.ran, 1)}"
        return f"({s})" if ctx > 0 else s
    raise TypeError(f"not an expression node: {e!r}")


def pp_pred(p: Pred, ctx: int = 0) -> str:
    """Render a predicate; ctx 0 is open position, 1 inside =>, 2 inside &."""
    t = type(p)
    if t is Forall or t is Exists:
        s = f"{_SPELLING[t]}{', '.join(p.vars)} . {pp_pred(p.body, 0)}"
        return f"({s})" if ctx > 0 else s
    if t in _RELATIONS.values():  # its operands are its first two fields
        left, right = (getattr(p, f.name) for f in fields(p)[:2])
        return f"{pp_expr(left)} {_SPELLING[t]} {pp_expr(right)}"
    if t is Partition:
        inner = ", ".join([pp_expr(p.whole)] + [pp_expr(q) for q in p.parts])
        return f"partition({inner})"
    if t is And:
        s = f"{pp_pred(p.left, 1)} & {pp_pred(p.right, 2)}"
        return f"({s})" if ctx > 1 else s
    if t is Implies:
        s = f"{pp_pred(p.left, 1)} => {pp_pred(p.right, 0)}"
        return f"({s})" if ctx > 0 else s
    raise TypeError(f"not a predicate node: {p!r}")


def _pp_labeled(items, indent: str = "  ") -> list[str]:
    return [f"{indent}@{item.label}: {pp_pred(item.pred)}" for item in items]


def pp_event(ev: EventAST) -> list[str]:
    header = f"EVENT {ev.name}"
    if ev.refines_event:
        header += f" REFINES {ev.refines_event}"
    lines = [header]
    if ev.params:
        lines.append("ANY " + " ".join(ev.params))
    if ev.guards:
        lines.append("WHERE")
        lines.extend(_pp_labeled(ev.guards))
    lines.append("THEN")
    for act in ev.actions:
        lines.append(f"  @{act.label}: {act.variable} := {pp_expr(act.expr)}")
    lines.append("END")
    return lines


def pp_machine(m: MachineAST) -> str:
    lines = [f"MACHINE {m.name}"]
    if m.refines:
        lines.append(f"REFINES {m.refines}")
    if m.sees:
        lines.append("SEES " + " ".join(m.sees))
    if m.variables:
        lines.append("VARIABLES " + " ".join(m.variables))
    if m.invariants:
        lines.append("INVARIANTS")
        lines.extend(_pp_labeled(m.invariants))
    for ev in m.events:
        lines.extend(pp_event(ev))
    lines.append("END")
    return "\n".join(lines)


def pp_context(c: ContextAST) -> str:
    lines = [f"CONTEXT {c.name}"]
    if c.extends:
        lines.append("EXTENDS " + " ".join(c.extends))
    if c.sets:
        lines.append("SETS " + " ".join(c.sets))
    if c.constants:
        lines.append("CONSTANTS " + " ".join(c.constants))
    if c.axioms:
        lines.append("AXIOMS")
        lines.extend(_pp_labeled(c.axioms))
    lines.append("END")
    return "\n".join(lines)


def pretty_print(unit) -> str:
    if isinstance(unit, MachineAST):
        return pp_machine(unit)
    if isinstance(unit, ContextAST):
        return pp_context(unit)
    if isinstance(unit, list):
        return "\n\n".join(pretty_print(u) for u in unit)
    raise TypeError(f"cannot pretty-print {unit!r}")
