import io
import random
import re

import pytest

from trustb.cli import run_command
from trustb.dsl import (
    Parser,
    parse_expression,
    parse_file,
    parse_predicate,
    pp_expr,
    pp_pred,
    pretty_print,
)
from trustb.errors import DuplicateLabel, MultipleAssignment, ParseError
from trustb.models import builtin_units
from trustb.syntax import (
    And,
    ContextAST,
    Exists,
    Forall,
    FunApp,
    Ident,
    Image,
    Implies,
    MachineAST,
    Maplet,
    Member,
    Pow,
    SetEnum,
    Union,
    free_idents_pred,
)


# --- expression and predicate grammar ------------------------------------------------------


def test_maplet_left_assoc():
    e = parse_expression("a |-> b |-> c")
    assert isinstance(e, Maplet)
    assert isinstance(e.left, Maplet)
    assert e.right == Ident("c")


def test_maplet_right_nested_parens_survive():
    e = parse_expression("a |-> (b |-> c)")
    assert isinstance(e.right, Maplet)
    assert parse_expression(pp_expr(e)) == e


def test_union_difference_left_assoc():
    e = parse_expression("a \\/ b \\ c \\/ d")
    # ((a \/ b) \ c) \/ d
    assert isinstance(e, Union)
    assert e.right == Ident("d")


def test_postfix_image_and_application():
    e = parse_expression("r[{a}]")
    assert isinstance(e, Image)
    assert isinstance(e.arg, SetEnum)
    e2 = parse_expression("f(a)(b)")
    assert isinstance(e2, FunApp)
    assert isinstance(e2.fn, FunApp)


def test_fnspace_non_associative():
    e = parse_expression("a +-> b")
    assert e.kind == "pfun"
    assert parse_expression("a --> b").kind == "tfun"
    assert parse_expression("a <-> b").kind == "rel"
    with pytest.raises(ParseError):
        parse_expression("a +-> b +-> c")


def test_pow_dom_empty():
    assert isinstance(parse_expression("pow(s)"), Pow)
    assert parse_expression("{}") is not None
    assert parse_expression("{a, b |-> c}") == SetEnum(
        (Ident("a"), Maplet(Ident("b"), Ident("c")))
    )


def test_parenthesized_maplet_member():
    p = parse_predicate("(a |-> b) : r")
    assert isinstance(p, Member)
    assert isinstance(p.item, Maplet)


def test_parenthesized_predicate():
    p = parse_predicate("(a = b) & c = d")
    assert isinstance(p, And)


def test_implication_right_assoc():
    p = parse_predicate("a = a => b = b => c = c")
    assert isinstance(p, Implies)
    assert isinstance(p.right, Implies)


def test_conjunction_binds_tighter_than_implication():
    p = parse_predicate("a = a & b = b => c = c")
    assert isinstance(p, Implies)
    assert isinstance(p.left, And)


def test_quantifiers():
    p = parse_predicate("!x, y . x : s & y : s => x = y")
    assert isinstance(p, Forall)
    assert p.vars == ("x", "y")
    q = parse_predicate("#j . j : pow(s) & j /= {}")
    assert isinstance(q, Exists)


def test_exists_inside_parens_after_implies():
    p = parse_predicate("x : s => (#j . j : pow(s) & j /= {})")
    assert isinstance(p, Implies)
    assert isinstance(p.right, Exists)


def test_unicode_aliases():
    assert parse_predicate("x ∈ s") == parse_predicate("x : s")
    assert parse_predicate("x ∉ s") == parse_predicate("x /: s")
    assert parse_expression("a ↦ b") == parse_expression("a |-> b")
    assert parse_expression("a ∪ b") == parse_expression("a \\/ b")
    assert parse_predicate("∀x . x : s => x : s") == parse_predicate(
        "!x . x : s => x : s"
    )
    assert parse_expression("∅") == parse_expression("{}")
    assert parse_expression("ℙ(s)") == parse_expression("pow(s)")


def test_partition_mentions_its_whole_and_parts():
    assert free_idents_pred(parse_predicate("partition(S, a, b)")) == {"S", "a", "b"}


def test_comments_ignored():
    p = parse_predicate("x : s // trailing words : = {")
    assert isinstance(p, Member)


# --- error reporting ------------------------------------------------------


def test_error_position_line_col():
    with pytest.raises(ParseError) as exc:
        parse_file("CONTEXT c\nSETS S T\nCONSTANTS ???\nEND")
    assert exc.value.line == 3
    assert exc.value.col >= 11


def test_error_filename_prefix():
    with pytest.raises(ParseError) as exc:
        parse_file("CONTEXT", filename="bad.ebt")
    assert "bad.ebt:" in str(exc.value)


def test_duplicate_label_rejected():
    text = """MACHINE m
VARIABLES v
INVARIANTS
  @inv1: v : s
  @inv1: v : s
EVENT INITIALISATION THEN @act1: v := {} END
END"""
    with pytest.raises(DuplicateLabel):
        parse_file(text)


def test_duplicate_action_label_rejected():
    text = """MACHINE m
VARIABLES v w
INVARIANTS
  @inv1: v : s
EVENT INITIALISATION THEN
  @act1: v := {}
  @act1: w := {}
END
END"""
    with pytest.raises(DuplicateLabel) as exc:
        parse_file(text)
    assert (exc.value.line, exc.value.col, exc.value.label) == (7, 3, "act1")


def test_duplicate_event_is_reported_at_its_event_keyword():
    text = """MACHINE m
VARIABLES v
INVARIANTS
  @inv1: v : s
EVENT INITIALISATION THEN @act1: v := {} END
EVENT e
THEN
  @act1: v := {}
END
EVENT e
THEN
  @act1: v := {}
END
END"""
    with pytest.raises(DuplicateLabel) as exc:
        parse_file(text)
    assert (exc.value.line, exc.value.col, exc.value.label) == (10, 1, "e")


def test_multiple_assignment_rejected():
    text = """MACHINE m
VARIABLES v
INVARIANTS
  @inv1: v : s
EVENT INITIALISATION THEN
  @act1: v := {}
  @act2: v := {}
END
END"""
    with pytest.raises(MultipleAssignment):
        parse_file(text)


def test_deep_nesting_is_positioned_error_not_crash():
    with pytest.raises(ParseError):
        parse_expression("(" * 400 + "x" + ")" * 400)
    assert parse_expression("(" * 40 + "x" + ")" * 40) == Ident("x")


@pytest.mark.parametrize("text, message", [
    ("CONTEXT c\nSETS S\nAXIOMS\nEND\n", "4:1: expected at least one @label: clause"),
    ("MACHINE m\nEVENT INITIALISATION THEN\nEND\nEND\n",
     "3:1: expected at least one @label: action"),
    ("MACHINE m\nINVARIANTS\n  @inv1: v\nEND\n",
     "4:1: expected a relational operator, found 'END'"),
])
def test_file_refusals_are_positioned(text, message):
    with pytest.raises(ParseError) as exc:
        parse_file(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("a", "1:2: expected a relational operator, found 'end of input'"),
    # '(' opens an expression first and a grouped predicate second; the
    # error reported is that of the reading that got further.
    ("(a = b & )", "1:10: expected an expression, found ')'"),
    ("(a |-> b = c", "1:13: expected ')', found 'end of input'"),
    ("(a) = ", "1:7: expected an expression, found 'end of input'"),
])
def test_predicate_refusals_are_positioned(text, message):
    with pytest.raises(ParseError) as exc:
        parse_predicate(text)
    assert str(exc.value) == message


# Each shape nests its text n deep; the number is the deepest n the parser
# takes.  A bracket, pow(, dom(, {, f( or r[ level counts two of the
# MAX_NESTING levels, a link of an &, \/, |-> or => chain one, and a
# `#x . x : S &` level three.
NESTED_SHAPES = {
    "brackets around an expression": (lambda n: "a = " + "(" * n + "b" + ")" * n, 98),
    "brackets around a predicate": (lambda n: "(" * n + "a = b" + ")" * n, 98),
    "application": (lambda n: "a = " + "f(" * n + "b" + ")" * n, 98),
    "image": (lambda n: "r[" * n + "{b}" + "]" * n + " <: {a}", 97),
    "powerset": (lambda n: "{} : " + "pow(" * n + "S" + ")" * n, 98),
    "set enumeration": (lambda n: "{" * n + "a" + "}" * n + " = " + "{" * n + "b" + "}" * n, 98),
    "existential": (lambda n: "#x . x : S & " * n + "a = b", 65),
    "implication": (lambda n: "a = b => " * n + "a = b", 196),
    "conjunction": (lambda n: "a = b" + " & a = b" * n, 196),
    "union": (lambda n: "{a} = {b}" + " \\/ {b}" * n, 194),
    "maplet": (lambda n: "a" + " |-> a" * n + " = b" + " |-> b" * n, 196),
}
# The same nestings as values in a state file, for those that are expressions.
NESTED_VALUES = {
    "brackets around an expression": lambda n: "(" * n + "{b} |-> t" + ")" * n,
    "application": lambda n: "{" + "f(" * n + "b" + ")" * n + "} |-> t",
    "image": lambda n: "r[" * n + "{b}" + "]" * n + " |-> t",
    "powerset": lambda n: "pow(" * n + "{b}" + ")" * n + " |-> t",
    "set enumeration": lambda n: "{" * n + "b" + "}" * n + " |-> t",
    "union": lambda n: "{b}" + " \\/ {b}" * n + " |-> t",
    "maplet": lambda n: "{b} |-> t" + " |-> t" * n,
}
NESTED_MODEL = """CONTEXT c
SETS S
CONSTANTS f r b
AXIOMS
  @axm1: f : S --> S
  @axm2: r : S <-> S
  @axm3: b : S
END
MACHINE m
SEES c
VARIABLES a
INVARIANTS
  @inv1: a : S
  @inv2: {}
EVENT INITIALISATION THEN
  @act1: a := b
END
END
"""


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    return run_command(argv, stdout=out, stderr=err), err.getvalue()


@pytest.mark.parametrize("depth", [1, 50, 150, 199, 200, 201, 500, 1000, 5000])
@pytest.mark.parametrize("shape", NESTED_SHAPES)
def test_nesting_past_the_limit_is_refused_at_its_place(shape, depth, tmp_path):
    """No nesting depth makes the parser or what reads its trees recurse
    past Python's limit: up to the shape's limit the input parses and
    checks, and past it every entry point refuses it with a positioned
    parse error (exit 3)."""
    text, limit = NESTED_SHAPES[shape]
    pred = text(depth)
    model = tmp_path / "deep.ebt"
    model.write_text(NESTED_MODEL.replace("{}", pred, 1))
    check = cli(["check", str(model), "--carrier", "S=1"])
    dump = cli(["dump-po", str(model)])
    if depth <= limit:
        assert pp_pred(parse_predicate(pred))
        if shape == "powerset" and depth > 3:  # pow(pow(pow(pow(S)))) has 2**16 members
            assert check == (3, "error: powerset has 65536 members, more than the 2**12 bound\n")
        else:
            assert check == (0, "")
        assert dump == (0, "")
    else:
        with pytest.raises(ParseError) as exc:
            parse_predicate(pred)
        assert exc.value.message == "expression nesting too deep"
        line, col = exc.value.line, exc.value.col + len("  @inv2: ")
        expected = f"{model}:{line + 13}:{col}: expression nesting too deep\n"
        assert check == (3, expected)
        assert dump == (3, expected)

    if shape not in NESTED_VALUES:
        return
    value = NESTED_VALUES[shape](depth)
    state = tmp_path / "deep.state"
    state.write_text("level 0\ntrustors i\ntrustees b\ntasks t\nagent_task\n"
                     f"  {value}\ntrustor_trustee_task\nend\n")
    code, err = cli(["query", "--state", str(state), "i", "b", "t"])
    if depth <= 50:
        assert "nesting" not in err
        parse_expression(value)
    elif depth >= 199:
        assert code == 3
        assert re.fullmatch(rf"{re.escape(str(state))}:6:\d+: expression nesting too deep\n", err)
        with pytest.raises(ParseError, match="expression nesting too deep"):
            parse_expression(value)


def test_empty_input():
    with pytest.raises(ParseError):
        parse_file("")
    with pytest.raises(ParseError):
        parse_expression("")


# --- round trips ------------------------------------------------------


@pytest.mark.parametrize("variant", ["base", "rel", "nopart", "bad_act"])
def test_builtin_round_trip(variant):
    units = builtin_units(variant)
    text = pretty_print(units)
    reparsed = parse_file(text)
    assert reparsed == units
    assert pretty_print(reparsed) == text


def test_positions_do_not_affect_equality():
    a = parse_predicate("x : s & y : s")
    b = parse_predicate("  x :    s &\n y : s")
    assert a == b


PRED_SAMPLES = [
    "x : s",
    "x /: s \\/ t",
    "(a |-> (b |-> c)) : r",
    "f : s +-> t & g : s <-> pow(t)",
    "partition(S, A, B)",
    "!i, j . i : s & j : pow(s) & i : dom(r) => i /: j",
    "#j . j : pow(s) & j /= {} & j |-> t : r & j <: k[{i}]",
    "x = y => (#z . z : s & z /= x) => y /= x",
    "r[{a}] = {b} & f(a) = b",
    "s \\ t <: u & f : s --> t",
    "x /: s \\ (t \\/ u) \\ v & a |-> (s <-> t) : r",
    "(s <-> t) |-> a : (s +-> t) <-> u",
    "a = b & #x . x : S & x = a",
    "(a = b & #x . x : S) & c = d",
    "(a = b => #x . x : S) & c = d",
    "(a = b & #x . x : S) => c = d",
]


@pytest.mark.parametrize("text", PRED_SAMPLES)
def test_predicate_print_parse_fixpoint(text):
    ast = parse_predicate(text)
    printed = pp_pred(ast)
    assert parse_predicate(printed) == ast
    assert pp_pred(parse_predicate(printed)) == printed


@pytest.mark.parametrize("depth", [1, 2, 40, NESTED_SHAPES["existential"][1]])
def test_quantifier_chain_round_trips_up_to_the_parser_limit(depth):
    """A quantifier is bracketed only where text follows it, so printing a
    `#x . x : S & ...` chain adds no nesting the parser would refuse."""
    ast = parse_predicate(NESTED_SHAPES["existential"][0](depth))
    printed = pp_pred(ast)
    assert parse_predicate(printed) == ast
    assert pp_pred(parse_predicate(printed)) == printed
    assert "(" not in printed


def test_bracket_parsing_is_linear_in_depth(monkeypatch):
    """A bracketed predicate is read as an expression first; the failed
    expressions inside it are not read again, so the parser enters
    parse_expr about twice per bracket, not once per pair of brackets."""
    entries = []
    real = Parser.parse_expr

    def counting(self):
        entries[-1] += 1
        return real(self)

    monkeypatch.setattr(Parser, "parse_expr", counting)
    for depth in (49, 98):
        entries.append(0)
        parse_predicate("(" * depth + "a = b" + ")" * depth)
    shallow, deep = entries
    assert shallow <= 2 * 49 + 4
    assert deep - shallow <= shallow


def test_parser_fuzz_only_parse_errors():
    rng = random.Random(1187)
    vocab = (
        list(":=(){}[]@.,&!#|<>+-/\\= \n\t\"'")
        + ["CONTEXT", "MACHINE", "EVENT", "END", "WHERE", "THEN", "ANY", "SETS",
           "AXIOMS", "INVARIANTS", "VARIABLES", "CONSTANTS", "REFINES", "SEES",
           "EXTENDS", "|->", "=>", "<->", "+->", "-->", ":=", "/:", "/=", "<:",
           "pow", "dom", "x", "inv1", "@grd1:", "{}", "0", "9"]
    )
    for _ in range(3000):
        n = rng.randrange(0, 30)
        joiner = " " if rng.random() < 0.6 else ""
        text = joiner.join(rng.choice(vocab) for _ in range(n))
        try:
            parse_file(text)
        except ParseError:
            pass
    # Deep draws: one opener or chain link repeated hundreds of times.  What
    # parses must also pretty-print, as the printer recurses over the tree.
    deep = random.Random(1188)
    openers = ["(", "f(", "r[", "pow(", "dom(", "{", "#x . x : S & ", "a = b => "]
    links = [" & a = b", " \\/ b", " \\ b", " |-> a", "(b)", "[b]"]
    for _ in range(60):
        k = deep.randrange(100, 1200)
        chunk = deep.choice(openers + links)
        body = chunk * k + "a = b" if chunk in openers else "a = b" + chunk * k
        try:
            units = parse_file(f"MACHINE m\nINVARIANTS\n  @inv1: {body}\nEND\n")
        except ParseError:
            continue
        assert pretty_print(units)
