import pytest

from trustb.dsl import parse_file
from trustb.errors import (
    MissingTypeInvariant,
    NotSuperposition,
    TypeMismatch,
    UnresolvedReference,
)
from trustb.models import builtin_units
from trustb.typecheck import TBool, TCarrier, TPair, TSet, elaborate, unify


CTX = """CONTEXT c
SETS S
CONSTANTS k
AXIOMS
  @axm1: k <: S
END
"""


def make(text):
    return elaborate(parse_file(CTX + text))


def test_unify_basics():
    s = TSet(TCarrier("S"))
    assert unify(s, s) == s
    assert unify(TSet(TBool()), s) is None
    assert unify(TPair(TBool(), TBool()), TPair(TBool(), TBool())) is not None


def test_unify_empty_set_flows_into_sets():
    from trustb.typecheck import TEmptySet

    s = TSet(TCarrier("S"))
    assert unify(TEmptySet(), s) == s
    assert unify(s, TEmptySet()) == s
    assert unify(TEmptySet(), TBool()) is None


def test_builtin_models_typecheck():
    for variant in ("base", "rel", "nopart", "bad_act"):
        model = elaborate(builtin_units(variant))
        assert model.machines


def test_scope_labels_shadow_to_most_concrete():
    model = elaborate(builtin_units("base"))
    m0 = model.machine("M0_abs")
    m1 = model.machine("M1_knwl")
    m2 = model.machine("M2_int")
    for tm in (m0, m1, m2):
        assert [lbl for lbl, _inv, _o in tm.invariant_scope] == [
            "inv1",
            "inv2",
            "inv3",
            "inv4",
        ]
    assert m0.invariant("inv1").pred != m1.invariant("inv1").pred
    assert m1.invariant("inv1").pred != m2.invariant("inv1").pred
    assert m1.invariant("inv4").pred != m2.invariant("inv4").pred
    # inv2 and inv3 stay the abstract ones all the way up
    assert m0.invariant("inv2").pred == m2.invariant("inv2").pred
    assert m0.invariant("inv3").pred == m2.invariant("inv3").pred


def test_variable_typing_survives_shadowing():
    model = elaborate(builtin_units("base"))
    m2 = model.machine("M2_int")
    # knowledge's typing came from its declaring machine even though
    # that label now means something else in M2's scope
    assert "knowledge" in m2.variables
    assert m2.variables["knowledge"].declared_in == "M1_knwl"
    assert m2.variables["commitments"].declared_in == "M2_int"
    assert m2.var_order == (
        "agent_task",
        "trustor_trustee_task",
        "knowledge",
        "commitments",
    )


def test_missing_type_invariant():
    text = """MACHINE m SEES c
VARIABLES v
INVARIANTS
  @inv1: k <: S
EVENT INITIALISATION THEN @act1: v := {} END
END"""
    with pytest.raises(MissingTypeInvariant):
        make(text)


def test_unknown_identifier_in_invariant():
    text = """MACHINE m SEES c
VARIABLES v
INVARIANTS
  @inv1: v : pow(S)
  @inv2: ghost : S
EVENT INITIALISATION THEN @act1: v := {} END
END"""
    with pytest.raises(TypeMismatch, match="ghost"):
        make(text)


def test_init_must_assign_every_variable():
    text = """MACHINE m SEES c
VARIABLES v w
INVARIANTS
  @inv1: v : pow(S)
  @inv2: w : pow(S)
EVENT INITIALISATION THEN @act1: v := {} END
END"""
    with pytest.raises(TypeMismatch, match="INITIALISATION"):
        make(text)


def test_param_needs_typing_guard():
    text = """MACHINE m SEES c
VARIABLES v
INVARIANTS
  @inv1: v : pow(S)
EVENT INITIALISATION THEN @act1: v := {} END
EVENT e ANY x WHERE
  @grd1: x /: v
THEN
  @act1: v := v \\/ {x}
END
END"""
    with pytest.raises(TypeMismatch, match="x"):
        make(text)


def test_param_must_not_shadow():
    text = """MACHINE m SEES c
VARIABLES v
INVARIANTS
  @inv1: v : pow(S)
EVENT INITIALISATION THEN @act1: v := {} END
EVENT e ANY v WHERE
  @grd1: v : S
THEN
  @act1: v := {}
END
END"""
    with pytest.raises(TypeMismatch, match="shadow"):
        make(text)


# z comes second among the conjuncts, so none types it by coming first.
UNTYPED_QUANTIFIER = "!y . y : S => (#z . y : S & z : S)"


@pytest.mark.parametrize(
    "clauses",
    [
        f"""INVARIANTS
  @inv1: v : pow(S)
  @inv2: {UNTYPED_QUANTIFIER}
EVENT INITIALISATION THEN @act1: v := {{}} END""",
        f"""INVARIANTS
  @inv1: v : pow(S)
EVENT INITIALISATION THEN @act1: v := {{}} END
EVENT e WHERE
  @grd1: {UNTYPED_QUANTIFIER}
THEN
  @act1: v := v
END""",
    ],
    ids=["invariant", "guard"],
)
def test_quantifier_without_a_leading_typing_conjunct_is_refused(clauses):
    text = f"MACHINE m SEES c\nVARIABLES v\n{clauses}\nEND"
    with pytest.raises(TypeMismatch, match="quantified variable 'z'") as exc:
        make(text)
    # The position is the inner quantifier's, in the text after CTX.
    lines = (CTX + text).splitlines()
    line = next(k for k, row in enumerate(lines, 1) if "#z" in row)
    assert (exc.value.line, exc.value.col) == (line, lines[line - 1].index("#z") + 1)


def test_action_type_must_match_variable():
    text = """MACHINE m SEES c
VARIABLES v
INVARIANTS
  @inv1: v : pow(S)
EVENT INITIALISATION THEN @act1: v := {} END
EVENT e ANY x WHERE
  @grd1: x : S
THEN
  @act1: v := x
END
END"""
    with pytest.raises(TypeMismatch):
        make(text)


def test_image_argument_must_be_a_set():
    # r[x] where x is an element: a one-character slip from r[{x}]
    text = """MACHINE m SEES c
VARIABLES r
INVARIANTS
  @inv1: r : S <-> S
EVENT INITIALISATION THEN @act1: r := {} END
EVENT e ANY x WHERE
  @grd1: x : S
  @grd2: x : r[x]
THEN
  @act1: r := r
END
END"""
    with pytest.raises(TypeMismatch):
        make(text)


def test_refinement_must_keep_variables():
    text = """MACHINE m SEES c
VARIABLES v
INVARIANTS
  @inv1: v : pow(S)
EVENT INITIALISATION THEN @act1: v := {} END
END

MACHINE m2 REFINES m SEES c
VARIABLES w
INVARIANTS
  @inv2: w : pow(S)
EVENT INITIALISATION THEN @act1: w := {} END
END"""
    with pytest.raises(NotSuperposition):
        make(text)


# m's add takes p : S; refine_add(...) is a machine m2 whose add refines it.
ADD = """MACHINE m SEES c
VARIABLES v
INVARIANTS
  @inv1: v : pow(S)
EVENT INITIALISATION THEN @act1: v := {} END
EVENT add ANY p WHERE
  @grd1: p : S
THEN
  @act1: v := v \\/ {p}
END
END
"""


def refine_add(param: str, domain: str, added: str) -> str:
    return ADD + f"""
MACHINE m2 REFINES m SEES c
VARIABLES v
EVENT INITIALISATION THEN @act1: v := {{}} END
EVENT add ANY {param} WHERE
  @grd1: {param} : {domain}
THEN
  @act1: v := v \\/ {added}
END
END"""


DROPS_P = refine_add("q", "S", "{q}")


def test_refinement_must_keep_event_parameters():
    with pytest.raises(NotSuperposition, match="event 'add' drops abstract parameters: p"):
        make(DROPS_P)


def test_refinement_must_keep_event_parameter_types():
    with pytest.raises(NotSuperposition, match="event 'add' retypes abstract parameter 'p'"):
        make(refine_add("p", "pow(S)", "p"))
    make(refine_add("p", "k", "{p}"))  # k <: S, so p keeps type S


def test_cli_refuses_a_dropped_event_parameter(tmp_path):
    import io

    from trustb.cli import run_command

    model = tmp_path / "drops.ebt"
    model.write_text(CTX + DROPS_P)
    for argv in (["check", str(model), "--refinement"], ["dump-po", str(model)]):
        out, err = io.StringIO(), io.StringIO()
        assert run_command(argv, stdout=out, stderr=err) == 3, argv
        assert err.getvalue() == "error: event 'add' drops abstract parameters: p\n"
        assert out.getvalue() == ""


def test_refined_event_must_name_existing_abstract_event():
    text = """MACHINE m SEES c
VARIABLES v
INVARIANTS
  @inv1: v : pow(S)
EVENT INITIALISATION THEN @act1: v := {} END
END

MACHINE m2 REFINES m SEES c
VARIABLES v
EVENT INITIALISATION THEN @act1: v := {} END
EVENT e REFINES ghost ANY x WHERE
  @grd1: x : S
THEN
  @act1: v := v
END
END"""
    with pytest.raises(UnresolvedReference):
        make(text)


def test_concrete_machine_must_cover_abstract_events():
    text = """MACHINE m SEES c
VARIABLES v
INVARIANTS
  @inv1: v : pow(S)
EVENT INITIALISATION THEN @act1: v := {} END
EVENT e ANY x WHERE
  @grd1: x : S
THEN
  @act1: v := v \\/ {x}
END
END

MACHINE m2 REFINES m SEES c
VARIABLES v
EVENT INITIALISATION THEN @act1: v := {} END
END"""
    with pytest.raises(TypeMismatch, match="e"):
        make(text)


def test_extends_merges_abstract_first():
    text = """CONTEXT base
SETS S
END

CONTEXT mid EXTENDS base
CONSTANTS k
AXIOMS
  @axm1: k <: S
END

MACHINE m SEES mid
VARIABLES v
INVARIANTS
  @inv1: v : pow(k)
EVENT INITIALISATION THEN @act1: v := {} END
END"""
    model = elaborate(parse_file(text))
    tm = model.machine("m")
    assert tm.context.carriers == ("S",)
    assert tm.context.constants == ("k",)

    # A diamond: left and right both extend mid, and both extends the two.
    diamond = text.split("MACHINE")[0] + """
CONTEXT left EXTENDS mid
SETS T
CONSTANTS a
AXIOMS
  @axm2: a : k
END

CONTEXT right EXTENDS mid
CONSTANTS r
AXIOMS
  @axm3: r : k <-> S
  @axm4: k /= {}
END

CONTEXT both EXTENDS left right
CONSTANTS z
AXIOMS
  @axm5: z : T
END"""
    ctx = elaborate(parse_file(diamond)).context("both")
    assert ctx.carriers == ("S", "T")
    assert ctx.constants == ("k", "a", "r", "z")
    assert [ax.label for ax in ctx.axioms] == ["axm1", "axm2", "axm3", "axm4", "axm5"]
    types = {c: repr(ctx.types[c]) for c in ctx.constants}
    assert types == {"k": "pow(S)", "a": "S", "r": "pow((S x S))", "z": "T"}


def test_extends_cycle_detected():
    text = """CONTEXT a EXTENDS b
END

CONTEXT b EXTENDS a
END"""
    with pytest.raises(TypeMismatch, match="cycle|circul"):
        elaborate(parse_file(text))


def test_constant_without_typing_axiom():
    text = """CONTEXT c2
SETS S
CONSTANTS mystery
END

MACHINE m SEES c2
VARIABLES v
INVARIANTS
  @inv1: v : pow(S)
EVENT INITIALISATION THEN @act1: v := {} END
END"""
    with pytest.raises(TypeMismatch, match="mystery"):
        elaborate(parse_file(text))


def test_duplicate_unit_names_rejected():
    text = CTX + CTX
    with pytest.raises(TypeMismatch, match="c"):
        elaborate(parse_file(text))


def test_event_lookup_and_abstract_links():
    model = elaborate(builtin_units("base"))
    m2 = model.machine("M2_int")
    trust = m2.event("trust")
    assert trust.abstract is not None
    assert trust.abstract.name == "trust"
    assert [g.label for g in trust.ast.guards] == [
        f"grd{i}" for i in range(1, 9)
    ]
    assert m2.refines is not None
    assert m2.refines.name == "M1_knwl"
    assert m2.refines.refines.name == "M0_abs"
    assert m2.refines.refines.refines is None


# --- refusals, each with its exact message and position -----------------------------

REFUSAL_CTX = """CONTEXT c
SETS S T
CONSTANTS k e t f
AXIOMS
  @axm1: k <: S
  @axm2: e : S
  @axm3: t : T
  @axm4: f : S --> T
END
"""
PLAIN_INIT = "EVENT INITIALISATION THEN\n  @act1: v := {}\nEND\n"


def refusal_machine(inv="v = v", init=PLAIN_INIT, head="MACHINE m\nSEES c\n"):
    """A machine whose second invariant (line 15) is `inv`."""
    return (REFUSAL_CTX + head + "VARIABLES v\nINVARIANTS\n  @inv1: v : pow(S)\n"
            f"  @inv2: {inv}\n" + init + "END\n")


REFUSALS = [
    (refusal_machine(init="EVENT e THEN\n  @act1: v := {}\nEND\n"),
     TypeMismatch, "machine 'm' has no INITIALISATION event"),
    (refusal_machine(init="EVENT INITIALISATION ANY x WHERE\n  @grd1: x : S\nTHEN\n"
                          "  @act1: v := {}\nEND\n"),
     TypeMismatch, "INITIALISATION of 'm' must have no parameters or guards"),
    (REFUSAL_CTX + "MACHINE a REFINES b SEES c END\nMACHINE b REFINES a SEES c END\n",
     TypeMismatch, "machine 'a' refines itself through a cycle"),
    (refusal_machine(head="MACHINE m\nREFINES zz\nSEES c\n"),
     UnresolvedReference, "unresolved machine reference 'zz'"),
    (refusal_machine(head="MACHINE m\nSEES zz\n"),
     UnresolvedReference, "unresolved context reference 'zz'"),
    (REFUSAL_CTX.replace("t f\n", "t f j\n").replace("END\n", "  @axm5: j <: e\nEND\n"),
     TypeMismatch, "9:12: typing axiom for 'j' needs a set bound"),
    (refusal_machine("{k, {k}} = {}"), TypeMismatch, "15:10: set enumeration mixes element types"),
    (refusal_machine("e \\/ k = k"), TypeMismatch, "15:12: set operation on non-set operands"),
    (refusal_machine("k \\/ {t} = k"),
     TypeMismatch, "15:12: set operands disagree: pow(S) versus pow(T)"),
    (refusal_machine("e <: k"), TypeMismatch, "15:12: subset needs set operands"),
    (refusal_machine("k <: {t}"),
     TypeMismatch, "15:12: subset operands disagree: pow(S) versus pow(T)"),
    (refusal_machine("dom(k) = k"), TypeMismatch, "15:10: dom needs a relation, got set of S"),
    (refusal_machine("k[{e}] = k"), TypeMismatch, "15:11: image needs a relation, got set of S"),
    (refusal_machine("k(e) = e"),
     TypeMismatch, "15:11: application needs a function, got set of S"),
    (refusal_machine("f(t) = t"), TypeMismatch, "15:11: function argument must be S, got T"),
    (refusal_machine("e = t"), TypeMismatch, "15:12: comparison operands disagree: S versus T"),
    (refusal_machine("e : {t}"),
     TypeMismatch, "15:12: member type S does not fit container of T"),
    (refusal_machine("partition(k, {t})"),
     TypeMismatch, "15:10: partition part pow(T) does not fit pow(S)"),
    (refusal_machine(init="EVENT INITIALISATION THEN\n  @act1: v := {}\n  @act2: w := {}\nEND\n"),
     TypeMismatch, "18:3: event 'INITIALISATION' assigns unknown variable 'w'"),
]


@pytest.mark.parametrize("text, error, message", REFUSALS)
def test_elaboration_refusals_name_their_cause(text, error, message):
    with pytest.raises(error) as exc:
        elaborate(parse_file(text))
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_each_guard_and_invariant_compiles_under_its_own_name():
    # A fresh elaboration, so that no other test compiled these nodes first.
    tm = elaborate(builtin_units("base")).machine("M2_int")
    names = [code.__code__.co_filename for _label, code in tm.event("trust").guard_code]
    assert len(set(names)) == 8
    assert names == [f"<trustb M2_int/trust/grd{k}>" for k in range(1, 9)]
    invariants = {code.__code__.co_filename for _label, code in tm.invariant_code}
    assert invariants == {
        "<trustb M2_int/inv1>", "<trustb M0_abs/inv2>", "<trustb M0_abs/inv3>", "<trustb M2_int/inv4>"
    }


def test_each_action_compiles_under_its_own_name():
    # A fresh elaboration, so that no other test compiled these nodes first.
    tm = elaborate(builtin_units("base")).machine("M2_int")
    names = [code.__code__.co_filename for _var, code in tm.event("trust").action_code]
    assert names == ["<trustb M2_int/trust/act1>"]
