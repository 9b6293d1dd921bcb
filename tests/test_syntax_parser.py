"""Syntax layer: parsing, serialization, Herbrand base, fresh symbols."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import programs
from conftest import interp_names
from dlbridge.parser import (
    ParseError,
    decode_utf8,
    parse_default_theory,
    parse_ontology,
    parse_program,
    serialize_default_theory,
    serialize_ontology,
    serialize_program,
)
from dlbridge.syntax import (
    DLProgram,
    FreshSymbols,
    Ontology,
    Rule,
    RuleAtom,
    ValidationError,
    herbrand_base,
)


def test_parse_self_support_program():
    prog = programs.self_support()
    assert len(prog.rules) == 1
    (rule,) = prog.rules
    assert rule.head == RuleAtom("p", ("a",))
    (lit,) = rule.body
    assert lit.is_dl and not lit.negated
    assert lit.atom.inputs[0].pred == "p" and lit.atom.inputs[0].op == "+"


def test_parse_constraint_pair():
    prog = programs.constraint_self_support()
    atom = prog.dl_atoms[0]
    ops = [(p.target, p.op, p.pred) for p in atom.inputs]
    assert ops == [("S", "+", "p"), ("Sp", "-", "q")]


def test_empty_program():
    prog = parse_program("")
    assert prog.rules == ()
    assert prog.herbrand_base == ()


def test_herbrand_base_examples():
    assert interp_names(programs.constraint_self_support().herbrand_base) == [
        "p(a)",
        "q(a)",
    ]
    assert interp_names(programs.chained_constraint().herbrand_base) == ["p(a)", "q(a)"]


def test_herbrand_base_monotone_in_rules():
    prog = programs.constraint_self_support()
    extra = parse_program("p(a) :- DL[S += p, Sp ?= q ; S & !Sp](a).\nr(b).")
    assert set(prog.herbrand_base) <= set(extra.herbrand_base)


def test_herbrand_base_size_bound():
    prog = programs.chained_constraint()
    n_rule_atoms = sum(1 + len(r.body) for r in prog.rules)
    n_inputs = len({(p.pred, p.arity) for a in prog.dl_atoms for p in a.inputs})
    assert len(prog.herbrand_base) <= n_rule_atoms + n_inputs * max(
        1, len(prog.constants) ** 2
    )


def test_roundtrip_programs():
    for build in (
        programs.self_support,
        programs.constraint_self_support,
        programs.case_split,
        programs.neg_constraint_taut,
        programs.unreached_individual,
        programs.equality_pair,
    ):
        prog = build()
        text = serialize_program(prog)
        again = parse_program(text, ontology=prog.ontology)
        assert again.rules == prog.rules
        assert serialize_program(again) == text


def test_roundtrip_ontology():
    onto = parse_ontology(
        "concept S, Sp.\nrole R.\nindividual a, b.\n"
        "axiom S [= Sp.\naxiom trans(R).\naxiom S(a).\naxiom -S(b).\n"
        "axiom R(a,b).\naxiom -R(b,a).\naxiom a == b.\naxiom a != b.\n"
        "axiom (S & !Sp) [= (S | Sp).\naxiom exists R . S [= forall R . TOP.\n"
        "axiom >= 2 R [= <= 1 R^-.\naxiom {a,b}(a).\n"
    )
    text = serialize_ontology(onto)
    again = parse_ontology(text)
    assert again == onto
    assert serialize_ontology(again) == text


def test_roundtrip_default_theory():
    text = (
        "#equality true.\n"
        "(S(a) -> Sp(a)).\n"
        "a == b.\n"
        "default: TRUE : -p(a) / p(a).\n"
        "default: (p(a) & (q(a) | FALSE)) :  / q(a).\n"
        "default: a != b : p(a), -q(a) / -p(a).\n"
    )
    dt = parse_default_theory(text)
    assert dt.true_equality
    assert len(dt.background) == 2 and len(dt.defaults) == 3
    assert dt.defaults[1].justifications == ()
    out = serialize_default_theory(dt)
    assert parse_default_theory(out) == dt


def test_zero_justification_default():
    dt = parse_default_theory("default: p(a) :  / q(a).\n")
    assert dt.defaults[0].justifications == ()


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_program("p(a :- .")
    assert e.value.line == 1
    assert e.value.col >= 5


def test_bad_utf8_rejected():
    with pytest.raises(ParseError) as e:
        parse_program(b"p(a).\n\xffq(b).")
    assert e.value.line == 2 and e.value.col == 1


def test_arity_mismatch():
    with pytest.raises(ParseError, match="arity"):
        parse_program("p(a) :- p(a,b).")


def test_predicate_concept_clash():
    with pytest.raises(ValidationError, match="rule predicate and concept"):
        parse_program("S(a) :- DL[S += p ; S](a).")


def test_undeclared_individual_in_axiom():
    with pytest.raises(ParseError, match="undeclared individual"):
        parse_ontology("concept S.\nindividual a.\naxiom S(b).")


def test_onto_header_loader():
    loaded = {}

    def load(name):
        loaded["name"] = name
        return parse_ontology("concept S.\nindividual a.\n")

    prog = parse_program('#ontology "base.onto".\np(a) :- DL[S += p ; S](a).', load_ontology=load)
    assert loaded["name"] == "base.onto"
    assert "S" in prog.signature.concepts


def test_serialize_preserves_odot_spelling():
    prog = parse_program("p(a) :- DL[S -= p ; !S](a).")
    assert "S -= p" in serialize_program(prog)
    pair = prog.dl_atoms[0].inputs[0]
    assert pair.op == "+" and pair.negated  # canonical ¬S ⊕ p


def test_odot_equals_negated_oplus_structurally():
    a = parse_program("p(a) :- DL[S -= p ; !S](a).").dl_atoms[0]
    b = parse_program("p(a) :- DL[!S += p ; !S](a).").dl_atoms[0]
    assert a == b  # display flag is not part of equality


def test_duplicate_pairs_normalized():
    prog = parse_program("p(a) :- DL[S += p, S += p ; S](a).")
    assert len(prog.dl_atoms[0].inputs) == 1


def test_fresh_symbols_deterministic_and_disjoint():
    prog = programs.constraint_self_support()
    fresh1 = FreshSymbols(prog)
    fresh2 = FreshSymbols(prog)
    assert fresh1.pi_pred("p") == fresh2.pi_pred("p") == "__pi_p"
    assert fresh1.dl_proxy() == "__pi_dl_0"
    assert fresh1.sigma_proxy() == "__sigma_dl_1"
    assert fresh2.concept() == "__C_0"
    taken = {n for n, _ in prog.signature.rule_predicates} | set(
        prog.signature.concepts
    )
    for name in ("__pi_p", "__pi_dl_0", "__C_0"):
        assert name not in taken


def test_fresh_symbols_avoid_collisions():
    prog = parse_program("__pi_p(a) :- DL[S ?= p ; !S](a).")
    fresh = FreshSymbols(prog)
    assert fresh.pi_pred("p") == "__pi_p_"


def test_query_only_constant_is_a_program_constant():
    prog = parse_program("p(a) :- DL[S += p ; Sp](b).")
    assert set(prog.constants) == {"a", "b"}


def test_subsumption_and_equality_queries_roundtrip():
    text = "p(a) :- DL[ ; S [= Sp](), DL[ ; a == a]().\n"
    prog = parse_program(text)
    kinds = [l.atom.query.kind for l in prog.rules[0].body]
    assert kinds == ["subsumes", "eq"]
    assert parse_program(serialize_program(prog)).rules == prog.rules


# grammar tokens, so that fuzzed inputs also get past the tokenizer
_TOKENS = (
    "p", "q", "a", "b", "S", "Sp", "R", "DL", "not", "concept", "role",
    "individual", "axiom", "ontology", "equality", "true", "congruence",
    "0", "1", "2", '"x.onto"', ":-", "[=", "+=", "-=", "?=", "==", "!=", "->",
    "^-", ">=", "<=", "#", ".", ",", ";", ":", "(", ")", "[", "]", "{", "}",
    "!", "&", "|", "/", "-", " ", "\n", "%",
)
_FUZZ_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(_TOKENS), max_size=60).map(lambda ts: "".join(ts).encode()),
)


@settings(max_examples=300, deadline=None)
@given(_FUZZ_BYTES)
def test_parsers_raise_only_parse_and_validation_errors(data):
    try:
        text = decode_utf8(data)
    except ParseError:
        return
    for parse in (parse_ontology, parse_program, parse_default_theory):
        try:
            parse(text)
        except (ParseError, ValidationError):
            pass
