"""Finite-domain grounding and ontology-level entailment."""

import pytest

from dlbridge import dleval, fol
from dlbridge.fol import Atom, FAtom, implies
from dlbridge.ontology import (
    GroundingError,
    build_update,
    ground,
    o_consistent,
    o_entails,
    query_formula,
)
from dlbridge.parser import parse_ontology, parse_program
from dlbridge.syntax import CName, DLQuery, RuleAtom


def S(c):
    return Atom(FAtom("S", (c,)))


def q_concept(name, term, negated=False):
    return DLQuery("concept", negated=negated, concept=CName(name), terms=(term,))


def test_ground_inclusion():
    g = ground(parse_ontology("concept S, Sp.\nindividual a.\naxiom S [= Sp.\n"))
    assert g.formulas == [implies(S("a"), Atom(FAtom("Sp", ("a",))))]


def test_ground_transitivity_all_triples():
    g = ground(parse_ontology("role R.\nindividual a, b.\naxiom trans(R).\n"))
    assert len(g.formulas) == 8  # 2^3 instantiations


def test_atleast_one_is_exists():
    onto = parse_ontology("concept C.\nrole R.\nindividual a, b.\naxiom (>= 1 R)(a).\n")
    g = ground(onto)
    (f,) = g.formulas
    assert isinstance(f, fol.Or)
    assert set(f.args) == {Atom(FAtom("R", ("a", "a"))), Atom(FAtom("R", ("a", "b")))}


def test_exists_and_forall_grounding():
    onto = parse_ontology(
        "concept C, D.\nrole R.\nindividual a, b.\n"
        "axiom (exists R . C)(a).\naxiom (forall R . D)(b).\naxiom R(a,b).\naxiom C(b).\n"
    )
    g = ground(onto)
    assert o_entails(g, frozenset(), q_concept("C", "b"))
    onto2 = parse_ontology(
        "concept D.\nrole R.\nindividual a, b.\naxiom (forall R . D)(a).\naxiom R(a,b).\n"
    )
    assert o_entails(ground(onto2), frozenset(), q_concept("D", "b"))


def test_inverse_role_swaps_arguments():
    onto = parse_ontology(
        "concept C.\nrole R.\nindividual a, b.\naxiom (exists R^- . C)(a).\n"
        "axiom R(b,a).\naxiom C(b).\n"
    )
    assert o_entails(ground(onto), frozenset(), q_concept("C", "b"))


def test_empty_domain_rejected():
    with pytest.raises(GroundingError):
        ground(parse_ontology("concept S.\naxiom S [= S.\n"))


def test_build_update_plus():
    prog = parse_program("p(a) :- DL[S += p ; Sp](a).")
    atom = prog.dl_atoms[0]
    upd = build_update({RuleAtom("p", ("a",))}, atom.inputs, prog.constants)
    assert upd == frozenset({(FAtom("S", ("a",)), True)})


def test_build_update_minus_fires_on_absence():
    prog = parse_program("p(a) :- DL[S ?= p ; !S](a).")
    atom = prog.dl_atoms[0]
    assert build_update(set(), atom.inputs, prog.constants) == frozenset(
        {(FAtom("S", ("a",)), False)}
    )
    assert build_update({RuleAtom("p", ("a",))}, atom.inputs, prog.constants) == frozenset()


def test_build_update_negated_target():
    prog = parse_program("p(a) :- DL[S -= p ; !S](a).")  # stored as !S += p
    atom = prog.dl_atoms[0]
    assert build_update({RuleAtom("p", ("a",))}, atom.inputs, prog.constants) == frozenset(
        {(FAtom("S", ("a",)), False)}
    )


def test_o_entails_examples():
    g = ground(parse_ontology("concept S, Sp.\nindividual a.\naxiom S [= Sp.\n"))
    update = frozenset({(FAtom("S", ("a",)), True)})
    assert o_entails(g, update, q_concept("Sp", "a"))
    assert not o_entails(g, frozenset(), q_concept("Sp", "a"))
    g_empty = ground(parse_ontology("concept S.\nindividual a.\n"))
    assert o_entails(
        g_empty, frozenset({(FAtom("S", ("a",)), False)}), q_concept("S", "a", negated=True)
    )


def test_o_consistent_examples():
    g_bad = ground(
        parse_ontology(
            "concept S, Sp.\nindividual a.\naxiom S(a).\naxiom -Sp(a).\naxiom S [= Sp.\n"
        )
    )
    assert not o_consistent(g_bad)
    g_ok = ground(parse_ontology("concept S.\nindividual a.\n"))
    assert o_consistent(g_ok, frozenset({(FAtom("S", ("a",)), False)}))
    g_unreached = ground(parse_ontology("concept S.\nindividual a, b.\naxiom S(b).\n"))
    clash = frozenset({(FAtom("S", ("a",)), False), (FAtom("S", ("b",)), False)})
    assert not o_consistent(g_unreached, clash)


def test_query_and_its_negation_mean_inconsistency():
    g = ground(
        parse_ontology("concept S.\nindividual a.\naxiom S(a).\naxiom -S(a).\n")
    )
    q = q_concept("S", "a")
    nq = q_concept("S", "a", negated=True)
    assert o_entails(g, frozenset(), q) and o_entails(g, frozenset(), nq)
    assert not o_consistent(g)


def test_grounding_compositional():
    sig = "concept S, Sp.\nindividual a.\n"
    g1 = ground(parse_ontology(sig + "axiom S [= Sp.\n"))
    g2 = ground(parse_ontology(sig + "axiom S(a).\n"))
    g12 = ground(parse_ontology(sig + "axiom S [= Sp.\naxiom S(a).\n"))
    assert set(g12.formulas) == set(g1.formulas) | set(g2.formulas)


def test_oneof_forces_equality():
    onto = parse_ontology("concept C.\nindividual a, b.\naxiom {a}(b).\n")
    g = ground(onto)
    assert o_entails(g, frozenset(), DLQuery("eq", terms=("a", "b")))
    assert o_entails(g, frozenset(), DLQuery("eq", terms=("b", "a")))


def test_equality_transfers_dl_predicates():
    onto = parse_ontology("concept S.\nindividual a, b.\naxiom a == b.\naxiom S(a).\n")
    g = ground(onto)
    assert o_entails(g, frozenset(), q_concept("S", "b"))


def test_update_monotone_for_plus_literals():
    g = ground(parse_ontology("concept S, Sp.\nindividual a.\naxiom S [= Sp.\n"))
    q = q_concept("Sp", "a")
    small = frozenset()
    big = frozenset({(FAtom("S", ("a",)), True)})
    assert not o_entails(g, small, q) and o_entails(g, big, q)


def test_cardinality_with_equality_counts_classes():
    onto = parse_ontology(
        "concept C.\nrole R.\nindividual a, b.\naxiom a == b.\n"
        "axiom R(a,a).\naxiom R(a,b).\naxiom (<= 1 R)(a).\n"
    )
    # two named successors collapse into one element, so <= 1 R holds
    assert o_consistent(ground(onto))
    onto2 = parse_ontology(
        "concept C.\nrole R.\nindividual a, b.\naxiom a != b.\n"
        "axiom R(a,a).\naxiom R(a,b).\naxiom (<= 1 R)(a).\n"
    )
    assert not o_consistent(ground(onto2))


def test_grounded_theories_compile_once_on_the_seed_42_stream(monkeypatch):
    """The universe of an EvalContext's ontology theory holds every atom its
    dl-atoms' updates and queries can mention, so o_entails never recompiles
    it.  No other theory recompiles on this stream either."""
    from dlbridge.verify import CHECKS, run_suite

    compiles = {"first": 0, "again": 0}
    compile_ = fol.CompiledTheory._compile

    def counting(self, compiled, formulas):
        compiles["again" if compiled else "first"] += 1
        return compile_(self, compiled, formulas)

    monkeypatch.setattr(fol.CompiledTheory, "_compile", counting)
    monkeypatch.setattr(dleval, "_contexts", {})  # no context of an earlier test
    results = run_suite(list(CHECKS), count=100, seed=42)
    assert all(r.ok for r in results)
    assert compiles["first"] > 500
    assert compiles["again"] == 0
