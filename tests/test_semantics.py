"""Answer-set semantics: transforms, fixpoints, and the T operator."""

import pytest

import programs
from conftest import answer_names
from dlbridge.dleval import get_context, is_model
from dlbridge.generator import GeneratorConfig, instance_stream
from dlbridge.parser import parse_program, serialize_program, serialize_rule
from dlbridge.semantics import (
    SEMANTICS,
    HerbrandCapExceeded,
    enumerate_answer_sets,
    gamma_step,
    is_answer_set,
    lfp_gamma,
    strong_transform,
    tk_lfp,
    tk_operator,
    weak_transform,
)
from dlbridge.syntax import RuleAtom

PA = RuleAtom("p", ("a",))
QA = RuleAtom("q", ("a",))


def test_gamma_step_fact_fires():
    prog = parse_program("p(a).")
    ctx = get_context(prog)
    assert gamma_step(prog.rules, set(), ctx) == {PA}


def test_gamma_step_unsatisfied_dl_atom():
    prog = programs.self_support()
    ctx = get_context(prog)
    # strong transform keeps the monotonic dl-atom; at ∅ it fails
    rules = strong_transform(ctx, {PA})
    assert gamma_step(rules, set(), ctx) == frozenset()


def test_gamma_step_empty_program():
    prog = parse_program("")
    assert gamma_step((), {frozenset()}, get_context(prog)) == frozenset()


def test_lfp_chain():
    prog = parse_program("p(a).\nq(a) :- p(a).")
    ctx = get_context(prog)
    assert lfp_gamma(prog.rules, ctx) == {PA, QA}


def test_lfp_weak_transform_self_support():
    prog = programs.self_support()
    ctx = get_context(prog)
    assert lfp_gamma(weak_transform(ctx, {PA}), ctx) == {PA}


def test_lfp_strong_transform_case_split():
    prog = programs.case_split()
    ctx = get_context(prog)
    assert lfp_gamma(strong_transform(ctx, frozenset()), ctx) == {PA}


def test_strong_transform_keeps_monotonic_atoms():
    prog = programs.self_support()
    ctx = get_context(prog)
    assert strong_transform(ctx, {PA}) == prog.rules


def test_strong_transform_case_split():
    prog = programs.case_split()
    ctx = get_context(prog)
    rules = strong_transform(ctx, {PA})
    assert [serialize_rule(r) for r in rules] == ["p(a) :- DL[S += p ; S](a)."]


def test_transform_keeps_facts():
    prog = parse_program("p(a).\nq(a).")
    ctx = get_context(prog)
    assert strong_transform(ctx, {PA}) == prog.rules
    assert weak_transform(ctx, {PA}) == prog.rules


def test_weak_transform_strips_all_dl_atoms():
    prog = programs.self_support()
    ctx = get_context(prog)
    assert [serialize_rule(r) for r in weak_transform(ctx, {PA})] == ["p(a)."]


def test_weak_transform_not_branch_survives():
    prog = programs.case_split()
    ctx = get_context(prog)
    assert [serialize_rule(r) for r in weak_transform(ctx, frozenset())] == ["p(a)."]


def test_answer_sets_self_support():
    prog = programs.self_support()
    assert answer_names(enumerate_answer_sets(prog, "strong")) == [[]]
    assert answer_names(enumerate_answer_sets(prog, "weak")) == [[], ["p(a)"]]


def test_answer_sets_case_split():
    prog = programs.case_split()
    assert answer_names(enumerate_answer_sets(prog, "weak")) == [["p(a)"]]
    assert enumerate_answer_sets(prog, "strong") == ()


def test_flp_unique_on_neg_constraint():
    prog = programs.neg_constraint()
    assert answer_names(enumerate_answer_sets(prog, "flp")) == [[]]


def test_flp_equals_strong_without_nonmonotonic_atoms():
    prog = programs.self_support()
    assert enumerate_answer_sets(prog, "flp") == enumerate_answer_sets(prog, "strong")


def test_enumerate_constraint_self_support():
    prog = programs.constraint_self_support()
    assert answer_names(enumerate_answer_sets(prog, "strong")) == [[], ["p(a)"]]


def test_enumerate_empty_program():
    prog = parse_program("")
    assert enumerate_answer_sets(prog, "strong") == (frozenset(),)


def test_enumerate_cap():
    prog = programs.constraint_self_support()
    with pytest.raises(HerbrandCapExceeded):
        enumerate_answer_sets(parse_program("p(a).\nq(b).\nr(c)."), "weak", cap=2)
    del prog


def test_tk_operator_examples():
    prog = programs.disjunctive_constraint()
    ctx = get_context(prog)
    assert tk_operator(set(), {PA}, ctx, mode="reduct") == {PA}
    # at (∅,∅) the constraint pair still fires on q's absence, so the
    # disjunctive query holds and p(a) is derived
    assert tk_operator(set(), set(), ctx, mode="reduct") == {PA}
    facts = parse_program("p(a).\nq(a).")
    assert tk_operator(set(), {PA, QA}, get_context(facts), mode="reduct") == {PA, QA}


def test_tk_lfp_examples():
    witness = programs.neg_mono_query()
    assert tk_lfp({PA}, witness, mode="direct") == {PA}
    retained = programs.neg_constraint()
    assert tk_lfp({PA}, retained, mode="direct") == frozenset()
    positive = parse_program("p(a).\nq(a) :- p(a).")
    assert tk_lfp({PA, QA}, positive, mode="direct") == {PA, QA}


def test_tk_lfp_rejects_non_models():
    prog = parse_program("p(a).")
    with pytest.raises(ValueError, match="model"):
        tk_lfp(set(), prog, mode="direct")


def test_wws_sws_golden():
    prog = programs.neg_constraint()
    assert answer_names(enumerate_answer_sets(prog, "sws")) == [[]]
    # {p(a)} is weakly well-supported (the negation reduct keeps the rule
    # as a fact) but not strongly: wws and sws genuinely differ here
    assert answer_names(enumerate_answer_sets(prog, "wws")) == [[], ["p(a)"]]
    loop = programs.tautology_loop()
    assert answer_names(enumerate_answer_sets(loop, "wws")) == [["p(a)"]]
    assert answer_names(enumerate_answer_sets(loop, "sws")) == [["p(a)"]]
    chained = programs.chained_constraint()
    assert enumerate_answer_sets(chained, "wws") == ()
    assert enumerate_answer_sets(chained, "sws") == ()


def test_lfp_is_least_model_for_positive_programs():
    """Every model of a positive program contains the least fixpoint."""
    from itertools import combinations

    count = 0
    for _, prog in instance_stream(GeneratorConfig(seed=23, allow_constraint=False), 40):
        ctx = get_context(prog)
        if any(l.negated for r in prog.rules for l in r.body) or len(ctx.hb) > 5:
            continue
        least = lfp_gamma(prog.rules, ctx)
        for k in range(len(ctx.hb) + 1):
            for sub in combinations(ctx.hb, k):
                if is_model(set(sub), ctx):
                    assert least <= set(sub)
                    count += 1
    assert count > 20


def test_answer_sets_are_models():
    # every weak, strong, flp, wws and sws answer set is a model of P
    # (Eiter et al., AIJ 2008), which a model-mask candidate space relies on
    seen = 0
    for seed in (29, 42):
        for _, prog in instance_stream(GeneratorConfig(seed=seed), 200):
            ctx = get_context(prog)
            for kind in SEMANTICS:
                for interp in enumerate_answer_sets(ctx, kind):
                    assert is_model(interp, ctx), (kind, serialize_program(prog))
                    seen += 1
    assert seen > 1000


def test_interpretation_outside_hb_rejected():
    prog = programs.self_support()
    with pytest.raises(ValueError):
        is_answer_set(prog, {RuleAtom("zz", ("a",))}, "weak")
