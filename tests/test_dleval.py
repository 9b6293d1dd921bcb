"""Satisfaction, up-to satisfaction, and the monotonicity classifier."""

import random
from itertools import combinations

import pytest

import programs
from conftest import interp_names
from dlbridge.dleval import (
    EvalContext,
    SearchCapExceeded,
    classify,
    get_context,
    is_monotonic,
    satisfies,
    satisfies_body,
    up_to_satisfies,
)
from dlbridge.generator import GeneratorConfig, instance_stream
from dlbridge.parser import parse_ontology, parse_program
from dlbridge.syntax import BodyLiteral, RuleAtom


PA = RuleAtom("p", ("a",))
QA = RuleAtom("q", ("a",))


def test_satisfies_dl_atom():
    prog = programs.self_support()
    atom = prog.dl_atoms[0]
    assert satisfies({PA}, atom, prog)
    assert not satisfies(set(), atom, prog)
    assert not satisfies(set(), QA, prog)


def test_satisfies_body():
    prog = programs.pos_self_feed()
    atom = prog.dl_atoms[0]
    assert satisfies_body({PA}, (BodyLiteral(False, atom),), prog)
    assert not satisfies_body({PA}, (BodyLiteral(True, PA),), prog)
    assert satisfies_body({PA}, (), prog)


def test_up_to_satisfaction_examples():
    prog = programs.disjunctive_constraint()
    lit = BodyLiteral(False, prog.dl_atoms[0])
    assert up_to_satisfies(set(), {PA}, lit, prog)
    feed = programs.pos_self_feed()
    assert not up_to_satisfies(set(), set(), BodyLiteral(False, feed.dl_atoms[0]), feed)
    assert up_to_satisfies({PA}, {PA}, BodyLiteral(False, PA), feed)


def test_up_to_requires_nested_interpretations():
    prog = programs.pos_self_feed()
    with pytest.raises(ValueError):
        up_to_satisfies({PA}, set(), BodyLiteral(False, PA), prog)


def test_monotonic_tautology():
    prog = programs.tautology_loop()
    assert is_monotonic(prog.dl_atoms[0], prog).monotonic


def test_nonmonotonic_with_witness():
    prog = programs.constraint_self_support()
    rec = is_monotonic(prog.dl_atoms[0], prog)
    assert not rec.monotonic
    lo, hi = rec.witness
    assert lo < hi and satisfies(lo, prog.dl_atoms[0], prog)
    assert not satisfies(hi, prog.dl_atoms[0], prog)
    # the only difference-minimal witness for this atom
    assert interp_names(lo) == ["p(a)"] and interp_names(hi) == ["p(a)", "q(a)"]


def test_monotonic_despite_constraint():
    prog = programs.mono_with_constraint()
    assert is_monotonic(prog.dl_atoms[0], prog).monotonic


def test_no_constraint_implies_monotonic():
    for build in (programs.self_support, programs.pos_self_feed, programs.neg_mono_query):
        prog = build()
        for atom in prog.dl_atoms:
            assert not atom.mentions_constraint_op
            assert is_monotonic(atom, prog).monotonic


def test_inconsistent_ontology_makes_atoms_monotonic_and_true():
    prog = programs.inconsistent_ontology()
    ctx = get_context(prog)
    for atom in prog.dl_atoms:
        assert is_monotonic(atom, ctx).monotonic
        for interp in (set(), {PA}):
            assert satisfies(interp, atom, ctx)


def test_classify_golden():
    c1 = classify(programs.self_support())
    assert (c1.positive, c1.canonical, c1.normal) == (True, True, True)
    c2 = classify(programs.constraint_self_support())
    assert (c2.positive, c2.canonical, c2.normal) == (False, False, True)
    c3 = classify(programs.mono_with_constraint())
    # monotonic dl-atom mentioning the constraint operator: positive, not normal
    assert (c3.positive, c3.canonical, c3.normal) == (True, False, False)
    c4 = classify(programs.neg_constraint())
    assert (c4.positive, c4.canonical, c4.normal) == (False, False, True)
    # the merged vacuous pair keeps the single dl-atom nonmonotonic, so
    # no monotonic constraint-mentioning atom occurs and the program is
    # normal by the definition
    c5 = classify(programs.neg_constraint_taut())
    assert not c5.report.per_atom[0].monotonic
    assert c5.normal and not c5.canonical and not c5.positive


def test_degenerate_dl_atom_no_inputs():
    prog = parse_program("p(a) :- DL[ ; TOP](a).")
    rec = is_monotonic(prog.dl_atoms[0], prog)
    assert rec.monotonic
    assert satisfies(set(), prog.dl_atoms[0], prog)


def test_pair_cap():
    onto = parse_ontology("role R.\nconcept C.\nindividual a, b.\n")
    # two program constants: three binary input predicates contribute
    # 3 * 4 = 12 input atoms, the unary one two more
    prog = parse_program(
        "p(b).\np(a) :- DL[R ?= s, R -= t, R += u, C ?= v ; C](a).", ontology=onto
    )
    with pytest.raises(SearchCapExceeded):
        is_monotonic(prog.dl_atoms[0], prog, cap=12)


def test_classify_is_memoized_per_cap():
    ctx = EvalContext(programs.self_support())  # nothing memoized yet
    with pytest.raises(SearchCapExceeded):
        classify(ctx, cap=0)  # a smaller cap, not yet asked, still raises
    got = classify(ctx)
    assert classify(ctx) is got and classify(ctx, cap=5) is not got
    assert classify(ctx, cap=5) == got


def _satisfied_by_all_subsets(ctx, atom, universe):
    table = {}
    items = sorted(universe, key=lambda a: (a.pred, a.args))
    for k in range(len(items) + 1):
        for sub in combinations(items, k):
            table[frozenset(sub)] = satisfies(set(sub), atom, ctx)
    return table


def _unrestricted_monotone(ctx, atom):
    table = _satisfied_by_all_subsets(ctx, atom, ctx.hb)
    for lo, vlo in table.items():
        if not vlo:
            continue
        for hi, vhi in table.items():
            if lo <= hi and not vhi:
                return False, (lo, hi)
    return True, None


def test_restriction_soundness_random():
    """satisfies() only depends on the input atoms; checked exhaustively
    for |HB| <= 6 on random instances."""
    rng = random.Random(5)
    checked = 0
    for _, prog in instance_stream(GeneratorConfig(seed=31), 60):
        ctx = get_context(prog)
        if len(ctx.hb) > 6 or not prog.dl_atoms:
            continue
        for atom in prog.dl_atoms:
            inputs = set(ctx.input_atoms(atom))
            for k in range(len(ctx.hb) + 1):
                for sub in combinations(ctx.hb, k):
                    interp = set(sub)
                    assert satisfies(interp, atom, ctx) == satisfies(
                        interp & inputs, atom, ctx
                    )
                    checked += 1
    assert checked > 100


def test_restricted_monotonicity_equals_full_definition():
    for _, prog in instance_stream(GeneratorConfig(seed=13), 60):
        ctx = get_context(prog)
        if len(ctx.hb) > 6:
            continue
        for atom in prog.dl_atoms:
            fast = is_monotonic(atom, ctx).monotonic
            slow, _ = _unrestricted_monotone(ctx, atom)
            assert fast == slow


def test_cap_is_checked_before_the_memo():
    ctx = EvalContext(programs.self_support())
    classify(ctx)  # memoizes the per-atom records under the default cap
    with pytest.raises(SearchCapExceeded):
        classify(ctx, cap=0)
