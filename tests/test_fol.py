"""Unit tests for the ground classical-logic kernel."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlbridge import fol
from dlbridge.fol import (
    FALSE,
    TRUE,
    TheoryRep,
    atom,
    conj,
    consistent,
    disj,
    entails,
    entails_exhaustive,
    entails_refutation,
    entails_true_equality,
    eq_atom,
    eq_axioms,
    implies,
    neg,
)
from oracles import quotient_entails, theory_equal

S_a, Sp_a, p_a, p_b = atom("S", "a"), atom("Sp", "a"), atom("p", "a"), atom("p", "b")


def test_modus_ponens():
    assert entails([S_a, implies(S_a, Sp_a)], Sp_a)


def test_nothing_entails_an_atom():
    assert not entails([], S_a)


def test_inconsistent_theory_entails_false():
    assert entails([S_a, neg(Sp_a), implies(S_a, Sp_a)], FALSE)


def test_consistency():
    assert consistent([eq_atom("a", "b")] + eq_axioms(["a", "b"], {("S", 1)}))
    assert not consistent([S_a, neg(S_a)])


def test_entails_monotone():
    assert entails([S_a, implies(S_a, Sp_a)], Sp_a)
    assert entails([S_a, implies(S_a, Sp_a), p_a], Sp_a)


def test_eq_axioms_singleton_domain():
    got = eq_axioms(["a"], {("S", 1)})
    assert eq_atom("a", "a") in got
    assert implies(eq_atom("a", "a"), implies(S_a, S_a)) in got


def test_symmetry_derives_from_replacement():
    ax = eq_axioms(["a", "b"], {("S", 1)})
    assert entails([eq_atom("a", "b")] + ax, eq_atom("b", "a"))
    assert entails([eq_atom("a", "b")] + ax, eq_atom("a", "b"))


def test_transitivity_derives():
    ax = eq_axioms(["a", "b", "c"], set())
    assert entails([eq_atom("a", "b"), eq_atom("b", "c")] + ax, eq_atom("a", "c"))


def test_no_replacement_for_excluded_predicate():
    # replacement only covers the listed predicates, so p does not transfer
    ax = eq_axioms(["a", "b"], {("S", 1)})
    assert not entails([eq_atom("a", "b"), p_a] + ax, p_b)
    assert entails_true_equality([eq_atom("a", "b"), p_a], p_b)


def test_theory_equal():
    assert theory_equal(TheoryRep.of([S_a]), TheoryRep.of([S_a, disj([S_a, S_a])]))
    assert not theory_equal(TheoryRep.of([]), TheoryRep.of([S_a]))


def test_theory_equal_is_equivalence():
    t1 = TheoryRep.of([S_a, implies(S_a, Sp_a)])
    t2 = TheoryRep.of([S_a, Sp_a])
    t3 = TheoryRep.of([conj([S_a, Sp_a])])
    assert theory_equal(t1, t2) and theory_equal(t2, t3) and theory_equal(t1, t3)


def test_exhaustive_cap_raises():
    atoms = [atom("x", str(i)) for i in range(30)]
    with pytest.raises(fol.UniverseTooLarge):
        entails_exhaustive(atoms, atoms[0], cap=24)


def test_clause_dump_hook(monkeypatch):
    lines = []
    monkeypatch.setattr(fol, "CLAUSE_DUMP", lines.append)
    entails_refutation([S_a], S_a)
    standalone = len(lines)
    assert standalone and all(l.endswith(" 0\n") for l in lines)
    # compiled path: a 25-atom chain goes to refutation, and its ClauseBase
    # dumps its 24 residual clauses once, then each call only its own two
    chain = [atom("x", str(i)) for i in range(25)]
    theory = fol.CompiledTheory([implies(a, b) for a, b in zip(chain, chain[1:])])
    assert theory.entails([chain[0]], chain[-1])
    assert theory.entails([chain[1]], chain[-1])
    assert not theory.entails([chain[1]], chain[0])
    dumped = lines[standalone:]
    assert len(dumped) == 24 + 3 * 2
    assert all(len(l.split()) == 3 and l.endswith(" 0\n") for l in dumped[:24])
    assert all(len(l.split()) == 2 and l.endswith(" 0\n") for l in dumped[24:])


def test_deep_search_does_not_recurse():
    # 1,200 independent choices put the search 1,200 decisions deep, past
    # the interpreter's recursion limit for a recursive DPLL
    axioms = [atom("A", str(i)) | atom("B", str(i)) for i in range(1200)]
    assert entails_refutation(axioms, atom("C")) is False


def test_root_refuted_base_entails_everything():
    u = fol.universe_for([S_a, Sp_a])
    base = fol.ClauseBase([S_a, implies(S_a, Sp_a), neg(Sp_a)], u)
    assert base.unsat
    assert entails_refutation([], neg(S_a), u, base)
    # refuted only by search, not at the root
    pairs = [disj([x, y]) for x in (S_a, neg(S_a)) for y in (Sp_a, neg(Sp_a))]
    base = fol.ClauseBase(pairs, u)
    assert not base.unsat
    assert entails_refutation([], S_a, u, base) and entails_refutation([], FALSE, u, base)


# --- random formulas -------------------------------------------------------

ATOMS = [atom(n, c) for n in ("S", "Sp", "p") for c in ("a", "b")] + [
    eq_atom("a", "b"),
    eq_atom("b", "a"),
]


def random_formula(rng, depth=3, leaves=ATOMS):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(leaves)
    kind = rng.randrange(4)
    if kind == 0:
        return neg(random_formula(rng, depth - 1, leaves))
    if kind == 1:
        return conj([random_formula(rng, depth - 1, leaves) for _ in range(2)])
    if kind == 2:
        return disj([random_formula(rng, depth - 1, leaves) for _ in range(2)])
    return implies(random_formula(rng, depth - 1, leaves), random_formula(rng, depth - 1, leaves))


def test_backends_agree_on_random_sequents():
    rng = random.Random(20240)
    for _ in range(300):
        axioms = [random_formula(rng) for _ in range(rng.randrange(4))]
        query = random_formula(rng)
        assert entails_exhaustive(axioms, query) == entails_refutation(axioms, query)


def test_entails_consistency_duality():
    rng = random.Random(77)
    for _ in range(200):
        axioms = [random_formula(rng) for _ in range(rng.randrange(3))]
        query = random_formula(rng)
        assert entails(axioms, query) == (not consistent(axioms + [neg(query)]))


def test_quotient_matches_congruence_reduction():
    # Fitting's equivalence at finite scale, domains of size <= 3
    rng = random.Random(99)
    domain = ["a", "b", "c"]
    pool = [atom(n, c) for n in ("S", "p") for c in domain] + [
        eq_atom(x, y) for x in domain for y in domain
    ]

    def rf(depth=2):
        if depth == 0 or rng.random() < 0.45:
            return rng.choice(pool)
        k = rng.randrange(3)
        if k == 0:
            return neg(rf(depth - 1))
        if k == 1:
            return conj([rf(depth - 1), rf(depth - 1)])
        return implies(rf(depth - 1), rf(depth - 1))

    for _ in range(150):
        axioms = [rf() for _ in range(rng.randrange(3))]
        query = rf()
        assert quotient_entails(axioms, query, domain) == entails_true_equality(
            axioms, query, domain
        )


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_backend_agreement_property(seed):
    rng = random.Random(seed)
    axioms = [random_formula(rng) for _ in range(rng.randrange(3))]
    query = random_formula(rng)
    assert entails_exhaustive(axioms, query) == entails_refutation(axioms, query)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_clause_base_matches_oracles(seed):
    # compiled background + extra, and the same sequent from scratch, both
    # against the sweep oracle; implies/neg keep TRUE and FALSE leaves
    rng = random.Random(seed)
    leaves = ATOMS + [TRUE, FALSE]
    formulas = [random_formula(rng, leaves=leaves) for _ in range(rng.randrange(7))]
    cut = rng.randrange(len(formulas) + 1)
    background, extra = formulas[:cut], formulas[cut:]
    if rng.random() < 0.15:
        background += [S_a, neg(S_a)]  # unsatisfiable background
    query = random_formula(rng, leaves=leaves)
    u = fol.universe_for(background + extra + [query])
    want = entails_exhaustive(background + extra, query, u)
    assert entails_refutation(extra, query, u, fol.ClauseBase(background, u)) == want
    assert entails_refutation(background + extra, query, u) == want
