"""Hash-consed nodes: identity equality, value-like behaviour, threads, lifetime."""

import copy
import gc
import pickle
import sys
import threading
from dataclasses import make_dataclass
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlbridge import fol
from dlbridge.fol import EQ, FAtom, conj, disj, implies, neg
from dlbridge.parser import TokenStream, parse_formula, parse_program, serialize_formula
from dlbridge.syntax import RuleAtom

# The formula classes as the frozen dataclasses they replace: the reference
# for repr, and for equality as comparison of field values.
REF = {
    cls.__name__: make_dataclass(cls.__name__, cls._fields, frozen=True)
    for cls in (fol.FAtom, fol.Atom, fol.Top, fol.Bot, fol.Not, fol.And, fol.Or, fol.Implies, RuleAtom)
}


def reference(node):
    """The node as reference dataclasses, field by field."""
    def value(v):
        if isinstance(v, fol.Interned):
            return reference(v)
        if isinstance(v, tuple):
            return tuple(value(x) for x in v)
        return v

    return REF[type(node).__name__](*(value(getattr(node, f)) for f in node._fields))


def reference_str(name, args):
    if name == EQ:
        return f"{args[0]} == {args[1]}"
    return f"{name}({','.join(args)})" if args else name


constants = st.sampled_from(["a", "b", "c"])
fatoms = st.one_of(
    st.builds(FAtom, st.sampled_from(["p", "q", "S"]), st.lists(constants, max_size=2).map(tuple)),
    st.builds(lambda a, b: FAtom(EQ, (a, b)), constants, constants),
)
leaves = st.one_of(fatoms.map(fol.Atom), st.just(fol.Top()), st.just(fol.Bot()))


def _compound(children):
    many = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        st.builds(fol.Not, children),
        st.builds(fol.And, many),
        st.builds(fol.Or, many),
        st.builds(fol.Implies, children, children),
        # the smart constructors normalize, and may return an existing node
        st.builds(neg, children),
        st.builds(conj, st.lists(children, max_size=3)),
        st.builds(disj, st.lists(children, max_size=3)),
        st.builds(implies, children, children),
    )


formulas = st.recursive(leaves, _compound, max_leaves=8)


def _reparsed(f):
    return parse_formula(TokenStream(serialize_formula(f)))


@settings(max_examples=200, deadline=None)
@given(st.lists(formulas, min_size=1, max_size=6))
def test_identity_is_equality_of_fields(fs):
    nodes = fs + [_reparsed(f) for f in fs]
    for a in nodes:
        assert repr(a) == repr(reference(a))
        assert a.atoms == tuple(fol.atoms_of([a]))
        for b in nodes:
            assert (a is b) == (reference(a) == reference(b))
            assert (a == b) == (a is b)
            if a is b:
                assert hash(a) == hash(b)


@settings(max_examples=200, deadline=None)
@given(st.lists(fatoms, min_size=1, max_size=6))
def test_atoms_keep_str_and_sort_keys(atoms):
    # a program uses each predicate with one arity
    rule_atoms = [RuleAtom(f"{a.name}{len(a.args)}", a.args) for a in atoms if a.name != EQ]
    text = "".join(f"{a}.\n" for a in rule_atoms)
    parsed = [r.head for r in parse_program(text).rules] if text else []
    assert parsed == rule_atoms and all(x is y for x, y in zip(parsed, rule_atoms))
    for a in atoms:
        assert str(a) == reference_str(a.name, a.args)
        assert FAtom(a.name, args=a.args) is a
    for r in rule_atoms:
        assert str(r) == reference_str(r.pred, r.args)
        assert repr(r) == repr(REF["RuleAtom"](r.pred, r.args))
        assert RuleAtom(r.pred, args=r.args) is r
    assert sorted(atoms, key=lambda a: (a.name, a.args)) == sorted(
        atoms, key=lambda a: (reference(a).name, reference(a).args)
    )


def test_nodes_are_immutable():
    a = fol.atom("p", "a")
    for name in ("atom", "atoms", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.atom is FAtom("p", ("a",))


def test_pickle_and_copy_return_the_canonical_node():
    f = implies(fol.atom("p", "a") & ~fol.eq_atom("a", "b"), fol.atom("q"))
    r = RuleAtom("p", ("a",))
    for node in (f, f.lhs, fol.TRUE, fol.FALSE, f.rhs.atom, r):
        assert pickle.loads(pickle.dumps(node)) is node
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
    assert copy.deepcopy([f, (f, r)]) == [f, (f, r)]


_fresh = count()


def _formulas(tag, n):
    """n distinct formulas over atoms no other test builds."""
    out = []
    for i in range(n):
        p, q = fol.atom(f"race{tag}", f"c{i}"), fol.atom(f"race{tag}", f"d{i}")
        out.append(implies(p & ~q, disj([q, fol.eq_atom(f"c{i}", f"d{i}")])))
    return out


def test_threads_building_the_same_formulas_get_one_object_each():
    tag = next(_fresh)
    results = [None] * 4
    start = threading.Barrier(4)

    def build(k):
        start.wait()
        results[k] = _formulas(tag, 2000)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    first = results[0]
    assert len(first) == 2000
    for other in results[1:]:
        assert all(x is y for x, y in zip(first, other, strict=True))
    # the universe built from one thread's atoms indexes every thread's atoms
    universe = fol.universe_for(first)
    for other in results[1:]:
        assert universe.covers(other)
        assert all(a in universe.index for f in other for a in f.atoms)


def test_dropped_nodes_leave_the_table():
    gc.collect()
    before = len(fol._nodes)
    fs = _formulas(next(_fresh), 10_000)
    assert len(fol._nodes) > before + 10_000
    del fs
    gc.collect()
    assert len(fol._nodes) == before
