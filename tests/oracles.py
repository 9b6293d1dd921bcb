"""Brute-force oracles that the engine's fast paths are checked against.

The plain candidate sweep tries every subset of HB_P and decides each by
the set-based definitions (transforms, reducts, lfp and T iteration),
and FLP minimality tries every proper subset of the candidate; neither
uses the program's truth columns or the compiled rules.  The pair sweep
decides dl-atom monotonicity over all 3^k nested pairs of input subsets,
and up-to satisfaction tries every F between E and I; both ask
dl_satisfies row by row, never the truth table whole.  The
generating-set extension search tries every subset of the defaults, and
decides each on a theory with no compiled W.  The quotient-model check
decides true-equality entailment by collapsing the domain under every
equivalence relation, with no congruence axioms.
"""

from itertools import combinations

from dlbridge.defaults import ExtensionCandidate
from dlbridge.dleval import AtomMonotonicity, as_context, is_model, satisfies_body
from dlbridge.fol import (
    EQ,
    FALSE,
    TRUE,
    And,
    Atom,
    Bot,
    CompiledTheory,
    FAtom,
    Implies,
    Not,
    Or,
    TheoryRep,
    Top,
    atoms_of,
    conj,
    disj,
    entails,
    entails_true_equality,
    implies,
    neg,
)
from dlbridge.semantics import (
    flp_reduct,
    lfp_gamma,
    strong_transform,
    tk_lfp,
    weak_transform,
)


def plain_candidates(hb):
    """Subsets of HB in lexicographic order of their sorted index tuples."""
    n = len(hb)
    subsets = sorted(tuple(i for i in range(n) if v >> i & 1) for v in range(1 << n))
    for idx in subsets:
        yield frozenset(hb[i] for i in idx)


def models_rules(interp, rules, ctx):
    """I |= rules: every rule whose body I satisfies has its head in I."""
    interp = frozenset(interp)
    return all(
        not satisfies_body(interp, r.body, ctx) or r.head in interp for r in rules
    )


def flp_by_subsets(program_or_ctx, interp):
    """I is an FLP answer set: I |= fP^I and no proper subset of I is."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    reduct = flp_reduct(ctx, interp)
    if not models_rules(interp, reduct, ctx):
        return False
    items = sorted(interp, key=lambda a: (a.pred, a.args))
    return not any(
        models_rules(frozenset(sub), reduct, ctx)
        for k in range(len(items))
        for sub in combinations(items, k)
    )


def answer_set_by_definition(program_or_ctx, interp, kind):
    """I is an answer set of the kind, decided on sets: the least fixpoint
    of the strong or weak transform, the T iteration for wws (on the
    negation reduct) and sws (on full bodies), FLP by its subset oracle."""
    ctx = as_context(program_or_ctx)
    interp = frozenset(interp)
    if kind == "strong":
        return lfp_gamma(strong_transform(ctx, interp), ctx) == interp
    if kind == "weak":
        return lfp_gamma(weak_transform(ctx, interp), ctx) == interp
    if kind == "flp":
        return flp_by_subsets(ctx, interp)
    mode = {"wws": "reduct", "sws": "direct"}[kind]
    return is_model(interp, ctx) and tk_lfp(interp, ctx, mode) == interp


def sweep_answer_sets(program_or_ctx, kind):
    """Answer sets by the plain 2^|HB| sweep, each decided by definition."""
    ctx = as_context(program_or_ctx)
    return tuple(
        i for i in plain_candidates(ctx.hb) if answer_set_by_definition(ctx, i, kind)
    )


def _subsets(items):
    for k in range(len(items) + 1):
        yield from combinations(items, k)


def monotonicity_by_pairs(atom, program_or_ctx):
    """AtomMonotonicity by the pair sweep over restrictions to the input atoms.

    Pairs (I_A, I'_A) with I_A ⊆ I'_A are swept in order of growing
    |I'_A \\ I_A|, then by added atoms, then by I_A, so the first witness
    found is difference-minimal.
    """
    ctx = as_context(program_or_ctx)
    inputs = ctx.input_atoms(atom)
    for d in range(1, len(inputs) + 1):
        for added in combinations(inputs, d):
            rest = [a for a in inputs if a not in added]
            for base in _subsets(rest):
                lower = frozenset(base)
                upper = lower | frozenset(added)
                if ctx.dl_satisfies(lower, atom) and not ctx.dl_satisfies(upper, atom):
                    return AtomMonotonicity(atom, False, (lower, upper))
    return AtomMonotonicity(atom, True)


def up_to_by_subsets(lower, upper, lit, program_or_ctx):
    """(E,I) |=_O lit for a dl-literal, by trying every F between E and I
    on the atom's input atoms."""
    ctx = as_context(program_or_ctx)
    lower, upper = frozenset(lower), frozenset(upper)
    inputs = frozenset(ctx.input_atoms(lit.atom))
    base = lower & inputs
    free = sorted(upper & inputs - base, key=lambda a: (a.pred, a.args))
    values = (ctx.dl_satisfies(base | set(extra), lit.atom) for extra in _subsets(free))
    return not any(values) if lit.negated else all(values)


class BareExtensionOracle:
    """Default extensions decided without a compiled W.

    W goes among the extra formulas of a background-free CompiledTheory,
    as every generator set does, so no answer depends on the engine's
    compiled background or on its literal-set candidates.
    """

    def __init__(self, dt):
        self.dt = dt
        self.theory = CompiledTheory((), equality=dt.true_equality)

    def gamma_closure(self, gens):
        """Generators of Γ(Th(gens)): E_0 = W, then fire each default whose
        premise E_i entails and none of whose justifications gens refutes."""
        entails = self.theory.entails
        s_gens = frozenset(gens)
        admissible = [
            d
            for d in self.dt.defaults
            if all(not entails(s_gens, neg(b)) for b in d.justifications)
        ]
        out = list(self.dt.background)
        fired = set()
        for _ in range(len(self.dt.defaults) + 1):
            key = frozenset(out)
            new = [d for d in admissible if d not in fired and entails(key, d.premise)]
            if not new:
                return tuple(out)
            for d in new:
                fired.add(d)
                if d.conclusion not in out:
                    out.append(d.conclusion)
        raise AssertionError("gamma iteration failed to stabilize")

    def theory_equal(self, g1, g2):
        entails = self.theory.entails
        return entails(g1, conj(list(g2))) and entails(g2, conj(list(g1)))

    def is_extension(self, gens):
        return self.theory_equal(self.gamma_closure(gens), gens)

    def extensions_by_generating_sets(self):
        """Sweep subsets of the defaults as generating sets."""
        defaults = self.dt.defaults
        out = []
        for mask in range(1 << len(defaults)):
            concl = []
            for i, d in enumerate(defaults):
                if mask >> i & 1 and d.conclusion not in concl:
                    concl.append(d.conclusion)
            gens = tuple(self.dt.background) + tuple(concl)
            if self.is_extension(gens) and not any(
                self.theory_equal(gens, e.theory.generators) for e in out
            ):
                out.append(ExtensionCandidate(tuple(concl), TheoryRep(gens)))
        return out


def extensions_by_generating_sets(dt):
    """The generating-default-subset oracle for `enumerate_extensions`."""
    return BareExtensionOracle(dt).extensions_by_generating_sets()


# --- true equality by quotient models, and theories as generator sets ----


def constants_of(formulas):
    consts = {}
    for a in atoms_of(formulas):
        for c in a.args:
            consts.setdefault(c, None)
    return list(consts)


def partitions(items):
    """All partitions of a list (set-partition enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _quotient_formula(f, rep):
    if isinstance(f, Atom):
        a = f.atom
        if a.name == EQ:
            return TRUE if rep[a.args[0]] == rep[a.args[1]] else FALSE
        return Atom(FAtom(a.name, tuple(rep[c] for c in a.args)))
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Not):
        return neg(_quotient_formula(f.sub, rep))
    if isinstance(f, And):
        return conj([_quotient_formula(g, rep) for g in f.args])
    if isinstance(f, Or):
        return disj([_quotient_formula(g, rep) for g in f.args])
    if isinstance(f, Implies):
        return implies(_quotient_formula(f.lhs, rep), _quotient_formula(f.rhs, rep))
    raise TypeError(f"not a formula: {f!r}")


def quotient_entails(axioms, query, domain=None):
    """True-equality entailment by quotient-model enumeration.

    Independent oracle for `entails_true_equality`: for every equivalence
    relation on the domain, collapse the atoms and decide propositionally.
    """
    axioms = list(axioms)
    if domain is None:
        domain = constants_of(axioms + [query])
    domain = list(domain)
    if not domain:
        return entails(axioms, query)
    for part in partitions(domain):
        rep = {}
        for block in part:
            r = min(block)
            for c in block:
                rep[c] = r
        qaxioms = [_quotient_formula(f, rep) for f in axioms]
        if not entails(qaxioms, _quotient_formula(query, rep)):
            return False
    return True


def theory_equal(t1: TheoryRep, t2: TheoryRep, true_equality=False) -> bool:
    """Mutual entailment of generator sets."""
    g1, g2 = conj(list(t1.generators)), conj(list(t2.generators))
    if true_equality:
        return entails_true_equality(list(t2.generators), g1) and entails_true_equality(
            list(t1.generators), g2
        )
    return entails(list(t2.generators), g1) and entails(list(t1.generators), g2)
