"""Verification harness: each check runs both sides of a correspondence
theorem through independent code paths (direct semantics vs. transforms
plus the default engine) and compares.

Check ids are frozen; the registry carries a self-contained statement of
the property each id verifies, so reports stay meaningful on their own.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .defaults import ExtensionEngine, encode, rule_atom_formula
from .dleval import SearchCapExceeded, classify, get_context
from .fol import neg
from .generator import GeneratorConfig, instance_stream
from .ontology import o_consistent
from .parser import serialize_program
from .semantics import HerbrandCapExceeded, enumerate_answer_sets
from .syntax import DLProgram
from .transforms import lift_pi, lift_sigma, pi, pi_prime, pi_star, project, sigma


@dataclass
class CheckResult:
    check_id: str
    instance_id: str
    ok: bool
    skipped: bool = False
    reason: str = ""
    counterexample: dict | None = None

    def to_json(self):
        out = {"check_id": self.check_id, "instance_id": self.instance_id, "pass": self.ok}
        if self.skipped:
            out["skipped"] = True
            out["reason"] = self.reason
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _interp_strs(sets):
    return sorted(sorted(str(a) for a in s) for s in sets)


def _sets_equal(xs, ys):
    return {frozenset(s) for s in xs} == {frozenset(s) for s in ys}


class Skip(Exception):
    pass


# resource caps: an instance that hits one is reported as a capped skip
CAP_ERRORS = (HerbrandCapExceeded, SearchCapExceeded)


def _extension_interps(dt, hb):
    eng = ExtensionEngine(dt)
    return [eng.extension_to_interp(e.literal_choice, hb) for e in eng.enumerate_extensions()], eng


def _quiet_encode(ctx, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return encode(ctx, kind)


# --- individual checks -----------------------------------------------------


def check_T3(ctx):
    res = pi(ctx)
    new_ctx = get_context(res.program)
    if classify(new_ctx).report.nonmonotonic_atoms:
        return False, {"error": "pi output still has nonmonotonic dl-atoms"}
    direct = enumerate_answer_sets(ctx, "strong")
    transformed = enumerate_answer_sets(new_ctx, "strong")
    lifted = [lift_pi(i, ctx, res) for i in direct]
    projected = [project(i, ctx.hb) for i in transformed]
    ok = _sets_equal(lifted, transformed) and _sets_equal(projected, direct)
    return ok, {
        "strong": _interp_strs(direct),
        "pi_strong": _interp_strs(transformed),
        "lifted": _interp_strs(lifted),
        "transform": serialize_program(res.program),
    }


def check_T4(ctx):
    res = pi(ctx)
    new_ctx = get_context(res.program)
    direct = enumerate_answer_sets(ctx, "weak")
    transformed = enumerate_answer_sets(new_ctx, "weak")
    lifted = [lift_pi(i, ctx, res) for i in direct]
    projected = [project(i, ctx.hb) for i in transformed]
    ok = _sets_equal(lifted, transformed) and _sets_equal(projected, direct)
    return ok, {"weak": _interp_strs(direct), "pi_weak": _interp_strs(transformed)}


def check_P3(ctx):
    res = pi_star(ctx)
    new_ctx = get_context(res.program)
    if classify(new_ctx).report.nonmonotonic_atoms:
        return False, {"error": "pi_star output still has nonmonotonic dl-atoms"}
    direct = enumerate_answer_sets(ctx, "weak")
    transformed = enumerate_answer_sets(new_ctx, "weak")
    lifted = [lift_pi(i, ctx, res) for i in direct]
    projected = [project(i, ctx.hb) for i in transformed]
    ok = _sets_equal(lifted, transformed) and _sets_equal(projected, direct)
    return ok, {"weak": _interp_strs(direct), "pistar_weak": _interp_strs(transformed)}


def check_P6(ctx):
    res = sigma(ctx)
    new_ctx = get_context(res.program)
    direct = enumerate_answer_sets(ctx, "weak")
    transformed = enumerate_answer_sets(new_ctx, "weak")
    lifted = [lift_sigma(i, ctx, res) for i in direct]
    projected = [project(i, ctx.hb) for i in transformed]
    ok = _sets_equal(lifted, transformed) and _sets_equal(projected, direct)
    return ok, {"weak": _interp_strs(direct), "sigma_weak": _interp_strs(transformed)}


def check_T5(ctx):
    """tau captures strong answer sets (consistent O; via pi when DL? ≠ ∅)."""
    if not o_consistent(ctx.grounded):
        raise Skip("needs a consistent ontology")
    return _strong_by_extensions(ctx, "tau")


def check_T6(ctx):
    """tau_prime captures strong answer sets for arbitrary ontologies."""
    return _strong_by_extensions(ctx, "tau_prime")


def _strong_by_extensions(ctx, kind):
    """Strong answer sets against the extensions of the `kind` encoding,
    taken of pi(K) when K has nonmonotonic dl-atoms."""
    if classify(ctx).report.nonmonotonic_atoms:
        res = pi(ctx)
        base = get_context(res.program)
        lift = lambda i: lift_pi(i, ctx, res)
    else:
        base = ctx
        lift = lambda i: i
    dt = _quiet_encode(base, kind)
    interps, eng = _extension_interps(dt, base.hb)
    direct = enumerate_answer_sets(ctx, "strong")
    lifted = [lift(i) for i in direct]
    ok = _sets_equal(lifted, interps)
    if ok:
        for i in lifted:
            cand = tuple(rule_atom_formula(a) for a in sorted(i, key=str))
            if not eng.is_extension(cand):
                ok = False
                break
    return ok, {"strong": _interp_strs(direct), "extension_interps": _interp_strs(interps)}


def check_T8(ctx):
    """tau_star captures weakly well-supported answer sets (consistent O)."""
    if not o_consistent(ctx.grounded):
        raise Skip("needs a consistent ontology")
    dt = _quiet_encode(ctx, "tau_star")
    interps, eng = _extension_interps(dt, ctx.hb)
    direct = enumerate_answer_sets(ctx, "wws")
    ok = _sets_equal(direct, interps)
    if ok:
        for i in direct:
            lits = [rule_atom_formula(a) for a in sorted(i, key=str)]
            lits += [neg(rule_atom_formula(a)) for a in ctx.hb if a not in i]
            if not eng.is_extension(tuple(lits)):
                ok = False
                break
    return ok, {"wws": _interp_strs(direct), "extension_interps": _interp_strs(interps)}


def check_P9(ctx):
    if classify(ctx).report.nonmonotonic_atoms:
        raise Skip("needs DL?_P = ∅")
    strong = enumerate_answer_sets(ctx, "strong")
    sws = enumerate_answer_sets(ctx, "sws")
    return _sets_equal(strong, sws), {"strong": _interp_strs(strong), "sws": _interp_strs(sws)}


def check_L14(ctx):
    nonmono = classify(ctx).report.nonmonotonic_atoms
    for r in ctx.program.rules:
        for lit in r.neg:
            if lit.is_dl and lit.atom in nonmono:
                raise Skip("needs no nonmonotonic dl-atom under default negation")
    wws = enumerate_answer_sets(ctx, "wws")
    sws = enumerate_answer_sets(ctx, "sws")
    return _sets_equal(wws, sws), {"wws": _interp_strs(wws), "sws": _interp_strs(sws)}


def check_P2(ctx):
    if o_consistent(ctx.grounded):
        raise Skip("needs an inconsistent ontology")
    strong = enumerate_answer_sets(ctx, "strong")
    weak = enumerate_answer_sets(ctx, "weak")
    minimal = not any(
        a != b and frozenset(a) < frozenset(b) for a in strong for b in strong
    )
    return _sets_equal(strong, weak) and minimal, {
        "strong": _interp_strs(strong),
        "weak": _interp_strs(weak),
    }


def check_P13(ctx):
    res = pi_prime(ctx)
    new_ctx = get_context(res.program)
    strong = set(map(frozenset, enumerate_answer_sets(ctx, "strong")))
    transformed = enumerate_answer_sets(new_ctx, "strong")
    bad = [i for i in transformed if project(i, ctx.hb) not in strong]
    return not bad, {
        "pi_prime_strong": _interp_strs(transformed),
        "strong": _interp_strs(sorted(strong, key=str)),
        "unmatched": _interp_strs(bad),
    }


def check_SW(ctx):
    strong = set(map(frozenset, enumerate_answer_sets(ctx, "strong")))
    weak = set(map(frozenset, enumerate_answer_sets(ctx, "weak")))
    return strong <= weak, {"strong_not_weak": _interp_strs(strong - weak)}


def check_CHAIN(ctx):
    sws = set(map(frozenset, enumerate_answer_sets(ctx, "sws")))
    wws = set(map(frozenset, enumerate_answer_sets(ctx, "wws")))
    strong = set(map(frozenset, enumerate_answer_sets(ctx, "strong")))
    return sws <= wws <= strong, {
        "sws": _interp_strs(sws),
        "wws": _interp_strs(wws),
        "strong": _interp_strs(strong),
    }


def check_FLPMIN(ctx):
    """FLP answer sets are minimal strong answer sets; all of them when
    DL?_P = ∅ (Eiter et al. 2008; Faber, Leone & Pfeifer 2004)."""
    strong = set(map(frozenset, enumerate_answer_sets(ctx, "strong")))
    flp = set(map(frozenset, enumerate_answer_sets(ctx, "flp")))
    minimal_strong = {s for s in strong if not any(t < s for t in strong)}
    ok = flp <= minimal_strong
    if not classify(ctx).report.nonmonotonic_atoms:
        ok = ok and flp == minimal_strong
    return ok, {
        "flp": _interp_strs(flp),
        "minimal_strong": _interp_strs(minimal_strong),
        "flp_not_minimal_strong": _interp_strs(flp - minimal_strong),
    }


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    fn: object
    description: str
    anchor: str  # precise statement of the verified property
    generator: GeneratorConfig


_BASE = GeneratorConfig()

CHECKS = {
    c.check_id: c
    for c in [
        CheckSpec("T3", check_T3, "pi preserves strong answer sets bijectively",
                  "I is a strong answer set of K iff its lift is a strong answer set of pi(K); projections invert the map",
                  _BASE),
        CheckSpec("T4", check_T4, "pi preserves weak answer sets bijectively",
                  "I is a weak answer set of K iff its lift is a weak answer set of pi(K); projections invert the map",
                  _BASE),
        CheckSpec("P3", check_P3, "pi_star preserves weak answer sets",
                  "I is a weak answer set of K iff its lift is a weak answer set of pi_star(K)",
                  _BASE),
        CheckSpec("P6", check_P6, "sigma preserves weak answer sets via the proxy lift",
                  "I is a weak answer set of K iff I plus the proxies of the dl-atoms I fails is a weak answer set of sigma(K)",
                  _BASE),
        CheckSpec("T5", check_T5, "tau extensions match strong answer sets (consistent O)",
                  "for consistent O and no nonmonotonic dl-atoms: I is a strong answer set iff Th(tau(O) ∪ I) is an extension of tau(K); otherwise via pi",
                  replace(_BASE, ontology_mode="consistent")),
        CheckSpec("T6", check_T6, "tau_prime extensions match strong answer sets (any O)",
                  "for any O and no nonmonotonic dl-atoms: I is a strong answer set iff Th(I) is an extension of tau_prime(K); otherwise via pi",
                  _BASE),
        CheckSpec("T8", check_T8, "tau_star extensions match weakly well-supported answer sets",
                  "for consistent O and models I: I is weakly well-supported iff Th(tau(O) ∪ I ∪ negated complement of I) is an extension of tau_star(K)",
                  replace(_BASE, ontology_mode="consistent")),
        CheckSpec("P9", check_P9, "strong = strongly well-supported when DL?_P = ∅",
                  "without nonmonotonic dl-atoms, strong and strongly well-supported answer sets coincide",
                  replace(_BASE, allow_constraint=False)),
        CheckSpec("L14", check_L14, "wws = sws when no nonmonotonic dl-atom occurs under not",
                  "when every dl-atom under default negation is monotonic, weakly and strongly well-supported answer sets coincide",
                  replace(_BASE, constraint_in_neg=False)),
        CheckSpec("P2", check_P2, "inconsistent O: strong = weak and minimal",
                  "over an inconsistent ontology, strong and weak answer sets coincide and are minimal under set inclusion",
                  replace(_BASE, ontology_mode="inconsistent")),
        # pi_prime's fresh-concept probe is only faithful when the ontology
        # does not merge program constants by equality
        CheckSpec("P13", check_P13, "pi_prime strong answer sets project to strong answer sets",
                  "the projection of every strong answer set of pi_prime(K) is a strong answer set of K (equality-free ontologies)",
                  replace(_BASE, force_constraint=True, allow_equality=False)),
        CheckSpec("SW", check_SW, "every strong answer set is a weak answer set",
                  "every strong answer set is a weak answer set", _BASE),
        CheckSpec("CHAIN", check_CHAIN, "sws ⊆ wws ⊆ strong answer sets",
                  "strongly well-supported ⊆ weakly well-supported ⊆ strong answer sets", _BASE),
        CheckSpec("FLPMIN", check_FLPMIN, "FLP ⊆ minimal strong answer sets, = when DL?_P = ∅",
                  "every FLP answer set is a minimal strong answer set; without nonmonotonic dl-atoms the two coincide",
                  _BASE),
    ]
}


def run_check(check_id: str, program: DLProgram, instance_id: str = "<inline>"):
    spec = CHECKS[check_id]
    ctx = get_context(program)
    try:
        ok, detail = spec.fn(ctx)
    except Skip as s:
        return CheckResult(check_id, instance_id, True, skipped=True, reason=str(s))
    except CAP_ERRORS as e:
        return CheckResult(check_id, instance_id, True, skipped=True,
                           reason=f"resource cap exceeded: {e}")
    if ok:
        return CheckResult(check_id, instance_id, True)
    detail["program"] = serialize_program(program)
    shrunk, crash = shrink(spec, program)
    if shrunk != program:
        detail["shrunk_program"] = serialize_program(shrunk)
    if crash is not None:
        detail["shrink_error"] = crash
    return CheckResult(check_id, instance_id, False, counterexample=detail)


def _fails(spec, program):
    try:
        ok, _ = spec.fn(get_context(program))
    except (Skip, *CAP_ERRORS):
        return False
    return not ok


def _smaller(program):
    """Candidates with one rule dropped, then with one constant's rules dropped."""
    for i in range(len(program.rules)):
        yield DLProgram(program.ontology, program.rules[:i] + program.rules[i + 1 :])
    for c in program.constants:
        keep = tuple(
            r for r in program.rules if c not in DLProgram(program.ontology, (r,)).constants
        )
        if len(keep) < len(program.rules):
            yield DLProgram(program.ontology, keep)


def shrink(spec, program: DLProgram, rounds=24):
    """Smaller failing instance: drop rules, then constants, while the
    check keeps failing.

    Returns (program, crash).  A candidate on which the check raises
    anything but a skip or a resource cap stops the shrink; crash then
    holds the exception's type and message and the crashing program,
    and is None otherwise.
    """
    cur = program
    for _ in range(rounds):
        for cand in _smaller(cur):
            try:
                failing = _fails(spec, cand)
            except Exception as e:  # reported in the counterexample, not hidden
                return cur, {"type": type(e).__name__, "message": str(e),
                             "program": serialize_program(cand)}
            if failing:
                cur = cand
                break
        else:
            return cur, None
    return cur, None


def run_suite(check_ids, count=100, seed=0, workers=1, programs=None):
    """Run checks over generated instances (or supplied programs), on at
    most min(workers, cpu count) threads; below 2 they run serially."""
    jobs = []
    for cid in check_ids:
        spec = CHECKS[cid]
        if programs is not None:
            jobs.extend((cid, f"file:{i}", p) for i, p in enumerate(programs))
        else:
            cfg = replace(spec.generator, seed=seed)
            jobs.extend(
                (cid, f"gen:{seed}:{i}", p) for i, p in instance_stream(cfg, count)
            )
    workers = min(workers, os.cpu_count() or 1)  # never more threads than cores
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda j: run_check(j[0], j[2], j[1]), jobs))
    else:
        results = [run_check(cid, prog, iid) for cid, iid, prog in jobs]
    return results


# --- reporting -------------------------------------------------------------

TABLE_ROWS = ("canonical", "normal", "arbitrary")
TABLE_COLS = (
    ("WAS", ("P6", "P3", "T4"), "sigma·pi·tau / sigma·pi·tau'"),
    ("SAS", ("T3", "T5", "T6"), "pi·(tau/tau*) / pi·tau'"),
    ("WWAS", ("T8",), "tau* / tau*'"),
    ("SWAS", ("P9", "L14"), "tau* (restricted classes)"),
)


def report_table(results):
    """Human-readable semantics-by-translation summary matrix."""
    by_check = {}
    for r in results:
        if not r.skipped:
            by_check.setdefault(r.check_id, []).append(r.ok)
    lines = []
    header = f"{'semantics':<10}" + "".join(f"{c[0]:>8}" for c in TABLE_COLS)
    lines.append(header)
    row = f"{'verified':<10}"
    for _, checks, _ in TABLE_COLS:
        outcomes = [ok for c in checks for ok in by_check.get(c, [])]
        cell = "-" if not outcomes else ("ok" if all(outcomes) else "FAIL")
        row += f"{cell:>8}"
    lines.append(row)
    lines.append("")
    lines.append(f"{'check':<8}{'pass':>6}{'fail':>6}{'skip':>6}  description")
    for cid, spec in CHECKS.items():
        rs = [r for r in results if r.check_id == cid]
        if not rs:
            continue
        npass = sum(1 for r in rs if r.ok and not r.skipped)
        nfail = sum(1 for r in rs if not r.ok)
        nskip = sum(1 for r in rs if r.skipped)
        lines.append(f"{cid:<8}{npass:>6}{nfail:>6}{nskip:>6}  {spec.description}")
    return "\n".join(lines)
