"""Span tracing of dlbridge's layers, installed from outside the package.

`Tracer.prepare()` builds a wrapper for each traced function and finds every
name that holds it; `install()` swaps the wrappers in and `uninstall()` puts
the originals back.  Module-level functions are swapped in every loaded
dlbridge module whose namespace binds them, which catches callers that
imported the function by name (`semantics` binds `classify`, `verify` binds
`pi`, `get_context` and `enumerate_answer_sets`).  Methods are swapped on
their class.

Each wrapper records a span: name, start, end, parent span and the op it
belongs to.  Every thread keeps its own parent stack, because verify runs
its checks on a thread pool.  Per-span-name counts, self time (duration
minus the time covered by child spans in the same thread) and inclusive
time accumulate per thread and are merged when the run ends.  Times are
wall-clock, so a span that waits for the interpreter lock counts the wait.
The first `span_limit` raw spans are kept in memory for the trace file.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref
from itertools import count

_now = time.perf_counter_ns

MODULES = (
    "parser", "syntax", "generator", "ontology", "fol", "dleval",
    "semantics", "transforms", "defaults", "verify",
)
CHECK_IDS = ("T3", "T4", "P3", "P6", "T5", "T6", "T8", "P9", "L14", "P2", "P13", "SW", "CHAIN")

# (span name, per-layer metrics derived from it); groups sum every span
# whose name starts with "<group>."
_COUNTED = {
    "parser.parse": ("calls", "self_s"),
    "syntax.herbrand_base": ("calls", "self_s"),
    "generator.generate_program": ("calls", "self_s"),
    "ontology.ground": ("calls", "self_s"),
    "ontology.o_entails": ("calls", "self_s"),
    "fol.entails": ("calls", "self_s"),
    "fol.covers": ("calls", "self_s"),
    "fol.entails_exhaustive": ("calls", "self_s"),
    "fol.entails_refutation": ("calls", "self_s"),
    "fol.consistent": ("calls", "self_s"),
    "fol.universe_for": ("calls",),
    "dleval.dl_satisfies": ("calls", "self_s"),
    "dleval.classify": ("calls", "self_s"),
    "dleval.is_monotonic": ("calls", "self_s"),
    "dleval.up_to_satisfies": ("calls", "self_s"),
    "semantics.enumerate_answer_sets": ("calls", "self_s", "total_s"),
    "semantics.is_answer_set": ("calls", "self_s", "total_s"),
    "semantics.reduct": ("calls", "self_s"),
    "semantics.fixpoint": ("calls", "self_s"),
    "transforms.rewrite": ("calls", "self_s"),
    "defaults.encode": ("calls", "self_s"),
    "defaults.enumerate_extensions": ("calls", "self_s"),
    "defaults.is_extension": ("calls", "self_s", "total_s"),
    "defaults.gamma_closure": ("calls", "self_s"),
    "verify.run_check": ("calls", "self_s", "total_s"),
    "verify.shrink": ("calls",),
}
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def per_layer_spec():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span, fields in _COUNTED.items():
        out += [(f"{span}.{f}", _UNITS[f]) for f in fields]
        if span == "parser.parse":
            out.append(("parser.parse.bytes_per_s", "B/s"))
        elif span in ("ontology.o_entails", "fol.universe_for", "dleval.dl_satisfies"):
            out.append((f"{span}.hit_ratio", "ratio"))
        elif span in ("fol.entails_exhaustive", "fol.entails_refutation"):
            out.append((f"{span}.universe_atoms_max", "count"))
        elif span == "dleval.up_to_satisfies":
            out += [("dleval.context.created", "count"), ("dleval.context.reused", "count"),
                    ("dleval.context.reuse_ratio", "ratio")]
        elif span == "semantics.is_answer_set":
            out.append(("semantics.answer_yield", "ratio"))
        elif span == "defaults.gamma_closure":
            out.append(("defaults.extension_yield", "ratio"))
    out += [(f"verify.check.{c}.total_s", "s") for c in CHECK_IDS]
    out += [(f"layer.{m}.self_share", "ratio") for m in MODULES]
    out += [("trace.op_s", "s"), ("trace.unattributed_share", "ratio"), ("trace.overhead", "ratio")]
    return out


class _ThreadState:
    __slots__ = ("stack", "stats", "edges", "extra", "ident")

    def __init__(self):
        self.stack = []  # frames: [name, child_ns, span id]
        self.stats = {}  # span name -> [calls, self_ns, total_ns]
        self.edges = {}  # (parent span name, span name) -> calls
        self.extra = {}  # counter name -> number
        self.ident = threading.get_ident()


class Tracer:
    def __init__(self, span_limit=20_000):
        self.span_limit = span_limit
        self.spans = []  # (id, parent id, name, op, thread, start_ns, end_ns)
        self.op = None
        self.op_ns = 0
        self.covered_ns = 0
        self._roots = []  # (start_ns, end_ns) of spans with no parent, this op
        self._op_start = 0
        self._ids = count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []
        self._seen_universes = weakref.WeakSet()
        self._seen_contexts = weakref.WeakSet()

    # -- ops ---------------------------------------------------------------

    def begin_op(self, index):
        self.op = index
        self._roots = []
        self._op_start = _now()

    def end_op(self):
        end = _now()
        self.op_ns += end - self._op_start
        self.covered_ns += _union_ns(self._roots, self._op_start, end)
        self.op = None

    # -- spans -------------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [name, 0, next(tracer._ids)]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                dur = t1 - t0
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur - frame[1]
                rec[2] += dur
                if parent is None:
                    tracer._roots.append((t0, t1))
                    edge = (None, name)
                else:
                    parent[1] += dur
                    edge = (parent[0], name)
                st.edges[edge] = st.edges.get(edge, 0) + 1
                if len(tracer.spans) < tracer.span_limit:
                    tracer.spans.append((frame[2], parent and parent[2], name, tracer.op,
                                         st.ident, t0, t1))
            if after is not None:
                after(st, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks -------------------------------------------------------------

    @staticmethod
    def _bump(st, key, value=1):
        st.extra[key] = st.extra.get(key, 0) + value

    def _parsed_bytes(self, st, args, kwargs, result, dur):
        text = args[0] if args else kwargs.get("text", "")
        self._bump(st, "parser.parse.bytes", len(text.encode() if isinstance(text, str) else text))

    def _universe_size(self, span):
        def after(st, args, kwargs, result, dur):
            universe = args[2] if len(args) > 2 else kwargs.get("universe")
            if universe is not None:
                key = f"{span}.universe_atoms_max"
                st.extra[key] = max(st.extra.get(key, 0), len(universe))
        return after

    def _seen_before(self, seen, key):
        def after(st, args, kwargs, result, dur):
            with self._lock:
                hit = result in seen
                seen.add(result)
            if hit:
                self._bump(st, key)
        return after

    def _accepted(self, key):
        def after(st, args, kwargs, result, dur):
            if result:
                self._bump(st, key)
        return after

    def _per_check(self, st, args, kwargs, result, dur):
        check_id = args[0] if args else kwargs["check_id"]
        self._bump(st, f"verify.check.{check_id}.total_ns", dur)

    # -- install -----------------------------------------------------------

    def _targets(self):
        from dlbridge import (defaults, dleval, fol, generator, ontology, parser, semantics,
                              syntax, transforms, verify)

        return [
            (parser, "parse_program", "parser.parse.program", self._parsed_bytes),
            (parser, "parse_ontology", "parser.parse.ontology", self._parsed_bytes),
            (syntax, "herbrand_base", "syntax.herbrand_base", None),
            (generator, "generate_program", "generator.generate_program", None),
            (ontology, "ground", "ontology.ground", None),
            (ontology, "o_entails", "ontology.o_entails", None),
            (fol, "entails", "fol.entails", None),
            (fol.AtomUniverse, "covers", "fol.covers", None),
            (fol, "entails_exhaustive", "fol.entails_exhaustive",
             self._universe_size("fol.entails_exhaustive")),
            (fol, "entails_refutation", "fol.entails_refutation",
             self._universe_size("fol.entails_refutation")),
            (fol, "consistent", "fol.consistent", None),
            (fol, "universe_for", "fol.universe_for",
             self._seen_before(self._seen_universes, "fol.universe_for.hits")),
            (dleval.EvalContext, "dl_satisfies", "dleval.dl_satisfies", None),
            (dleval, "classify", "dleval.classify", None),
            (dleval, "is_monotonic", "dleval.is_monotonic", None),
            (dleval, "up_to_satisfies", "dleval.up_to_satisfies", None),
            (dleval, "get_context", "dleval.get_context",
             self._seen_before(self._seen_contexts, "dleval.context.reused")),
            (semantics, "enumerate_answer_sets", "semantics.enumerate_answer_sets", None),
            (semantics, "is_answer_set", "semantics.is_answer_set",
             self._accepted("semantics.answers")),
            (semantics, "strong_transform", "semantics.reduct.strong", None),
            (semantics, "weak_transform", "semantics.reduct.weak", None),
            (semantics, "flp_reduct", "semantics.reduct.flp", None),
            (semantics, "negation_reduct", "semantics.reduct.negation", None),
            (semantics, "lfp_gamma", "semantics.fixpoint.lfp_gamma", None),
            (semantics, "tk_lfp", "semantics.fixpoint.tk_lfp", None),
            (transforms, "pi", "transforms.rewrite.pi", None),
            (transforms, "pi_star", "transforms.rewrite.pi_star", None),
            (transforms, "sigma", "transforms.rewrite.sigma", None),
            (transforms, "pi_prime", "transforms.rewrite.pi_prime", None),
            (defaults, "encode", "defaults.encode", None),
            (defaults.ExtensionEngine, "enumerate_extensions", "defaults.enumerate_extensions", None),
            (defaults.ExtensionEngine, "is_extension", "defaults.is_extension",
             self._accepted("defaults.extensions")),
            (defaults.ExtensionEngine, "gamma_closure", "defaults.gamma_closure", None),
            (verify, "run_check", "verify.run_check", self._per_check),
            (verify, "shrink", "verify.shrink", None),
        ]

    def prepare(self):
        """Build the wrappers and find every name that holds a traced function."""
        modules = [m for k, m in sys.modules.items() if k == "dlbridge" or k.startswith("dlbridge.")]
        for owner, attr, name, after in self._targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, after=after)
            owners = [owner] if isinstance(owner, type) else modules
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def merged(self):
        """(stats, edges, extra) summed over threads."""
        stats, edges, extra = {}, {}, {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, rec in st.stats.items():
                acc = stats.setdefault(name, [0, 0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
            for k, v in st.edges.items():
                edges[k] = edges.get(k, 0) + v
            for k, v in st.extra.items():
                extra[k] = max(extra.get(k, 0), v) if k.endswith("_max") else extra.get(k, 0) + v
        return stats, edges, extra

    def metrics(self, overhead):
        """Every per-layer metric as name -> (value, unit).

        `overhead` is the traced twins' time over the untraced ops' time.
        """
        stats, edges, extra = self.merged()

        def group(prefix):
            acc = [0, 0, 0]
            for name, rec in stats.items():
                if name == prefix or name.startswith(prefix + "."):
                    for i, v in enumerate(rec):
                        acc[i] += v
            return acc

        def under(parent, child):
            return sum(v for (p, c), v in edges.items()
                       if c == child and p is not None and p == parent)

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for span, fields in _COUNTED.items():
            calls, self_ns, total_ns = group(span)
            for f, v in (("calls", calls), ("self_s", self_ns / 1e9), ("total_s", total_ns / 1e9)):
                if f in fields:
                    values[f"{span}.{f}"] = v
        parse = group("parser.parse")
        values["parser.parse.bytes_per_s"] = ratio(extra.get("parser.parse.bytes", 0), parse[2] / 1e9)
        oe_calls = group("ontology.o_entails")[0]
        values["ontology.o_entails.hit_ratio"] = 1 - ratio(
            under("ontology.o_entails", "fol.entails"), oe_calls) if oe_calls else 0.0
        ds_calls = group("dleval.dl_satisfies")[0]
        values["dleval.dl_satisfies.hit_ratio"] = 1 - ratio(
            under("dleval.dl_satisfies", "ontology.o_entails"), ds_calls) if ds_calls else 0.0
        values["fol.universe_for.hit_ratio"] = ratio(
            extra.get("fol.universe_for.hits", 0), group("fol.universe_for")[0])
        for span in ("fol.entails_exhaustive", "fol.entails_refutation"):
            values[f"{span}.universe_atoms_max"] = extra.get(f"{span}.universe_atoms_max", 0)
        ctx_calls = group("dleval.get_context")[0]
        reused = extra.get("dleval.context.reused", 0)
        values["dleval.context.created"] = ctx_calls - reused
        values["dleval.context.reused"] = reused
        values["dleval.context.reuse_ratio"] = ratio(reused, ctx_calls)
        values["semantics.answer_yield"] = ratio(
            extra.get("semantics.answers", 0), group("semantics.is_answer_set")[0])
        values["defaults.extension_yield"] = ratio(
            extra.get("defaults.extensions", 0), group("defaults.is_extension")[0])
        for c in CHECK_IDS:
            values[f"verify.check.{c}.total_s"] = extra.get(f"verify.check.{c}.total_ns", 0) / 1e9
        all_self = sum(rec[1] for rec in stats.values())
        for m in MODULES:
            values[f"layer.{m}.self_share"] = ratio(group(m)[1], all_self)
        values["trace.op_s"] = self.op_ns / 1e9
        values["trace.unattributed_share"] = ratio(self.op_ns - self.covered_ns, self.op_ns)
        values["trace.overhead"] = overhead
        return {name: (values[name], unit) for name, unit in per_layer_spec()}


def _union_ns(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
