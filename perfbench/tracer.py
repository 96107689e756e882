"""Per-layer tracing from outside the engine.

The engine has no spans of its own yet, so the benchmark wraps the public
functions of each layer module of src/lieram (cli, scalars, rootdata, weyl,
modular, quantum).  A wrapper is installed in every lieram module namespace
that bound the original function object (`from .weyl import enumerate_group`
binds it again in modular, quantum, cli and selftest), so calls from any
module are seen; every original is restored afterwards.

Most wrapped functions record a span (name, start, end, parent, query id).
Functions called per root or per point record only a count, and their time
stays in the calling span: rootdata.pair, quantum.root_value and the two
Weyl-action methods WeylElement.act_values / act_torus_exponents (the
transport steps).  Spans are kept in memory and written as JSON lines when
the run ends.  Self time of a span is its duration minus its child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "scalars", "rootdata", "weyl", "modular", "quantum")

# hot leaf functions: count the calls, leave the time to the caller's span
COUNT_ONLY = {"rootdata.pair", "rootdata.two_rho_dot", "quantum.root_value"}

# (module, class, attribute, counter name): methods counted, not spanned
METHOD_COUNTS = [
    ("weyl", "WeylElement", "act_values", "weyl.act_values"),
    ("weyl", "WeylElement", "act_torus_exponents", "weyl.act_torus_exponents"),
    ("scalars", "FieldDescriptor", "__init__", "scalars.fields_built"),
]

# constructors that do layer work (Levi classification of a character)
CLASS_SPANS = [("modular", "PChar"), ("quantum", "QChar")]

# work counters read off a function's result
RESULT_COUNTS = {
    "weyl.enumerate_group": ("weyl.group_elements", len),
    "weyl.orbit_of": ("weyl.orbit_points_visited", len),
    "weyl.orbit_partition": ("weyl.orbit_points_kept", lambda r: sum(map(len, r))),
    "modular.mod_blocks": ("modular.blocks", len),
    "modular.enumerate_lambda_chi": ("modular.lambda_points", lambda r: len(r[0])),
    "quantum.ell_fiber": ("quantum.fiber_points", len),
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, query id]
        self.stack = []
        self.counts = collections.Counter()
        self.qid = None
        self._saved = []
        self._all_restored = True

    # -- installation ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        hook = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                counts[hook[0]] += hook[1](result)
            return result
        return functools.update_wrapper(wrapper, fn)

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def _swap(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"lieram.{layer}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "lieram" or n.startswith("lieram.")]
        for layer in LAYERS:
            mod = sys.modules[f"lieram.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = (self._count_wrapper(f"{name}.calls", fn) if name in COUNT_ONLY
                           else self._span_wrapper(name, fn))
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            self._swap(m, a, wrapper)
        for layer, cls_name, attr, counter in METHOD_COUNTS:
            cls = getattr(sys.modules[f"lieram.{layer}"], cls_name)
            self._swap(cls, attr, self._count_wrapper(counter, cls.__dict__[attr]))
        for layer, cls_name in CLASS_SPANS:
            cls = getattr(sys.modules[f"lieram.{layer}"], cls_name)
            self._swap(cls, "__init__",
                       self._span_wrapper(f"{layer}.{cls_name}", cls.__dict__["__init__"]))

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
            self._all_restored &= owner.__dict__[attr] is old

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return not self._saved and self._all_restored

    # -- recording ----------------------------------------------------------

    def root(self, qid, name="query"):
        """Open a root span for one query; use as a context manager."""
        return _Root(self, qid, name)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": qid}) + "\n")

    # -- aggregation ---------------------------------------------------------

    def mark(self):
        """A point to split totals at: (span count, copy of the counters)."""
        return len(self.spans), collections.Counter(self.counts)

    def totals(self, start=(0, None), end=None):
        """Totals of the spans and counters between two marks: calls and
        inclusive seconds per name, self seconds per layer, the counters, and
        the eta_subsystems calls made inside mod_blocks."""
        spans = self.spans
        lo, base = start
        hi, top = end if end is not None else (len(spans), self.counts)
        child = [0.0] * len(spans)
        in_blocks = [False] * len(spans)
        for i, (name, s0, s1, parent, _q) in enumerate(spans):
            if parent >= 0:
                child[parent] += s1 - s0
                in_blocks[i] = (spans[parent][0] == "modular.mod_blocks"
                                or in_blocks[parent])
        out = collections.Counter(top)
        out.subtract(base or {})
        for i in range(lo, hi):
            name, s0, s1, _p, _q = spans[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += s1 - s0
            out[f"{name.split('.')[0]}.self_s"] += (s1 - s0) - child[i]
            if name == "modular.eta_subsystems" and in_blocks[i]:
                out["modular.eta_subsystems_in_blocks"] += 1
        return out


class _Root:
    def __init__(self, tracer, qid, name):
        self.tracer, self.qid, self.name = tracer, qid, name

    def __enter__(self):
        t = self.tracer
        t.qid = self.qid
        self.rec = [self.name, time.perf_counter(), 0.0, -1, self.qid]
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.qid = None
        return False


# name, unit, better: the per-layer metrics a traced run reports
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("scalars.make_field.calls", "count", "lower"),
    ("scalars.make_field.s", "s", "lower"),
    ("scalars.fields_built", "count", "lower"),
    ("scalars.artin_schreier_solve.calls", "count", "lower"),
    ("scalars.artin_schreier_solve.s", "s", "lower"),
    ("scalars.embed.calls", "count", "lower"),
    ("scalars.embed.s", "s", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("rootdata.build_root_system.s", "s", "lower"),
    ("rootdata.subsystem_classify.calls", "count", "lower"),
    ("rootdata.subsystem_classify.s", "s", "lower"),
    ("rootdata.close_up.calls", "count", "lower"),
    ("rootdata.close_up.s", "s", "lower"),
    ("rootdata.pair.calls", "count", "lower"),
    ("rootdata.self_s", "s", "lower"),
    ("weyl.enumerate_group.calls", "count", "lower"),
    ("weyl.enumerate_group.s", "s", "lower"),
    ("weyl.group_elements", "count", "lower"),
    ("weyl.orbit_partition.s", "s", "lower"),
    ("weyl.orbit_points_visited", "count", "lower"),
    ("weyl.orbit_points_kept", "count", "lower"),
    ("weyl.orbit_useful_ratio", "ratio", "higher"),
    ("weyl.transport_steps", "count", "lower"),
    ("weyl.reflection_stabilizer.calls", "count", "lower"),
    ("weyl.reflection_stabilizer.s", "s", "lower"),
    ("weyl.min_coset_reps.s", "s", "lower"),
    ("weyl.self_s", "s", "lower"),
    ("modular.mod_blocks.s", "s", "lower"),
    ("modular.blocks", "count", "lower"),
    ("modular.lambda_points", "count", "lower"),
    ("modular.poincare_series.calls", "count", "lower"),
    ("modular.poincare_series.s", "s", "lower"),
    ("modular.eta_subsystems.calls", "count", "lower"),
    ("modular.eta_subsystems_per_block", "ratio", "lower"),
    ("modular.finite_type_verdict.s", "s", "lower"),
    ("modular.self_s", "s", "lower"),
    ("quantum.q_blocks.s", "s", "lower"),
    ("quantum.fiber_points", "count", "lower"),
    ("quantum.w_t.calls", "count", "lower"),
    ("quantum.q_unramified.calls", "count", "lower"),
    ("quantum.q_unramified.s", "s", "lower"),
    ("quantum.conjugate_into_delta_tilde.s", "s", "lower"),
    ("quantum.exceptional_elements.s", "s", "lower"),
    ("quantum.verify_appendix_row.s", "s", "lower"),
    ("quantum.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_metrics(setup, queries, rounds, overhead_s):
    """The PER_LAYER values: set-up totals once plus query totals per round."""
    tot = collections.Counter()
    for k, v in setup.items():
        tot[k] += v
    for k, v in queries.items():
        tot[k] += v / rounds
    tot["weyl.transport_steps"] = tot["weyl.act_values"] + tot["weyl.act_torus_exponents"]
    visited = tot["weyl.orbit_points_visited"]
    tot["weyl.orbit_useful_ratio"] = tot["weyl.orbit_points_kept"] / visited if visited else 0.0
    blocks = tot["modular.blocks"]
    tot["modular.eta_subsystems_per_block"] = (
        tot["modular.eta_subsystems_in_blocks"] / blocks if blocks else 0.0)
    tot["trace.overhead_s"] = overhead_s
    return {name: {"value": tot[name], "unit": unit} for name, unit, _ in PER_LAYER}
