"""Spans around calls into the program's public functions, installed from
outside the program.

Each wrapper is patched where its caller looks the name up: methods on
their class, module functions on every module that binds them by name
(`glue` binds `a_inv` and `apply_functional`, `smoothing` binds
`build_X`). A call records a span with its name, start, end and parent.
Spans named in HIGH_FREQUENCY are aggregated per (name, parent) in memory;
every other span is also kept as a record. Self time is a span's duration
minus the time its direct child spans cover.
"""

import json
import math
import time
from collections import defaultdict

# called once per tuple or per chart evaluation: kept only as aggregates
HIGH_FREQUENCY = frozenset({
    "dyadic.PLMap.images", "dyadic.Tuple_.apply",
    "smoothing.PsiModel.value", "smoothing.PsiModel.inverse",
    "smoothing.PsiModel.iterate", "smoothing.SmoothGenerator.call",
    "wiener.inv", "wiener.apply_functional", "wiener.a_inv",
    "glue.q_glue", "wiener.density",
})


def size(x):
    """Number of points in a scalar, a sequence or an array."""
    shape = getattr(x, "shape", None)
    if shape is not None:
        return math.prod(shape)
    return len(x) if hasattr(x, "__len__") else 1


def _paths(xi):
    return math.prod(xi.shape[:-1])


POINTS_OF_ARG1 = {"points": lambda args, result: size(args[1])}


class Tracer:
    """Span recorder for one traced round; `install` patches, `remove`
    restores every patched attribute."""

    def __init__(self):
        self._stack = []        # open spans: [name, start, child_s, id]
        self._next_id = 1
        self.stats = defaultdict(lambda: defaultdict(float))
        self.by_parent = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
        self.records = []       # (id, parent id, name, start, end)
        self.bytes = defaultdict(int)   # stage -> path bytes passed in
        self._patched = []

    # -- spans ---------------------------------------------------------

    def begin(self, name):
        span = [name, time.perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(span)

    def end(self, counts=()):
        end = time.perf_counter()
        name, start, child_s, sid = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        s = self.stats[name]
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child_s
        for key, value in counts:
            s[key] += value
        p = self.by_parent[(name, parent[0] if parent else "")]
        p["calls"] += 1
        p["total_s"] += dur
        p["self_s"] += dur - child_s
        if name not in HIGH_FREQUENCY:
            self.records.append((sid, parent[3] if parent else 0, name,
                                 start, end))

    def stage(self):
        """Name of the outermost open span (the benchmark stage)."""
        return self._stack[0][0] if self._stack else ""

    def wrap(self, name, fn, counters=(), path_bytes=None):
        """fn inside a span. counters maps a counter name to f(args, result),
        added to the span's totals; path_bytes(args) is the path data one
        call is given, added to the total of the current stage."""
        tracer = self
        counters = tuple(dict(counters).items())

        def traced(*args, **kwargs):
            tracer.begin(name)
            counts = []
            try:
                result = fn(*args, **kwargs)
                counts = [(k, f(args, result)) for k, f in counters]
                return result
            finally:
                if path_bytes is not None:
                    tracer.bytes[tracer.stage()] += path_bytes(args)
                tracer.end(counts)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owners, attr, name, **kw):
        """Replace attr on every owner (class or module) by one wrapper."""
        fn = getattr(owners[0], attr)
        wrapped = self.wrap(name, fn, **kw)
        for owner in owners:
            self._patched.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def patch_instance(self, obj, attr, name, **kw):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), **kw))

    def install(self, layers):
        """Patch the public functions of the given program layers."""
        if "dyadic" in layers:
            from thompsonlab import dyadic
            self.patch([dyadic.PLMap], "images", "dyadic.PLMap.images",
                       counters=POINTS_OF_ARG1)
            self.patch([dyadic.Tuple_], "apply", "dyadic.Tuple_.apply")
        if "folner" in layers:
            from thompsonlab import counting, folner
            self.patch([counting], "enumerate_orbit",
                       "counting.enumerate_orbit")
            owners = [folner]
            if "smoothing" in layers:
                from thompsonlab import smoothing
                owners.append(smoothing)
            self.patch(owners, "build_X", "folner.build_X", counters={
                "tuples": lambda a, r: len(r),
                "coords": lambda a, r: len(r) * r.tuple_length()})
            for attr in ("build_Yln", "kappa_set", "folner_ratio",
                         "kappa_equivariance_check",
                         "grid_containment_holds"):
                self.patch([folner], attr, "folner." + attr)
        if "smoothing" in layers:
            from thompsonlab import smoothing as sm
            self.patch([sm.PsiModel], "value", "smoothing.PsiModel.value",
                       counters=POINTS_OF_ARG1)
            self.patch([sm.PsiModel], "inverse",
                       "smoothing.PsiModel.inverse",
                       counters=POINTS_OF_ARG1)
            self.patch([sm.PsiModel], "iterate",
                       "smoothing.PsiModel.iterate")
            self.patch([sm.SmoothGenerator], "__call__",
                       "smoothing.SmoothGenerator.call",
                       counters=POINTS_OF_ARG1)
            self.patch([sm.SmoothGenerator], "inverse",
                       "smoothing.SmoothGenerator.inverse")
            self.patch([sm.SymbolicZ], "realize", "smoothing.SymbolicZ.realize")
            self.patch([sm.SymbolicZ], "sample", "smoothing.SymbolicZ.sample")
            for attr in ("lemma6_verify", "lemma7_constant"):
                self.patch([sm], attr, "smoothing." + attr)
        if "glue" in layers:
            from thompsonlab import glue
            for attr in ("q_glue", "L_estimator"):
                self.patch([glue], attr, "glue." + attr)
        if "wiener" in layers:
            from thompsonlab import wiener as w
            owners = [w]
            if "glue" in layers:
                from thompsonlab import glue
                owners.append(glue)
            self.patch(owners, "a_inv", "wiener.a_inv",
                       counters={"paths": lambda a, r: _paths(a[0])},
                       path_bytes=lambda a: a[0].nbytes)
            self.patch(owners, "apply_functional", "wiener.apply_functional")
            self.patch([w], "endpoint_derivatives",
                       "wiener.endpoint_derivatives",
                       path_bytes=lambda a: a[0].nbytes)
            for attr in ("density", "moment_test", "quasi_invariance_test",
                         "concentration_test", "constants"):
                self.patch([w], attr, "wiener." + attr)

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------

    def dump(self, path, meta):
        """Write the span records and the per-parent aggregates as JSON."""
        doc = {
            "meta": meta,
            "spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                      for i, p, n, s, e in self.records],
            "aggregates": [{"name": n, "parent": p, **v}
                           for (n, p), v in sorted(self.by_parent.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
