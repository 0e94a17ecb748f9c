"""Span recorder for the traced benchmark run.

Every listed public function of quiverarr is wrapped from outside, in
every quiverarr module that binds it, so nested calls (``rref`` inside
``betti``, ``os_space`` inside ``j0_star``) are caught too.  Each call
becomes one span: name, op id, parent span, start, end and the counts of
that boundary.  Spans stay in memory until the run ends.
"""

import importlib
import json
import sys
import time

# (module, function) pairs wrapped in the traced run, layer by layer.
BOUNDARIES = (
    ("cli", "main"),
    ("arrangement", "build_graph"),
    ("oscomplex", "os_space"),
    ("oscomplex", "flag_space"),
    ("functors", "j0_star"),
    ("functors", "j0_shriek"),
    ("functors", "s0"),
    ("functors", "macpherson"),
    ("functors", "push_star"),
    ("functors", "push_shriek"),
    ("functors", "restrict"),
    ("functors", "fourier_dual"),
    ("functors", "specialize"),
    ("quiver", "c_plus"),
    ("quiver", "check_quiver"),
    ("quiver", "check_nonresonance_class"),
    ("quiver", "local_ops"),
    ("quiver", "dual"),
    ("linalg", "rref"),
    ("linalg", "rank"),
    ("linalg", "betti"),
    ("linalg", "solve_matrix"),
    ("linalg", "image_basis"),
    ("linalg", "char_poly"),
    ("cohomology", "local_system_cohomology"),
    ("cohomology", "intersection_cohomology"),
    ("equivariant", "build_action"),
    ("equivariant", "equivariant_c_plus"),
    ("equivariant", "equivariant_cohomology"),
    ("liecheck", "kz_check"),
    ("liecheck", "bwb_dims"),
)

STATS = ("calls", "total_s", "self_s")

# Work counts recorded at the boundaries; they repeat exactly for a seed.
COUNTS = (
    "arrangement.strata_sum",
    "oscomplex.space_builds",
    "oscomplex.generators_sum",
    "oscomplex.basis_dim_sum",
    "functors.output_dim_sum",
    "linalg.rref.cells",
    "linalg.char_poly.size_sum",
    "equivariant.group_order_sum",
    "equivariant.group_law_products",
)

# Space classes whose construction is a cache miss of os_space/flag_space.
SPACE_CLASSES = ("OSBasis", "FlagBasis")


def _output_dim(result):
    """Total dimension of the quiver a functor returns."""
    if isinstance(result, tuple):          # specialize: (quiver, classes)
        result = result[0]
    result = getattr(result, "quiver", result)   # MacPhersonResult
    result = getattr(result, "target", result)   # QuiverMorphism (s0)
    return result.total_dim()


def _counter(name):
    """The counts one call at boundary `name` contributes, from its
    arguments and result."""
    module = name.split(".")[0]
    if name == "arrangement.build_graph":
        return lambda args, res: {"arrangement.strata_sum": len(res.vertices)}
    if name == "linalg.rref":
        return lambda args, res: {"linalg.rref.cells": args[0].rows * args[0].cols}
    if name == "linalg.char_poly":
        return lambda args, res: {"linalg.char_poly.size_sum": args[0].rows}
    if name == "equivariant.build_action":
        return lambda args, res: {"equivariant.group_order_sum": res.order}
    if name == "equivariant.equivariant_c_plus":
        # the |G|^2 composition check runs once per degree
        return lambda args, res: {"equivariant.group_law_products":
                                  len(res[1]) ** 2 * len(res[0].dims)}
    if module == "functors":
        return lambda args, res: {"functors.output_dim_sum": _output_dim(res)}
    return None


class Tracer:
    """In-memory spans.  A span is [name, op, parent, start, end, counts];
    parent is the index of the enclosing span, -1 for none.  Boundaries
    record only inside an open span, so the benchmark's own checks between
    ops stay out of the trace."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.op = -1

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)

    def close(self, counts=None):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[4] = time.perf_counter()
        if counts:
            self.add_counts(counts, idx)

    def add_counts(self, counts, idx=None):
        """Attach counts to span idx, default the innermost open span."""
        if idx is None:
            if not self._stack:
                return
            idx = self._stack[-1]
        span = self.spans[idx]
        if span[5] is None:
            span[5] = {}
        for k, v in counts.items():
            span[5][k] = span[5].get(k, 0) + v

    def _wrap(self, name, fn):
        counter = _counter(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:           # outside an op, e.g. in a check
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close()
                raise
            tracer.close(counter(args, result) if counter else None)
            return result

        return traced

    def _wrap_init(self, cls):
        init = cls.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer.add_counts({"oscomplex.space_builds": 1,
                               "oscomplex.generators_sum": len(obj.generators),
                               "oscomplex.basis_dim_sum": obj.dim})

        return init, counted_init

    def install(self):
        """Replace every binding of each boundary function in the loaded
        quiverarr modules with its traced wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "quiverarr" or n.startswith("quiverarr.")]
        for module_name, fn_name in BOUNDARIES:
            home = importlib.import_module("quiverarr." + module_name)
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)
        oscomplex = importlib.import_module("quiverarr.oscomplex")
        for cls_name in SPACE_CLASSES:
            cls = getattr(oscomplex, cls_name)
            init, counted = self._wrap_init(cls)
            self._patched.append((cls, "__init__", init))
            cls.__init__ = counted

    def uninstall(self):
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def durations(self):
        """Per span: (duration, self time), where self time is the
        duration minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end, counts in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[4] - s[3], s[4] - s[3] - child[i])
                for i, s in enumerate(self.spans)]

    def summary(self):
        """calls / total_s / self_s per boundary, and the count totals."""
        out = {}
        for module_name, fn_name in BOUNDARIES:
            for stat in STATS:
                out[f"{module_name}.{fn_name}.{stat}"] = 0
        for name in COUNTS:
            out[name] = 0
        for span, (dur, self_t) in zip(self.spans, self.durations()):
            name, counts = span[0], span[5]
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.total_s"] += dur
                out[f"{name}.self_s"] += self_t
            for k, v in (counts or {}).items():
                out[k] += v
        return out

    def self_time_by_name(self, ops=None):
        """Self seconds per span name, over all ops or the given op ids."""
        out = {}
        for span, (_, self_t) in zip(self.spans, self.durations()):
            if ops is None or span[1] in ops:
                out[span[0]] = out.get(span[0], 0.0) + self_t
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, start, end, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op,
                                     "parent": parent, "start": start,
                                     "end": end, "counts": counts or {}},
                                    sort_keys=True) + "\n")
