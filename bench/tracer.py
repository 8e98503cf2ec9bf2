"""Per-layer spans and counters recorded from outside the library.

The tracer rebinds every module-level name that refers to a traced
function (the defining module, the modules that import it, and the
package namespace), so calls between reachkit modules pass through a
span. Spans nest on a stack: a span's self time is its duration minus the
time covered by its child spans. Everything is restored on exit.
"""

import importlib
import inspect
import logging
import sys
import time
from pathlib import Path

import numpy as np

# (metric prefix, defining module, attribute); methods are "Class.method"
TARGETS = (
    ("lti.expm_grid", "reachkit.lti", "expm_grid"),
    ("lti.matrix_exponential", "reachkit.lti", "matrix_exponential"),
    ("lti.convolution_integral", "reachkit.lti", "convolution_integral"),
    ("boundary.bang_bang_control", "reachkit.boundary", "bang_bang_control"),
    ("boundary.switch_count", "reachkit.boundary", "switch_count"),
    ("boundary.boundary_curve", "reachkit.boundary", "boundary_curve"),
    ("gramian.reachability_gramian", "reachkit.gramian", "reachability_gramian"),
    ("lpreach.sample_reach", "reachkit.lpreach", "sample_reach"),
    ("lpreach.prop2_bound", "reachkit.lpreach", "prop2_bound"),
    ("lpreach.cloud_to_csv", "reachkit.lpreach", "cloud_to_csv"),
    ("geometry.convex_hull", "reachkit.geometry", "convex_hull"),
    ("design.optimize", "reachkit.design", "optimize"),
    ("design.residual.gramian_trace", "reachkit.design", "GramianTraceConstraint.residual"),
    ("design.residual.lp_volume", "reachkit.design", "LpVolumeConstraint.residual"),
    ("cli.main", "reachkit.cli", "main"),
)

# metric name -> (unit, span prefixes it needs)
METRICS = {
    "lti.expm_grid.calls": ("count", ["lti.expm_grid"]),
    "lti.expm_grid.self_s": ("s", ["lti.expm_grid"]),
    "lti.expm_grid.nodes": ("count", ["lti.expm_grid"]),
    "lti.expm_grid.distinct_frac": ("frac", ["lti.expm_grid"]),
    "lti.matrix_exponential.calls": ("count", ["lti.matrix_exponential"]),
    "lti.matrix_exponential.self_s": ("s", ["lti.matrix_exponential"]),
    "lti.convolution_integral.calls": ("count", ["lti.convolution_integral"]),
    "lti.convolution_integral.self_s": ("s", ["lti.convolution_integral"]),
    "boundary.bang_bang_control.self_s": ("s", ["boundary.bang_bang_control"]),
    "boundary.switch_count.self_s": ("s", ["boundary.switch_count"]),
    "boundary.switches": ("count", ["boundary.bang_bang_control"]),
    "boundary.boundary_curve.self_s": ("s", ["boundary.boundary_curve"]),
    "gramian.reachability_gramian.calls": ("count", ["gramian.reachability_gramian"]),
    "gramian.reachability_gramian.self_s": ("s", ["gramian.reachability_gramian"]),
    "lpreach.sample_reach.calls": ("count", ["lpreach.sample_reach"]),
    "lpreach.sample_reach.self_s": ("s", ["lpreach.sample_reach"]),
    "lpreach.costates": ("count", ["lpreach.sample_reach"]),
    "lpreach.costate_nodes": ("count", ["lpreach.sample_reach"]),
    "lpreach.reachable_frac": ("frac", ["lpreach.sample_reach"]),
    "lpreach.certified_frac": ("frac", ["lpreach.sample_reach"]),
    "lpreach.prop2_bound.calls": ("count", ["lpreach.prop2_bound"]),
    "lpreach.prop2_bound.self_s": ("s", ["lpreach.prop2_bound"]),
    "lpreach.cloud_to_csv.self_s": ("s", ["lpreach.cloud_to_csv"]),
    "geometry.convex_hull.calls": ("count", ["geometry.convex_hull"]),
    "geometry.convex_hull.self_s": ("s", ["geometry.convex_hull"]),
    "geometry.hull_points": ("count", ["geometry.convex_hull"]),
    "geometry.hull_vertices": ("count", ["geometry.convex_hull"]),
    "geometry.degenerate_frac": ("frac", ["geometry.convex_hull"]),
    "design.optimize.self_s": ("s", ["design.optimize"]),
    "design.residual_evals": ("count", ["design.residual.gramian_trace",
                                        "design.residual.lp_volume"]),
    "design.outer_iters": ("count", ["design.optimize"]),
    "design.degenerate_evals": ("count", ["design.residual.lp_volume"]),
    "design.penalty_evals": ("count", ["design.optimize"]),
    "cli.main.self_s": ("s", ["cli.main"]),
    "cli.bytes_written": ("B", ["cli.main"]),
}


def _count_penalties(tracer):
    class Handler(logging.Handler):
        def emit(self, record):
            if str(record.msg).startswith("evaluation failed"):
                tracer.counts["penalty_evals"] += 1

    return Handler(level=logging.WARNING)


class Tracer:
    """Context manager that wraps TARGETS and accumulates spans and counts."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = dict.fromkeys(
            ["nodes", "switches", "costates", "costate_nodes", "reachable", "certified",
             "hull_points", "hull_vertices", "degenerate_hulls", "outer_iters",
             "degenerate_evals", "penalty_evals", "bytes_written"], 0)
        self.grid_keys = set()
        self.missing = {}
        self._stack = []
        self._patches = []
        self._volume_constraints = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name, fn, after):
        tracer = self
        signature = inspect.signature(fn) if after is not None else None

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + elapsed - frame[0]
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if after is not None:
                hook_start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
                # the counter itself is tracing overhead, not the caller's self time
                if tracer._stack:
                    tracer._stack[-1][0] += time.perf_counter() - hook_start
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters taken at the span boundaries ----------------------------

    def _after(self, name):
        c = self.counts

        def expm_grid(a, out):
            c["nodes"] += int(a["num"])
            key = np.ascontiguousarray(a["A"], dtype=float).tobytes()
            self.grid_keys.add((key, float(a["t0"]), float(a["t1"]), int(a["num"])))

        def bang_bang(a, out):
            c["switches"] += len(out.switch_times)

        def sample_reach(a, out):
            rows = len(out.samples)
            c["costates"] += rows
            c["costate_nodes"] += rows * int(a["nodes"])
            c["reachable"] += sum(s.reachable for s in out.samples)
            c["certified"] += sum(s.within_prop2_bound for s in out.samples)

        def convex_hull(a, out):
            c["hull_points"] += len(a["points"])
            c["hull_vertices"] += len(out.vertices)
            c["degenerate_hulls"] += bool(out.degenerate)

        def optimize(a, out):
            c["outer_iters"] += out.iterations

        def cli_main(a, out):
            argv = a["argv"]
            out_dir = Path(argv[argv.index("--out") + 1])
            if out_dir.is_dir():
                c["bytes_written"] += sum(f.stat().st_size for f in out_dir.iterdir())

        return {
            "lti.expm_grid": expm_grid,
            "boundary.bang_bang_control": bang_bang,
            "lpreach.sample_reach": sample_reach,
            "geometry.convex_hull": convex_hull,
            "design.optimize": optimize,
            "cli.main": cli_main,
        }.get(name)

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        owners = {}
        for module_name in {t[1] for t in TARGETS}:
            try:
                owners[module_name] = importlib.import_module(module_name)
            except ImportError:
                owners[module_name] = None
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "reachkit" or k.startswith("reachkit."))]
        for name, module_name, attr in TARGETS:
            owner = owners[module_name]
            cls_name, _, meth = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            original = getattr(holder, meth, None) if holder is not None else None
            if original is None:
                self.missing[name] = f"binding {module_name}.{attr} not found"
                continue
            wrapped = self._wrap(name, original, self._after(name))
            if cls_name:
                self._patch(holder, meth, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        design = sys.modules.get("reachkit.design")
        lp_cls = getattr(design, "LpVolumeConstraint", None)
        if lp_cls is not None:
            init = lp_cls.__init__
            registry = self._volume_constraints

            def register(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                registry.append(obj)

            self._patch(lp_cls, "__init__", register)
        self._handler = _count_penalties(self)
        logging.getLogger("reachkit.design").addHandler(self._handler)
        return self

    def _patch(self, holder, key, value):
        self._patches.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, value)

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()
        logging.getLogger("reachkit.design").removeHandler(self._handler)
        self.counts["degenerate_evals"] = sum(
            getattr(c, "degenerate_evaluations", 0) for c in self._volume_constraints)
        return False

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metric dict; metrics whose binding is missing are null."""
        c = self.counts

        def frac(num, den):
            return num / den if den else 0.0

        derived = {
            "lti.expm_grid.nodes": c["nodes"],
            "lti.expm_grid.distinct_frac": frac(len(self.grid_keys),
                                                self.calls.get("lti.expm_grid", 0)),
            "boundary.switches": c["switches"],
            "lpreach.costates": c["costates"],
            "lpreach.costate_nodes": c["costate_nodes"],
            "lpreach.reachable_frac": frac(c["reachable"], c["costates"]),
            "lpreach.certified_frac": frac(c["certified"], c["costates"]),
            "geometry.hull_points": c["hull_points"],
            "geometry.hull_vertices": c["hull_vertices"],
            "geometry.degenerate_frac": frac(c["degenerate_hulls"],
                                             self.calls.get("geometry.convex_hull", 0)),
            "design.residual_evals": sum(self.calls.get(n, 0)
                                         for n in METRICS["design.residual_evals"][1]),
            "design.outer_iters": c["outer_iters"],
            "design.degenerate_evals": c["degenerate_evals"],
            "design.penalty_evals": c["penalty_evals"],
            "cli.bytes_written": c["bytes_written"],
        }
        out = {}
        for name, (unit, needs) in METRICS.items():
            missing = [self.missing[n] for n in needs if n in self.missing]
            span, _, field = name.rpartition(".")
            if missing:
                out[name] = {"value": None, "unit": unit, "reason": "; ".join(missing)}
            elif name in derived:
                out[name] = {"value": derived[name], "unit": unit}
            elif field == "calls":
                out[name] = {"value": self.calls.get(span, 0), "unit": unit}
            else:
                out[name] = {"value": self.self_s.get(span, 0.0), "unit": unit}
        return out
