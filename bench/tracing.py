"""Layer spans for the traced run, recorded from the benchmark's side.

Each public function or method listed in ``SPANS`` is wrapped once, and
the wrapper is bound in place of the original in every ``manideg``
module namespace that holds it (``from .manifold import
implicit_solve_y`` leaves a second reference in ``manideg.flow``, for
example), so calls between modules are seen as well as calls from the
benchmark.  ``Tracer.install`` fails if any reference escapes.

Spans are aggregated in memory as they close: per span name the call
count, total time, self time (the span's time minus the time of the
child spans it covers) and the number of calls that raised; per
(parent, child) pair the call count.  ``Tracer.snapshot`` copies the
aggregates, and the per-layer metrics are derived from snapshots when
the run ends.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attributes); "Class.method" wraps a method
SPANS = (
    ("expr.parse", "manideg.expr", ("parse",)),
    ("expr.compile", "manideg.expr", ("compile_value", "compile_gradient")),
    ("fields.eval", "manideg.fields", ("AmbientMap.__call__",)),
    ("fields.jac", "manideg.fields", ("AmbientMap.jacobian",)),
    ("degree.degree_sign_sum", "manideg.degree", ("degree_sign_sum",)),
    ("degree.find_zeros", "manideg.degree", ("find_zeros",)),
    ("degree.boundary_min", "manideg.degree", ("boundary_min",)),
    ("degree.winding", "manideg.degree", ("degree_winding_2d",)),
    ("manifold.partial2_sign", "manideg.manifold", ("partial2_sign",)),
    ("manifold.reduced_map", "manideg.manifold", ("reduced_map",)),
    ("manifold.implicit_solve_y", "manideg.manifold", ("implicit_solve_y",)),
    ("manifold.complete_velocity", "manideg.manifold", ("complete_velocity",)),
    ("dae.average_wind", "manideg.dae", ("average_wind",)),
    ("dae.velocity", "manideg.dae", ("ForcedField.velocity",)),
    ("flow.flow_map", "manideg.flow", ("flow_map",)),
    ("flow.projected_step", "manideg.flow", ("projected_step",)),
    ("continuation.trace_branch", "manideg.continuation", ("trace_branch",)),
    ("continuation.correct", "manideg.continuation", ("correct",)),
    ("continuation.shooting_residual", "manideg.continuation",
     ("shooting_residual",)),
    ("problems.parse_problem", "manideg.problems", ("parse_problem",)),
    ("problems.build", "manideg.problems",
     ("Problem.build_constraint", "Problem.build_dae", "Problem.build_phi1",
      "Problem.build_seed_map")),
    ("cli.main", "manideg.cli", ("main",)),
    ("cli.load_problem", "manideg.cli", ("load_problem",)),
)

CALLS, SELF, FAILED = range(3)


def _program_namespaces():
    return [vars(mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "manideg" or name.startswith("manideg."))]


class Tracer:
    """Wraps the program's layer boundaries and aggregates their spans."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.stats = defaultdict(lambda: [0, 0.0, 0])
        self.edges = Counter()
        self.counts = Counter()
        self._stack = []
        self._bindings = []  # (holder, attribute, original)

    # --- recording ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        stat = self.stats[name]
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            edges[(parent[0] if parent else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[FAILED] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                stat[CALLS] += 1
                stat[SELF] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
            if after is not None:
                after(result)
            return result

        return traced

    def _count_starts(self, fn):
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def grid(*args, **kwargs):
            points = fn(*args, **kwargs)
            if stack and stack[-1][0] == "degree.find_zeros":
                counts["degree.starts"] += len(points)
            return points

        return grid

    def runtime_warning(self):
        """Count a RuntimeWarning against the innermost degree span, if any."""
        if any(frame[0].startswith("degree.") for frame in self._stack):
            self.counts["degree.runtime_warnings"] += 1

    # --- binding -----------------------------------------------------------

    def install(self, after=None):
        """Bind every wrapper in place of its original everywhere.

        ``after`` maps span names to callables run on each result, in
        place of the built-in counters.
        """
        namespaces = _program_namespaces()
        hooks = after if after is not None else {
            "degree.find_zeros": lambda zeros: self.counts.update(
                {"degree.zeros": len(zeros)}),
            "flow.flow_map": lambda result: self.counts.update(
                {"flow.steps": result.steps}),
        }
        originals = []
        for name, module, attributes in self.spans:
            mod = sys.modules[module]
            for attribute in attributes:
                if "." in attribute:
                    cls_name, method = attribute.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[method]
                    self._bind(cls, method, self._span(name, original, hooks.get(name)))
                    continue
                original = getattr(mod, attribute)
                wrapper = self._span(name, original, hooks.get(name))
                originals.append(original)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            self._bind(ns, key, wrapper)
        if any(name == "degree.find_zeros" for name, _, _ in self.spans):
            box = sys.modules["manideg.degree"].DomainBox
            self._bind(box, "grid", self._count_starts(box.__dict__["grid"]))
        for ns in _program_namespaces():
            for key, value in ns.items():
                if any(value is original for original in originals):
                    raise RuntimeError(f"untraced reference to {key!r} remains")

    def _bind(self, holder, attribute, wrapper):
        if isinstance(holder, dict):
            self._bindings.append((holder, attribute, holder[attribute]))
            holder[attribute] = wrapper
        else:
            self._bindings.append((holder, attribute, holder.__dict__[attribute]))
            setattr(holder, attribute, wrapper)

    def uninstall(self):
        """Restore every original binding."""
        for holder, attribute, original in reversed(self._bindings):
            if isinstance(holder, dict):
                holder[attribute] = original
            else:
                setattr(holder, attribute, original)
        self._bindings.clear()

    # --- results -------------------------------------------------------------

    def snapshot(self):
        return {
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "edges": {f"{parent}>{child}": n for (parent, child), n in self.edges.items()},
            "counts": dict(self.counts),
        }


def _flatten(snap):
    flat = {}
    for name, stat in snap["stats"].items():
        flat[f"{name}.calls"] = stat[CALLS]
        flat[f"{name}.self_s"] = stat[SELF]
        flat[f"{name}.failed"] = stat[FAILED]
    for key, n in snap["edges"].items():
        flat[f"edge:{key}"] = n
    flat.update(snap["counts"])
    return flat


def per_invocation(setup, final, passes):
    """Traced set-up once plus the mean traced pass, per flattened key."""
    s, f = _flatten(setup), _flatten(final)
    return {key: s.get(key, 0) + (f.get(key, 0) - s.get(key, 0)) / passes
            for key in set(s) | set(f)}


def layer_metrics(flat, wall_s):
    """Per-layer metrics of one cold invocation from its flattened spans.

    ``wall_s`` is the traced set-up time plus the mean traced pass time;
    ``trace.other_s`` is the part of it no layer span covers.
    """
    get = lambda key: flat.get(key, 0)  # noqa: E731
    metrics = {}
    for name, _, _ in SPANS:
        for field in ("calls", "self_s", "failed"):
            metrics[f"{name}.{field}"] = get(f"{name}.{field}")
    starts, zeros = get("degree.starts"), get("degree.zeros")
    metrics["degree.starts"] = starts
    metrics["degree.zeros"] = zeros
    metrics["degree.zeros_per_start"] = zeros / starts if starts else 0.0
    metrics["degree.boundary_points"] = (
        get("edge:degree.boundary_min>fields.eval")
        + get("edge:degree.winding>fields.eval"))
    metrics["degree.runtime_warnings"] = get("degree.runtime_warnings")
    metrics["flow.extra_steps"] = get("flow.projected_step.calls") - get("flow.steps")
    corrections = get("continuation.correct.calls")
    accepted = corrections - get("continuation.correct.failed")
    metrics["continuation.residuals_per_pair"] = (
        get("continuation.shooting_residual.calls") / accepted if accepted else 0.0)
    metrics["continuation.accepted_frac"] = accepted / corrections if corrections else 0.0
    covered = sum(get(f"{name}.self_s") for name, _, _ in SPANS)
    metrics["trace.other_s"] = wall_s - covered
    return metrics
