"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's side: each traced function is
replaced, at the module attribute its caller looks up, by a wrapper that
records (name, start, end, parent, run).  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original function back.

A span's self time is its duration minus the durations of its direct
children.  Calls are nested and single-threaded here, so children never
overlap and the subtraction is exact.
"""

import json
import time
from collections import defaultdict

# (module, attribute to wrap, span name).  The span name is the layer
# that owns the timed work followed by the function name; the optimizer
# scale rule is named after the layer that calls it.
TRACE_POINTS = [
    ("cellopt", "compute_cell_energy", "cellopt.compute_cell_energy"),
    ("cellopt", "energy_gradient", "cellopt.energy_gradient"),
    ("cellopt", "optimize_scale", "cellopt.optimize_scale"),
    ("cellopt", "nonlocal_energy", "poisson.nonlocal_energy"),
    ("hyperbolic", "compute_shock_cell_energy",
     "hyperbolic.compute_shock_cell_energy"),
    ("hyperbolic", "optimize_scale", "hyperbolic.optimize_scale"),
    ("hyperbolic", "time_derivative", "hyperbolic.time_derivative"),
    ("poisson", "nonlocal_energy", "poisson.nonlocal_energy"),
    ("poisson", "duality_gap", "poisson.duality_gap"),
    ("poisson", "solve_cell_poisson", "poisson.solve_cell_poisson"),
    ("poisson", "chol_solve_banded", "kernels.chol_solve_banded"),
    ("poisson", "chol_factor_banded", "kernels.chol_factor_banded"),
    ("poisson", "gradient", "grid.gradient"),
    ("scipy.fft", "rfftn", "fft.rfftn"),
    ("scipy.fft", "irfftn", "fft.irfftn"),
]
POISSON_SPANS = ("poisson.solve_cell_poisson", "poisson.nonlocal_energy",
                 "poisson.duality_gap")
CELLOPT_SPANS = ("cellopt.compute_cell_energy", "cellopt.energy_gradient",
                 "cellopt.optimize_scale")


def _solve_shape_cost(factor, rhs):
    """Flops and computed bytes of one batched banded solve.

    factor is (M, 3, n) and rhs is (M, n, r).  Forward and back
    substitution each take 5n - 6 flops per right-hand side column.
    Bytes are the factor and rhs read once and the solution written
    once, so they ignore cache misses.
    """
    m, _, n = factor.shape
    r = rhs.shape[2]
    flops = m * r * 2 * (5 * n - 6)
    nbytes = 8 * (3 * m * n + 2 * m * n * r)
    return flops, nbytes


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.names = []
        self.spans = []   # [name index, start, end, parent, run]
        self.extra = []   # per span: (flops, bytes) of a banded solve, or
                          # the residual of a potential solve
        self.run = "setup"
        self._stack = []
        self._saved = []

    def install(self, modules):
        """Wrap every trace point that exists in ``modules``.

        A function that the package no longer has is skipped, so its
        layer's metrics read 0 instead of the traced run failing.
        """
        for mod_name, attr, span_name in TRACE_POINTS:
            mod = modules[mod_name]
            original = getattr(mod, attr, None)
            if original is None:
                continue
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span_name))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def _wrap(self, fn, span_name):
        name_id = len(self.names)
        self.names.append(span_name)
        spans, extra, stack = self.spans, self.extra, self._stack
        is_solve = span_name == "kernels.chol_solve_banded"
        is_poisson = span_name == "poisson.solve_cell_poisson"

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name_id, 0.0, 0.0, parent, self.run]
            spans.append(span)
            extra.append(_solve_shape_cost(*args[:2]) if is_solve else None)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if is_poisson:
                extra[index] = out.residual_norm
            return out

        return traced

    # --- aggregation -------------------------------------------------------

    def layer_metrics(self, runs):
        """Per-layer counts and times over the spans of the given runs."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        count = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        flops = nbytes = 0
        max_residual = 0.0
        for i, s in enumerate(self.spans):
            if s[4] not in runs:
                continue
            name = self.names[s[0]]
            dur = s[2] - s[1]
            count[name] += 1
            total[name] += dur
            self_time[name] += dur - child_time[i]
            if name == "kernels.chol_solve_banded":
                flops += self.extra[i][0]
                nbytes += self.extra[i][1]
            elif name == "poisson.solve_cell_poisson" and self.extra[i] is not None:
                max_residual = max(max_residual, self.extra[i])

        solves = count["poisson.solve_cell_poisson"]
        grads = count["cellopt.energy_gradient"]
        evals = count["hyperbolic.time_derivative"]
        h_scales = count["hyperbolic.optimize_scale"]
        return {
            "poisson.solve_calls": solves,
            "poisson.solve_s": total["poisson.solve_cell_poisson"],
            "poisson.solve_ms_mean": (
                1000.0 * total["poisson.solve_cell_poisson"] / solves
                if solves else 0.0),
            "poisson.self_s": sum(self_time[n] for n in POISSON_SPANS),
            "poisson.fft_s": total["fft.rfftn"] + total["fft.irfftn"],
            "poisson.gradient_s": total["grid.gradient"],
            "poisson.max_residual": max_residual,
            "kernels.solve_calls": count["kernels.chol_solve_banded"],
            "kernels.solve_s": total["kernels.chol_solve_banded"],
            "kernels.solve_flops": flops,
            "kernels.solve_bytes": nbytes,
            "kernels.factor_calls": count["kernels.chol_factor_banded"],
            "kernels.factor_s": total["kernels.chol_factor_banded"],
            "cellopt.gradient_calls": grads,
            "cellopt.solves_per_gradient": solves / grads if grads else 0.0,
            "cellopt.scale_calls": count["cellopt.optimize_scale"],
            "cellopt.self_s": sum(self_time[n] for n in CELLOPT_SPANS),
            "hyperbolic.evaluations": evals,
            "hyperbolic.scale_calls": h_scales,
            "hyperbolic.evals_per_iteration": (
                evals / h_scales if h_scales else 0.0),
            "hyperbolic.solve_s": total["hyperbolic.compute_shock_cell_energy"],
        }

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": self.names[s[0]], "start": s[1],
                    "end": s[2], "parent": s[3], "run": s[4]}) + "\n")
