"""Spans and counters recorded from outside the package.

The tracer rebinds public names at the modules that import them, so that
every call crossing a layer boundary opens a span (name, start, end, parent,
pass id) and adds to counters.  Callables handed to the Newton solver and
the ODE integrator are wrapped as well: Newton callbacks become
``<layer>.assembly`` spans charged to the layer that built the system, ODE
right-hand sides are only counted.  Nothing under ``src/`` is modified;
``installed()`` restores every original binding on exit.

Spans stay in memory until ``dump``.  ``layer_metrics`` reduces the spans
and counters of one pass to the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import time
from collections import Counter
from contextlib import contextmanager

from quenchfront import cli, folddelay, painleve, pdesim, solvercore, stability
from quenchfront import travelingwave

# (module whose binding is replaced, attribute, span name)
_BINDINGS = [
    (travelingwave, "solve_front", "travelingwave.solve_front"),
    (travelingwave, "front_branch", "travelingwave.front_branch"),
    (travelingwave, "continue_branch", "solvercore.continuation"),
    (travelingwave, "solve_bvp", "solvercore.newton"),
    (solvercore, "solve_bvp", "solvercore.newton"),
    (painleve, "solve_bvp", "solvercore.newton"),
    (folddelay, "integrate_ode", "solvercore.ode"),
    (painleve, "integrate_ode", "solvercore.ode"),
    (solvercore, "eig_tridiag_symmetric", "solvercore.eig"),
    (painleve, "eig_tridiag_symmetric", "solvercore.eig"),
    (stability, "eig_tridiag_symmetric", "solvercore.eig"),
    (painleve, "airy", "specfun.airy"),
    (folddelay, "run_fold_passage", "folddelay.run_fold_passage"),
    (folddelay, "fit_delay_scaling", "folddelay.fit_delay_scaling"),
    (painleve, "solve_hastings_mcleod", "painleve.solve_hastings_mcleod"),
    (painleve, "classify_airy_tail", "painleve.classify_airy_tail"),
    (painleve, "certify_potential_positive", "painleve.certify_potential_positive"),
    (painleve, "certify_lower_bound", "painleve.certify_lower_bound"),
    (painleve, "linearization_ground_state", "painleve.linearization_ground_state"),
    (stability, "build_Lc", "stability.build_Lc"),
    (stability, "leading_eigenvalues", "stability.leading_eigenvalues"),
    (pdesim, "simulate", "pdesim.simulate"),
    (cli, "simulate", "pdesim.simulate"),
    (cli, "compare_homogeneous_quench", "pdesim.compare_homogeneous_quench"),
    (cli, "main", "cli.main"),
]

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "solvercore.newton.calls": "count",
    "solvercore.newton.iters": "count",
    "solvercore.newton.halvings": "count",
    "solvercore.newton.self_s": "s",
    "solvercore.continuation.steps": "count",
    "solvercore.continuation.rejects": "count",
    "solvercore.continuation.accept_ratio": "frac",
    "travelingwave.fronts": "count",
    "travelingwave.mesh_nodes": "count",
    "travelingwave.assembly_s": "s",
    "travelingwave.self_s": "s",
    "solvercore.ode.calls": "count",
    "solvercore.ode.steps": "count",
    "solvercore.ode.rhs_evals": "count",
    "solvercore.ode.self_s": "s",
    "solvercore.ode.us_per_step": "us",
    "folddelay.passages": "count",
    "folddelay.passage_s": "s",
    "painleve.classify_s": "s",
    "solvercore.eig.calls": "count",
    "solvercore.eig.nodes": "count",
    "solvercore.eig.self_s": "s",
    "solvercore.eig.ns_per_node": "ns",
    "stability.nodes": "count",
    "stability.build_s": "s",
    "stability.eig_s": "s",
    "painleve.hm_s": "s",
    "painleve.ground_state_s": "s",
    "specfun.airy.calls": "count",
    "specfun.airy.self_s": "s",
    "pdesim.runs": "count",
    "pdesim.node_steps": "count",
    "pdesim.simulate_s": "s",
    "pdesim.ns_per_node_step": "ns",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
}

# counters that must repeat exactly between passes and runs on one seed
EXACT_COUNTERS = [
    "solvercore.newton.iters",
    "travelingwave.branch_entries",
    "solvercore.ode.steps",
    "solvercore.ode.rhs_evals",
    "solvercore.eig.nodes",
    "pdesim.node_steps",
    "specfun.airy.calls",
]


class Tracer:
    def __init__(self):
        # span: [name, parent index or -1, pass id, start, end]
        self.spans: list[list] = []
        self.counters: dict[int, Counter] = {}
        self.pass_id = 0
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount=1) -> None:
        self.counters.setdefault(self.pass_id, Counter())[name] += amount

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, parent, self.pass_id, time.perf_counter(), math.nan]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _owner_layer(self) -> str:
        """Layer of the nearest open span outside solvercore: the code that
        built the callbacks a solver is about to call."""
        for idx in reversed(self._stack):
            layer = self.spans[idx][0].split(".")[0]
            if layer != "solvercore":
                return layer
        return "bench"

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _timed_callback(self, fn, name: str):
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def _counted_callback(self, fn, counter: str):
        counts = self.counters.setdefault(self.pass_id, Counter())

        def wrapped(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        sig = inspect.signature(fn)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapped(*args, **kwargs):
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            parent = self._parent_name()
            self.count(name + ".calls")
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, out, parent)
            return out

        return wrapped

    def _before_solvercore_newton(self, arguments) -> None:
        assembly = self._owner_layer() + ".assembly"
        arguments["residual"] = self._timed_callback(arguments["residual"], assembly)
        arguments["jacobian"] = self._timed_callback(arguments["jacobian"], assembly)

    def _after_solvercore_newton(self, args, kwargs, out, parent) -> None:
        report = out[1]
        self.count("solvercore.newton.iters", report.iterations)
        self.count(
            "solvercore.newton.halvings",
            sum(int(round(-math.log2(lam))) for lam in report.damping_history),
        )
        if parent == "solvercore.continuation" and not report.converged:
            self.count("solvercore.continuation.rejects")

    def _after_solvercore_continuation(self, args, kwargs, out, parent) -> None:
        self.count("solvercore.continuation.steps", len(out.step_history))

    def _before_solvercore_ode(self, arguments) -> None:
        arguments["field"] = self._counted_callback(
            arguments["field"], "solvercore.ode.rhs_evals"
        )

    def _after_solvercore_ode(self, args, kwargs, out, parent) -> None:
        self.count("solvercore.ode.steps", len(out.t) - 1)

    def _before_solvercore_eig(self, arguments) -> None:
        self.count("solvercore.eig.nodes", len(arguments["diag"]))

    def _after_travelingwave_solve_front(self, args, kwargs, out, parent) -> None:
        self.count("travelingwave.fronts")
        self.count("travelingwave.mesh_nodes", out.mesh.count)

    def _after_travelingwave_front_branch(self, args, kwargs, out, parent) -> None:
        self.count("travelingwave.fronts", len(out.fronts))
        self.count("travelingwave.mesh_nodes", out.mesh.count)
        self.count("travelingwave.branch_entries", len(out.branch.entries))

    def _after_stability_build_Lc(self, args, kwargs, out, parent) -> None:
        self.count("stability.nodes", out.n)

    def _after_pdesim_simulate(self, args, kwargs, out, parent) -> None:
        cfg = out.config
        self.count("pdesim.node_steps", cfg.n * math.ceil(cfg.t_end / cfg.dt))

    def _after_cli_main(self, args, kwargs, out, parent) -> None:
        argv = list(args[0]) if args else list(kwargs.get("argv") or [])
        if "--outdir" in argv:
            outdir = argv[argv.index("--outdir") + 1]
            self.count(
                "cli.bytes_written",
                sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file()),
            )

    @contextmanager
    def installed(self):
        """Rebind every traced name; restore the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _BINDINGS]
        wrappers: dict[int, object] = {}
        try:
            for (mod, attr, name), (_, _, original) in zip(_BINDINGS, saved):
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = self._wrap(original, name)
                setattr(mod, attr, wrappers[key])
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one pass.  A span's self time is its duration
        minus the durations of its direct children; a layer's self time sums
        the self times of its spans."""
        idxs = [i for i, s in enumerate(self.spans) if s[2] == pass_id]
        child_time = Counter()
        for i in idxs:
            _, parent, _, start, end = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        total, own, layer_self = Counter(), Counter(), Counter()
        for i in idxs:
            name, _, _, start, end = self.spans[i]
            total[name] += end - start
            own[name] += end - start - child_time[i]
            layer_self[name.split(".")[0]] += end - start - child_time[i]
        c = self.counters.get(pass_id, Counter())
        steps = c["solvercore.continuation.steps"]
        rejects = c["solvercore.continuation.rejects"]
        ode_steps = c["solvercore.ode.steps"]
        eig_nodes = c["solvercore.eig.nodes"]
        node_steps = c["pdesim.node_steps"]
        m = {
            "solvercore.newton.calls": c["solvercore.newton.calls"],
            "solvercore.newton.iters": c["solvercore.newton.iters"],
            "solvercore.newton.halvings": c["solvercore.newton.halvings"],
            "solvercore.newton.self_s": own["solvercore.newton"],
            "solvercore.continuation.steps": steps,
            "solvercore.continuation.rejects": rejects,
            "solvercore.continuation.accept_ratio": _ratio(steps, steps + rejects),
            "travelingwave.fronts": c["travelingwave.fronts"],
            "travelingwave.mesh_nodes": c["travelingwave.mesh_nodes"],
            "travelingwave.assembly_s": total["travelingwave.assembly"],
            "travelingwave.self_s": layer_self["travelingwave"],
            "solvercore.ode.calls": c["solvercore.ode.calls"],
            "solvercore.ode.steps": ode_steps,
            "solvercore.ode.rhs_evals": c["solvercore.ode.rhs_evals"],
            "solvercore.ode.self_s": own["solvercore.ode"],
            "solvercore.ode.us_per_step": _ratio(own["solvercore.ode"] * 1e6, ode_steps),
            "folddelay.passages": c["folddelay.run_fold_passage.calls"],
            "folddelay.passage_s": total["folddelay.run_fold_passage"],
            "painleve.classify_s": total["painleve.classify_airy_tail"],
            "solvercore.eig.calls": c["solvercore.eig.calls"],
            "solvercore.eig.nodes": eig_nodes,
            "solvercore.eig.self_s": own["solvercore.eig"],
            "solvercore.eig.ns_per_node": _ratio(own["solvercore.eig"] * 1e9, eig_nodes),
            "stability.nodes": c["stability.nodes"],
            "stability.build_s": total["stability.build_Lc"],
            "stability.eig_s": total["stability.leading_eigenvalues"],
            "painleve.hm_s": total["painleve.solve_hastings_mcleod"],
            "painleve.ground_state_s": total["painleve.linearization_ground_state"],
            "specfun.airy.calls": c["specfun.airy.calls"],
            "specfun.airy.self_s": own["specfun.airy"],
            "pdesim.runs": c["pdesim.simulate.calls"],
            "pdesim.node_steps": node_steps,
            "pdesim.simulate_s": total["pdesim.simulate"],
            "pdesim.ns_per_node_step": _ratio(total["pdesim.simulate"] * 1e9, node_steps),
            "cli.calls": c["cli.main.calls"],
            "cli.self_s": layer_self["cli"],
            "cli.bytes_written": c["cli.bytes_written"],
        }
        return {k: float(v) for k, v in m.items()}

    def exact_counters(self, pass_id: int) -> dict[str, int]:
        c = self.counters.get(pass_id, Counter())
        return {k: int(c[k]) for k in EXACT_COUNTERS}

    def dump(self, path: str) -> None:
        """Write every span and per-pass counter as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "pass", "start", "end"],
                    "spans": self.spans,
                    "counters": {str(k): dict(v) for k, v in self.counters.items()},
                },
                fh,
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
