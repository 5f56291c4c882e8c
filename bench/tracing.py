"""Span and count tracing of one degenpde CLI process, from outside the package.

Run as

    python3 bench/tracing.py TRACE_JSON -- <degenpde CLI arguments>

It imports degenpde, wraps the public functions of each module at the names
the program looks them up by (the ``degenpde.cli`` imports, the module
globals that ``price_and_compare`` calls, and two methods), runs
``degenpde.cli.main`` and writes every span (name, start, end, parent) and
count to TRACE_JSON when the process ends. ``src/degenpde`` is not changed.
"""

import functools
import json
import os
import sys
import time
from collections import Counter

# Layer function names as the program looks them up in ``degenpde.cli``.
CLI_LAYERS = {
    "config": ["load_config"],
    "solver": ["solve", "residual_field"],
    "regularity": [
        "second_difference_constants",
        "field_sup_norms",
        "lipschitz_estimates",
        "envelope_fit",
        "bound_constants",
        "initial_deviation_check",
        "solution_sobolev_norms",
    ],
    "montecarlo": ["price_and_compare", "simulate"],
    "reporting": ["write_field_csv", "write_table_csv", "write_json", "read_field_csv"],
    "transform": ["primitive_lambda", "solve_Q", "invert", "structural_check"],
    "degeneracy": ["kernel_basis", "projection_paths", "continuity_diagnostic", "counterexample_run"],
}
# Module globals that ``montecarlo.price_and_compare`` calls.
MONTECARLO_GLOBALS = ["simulate", "payoff_discounted", "girsanov_log_weight"]
# Span names that are not "<layer>.<function>".
SPAN_NAMES = {
    "load_config": "config.load",
    "solve": "solver.solve",
    "residual_field": "solver.residual",
    "price_and_compare": "montecarlo.price",
    "simulate": "montecarlo.simulate",
    "payoff_discounted": "montecarlo.payoff",
    "girsanov_log_weight": "montecarlo.girsanov",
    "write_field_csv": "reporting.write",
    "write_table_csv": "reporting.write",
    "write_json": "reporting.write",
    "read_field_csv": "reporting.read",
}


class Tracer:
    """In-memory spans and counts; nothing is written until ``dump``."""

    def __init__(self):
        self.spans = []  # [id, name, parent, start, end]
        self.counts = Counter()
        self.weight_ess = []
        self._stack = []
        self._hamiltonian_slices = set()
        self._log_weights = None

    def open(self, name):
        span = [len(self.spans), name, self._stack[-1][0] if self._stack else None, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def inside(self, name):
        return any(s[1] == name for s in self._stack)

    def wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    # -- counts taken from arguments and results ---------------------------

    def _solve(self, args, kwargs, field):
        grid = field.grid
        nodes = 1
        for n in grid.nodes:
            nodes *= n
        self.counts["solver.node_steps"] += grid.steps * nodes

    def _residual(self, args, kwargs, out):
        self.counts["solver.residual_calls"] += 1

    def _second_diff(self, args, kwargs, out):
        self.counts["regularity.second_diff_slices"] += 1

    def _price(self, args, kwargs, report):
        self.counts["montecarlo.path_steps"] += report.n_paths * report.n_steps
        if self._log_weights:
            import numpy as np

            w = np.exp(np.concatenate(self._log_weights))
            self.weight_ess.append(float(w.sum() ** 2 / np.dot(w, w)))
        self._log_weights = None

    def _simulate(self, args, kwargs, ens):
        size = ens.states.nbytes + ens.increments.nbytes
        self.counts["montecarlo.path_array_bytes"] = max(self.counts["montecarlo.path_array_bytes"], size)
        self._pass()

    def _pass(self, *unused):
        if self.inside("montecarlo.price"):
            self.counts["montecarlo.path_passes"] += 1

    def _girsanov(self, args, kwargs, log_w):
        self._pass()
        if self._log_weights is None:
            self._log_weights = []
        self._log_weights.append(log_w)

    def _write(self, args, kwargs, path):
        self.counts["reporting.write_bytes"] += os.path.getsize(path)

    def _read(self, args, kwargs, field):
        self.counts["reporting.read_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _solve_q(self, args, kwargs, pair):
        self.counts["transform.q_knots"] += len(pair.tau_knots)

    def _projection(self, args, kwargs, proj):
        self.counts["degeneracy.path_steps"] += proj.pi.shape[0] * (proj.pi.shape[1] - 1)

    def _counterexample(self, args, kwargs, rep):
        self.counts["degeneracy.path_steps"] += rep.n_paths * rep.n_steps

    def install(self):
        """Wrap the layer functions where degenpde looks them up."""
        import degenpde.cli as cli
        import degenpde.montecarlo as mc
        import degenpde.solver as solver

        hooks = {
            "solve": self._solve,
            "residual_field": self._residual,
            "second_difference_constants": self._second_diff,
            "price_and_compare": self._price,
            "simulate": self._simulate,
            "payoff_discounted": self._pass,
            "girsanov_log_weight": self._girsanov,
            "write_field_csv": self._write,
            "write_table_csv": self._write,
            "write_json": self._write,
            "read_field_csv": self._read,
            "solve_Q": self._solve_q,
            "projection_paths": self._projection,
            "counterexample_run": self._counterexample,
        }
        wrapped = {}
        for layer, names in CLI_LAYERS.items():
            for name in names:
                span = SPAN_NAMES.get(name, f"{layer}.{name}")
                wrapped[name] = self.wrap(getattr(cli, name), span, hooks.get(name))
                setattr(cli, name, wrapped[name])
        for name in MONTECARLO_GLOBALS:
            fn = wrapped.get(name) or self.wrap(getattr(mc, name), SPAN_NAMES[name], hooks.get(name))
            setattr(mc, name, fn)

        evaluate = mc.GradientInterpolant.evaluate

        def traced_evaluate(interp, x, theta):
            span = self.open("montecarlo.interp")
            try:
                return evaluate(interp, x, theta)
            finally:
                self.close(span)
                self.counts["montecarlo.interp_points"] += len(x) if getattr(x, "ndim", 1) > 1 else 1

        mc.GradientInterpolant.evaluate = traced_evaluate

        hamiltonian = solver.SolutionField.interior_hamiltonian

        def counted_hamiltonian(field, k):
            self.counts["solver.hamiltonian_calls"] += 1
            self._hamiltonian_slices.add((id(field), int(k)))
            return hamiltonian(field, k)

        solver.SolutionField.interior_hamiltonian = counted_hamiltonian

    def dump(self, path, wall_s):
        counts = dict(self.counts)
        counts["solver.hamiltonian_slices"] = len(self._hamiltonian_slices)
        with open(path, "w") as fh:
            json.dump(
                {
                    "wall_s": wall_s,
                    "spans": self.spans,
                    "counts": counts,
                    "weight_ess": self.weight_ess,
                },
                fh,
            )


def main(argv):
    start = time.perf_counter()
    trace_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracing.py TRACE_JSON -- <degenpde arguments>")
    tracer = Tracer()
    root = tracer.open("process")
    span = tracer.open("import")
    import degenpde.cli

    tracer.close(span)
    tracer.install()
    try:
        status = degenpde.cli.main(cli_args)
    finally:
        tracer.close(root)
        tracer.dump(trace_path, time.perf_counter() - start)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
