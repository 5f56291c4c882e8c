"""Per-layer metrics from the traces that ``tracing.py`` writes, one per process.

A span is [id, name, parent, start, end] and belongs to the layer named
before the first dot of its name. A layer's busy time is the summed duration
of its outermost spans (those whose parent is not in the same layer); a
span's self time is its duration minus the time its child spans cover.
"""

from collections import defaultdict

MIB = 1024.0 * 1024.0

# name -> unit, in the order BENCHMARK.json lists them.
METRICS = {
    "import_s": "s",
    "config.load_s": "s",
    "solver.solve_s": "s",
    "solver.node_steps": "count",
    "solver.node_steps_per_s": "1/s",
    "solver.residual_s": "s",
    "solver.residual_calls": "count",
    "solver.hamiltonian_calls": "count",
    "solver.hamiltonian_unique_ratio": "1",
    "regularity.busy_s": "s",
    "regularity.second_diff_slices": "count",
    "montecarlo.price_s": "s",
    "montecarlo.path_steps": "count",
    "montecarlo.path_steps_per_s": "1/s",
    "montecarlo.simulate_s": "s",
    "montecarlo.girsanov_s": "s",
    "montecarlo.payoff_s": "s",
    "montecarlo.path_passes": "count",
    "montecarlo.interp_points": "count",
    "montecarlo.interp_s": "s",
    "montecarlo.path_array_mb": "MiB",
    "montecarlo.weight_ess": "count",
    "reporting.write_s": "s",
    "reporting.write_mb": "MiB",
    "reporting.write_mb_per_s": "MiB/s",
    "reporting.read_s": "s",
    "reporting.read_mb": "MiB",
    "transform.busy_s": "s",
    "transform.q_knots": "count",
    "degeneracy.busy_s": "s",
    "degeneracy.path_steps": "count",
    "trace.wall_s": "s",
    "trace.uncovered_s": "s",
}
LAYERS = ("config", "solver", "regularity", "montecarlo", "reporting", "transform", "degeneracy")


def _layer(name):
    return name.split(".", 1)[0]


def span_times(spans):
    """Summed duration by span name and busy time by layer, for one process."""
    by_id = {s[0]: s for s in spans}
    total = defaultdict(float)
    busy = defaultdict(float)
    for sid, name, parent, start, end in spans:
        total[name] += end - start
        if parent is None or _layer(by_id[parent][1]) != _layer(name):
            busy[_layer(name)] += end - start
    return total, busy


def self_times(spans):
    """Duration minus the time covered by child spans, summed by span name."""
    child = defaultdict(float)
    for sid, name, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for sid, name, parent, start, end in spans:
        out[name] += end - start - child[sid]
    return out


def _rate(work, seconds):
    return work / seconds if seconds > 0.0 else 0.0


def round_metrics(processes, wall_s):
    """Every per-layer metric of one round of a workload (all its processes)."""
    total = defaultdict(float)
    busy = defaultdict(float)
    counts = defaultdict(float)
    array_mb = 0.0
    ess = []
    for proc in processes:
        t, b = span_times(proc["spans"])
        for k, v in t.items():
            total[k] += v
        for k, v in b.items():
            busy[k] += v
        for k, v in proc["counts"].items():
            if k == "montecarlo.path_array_bytes":
                array_mb = max(array_mb, v / MIB)
            else:
                counts[k] += v
        ess.extend(proc["weight_ess"])
    calls = counts["solver.hamiltonian_calls"]
    write_mb = counts["reporting.write_bytes"] / MIB
    covered = total["import"] + sum(busy[layer] for layer in LAYERS)
    return {
        "import_s": total["import"],
        "config.load_s": busy["config"],
        "solver.solve_s": total["solver.solve"],
        "solver.node_steps": counts["solver.node_steps"],
        "solver.node_steps_per_s": _rate(counts["solver.node_steps"], total["solver.solve"]),
        "solver.residual_s": total["solver.residual"],
        "solver.residual_calls": counts["solver.residual_calls"],
        "solver.hamiltonian_calls": calls,
        "solver.hamiltonian_unique_ratio": counts["solver.hamiltonian_slices"] / calls if calls else 0.0,
        "regularity.busy_s": busy["regularity"],
        "regularity.second_diff_slices": counts["regularity.second_diff_slices"],
        "montecarlo.price_s": total["montecarlo.price"],
        "montecarlo.path_steps": counts["montecarlo.path_steps"],
        "montecarlo.path_steps_per_s": _rate(counts["montecarlo.path_steps"], total["montecarlo.price"]),
        "montecarlo.simulate_s": total["montecarlo.simulate"],
        "montecarlo.girsanov_s": total["montecarlo.girsanov"],
        "montecarlo.payoff_s": total["montecarlo.payoff"],
        "montecarlo.path_passes": counts["montecarlo.path_passes"],
        "montecarlo.interp_points": counts["montecarlo.interp_points"],
        "montecarlo.interp_s": total["montecarlo.interp"],
        "montecarlo.path_array_mb": array_mb,
        "montecarlo.weight_ess": min(ess) if ess else 0.0,
        "reporting.write_s": total["reporting.write"],
        "reporting.write_mb": write_mb,
        "reporting.write_mb_per_s": _rate(write_mb, total["reporting.write"]),
        "reporting.read_s": total["reporting.read"],
        "reporting.read_mb": counts["reporting.read_bytes"] / MIB,
        "transform.busy_s": busy["transform"],
        "transform.q_knots": counts["transform.q_knots"],
        "degeneracy.busy_s": busy["degeneracy"],
        "degeneracy.path_steps": counts["degeneracy.path_steps"],
        "trace.wall_s": wall_s,
        "trace.uncovered_s": wall_s - covered,
    }


def trace_document(rounds, metrics):
    """The trace file of one run: every span and count, with self times."""
    doc = {"rounds": []}
    for processes, m in zip(rounds, metrics):
        doc["rounds"].append(
            {
                "metrics": m,
                "processes": [
                    dict(proc, self_s=dict(self_times(proc["spans"]))) for proc in processes
                ],
            }
        )
    return doc
