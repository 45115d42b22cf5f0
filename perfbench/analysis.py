"""The graph-analysis task set and the closed forms its outputs are checked against.

No training happens here: the planner, the cost analyzer, the topology
graphs and the heat-map slicer do all the work.  Every reference below is
written out from first principles or from the literature, never computed
by the package under test.
"""

from __future__ import annotations

import glob
import json
import os
from collections import deque
from time import perf_counter

import numpy as np

from sparseagg import (
    Dense,
    Fractal,
    Plain,
    Sparse,
    analyze,
    build_graph,
    compare_topologies,
    compile_network,
    export_dot,
    export_json,
    format_topology,
    gradient_path_lengths,
    load_spec,
    shortest_gradient_path,
    weight_heatmap,
)

GRAPH_KINDS = (Plain(), Sparse(2), Sparse(4), Dense())
# Dense stops at 1024 nodes (523,776 edges): at 4096 (8.4M edges) one pass
# takes ~6 s, and the set is repeated twelve times per run to average out the
# host's speed drift.
GRAPHS = ((Plain(), 4096), (Sparse(2), 4096), (Sparse(4), 4096), (Dense(), 128), (Dense(), 1024),
          (Fractal(4), 16), (Fractal(8), 256), (Fractal(12), 4096))
# Exports are text with a line per edge; dense is exported at 128 nodes only.
EXPORT_EDGE_LIMIT = 50_000
HEATMAP_CONFIGS = ("sparse40_k12_cifar.json", "dense40_k12_cifar.json")

# Published totals (params counted as in torchvision; FLOPs = 2 x MACs).
# Huang et al., "Densely Connected Convolutional Networks", Table 2, and
# torchvision's densenet121 (7,978,856 parameters, 2.87 GMACs).
REFERENCES = (
    ("dense121_imagenet.json", "total_params", 7.98e6, 0.02),
    ("dense121_imagenet.json", "total_flops", 5.74e9, 0.05),
    ("dense40_k12_cifar.json", "total_params", 1.0e6, 0.05),
    ("dense100_k12_cifar.json", "total_params", 7.0e6, 0.05),
)


# Near the median time of ``host_probe_s`` on a shared 2-CPU Xeon VM
# (0.074-0.083 s); ``analysis_s`` is reported at the host speed this fixes.
PROBE_NOMINAL_S = 0.08


def host_probe_s() -> float:
    """Time a fixed piece of interpreter work that uses nothing from sparseagg.

    It mixes what the task set spends its time on (breadth-first search over
    small numpy arrays, one text line per edge, a JSON dump), so it slows
    down with the host when the task set does.  On a shared 2-CPU VM the
    task set's wall time drifted by 20-25% over tens of seconds.
    """
    t0 = perf_counter()
    nodes = 2000
    succ = [[nxt for nxt in (i + 1, i + 2, i + 4, i + 8) if nxt < nodes] for i in range(nodes)]
    for _ in range(2):
        dist = np.full(nodes, -1, dtype=np.int64)
        dist[0] = 0
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for nxt in np.asarray(succ[node], dtype=np.int32).tolist():
                if dist[nxt] < 0:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
    pairs = [(src, dst) for dst in range(nodes) for src in range(max(0, dst - 8), dst)]
    text = "\n".join(f"  F{src} -> F{dst};" for src, dst in pairs)
    text += json.dumps({"edges": [[src, dst] for src, dst in pairs]}, indent=2)
    return perf_counter() - t0


# -- closed forms -------------------------------------------------------------


def sparse_in_degree(base: int, layer: int) -> int:
    """Number of offsets base**k (k >= 0) that fit in ``layer``."""
    count, offset = 0, 1
    while offset <= layer:
        count, offset = count + 1, offset * base
    return count


def digit_sum(value: int, base: int) -> int:
    total = 0
    while value:
        value, digit = divmod(value, base)
        total += digit
    return total


def in_degree(kind, layer: int) -> int:
    if isinstance(kind, Plain):
        return 1
    if isinstance(kind, Dense):
        return layer
    return sparse_in_degree(kind.base, layer)


def edge_count(kind, nodes: int) -> int:
    if isinstance(kind, Plain):
        return nodes - 1
    if isinstance(kind, Dense):
        return nodes * (nodes - 1) // 2
    total, offset = 0, 1
    while offset <= nodes - 1:  # each offset feeds layers offset .. nodes-1
        total += nodes - offset
        offset *= kind.base
    return total


def hop_count(kind, layer: int) -> int:
    """Fewest forward edges from node 0 to ``layer``.

    Sparse hops are powers of the base, so the fewest hops summing to
    ``layer`` is its digit sum in that base.
    """
    if layer == 0:
        return 0
    if isinstance(kind, Plain):
        return layer
    if isinstance(kind, Dense):
        return 1
    return digit_sum(layer, kind.base)


def fractal_edge_count(columns: int) -> int:
    """Edges of the fractal expansion with ``columns`` columns.

    Column c holds 2**(c-1) convs.  Its first reads node 0; the j-th
    (j >= 2) starts at row (j-1) * 2**(columns-c) and reads every column
    ending there: columns - c + 1 + v2(j-1) of them.  Summing v2 over
    1 .. 2**(c-1)-1 gives 2**(c-1) - c.
    """
    return sum(1 + (2 ** (c - 1) - 1) * (columns - c + 1) + 2 ** (c - 1) - c
               for c in range(1, columns + 1))


# -- the task set ---------------------------------------------------------------


class AnalysisRun:
    """Runs the task set once; ``times`` holds inclusive seconds per call kind."""

    def __init__(self, configs_dir: str, seed: int):
        self.configs_dir = configs_dir
        self.seed = seed
        self.times: dict[str, float] = {}
        self.edges = 0
        self.wall_s = 0.0
        self._outputs: list = []

    def _timed(self, name: str, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.times[name] = self.times.get(name, 0.0) + perf_counter() - t0
        return out

    def run(self) -> "AnalysisRun":
        t0 = perf_counter()
        for kind, nodes in GRAPHS:
            graph = self._timed("topology.build_graph_s", build_graph, kind, nodes)
            hops = self._timed("topology.gradient_path_s", gradient_path_lengths, graph, 0)
            last = self._timed("topology.shortest_path_s", shortest_gradient_path,
                               graph, 0, nodes - 1)
            dot = text = None
            if graph.num_edges <= EXPORT_EDGE_LIMIT:
                dot = self._timed("topology.export_s", export_dot, graph)
                text = self._timed("topology.export_s", export_json, graph)
            self.edges += graph.num_edges
            self._outputs.append(("graph", kind, nodes, graph, hops, last, dot, text))
        for path in sorted(glob.glob(os.path.join(self.configs_dir, "*.json"))):
            spec = load_spec(path)
            report = self._timed("architecture.analyze_s", analyze, spec)
            reports = self._timed("architecture.compare_s", compare_topologies,
                                  spec, list(GRAPH_KINDS))
            self._outputs.append(("cost", os.path.basename(path), spec, report, reports))
        for name in HEATMAP_CONFIGS:
            spec = load_spec(os.path.join(self.configs_dir, name))
            net = compile_network(spec, seed=self.seed)
            heat = self._timed("introspect.heatmap_s", weight_heatmap, net)
            self._outputs.append(("heatmap", name, spec, heat))
        self.wall_s = perf_counter() - t0
        return self

    # -- output checks --------------------------------------------------------

    def checks(self) -> list[tuple[str, bool, str]]:
        """(name, passed, detail) for every output of the task set."""
        results = []
        for out in self._outputs:
            results.extend(getattr(self, f"_check_{out[0]}")(*out[1:]))
        totals = {o[1]: o[3] for o in self._outputs if o[0] == "cost"}
        for name, field, expected, tol in REFERENCES:
            value = getattr(totals[name], field) if name in totals else float("nan")
            ok = abs(value - expected) <= tol * expected
            results.append((f"reference {name} {field}", ok,
                            f"{value:,} vs {expected:,.0f} +/- {tol:.0%}"))
        return results

    @staticmethod
    def _check_graph(kind, nodes, graph, hops, last, dot, text):
        label = f"{format_topology(kind)} L={nodes}"
        if isinstance(kind, Fractal):
            ok = graph.num_layers == nodes and graph.num_edges == fractal_edge_count(kind.columns)
            results = [(f"{label} edges", ok, f"{graph.num_edges} edges")]
            ok = bool(hops[0] == 0 and (hops[1:] > 0).all()) and last == hops[-1]
            results.append((f"{label} paths", ok, f"last {last}"))
        else:
            ok = graph.num_edges == edge_count(kind, nodes) and all(
                len(graph.predecessors_of(layer)) == in_degree(kind, layer)
                for layer in range(1, nodes))
            results = [(f"{label} edges and in-degrees", ok, f"{graph.num_edges} edges")]
            expected = np.array([hop_count(kind, layer) for layer in range(nodes)])
            ok = np.array_equal(hops, expected) and last == expected[-1]
            results.append((f"{label} gradient paths", ok, f"last {last}"))
        if dot is not None:
            ok = dot.count("\n") == nodes + graph.num_edges + 2
            payload = json.loads(text)
            ok = ok and payload["num_layers"] == nodes and len(payload["edges"]) == graph.num_edges
            results.append((f"{label} exports", ok, f"{len(dot) + len(text)} chars"))
        return results

    @staticmethod
    def _check_cost(name, spec, report, reports):
        layers = sum(b.num_layers for b in spec.blocks)
        rows = 1 + layers + (len(spec.blocks) - 1) + 1  # stem, units, transitions, classifier
        ok = len(report.rows) == rows and report.total_params == sum(r.params for r in report.rows)
        ok = ok and set(reports) == {format_topology(k) for k in GRAPH_KINDS}
        return [(f"analyze {name}", ok, f"{len(report.rows)} rows")]

    @staticmethod
    def _check_heatmap(name, spec, heat):
        ok = len(heat.blocks) == len(spec.blocks)
        for hm in heat.blocks:
            for layer in range(1, hm.mask.shape[0] + 1):
                ok = ok and int(hm.mask[layer - 1].sum()) == in_degree(spec.topology, layer)
        return [(f"heatmap {name}", ok, f"{len(heat.blocks)} blocks")]
