"""Skip-connection topologies over a chain of layers.

A topology decides, for every layer index ``l >= 1``, which earlier outputs
feed its aggregated input. Node 0 is the output of the stem (or block input);
all edges run forward, ``src < dst``.

Four kinds are supported:

* ``Plain``      -- each layer sees only its immediate predecessor.
* ``Dense``      -- each layer sees every earlier output.
* ``Sparse(c)``  -- each layer sees outputs at offsets ``c**0, c**1, ...``
  (clipped at the start of the chain), so its in-degree grows
  logarithmically with depth.
* ``Fractal(n)`` -- parallel columns of depths ``1, 2, 4, ..., 2**(n-1)``
  with joins where columns meet.  Supported for edge counting and
  visualization; the model compiler rejects it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NoPathError, TopologyError

__all__ = [
    "Plain",
    "Dense",
    "Sparse",
    "Fractal",
    "TopologyKind",
    "parse_topology",
    "format_topology",
    "predecessors",
    "build_graph",
    "shortest_gradient_path",
    "gradient_path_lengths",
    "export_dot",
    "export_json",
    "AggregationGraph",
]


@dataclass(frozen=True)
class Plain:
    def __str__(self) -> str:
        return "plain"


@dataclass(frozen=True)
class Dense:
    def __str__(self) -> str:
        return "dense"


@dataclass(frozen=True)
class Sparse:
    base: int

    def __post_init__(self):
        if not isinstance(self.base, int) or self.base < 2:
            raise TopologyError(f"sparse base must be an integer >= 2, got {self.base!r}")

    def __str__(self) -> str:
        return f"sparse:{self.base}"


@dataclass(frozen=True)
class Fractal:
    columns: int

    def __post_init__(self):
        if not isinstance(self.columns, int) or self.columns < 1:
            raise TopologyError(f"fractal columns must be an integer >= 1, got {self.columns!r}")

    def __str__(self) -> str:
        return f"fractal:{self.columns}"

    @property
    def num_layers(self) -> int:
        """Natural node count of the expansion, including node 0."""
        return 1 << self.columns


TopologyKind = Plain | Dense | Sparse | Fractal


def parse_topology(text: str) -> TopologyKind:
    """Parse ``"plain"``, ``"dense"``, ``"sparse:<c>"`` or ``"fractal:<n>"``."""
    name, _, arg = text.strip().lower().partition(":")
    if name == "plain" and not arg:
        return Plain()
    if name == "dense" and not arg:
        return Dense()
    if name in ("sparse", "fractal"):
        try:
            value = int(arg)
        except ValueError:
            raise TopologyError(f"{name} topology needs an integer argument, got {text!r}") from None
        return Sparse(value) if name == "sparse" else Fractal(value)
    raise TopologyError(f"unknown topology {text!r}")


def format_topology(kind: TopologyKind) -> str:
    return str(kind)


def predecessors(kind: TopologyKind, layer: int) -> list[int]:
    """Source indices aggregated into layer ``layer``, nearest first.

    ``layer`` counts from 1; node 0 is the stem/block input.  The returned
    list is strictly decreasing.
    """
    if not isinstance(layer, int) or layer <= 0:
        raise TopologyError(f"layer index must be a positive integer, got {layer!r}")
    if isinstance(kind, Plain):
        return [layer - 1]
    if isinstance(kind, Dense):
        return list(range(layer - 1, -1, -1))
    if isinstance(kind, Sparse):
        sources = []
        offset = 1
        while offset <= layer:
            sources.append(layer - offset)
            offset *= kind.base
        return sources
    if isinstance(kind, Fractal):
        graph = _fractal_graph(kind.columns)
        if layer >= graph.num_layers:
            raise TopologyError(
                f"fractal:{kind.columns} has layers 1..{graph.num_layers - 1}, got {layer}"
            )
        return sorted(graph.predecessors_of(layer).tolist(), reverse=True)
    raise TopologyError(f"unknown topology kind {kind!r}")


class AggregationGraph:
    """Forward DAG over nodes ``0..num_layers-1``.

    Each node's sources are held as one int32 array, in the order given;
    dense at 4096 nodes (8.4M edges) takes 34 MB.
    """

    def __init__(self, num_layers: int, preds: list[np.ndarray]):
        if num_layers < 1:
            raise TopologyError(f"graph needs at least one node, got {num_layers}")
        if len(preds) != num_layers:
            raise TopologyError("one predecessor list per node required")
        self.num_layers = num_layers
        self._preds = [np.asarray(p, dtype=np.int32) for p in preds]
        sizes = np.array([p.size for p in self._preds], dtype=np.int64)
        self.num_edges = int(sizes.sum())
        filled = np.flatnonzero(sizes)
        if filled.size:
            # One min and one max per non-empty node, over all sources at once.
            flat = np.concatenate(self._preds)
            starts = (np.cumsum(sizes) - sizes)[filled]
            bad = np.flatnonzero((np.minimum.reduceat(flat, starts) < 0)
                                 | (np.maximum.reduceat(flat, starts) >= filled))
            if bad.size:
                dst = int(filled[bad[0]])
                raise TopologyError(f"edges into node {dst} must come from 0..{dst - 1}")
        self._succs: list[np.ndarray] | None = None

    def predecessors_of(self, node: int) -> np.ndarray:
        if not 0 <= node < self.num_layers:
            raise TopologyError(f"node {node} outside 0..{self.num_layers - 1}")
        return self._preds[node]

    def successors_of(self, node: int) -> np.ndarray:
        if self._succs is None:
            buckets: list[list[int]] = [[] for _ in range(self.num_layers)]
            for dst, srcs in enumerate(self._preds):
                for src in srcs.tolist():
                    buckets[src].append(dst)
            self._succs = [np.asarray(b, dtype=np.int32) for b in buckets]
        if not 0 <= node < self.num_layers:
            raise TopologyError(f"node {node} outside 0..{self.num_layers - 1}")
        return self._succs[node]

    def _rows(self):
        """Yield (dst, its sources as an ascending list) for every node with an edge in."""
        for dst, srcs in enumerate(self._preds):
            if srcs.size:
                yield dst, sorted(srcs.tolist())

    def edges(self):
        """Yield (src, dst) sorted by (dst, src)."""
        for dst, srcs in self._rows():
            for src in srcs:
                yield src, dst

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

    def __repr__(self) -> str:
        return f"AggregationGraph(num_layers={self.num_layers}, num_edges={self.num_edges})"


def build_graph(kind: TopologyKind, num_layers: int) -> AggregationGraph:
    """Build the aggregation DAG with ``num_layers`` nodes (node 0 included)."""
    if not isinstance(num_layers, int) or num_layers < 1:
        raise TopologyError(f"num_layers must be a positive integer, got {num_layers!r}")
    if isinstance(kind, Fractal):
        natural = kind.num_layers
        if num_layers != natural:
            raise TopologyError(
                f"fractal:{kind.columns} expands to exactly {natural} nodes, got num_layers={num_layers}"
            )
        return _fractal_graph(kind.columns)
    preds = [np.empty(0, dtype=np.int32)]
    for layer in range(1, num_layers):
        preds.append(np.asarray(predecessors(kind, layer), dtype=np.int32))
    return AggregationGraph(num_layers, preds)


@functools.lru_cache(maxsize=None)
def _fractal_graph(columns: int) -> AggregationGraph:
    # Column i of C has depth 2**(i-1); its convs end every 2**(C-i) rows.
    # A conv's input is the join of everything ending at its start row.
    deepest = 1 << (columns - 1)
    ids: dict[tuple[int, int], int] = {}
    next_id = 1
    enders: dict[int, list[int]] = {}
    for row in range(1, deepest + 1):
        for col in range(1, columns + 1):
            stride = 1 << (columns - col)
            if row % stride == 0:
                ids[(col, row // stride)] = next_id
                enders.setdefault(row, []).append(next_id)
                next_id += 1
    preds: list[np.ndarray] = [np.empty(0, dtype=np.int32)] * next_id
    preds[0] = np.empty(0, dtype=np.int32)
    for (col, j), node in ids.items():
        stride = 1 << (columns - col)
        start_row = (j - 1) * stride
        sources = [0] if start_row == 0 else enders[start_row]
        preds[node] = np.asarray(sorted(sources), dtype=np.int32)
    return AggregationGraph(next_id, preds)


# Nodes with more sources than this take one numpy gather and min; for
# narrower ones a Python min over the list is cheaper (on a 2-CPU Xeon VM,
# numpy's fixed cost per call was about 2 us, the Python min's about 50 ns
# per source).
_WIDE_ROW = 32


def _hops(graph: AggregationGraph, src: int, last: int) -> np.ndarray:
    """Fewest forward edges from ``src`` to nodes ``0..last``; -1 where unreached and after ``last``.

    Every edge runs forward, so index order is a topological order: one pass
    over ``src+1 .. last`` sets each node to one more than the fewest hops
    among its sources.
    """
    if not 0 <= src < graph.num_layers:
        raise TopologyError(f"node {src} outside 0..{graph.num_layers - 1}")
    unreached = graph.num_layers  # more hops than any path has
    near = [unreached] * graph.num_layers
    dist = np.full(graph.num_layers, unreached, dtype=np.int64)
    near[src] = dist[src] = 0
    for node in range(src + 1, last + 1):
        srcs = graph._preds[node]
        if srcs.size > _WIDE_ROW:
            hops = int(dist[srcs].min()) + 1
        elif srcs.size:
            hops = min(map(near.__getitem__, srcs.tolist())) + 1
        else:
            continue
        near[node] = dist[node] = hops
    dist[dist >= unreached] = -1
    return dist


def gradient_path_lengths(graph: AggregationGraph, src: int) -> np.ndarray:
    """Fewest forward edges from ``src`` to every node (-1 where unreachable).

    Found in one forward pass over the nodes after ``src``, in index order.
    """
    return _hops(graph, src, graph.num_layers - 1)


def shortest_gradient_path(graph: AggregationGraph, src: int, dst: int) -> int:
    """Fewest forward edges from ``src`` to ``dst``."""
    if not 0 <= dst < graph.num_layers:
        raise TopologyError(f"node {dst} outside 0..{graph.num_layers - 1}")
    if dst < src:
        raise NoPathError(f"no forward path from {src} to {dst}")
    if dst == src:
        return 0
    hops = int(_hops(graph, src, dst)[dst])
    if hops < 0:
        raise NoPathError(f"no forward path from {src} to {dst}")
    return hops


def export_dot(graph: AggregationGraph) -> str:
    """Deterministic DOT text: nodes F0..F{L-1}, edges sorted by (dst, src)."""
    lines = ["digraph aggregation {"]
    lines += [f"  F{node};" for node in range(graph.num_layers)]
    for dst, srcs in graph._rows():
        tail = f" -> F{dst};"
        lines.append("  F" + f"{tail}\n  F".join(map(str, srcs)) + tail)
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(graph: AggregationGraph) -> str:
    """Graph dump: ``{"num_layers": L, "edges": [[src, dst], ...]}``.

    The text is that of ``json.dumps(..., indent=2)`` plus a newline, written
    a node at a time: with ``indent`` set, ``json`` uses its pure-Python
    encoder, which took about 2.4 us per edge on a 2-CPU Xeon VM.
    """
    head = f'{{\n  "num_layers": {graph.num_layers},\n  "edges": ['
    rows = []
    for dst, srcs in graph._rows():
        tail = f",\n      {dst}\n    ]"
        rows.append("    [\n      " + f"{tail},\n    [\n      ".join(map(str, srcs)) + tail)
    if not rows:
        return head + "]\n}\n"
    return head + "\n" + ",\n".join(rows) + "\n  ]\n}\n"
