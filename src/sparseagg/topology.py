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
import json
from collections import deque
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

    Predecessor lists are held as int32 arrays, which keeps dense graphs at
    a few thousand layers affordable.
    """

    def __init__(self, num_layers: int, preds: list[np.ndarray]):
        if num_layers < 1:
            raise TopologyError(f"graph needs at least one node, got {num_layers}")
        if len(preds) != num_layers:
            raise TopologyError("one predecessor list per node required")
        self.num_layers = num_layers
        self._preds = [np.asarray(p, dtype=np.int32) for p in preds]
        for dst, srcs in enumerate(self._preds):
            if srcs.size and (srcs.min() < 0 or srcs.max() >= dst):
                raise TopologyError(f"edges into node {dst} must come from 0..{dst - 1}")
        self._succs: list[np.ndarray] | None = None

    @property
    def num_edges(self) -> int:
        return int(sum(p.size for p in self._preds))

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

    def edges(self):
        """Yield (src, dst) sorted by (dst, src)."""
        for dst, srcs in enumerate(self._preds):
            for src in sorted(srcs.tolist()):
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


def _hops(graph: AggregationGraph, src: int, dst: int = -1) -> np.ndarray:
    """BFS hop counts from ``src`` (-1 where unreached); stops once ``dst`` is reached."""
    if not 0 <= src < graph.num_layers:
        raise TopologyError(f"node {src} outside 0..{graph.num_layers - 1}")
    dist = np.full(graph.num_layers, -1, dtype=np.int64)
    dist[src] = 0
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nxt in graph.successors_of(node).tolist():
            if dist[nxt] < 0:
                dist[nxt] = dist[node] + 1
                if nxt == dst:
                    return dist
                queue.append(nxt)
    return dist


def gradient_path_lengths(graph: AggregationGraph, src: int) -> np.ndarray:
    """BFS hop counts from ``src`` to every node (-1 where unreachable)."""
    return _hops(graph, src)


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
    for node in range(graph.num_layers):
        lines.append(f"  F{node};")
    for src, dst in graph.edges():
        lines.append(f"  F{src} -> F{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(graph: AggregationGraph) -> str:
    """Graph dump: ``{"num_layers": L, "edges": [[src, dst], ...]}``."""
    payload = {
        "num_layers": graph.num_layers,
        "edges": [[src, dst] for src, dst in graph.edges()],
    }
    return json.dumps(payload, indent=2) + "\n"
