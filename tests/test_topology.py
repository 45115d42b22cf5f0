import json
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseagg.errors import NoPathError, TopologyError
from sparseagg.topology import (
    AggregationGraph,
    Dense,
    Fractal,
    Plain,
    Sparse,
    build_graph,
    export_dot,
    export_json,
    format_topology,
    gradient_path_lengths,
    parse_topology,
    predecessors,
    shortest_gradient_path,
)

ALL_KINDS = [Plain(), Dense(), Sparse(2), Sparse(3), Sparse(5)]


# ---------------------------------------------------------------------------
# predecessors: pinned cases


def test_sparse2_layer6():
    assert predecessors(Sparse(2), 6) == [5, 4, 2]


def test_sparse2_layer1():
    assert predecessors(Sparse(2), 1) == [0]


def test_dense_layer4():
    assert predecessors(Dense(), 4) == [3, 2, 1, 0]


def test_sparse3_layer10():
    assert predecessors(Sparse(3), 10) == [9, 7, 1]


def test_plain_is_previous_only():
    for layer in (1, 2, 17, 400):
        assert predecessors(Plain(), layer) == [layer - 1]


def test_rejects_nonpositive_layer():
    with pytest.raises(TopologyError):
        predecessors(Dense(), 0)
    with pytest.raises(TopologyError):
        predecessors(Sparse(2), -3)


# ---------------------------------------------------------------------------
# predecessors: properties


def _offsets_by_loop(base: int, layer: int) -> list[int]:
    # independent enumeration of powers of the base
    offsets = []
    power = 1
    while power <= layer:
        offsets.append(power)
        power *= base
    return offsets


@given(base=st.integers(2, 7), layer=st.integers(1, 5000))
def test_sparse_in_degree_formula(base, layer):
    preds = predecessors(Sparse(base), layer)
    assert len(preds) == math.floor(math.log(layer, base)) + 1 or \
        len(preds) == len(_offsets_by_loop(base, layer))
    assert len(preds) == len(_offsets_by_loop(base, layer))
    assert preds == [layer - off for off in _offsets_by_loop(base, layer)]


@given(base=st.integers(2, 50), layer=st.integers(1, 49))
def test_sparse_degenerates_to_plain_when_base_exceeds_layer(base, layer):
    if base > layer:
        assert predecessors(Sparse(base), layer) == [layer - 1]


@given(base=st.integers(2, 7), layer=st.integers(1, 1000))
def test_sparse_subset_of_dense(base, layer):
    assert set(predecessors(Sparse(base), layer)) <= set(predecessors(Dense(), layer))


@given(layer=st.integers(1, 1000))
def test_predecessors_strictly_decreasing_and_in_range(layer):
    for kind in ALL_KINDS:
        preds = predecessors(kind, layer)
        assert all(0 <= p < layer for p in preds)
        assert all(a > b for a, b in zip(preds, preds[1:]))


# ---------------------------------------------------------------------------
# graph construction


def test_plain_l4_edges():
    g = build_graph(Plain(), 4)
    assert g.edge_set() == {(0, 1), (1, 2), (2, 3)}


def test_sparse2_l5_edges():
    g = build_graph(Sparse(2), 5)
    assert g.edge_set() == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (2, 4), (3, 4)}


def test_dense_l4_edge_count():
    assert build_graph(Dense(), 4).num_edges == 6


def test_edge_counts_l8():
    assert build_graph(Sparse(2), 8).num_edges == 17
    assert build_graph(Dense(), 8).num_edges == 28
    assert build_graph(Plain(), 8).num_edges == 7


def test_fractal_size_is_locked_to_columns():
    g = build_graph(Fractal(3), 8)
    assert g.num_layers == 8
    with pytest.raises(TopologyError):
        build_graph(Fractal(3), 9)


def test_graph_rejects_bad_num_layers():
    with pytest.raises(TopologyError):
        build_graph(Dense(), 0)


@pytest.mark.parametrize("preds, first_bad", [
    ([[], [0], [3], [2]], 2),        # backward edge 3 -> 2
    ([[], [0], [0, 2], [1]], 2),     # self-edge 2 -> 2
    ([[], [-1], [0]], 1),            # negative source
    ([[], [0], [1], [0, 5], [9]], 3),  # two bad nodes: the first is named
    ([[0], [0]], 0),                 # node 0 has no earlier node
], ids=["backward", "self", "negative", "first-of-two", "into-node-0"])
def test_graph_rejects_edges_that_do_not_run_forward(preds, first_bad):
    arrays = [np.asarray(p, dtype=np.int32) for p in preds]
    message = rf"^edges into node {first_bad} must come from 0\.\.{first_bad - 1}$"
    with pytest.raises(TopologyError, match=message):
        AggregationGraph(len(arrays), arrays)


@given(layers=st.integers(1, 128), kind_idx=st.integers(0, len(ALL_KINDS) - 1))
def test_edges_are_forward_and_unique(layers, kind_idx):
    g = build_graph(ALL_KINDS[kind_idx], layers)
    edges = list(g.edges())
    assert len(edges) == len(set(edges)) == g.num_edges
    assert all(src < dst for src, dst in edges)


@given(layers=st.integers(2, 128))
def test_successors_invert_predecessors(layers):
    g = build_graph(Sparse(2), layers)
    rebuilt = set()
    for node in range(g.num_layers):
        for succ in g.successors_of(node):
            rebuilt.add((node, int(succ)))
    assert rebuilt == g.edge_set()


def test_reachability_of_final_node():
    # every node can forward its output to the last layer
    for kind in ALL_KINDS:
        for layers in (2, 17, 64, 129):
            g = build_graph(kind, layers)
            reach = _reaches(g, targets={g.num_layers - 1})
            assert reach.all(), f"{kind} L={layers}"


def _reaches(g: AggregationGraph, targets: set[int]) -> np.ndarray:
    reach = np.zeros(g.num_layers, dtype=bool)
    for t in targets:
        reach[t] = True
    for node in range(g.num_layers - 1, -1, -1):
        if not reach[node]:
            reach[node] = any(reach[s] for s in g.successors_of(node))
    return reach


def test_fractal_nodes_reach_a_terminal():
    # shallow-column terminals are sinks, so the single-sink invariant is
    # relaxed: every node must reach some sink instead
    for cols in (1, 2, 3, 4, 6):
        g = build_graph(Fractal(cols), 2 ** cols)
        sinks = {n for n in range(g.num_layers) if len(g.successors_of(n)) == 0}
        assert g.num_layers - 1 in sinks
        assert _reaches(g, sinks).all()


# ---------------------------------------------------------------------------
# scaling envelopes


def test_edge_count_scaling_envelopes():
    for exp in (6, 7, 8, 9, 10):
        layers = 2 ** exp
        sparse_ratio = build_graph(Sparse(2), layers).num_edges / (layers * exp)
        assert 0.5 <= sparse_ratio <= 1.5
        dense_ratio = build_graph(Dense(), layers).num_edges / layers ** 2
        assert abs(dense_ratio - 0.5) < 0.01


def test_fractal_edges_at_most_4l():
    for cols in range(1, 11):
        layers = 2 ** cols
        assert build_graph(Fractal(cols), layers).num_edges <= 4 * layers


# ---------------------------------------------------------------------------
# shortest gradient paths


def test_path_pins():
    assert shortest_gradient_path(build_graph(Dense(), 64), 0, 50) == 1
    assert shortest_gradient_path(build_graph(Plain(), 16), 3, 9) == 6
    assert shortest_gradient_path(build_graph(Sparse(2), 8), 0, 7) == 3


def test_no_backward_path():
    g = build_graph(Dense(), 8)
    with pytest.raises(NoPathError):
        shortest_gradient_path(g, 5, 2)
    assert shortest_gradient_path(g, 4, 4) == 0


def _bfs_distances(g: AggregationGraph, src: int) -> np.ndarray:
    # independent oracle: breadth-first search over the successor lists
    dist = np.full(g.num_layers, -1, dtype=np.int64)
    dist[src] = 0
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nxt in g.successors_of(node).tolist():
            if dist[nxt] < 0:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


ORACLE_GRAPHS = [(kind, 96) for kind in ALL_KINDS] + [
    (Fractal(5), 32), (Sparse(2), 1024), (Dense(), 256)]


@pytest.mark.parametrize("kind, layers", ORACLE_GRAPHS, ids=str)
def test_gradient_paths_match_bfs_oracle(kind, layers):
    g = build_graph(kind, layers)
    for src in (0, 1, layers // 2):
        expected = _bfs_distances(g, src)
        assert np.array_equal(gradient_path_lengths(g, src), expected)
        last = layers - 1
        if expected[last] >= 0:
            assert shortest_gradient_path(g, src, last) == expected[last]


def test_sparse2_path_bound_l1024():
    g = build_graph(Sparse(2), 1024)
    dist = gradient_path_lengths(g, 0)
    assert dist.min() >= 0
    assert dist.max() <= 2 * 10


# ---------------------------------------------------------------------------
# parsing and export


def test_parse_format_round_trip():
    for text in ("plain", "dense", "sparse:2", "sparse:7", "fractal:4"):
        assert format_topology(parse_topology(text)) == text


def test_parse_rejects_garbage():
    for bad in ("", "sparse", "sparse:1", "sparse:x", "dense:3", "fractal:0", "mesh"):
        with pytest.raises(TopologyError):
            parse_topology(bad)


def test_dot_plain_l2_single_edge():
    text = export_dot(build_graph(Plain(), 2))
    assert text.count("->") == 1
    assert "F0 -> F1;" in text


def test_dot_sparse2_l3_edges():
    text = export_dot(build_graph(Sparse(2), 3))
    for edge in ("F0 -> F1;", "F0 -> F2;", "F1 -> F2;"):
        assert edge in text
    assert text.count("->") == 3


def test_dot_dense_l1_no_edges():
    text = export_dot(build_graph(Dense(), 1))
    assert text.startswith("digraph")
    assert "F0;" in text
    assert "->" not in text


def test_dot_is_deterministic():
    a = export_dot(build_graph(Sparse(2), 40))
    b = export_dot(build_graph(Sparse(2), 40))
    assert a == b


def test_json_export_round_trip():
    g = build_graph(Sparse(3), 30)
    obj = json.loads(export_json(g))
    assert obj["num_layers"] == 30
    assert {(s, d) for s, d in obj["edges"]} == g.edge_set()


def _edges_by_dst(g: AggregationGraph) -> list[tuple[int, int]]:
    return [(src, dst) for dst in range(g.num_layers)
            for src in sorted(g.predecessors_of(dst).tolist())]


EXPORT_GRAPHS = [(Plain(), 9), (Sparse(2), 40), (Sparse(3), 40), (Dense(), 24),
                 (Fractal(4), 16), (Dense(), 1)]


@pytest.mark.parametrize("kind, layers", EXPORT_GRAPHS, ids=str)
def test_json_export_is_json_dumps_text(kind, layers):
    g = build_graph(kind, layers)
    payload = {"num_layers": layers, "edges": [[s, d] for s, d in _edges_by_dst(g)]}
    assert export_json(g) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("kind, layers", EXPORT_GRAPHS, ids=str)
def test_dot_export_lines(kind, layers):
    g = build_graph(kind, layers)
    lines = ["digraph aggregation {"]
    lines += [f"  F{node};" for node in range(layers)]
    lines += [f"  F{src} -> F{dst};" for src, dst in _edges_by_dst(g)]
    lines.append("}")
    assert export_dot(g) == "".join(line + "\n" for line in lines)


def test_json_export_of_one_node_graph():
    assert export_json(build_graph(Dense(), 1)) == '{\n  "num_layers": 1,\n  "edges": []\n}\n'
