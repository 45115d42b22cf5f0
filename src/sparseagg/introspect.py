"""Feature-reuse heat maps from trained convolution weights.

For concat-family networks, each layer's first convolution sees its
predecessors stacked along channels, each in the channel slice its plan
unit records, so the mean absolute weight over each source's slice
measures how much the layer reads from that source.  One matrix per block:
row = target layer (1..n), column = source (0 = block input .. n), entries
min-max normalized per row over the sources that are actually wired;
constant rows normalize to 1.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .architecture import Conv, spec_hash
from .errors import DataFormatError, PlanError
from .model import Network
from .topology import format_topology

__all__ = [
    "BlockHeatmap",
    "HeatmapReport",
    "weight_heatmap",
    "export_heatmap",
    "load_heatmap_csv",
    "heatmap_to_pgm",
]

ABSENT = "absent"


@dataclass(frozen=True)
class BlockHeatmap:
    block: int
    raw: np.ndarray     # (n, n+1) mean |w| per wired source, 0 where absent
    matrix: np.ndarray  # per-row min-max normalized raw
    mask: np.ndarray    # (n, n+1) bool, True where the edge exists


@dataclass(frozen=True)
class HeatmapReport:
    blocks: tuple[BlockHeatmap, ...]
    spec_hash: str
    topology: str
    epoch: int | None


def _normalize_rows(raw: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(raw)
    for i in range(raw.shape[0]):
        present = mask[i]
        if not present.any():
            continue
        vals = raw[i, present]
        lo, hi = vals.min(), vals.max()
        if hi - lo <= 0:
            out[i, present] = 1.0
        else:
            out[i, present] = (raw[i, present] - lo) / (hi - lo)
    return out


def weight_heatmap(net: Network, epoch: int | None = None) -> HeatmapReport:
    """Per-block source-attribution matrices from the current weights."""
    spec = net.spec
    if spec.family != "concat":
        raise PlanError(
            "feature-reuse heat maps need the concat family; "
            f"this network aggregates by {spec.family}"
        )
    blocks: list[BlockHeatmap] = []
    for bp in net.plan.blocks:
        n = bp.num_layers
        raw = np.zeros((n, n + 1))
        mask = np.zeros((n, n + 1), dtype=bool)
        for row, unit in enumerate(bp.layers):
            conv = next(op for op in unit.ops if isinstance(op, Conv))
            w = net.params[conv.name].data
            for p, lo, hi in unit.slices:
                raw[row, p] = float(np.abs(w[:, lo:hi]).mean())
                mask[row, p] = True
        blocks.append(BlockHeatmap(bp.index, raw, _normalize_rows(raw, mask), mask))
    return HeatmapReport(tuple(blocks), spec_hash(spec), format_topology(spec.topology), epoch)


# ---------------------------------------------------------------------------
# export formats


def _block_csv(hm: BlockHeatmap) -> str:
    n_src = hm.matrix.shape[1]
    lines = ["target," + ",".join(f"source_{s}" for s in range(n_src))]
    for i in range(hm.matrix.shape[0]):
        cells = [str(i + 1)]
        for s in range(n_src):
            cells.append(repr(float(hm.matrix[i, s])) if hm.mask[i, s] else ABSENT)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def load_heatmap_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read one exported block back as (matrix, mask); every wired cell lies in [0, 1]."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("target,"):
        raise DataFormatError(f"{path} is not a heat-map CSV")
    n_src = len(lines[0].split(",")) - 1
    rows = lines[1:]
    matrix = np.zeros((len(rows), n_src))
    mask = np.zeros((len(rows), n_src), dtype=bool)
    for i, line in enumerate(rows):
        cells = line.split(",")
        if len(cells) != n_src + 1:
            raise DataFormatError(f"{path} row {i + 2} has {len(cells)} cells, expected {n_src + 1}")
        for s, cell in enumerate(cells[1:]):
            if cell == ABSENT:
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not 0.0 <= value <= 1.0:  # NaN fails the range test too
                raise DataFormatError(f"{path} row {i + 2} has a cell that is not a number "
                                      f"in [0, 1]: {cell!r}")
            matrix[i, s] = value
            mask[i, s] = True
    return matrix, mask


def heatmap_to_pgm(hm: BlockHeatmap) -> bytes:
    """Binary PGM (P5), one gray byte per cell: absent = 255, else 254 * value."""
    n, n_src = hm.matrix.shape
    pixels = np.full((n, n_src), 255, dtype=np.uint8)
    present = hm.mask
    pixels[present] = np.round(hm.matrix[present] * 254.0).astype(np.uint8)
    header = f"P5\n{n_src} {n}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def export_heatmap(report: HeatmapReport, directory, formats=("csv", "pgm")) -> list[str]:
    """Write per-block files plus a small metadata JSON; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths: list[str] = []
    for hm in report.blocks:
        if "csv" in formats:
            path = os.path.join(directory, f"heatmap_block{hm.block}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_block_csv(hm))
            paths.append(path)
        if "pgm" in formats:
            path = os.path.join(directory, f"heatmap_block{hm.block}.pgm")
            with open(path, "wb") as fh:
                fh.write(heatmap_to_pgm(hm))
            paths.append(path)
    meta = {
        "spec_hash": report.spec_hash,
        "topology": report.topology,
        "epoch": report.epoch,
        "blocks": len(report.blocks),
        "normalization": "per-row min-max over wired sources; constant rows map to 1",
    }
    meta_path = os.path.join(directory, "heatmap_meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(meta_path)
    return paths
