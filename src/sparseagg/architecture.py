"""Static planning and cost analysis of aggregation networks.

``NetworkSpec`` describes a network symbolically: an aggregation family
(how predecessor outputs are combined), a skip topology, per-block layer
counts and widths, a stem, and a classifier.  ``plan_network`` expands the
spec into a ``NetworkPlan``: the stem unit, then one ``BlockPlan`` per block
holding the block's layer units and the exit unit the block owns (the
transition after it, or the classifier after the last block).  ``analyze``
prices that plan in parameters and FLOPs without building any tensors.

Every unit -- the stem, each layer, each transition and the classifier --
is one ``Unit``: the ``(pred, lo, hi)`` channel slice that each predecessor
fills in the aggregated input, and an ordered op list of ``Conv``,
``BnRelu``, ``Pool`` and ``Linear`` ops run on that input.  The executor
(``model.Network``), the cost analyzer and the heat-map slicer all read
this one description.  The stem's single predecessor is the input image,
which it reads without aggregation.

Conventions baked into the planner (chosen to reproduce the standard
densely-concatenated CIFAR/ImageNet reference models exactly):

* Units are pre-activation BN-ReLU-Conv; convolutions carry no bias (the
  following BN absorbs it).
* Bottleneck units (concat family only) are BN-ReLU-Conv1x1 to ``4*k``
  followed by BN-ReLU-Conv3x3 to ``k``.
* A strided stem is the large-input variant: BN-ReLU and a 3x3/2
  max-pool follow its convolution.
* A transition between blocks takes the aggregation evaluated at the
  virtual index one past the block's last layer (under the block's own
  topology rule), applies BN-ReLU-Conv1x1 to ``floor(compression *
  channels)``, then average-pools.  The classifier applies BN-ReLU, global
  average pooling, and a fully-connected layer to the same closing
  aggregation of the last block.
* Sum/average families keep one width per block; the transition's 1x1
  convolution doubles as the projection when the width changes
  (``allow_projection=False`` turns that into a plan error).
* FLOPs are counted as 2 x multiply-accumulates, convolution and
  fully-connected layers only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass

from .errors import PlanError, SpecFormatError
from .topology import (
    Fractal,
    TopologyKind,
    format_topology,
    parse_topology,
    predecessors,
)

__all__ = [
    "InputSpec",
    "StemSpec",
    "BlockSpec",
    "NetworkSpec",
    "NetworkPlan",
    "Unit",
    "CostReport",
    "plan_network",
    "analyze",
    "compare_topologies",
    "load_spec",
    "save_spec",
    "spec_hash",
]

FAMILIES = ("sum", "concat", "average")


def _positive(value, name):
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise SpecFormatError(f"{name} must be a positive integer, got {value!r}")
    return value


@dataclass(frozen=True)
class InputSpec:
    height: int
    width: int
    channels: int

    def __post_init__(self):
        for field in ("height", "width", "channels"):
            _positive(getattr(self, field), f"input.{field}")


@dataclass(frozen=True)
class StemSpec:
    out_channels: int
    kernel: int
    stride: int

    def __post_init__(self):
        _positive(self.out_channels, "stem.out_channels")
        _positive(self.kernel, "stem.kernel")
        _positive(self.stride, "stem.stride")
        if self.kernel % 2 == 0:
            raise SpecFormatError(f"stem.kernel must be odd, got {self.kernel}")


@dataclass(frozen=True)
class BlockSpec:
    num_layers: int
    growth_rate: int | None = None
    width: int | None = None
    spatial_stride_out: int = 2

    def __post_init__(self):
        _positive(self.num_layers, "block.num_layers")
        _positive(self.spatial_stride_out, "block.spatial_stride_out")
        if self.growth_rate is not None:
            _positive(self.growth_rate, "block.growth_rate")
        if self.width is not None:
            _positive(self.width, "block.width")
        if (self.growth_rate is None) == (self.width is None):
            raise SpecFormatError("block needs exactly one of growth_rate (concat) or width (sum/average)")


@dataclass(frozen=True)
class NetworkSpec:
    family: str
    topology: TopologyKind
    blocks: tuple[BlockSpec, ...]
    stem: StemSpec
    num_classes: int
    input: InputSpec
    bottleneck: bool = False
    compression: float = 1.0
    allow_projection: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecFormatError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not self.blocks:
            raise SpecFormatError("at least one block required")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.num_classes < 2:
            raise SpecFormatError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.bottleneck and self.family != "concat":
            raise SpecFormatError("bottleneck units require the concat family")
        if not 0.0 < self.compression <= 1.0:
            raise SpecFormatError(f"compression must be in (0, 1], got {self.compression}")
        if not self.bottleneck and self.compression != 1.0:
            raise SpecFormatError("compression < 1 requires bottleneck units")
        for block in self.blocks:
            if self.family == "concat" and block.growth_rate is None:
                raise SpecFormatError("concat-family blocks must set growth_rate")
            if self.family in ("sum", "average") and block.width is None:
                raise SpecFormatError(f"{self.family}-family blocks must set width")

    def to_json_obj(self) -> dict:
        blocks = []
        for b in self.blocks:
            entry = {"num_layers": b.num_layers, "spatial_stride_out": b.spatial_stride_out}
            if b.growth_rate is not None:
                entry["growth_rate"] = b.growth_rate
            else:
                entry["width"] = b.width
            blocks.append(entry)
        return {
            "family": self.family,
            "topology": format_topology(self.topology),
            "blocks": blocks,
            "stem": dataclasses.asdict(self.stem),
            "num_classes": self.num_classes,
            "input": dataclasses.asdict(self.input),
            "bottleneck": self.bottleneck,
            "compression": self.compression,
            # Units are always pre-activation; the key stays so that spec
            # hashes and checkpoints written with it keep validating.
            "unit_order": "preact",
            "allow_projection": self.allow_projection,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def spec_hash(spec: NetworkSpec) -> str:
    canonical = json.dumps(spec.to_json_obj(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _take(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where} must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            raise SpecFormatError(f"unknown field {key!r} in {where}")
    for key in required:
        if key not in obj:
            raise SpecFormatError(f"missing field {key!r} in {where}")


def spec_from_json_obj(obj: dict) -> NetworkSpec:
    _take(
        obj,
        "spec",
        required=("family", "topology", "blocks", "stem", "num_classes", "input"),
        optional=("bottleneck", "compression", "unit_order", "allow_projection"),
    )
    if not isinstance(obj["topology"], str):
        raise SpecFormatError("topology must be a string like 'sparse:2'")
    topology = parse_topology(obj["topology"])
    if not isinstance(obj["blocks"], list) or not obj["blocks"]:
        raise SpecFormatError("blocks must be a non-empty list")
    blocks = []
    for i, raw in enumerate(obj["blocks"]):
        _take(raw, f"blocks[{i}]", required=("num_layers",),
              optional=("growth_rate", "width", "spatial_stride_out"))
        blocks.append(BlockSpec(**raw))
    _take(obj["stem"], "stem", required=("out_channels", "kernel", "stride"))
    _take(obj["input"], "input", required=("height", "width", "channels"))
    bottleneck = obj.get("bottleneck", False)
    allow_projection = obj.get("allow_projection", True)
    for key, value in (("bottleneck", bottleneck), ("allow_projection", allow_projection)):
        if not isinstance(value, bool):
            raise SpecFormatError(f"{key} must be a boolean")
    if obj.get("unit_order", "preact") != "preact":
        raise SpecFormatError(
            f"unit_order must be 'preact' (BN-ReLU-Conv units), got {obj['unit_order']!r}")
    compression = obj.get("compression", 0.5 if bottleneck else 1.0)
    if not isinstance(compression, (int, float)) or isinstance(compression, bool):
        raise SpecFormatError("compression must be a number")
    return NetworkSpec(
        family=obj["family"],
        topology=topology,
        blocks=tuple(blocks),
        stem=StemSpec(**obj["stem"]),
        num_classes=_positive(obj["num_classes"], "num_classes"),
        input=InputSpec(**obj["input"]),
        bottleneck=bottleneck,
        compression=float(compression),
        allow_projection=allow_projection,
    )


def load_spec(path) -> NetworkSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"{path}: not valid JSON ({exc})") from None
    return spec_from_json_obj(obj)


def save_spec(spec: NetworkSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())


# --------------------------------------------------------------------------
# Plans


@dataclass(frozen=True)
class Conv:
    name: str
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    padding: int
    out_h: int
    out_w: int


@dataclass(frozen=True)
class BnRelu:
    """Batch norm followed by ReLU; every batch norm in these networks is."""

    name: str
    channels: int


@dataclass(frozen=True)
class Pool:
    """``kind`` is "max" (kernel/stride/padding), "avg" (stride x stride) or "global"."""

    kind: str
    kernel: int = 0
    stride: int = 0
    padding: int = 0


@dataclass(frozen=True)
class Linear:
    name: str
    in_features: int
    out_features: int


Op = Conv | BnRelu | Pool | Linear


@dataclass(frozen=True)
class Unit:
    """One unit: aggregate the predecessors' outputs, then run ``ops`` in order.

    ``slices`` holds one ``(pred, lo, hi)`` per predecessor, in aggregation
    order: the channels of the aggregated input that predecessor fills
    (consecutive for concat, ``(pred, 0, width)`` for sum and average).
    """

    row: str     # CostReport row: "stem", "<block>.<layer>", "transition<block>", "classifier"
    block: int   # CostReport block number: 0 for the stem
    slices: tuple[tuple[int, int, int], ...]
    out_channels: int
    ops: tuple[Op, ...]
    predecessors: tuple[int, ...] = dataclasses.field(init=False)

    def __post_init__(self):
        # Derived once, at plan time: forward reads it several times per layer.
        object.__setattr__(self, "predecessors", tuple(p for p, _, _ in self.slices))

    @property
    def in_channels(self) -> int:
        return _span(self.slices)


@dataclass(frozen=True)
class BlockPlan:
    """A block's layer units, then the exit unit it owns: its transition, or the classifier."""

    index: int
    layers: tuple[Unit, ...]
    exit: Unit

    @property
    def num_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class NetworkPlan:
    """The stem unit, then each block with the exit unit it owns."""

    spec: NetworkSpec
    stem: Unit
    blocks: tuple[BlockPlan, ...]

    @property
    def units(self):
        """Every unit in forward order, which is also CostReport row order."""
        yield self.stem
        for block in self.blocks:
            yield from block.layers
            yield block.exit


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _span(slices) -> int:
    return max(hi for _, _, hi in slices)


def _slices(family: str, preds: list[int], widths: dict[int, int]) -> tuple:
    """``(pred, lo, hi)`` of each predecessor in the aggregated input."""
    if family != "concat":
        return tuple((p, 0, widths[p]) for p in preds)
    slices, lo = [], 0
    for p in preds:
        slices.append((p, lo, lo + widths[p]))
        lo += widths[p]
    return tuple(slices)


def plan_network(spec: NetworkSpec) -> NetworkPlan:
    """Expand a spec into units with concrete channel slices and op lists."""
    if isinstance(spec.topology, Fractal):
        raise PlanError("fractal topology supports edge counting and visualization only")

    k, s = spec.stem.kernel, spec.stem.stride
    h = _conv_out(spec.input.height, k, s, k // 2)
    w = _conv_out(spec.input.width, k, s, k // 2)
    block_in = spec.stem.out_channels
    ops = [Conv("stem.conv", spec.input.channels, block_in, k, s, k // 2, h, w)]
    if s > 1:
        ops += [BnRelu("stem.bn", block_in), Pool("max", 3, 2, 1)]
        h, w = _conv_out(h, 3, 2, 1), _conv_out(w, 3, 2, 1)
    stem = Unit("stem", 0, ((0, 0, spec.input.channels),), block_in, tuple(ops))

    blocks: list[BlockPlan] = []
    for bi, bspec in enumerate(spec.blocks, start=1):
        if spec.family in ("sum", "average") and block_in != bspec.width:
            # widths changed without a projection in front of this block
            raise PlanError(
                f"block {bi} expects width {bspec.width} but receives {block_in}; "
                "enable allow_projection or match the widths"
            )
        width = bspec.growth_rate if spec.family == "concat" else bspec.width
        widths = {0: block_in}
        layers = []
        for li in range(1, bspec.num_layers + 1):
            slices = _slices(spec.family, predecessors(spec.topology, li), widths)
            in_ch = _span(slices)
            prefix = f"block{bi}.layer{li}"
            if spec.bottleneck:
                mid = 4 * bspec.growth_rate
                ops = [BnRelu(f"{prefix}.bn1", in_ch),
                       Conv(f"{prefix}.conv1", in_ch, mid, 1, 1, 0, h, w),
                       BnRelu(f"{prefix}.bn2", mid),
                       Conv(f"{prefix}.conv2", mid, width, 3, 1, 1, h, w)]
            else:
                ops = [BnRelu(f"{prefix}.bn1", in_ch),
                       Conv(f"{prefix}.conv1", in_ch, width, 3, 1, 1, h, w)]
            layers.append(Unit(f"{bi}.{li}", bi, slices, width, tuple(ops)))
            widths[li] = width

        slices = _slices(spec.family, predecessors(spec.topology, bspec.num_layers + 1), widths)
        close_ch = _span(slices)
        if bi == len(spec.blocks):
            ops = [BnRelu("classifier.bn", close_ch), Pool("global"),
                   Linear("classifier.fc", close_ch, spec.num_classes)]
            classifier = Unit("classifier", bi, slices, spec.num_classes, tuple(ops))
            blocks.append(BlockPlan(bi, tuple(layers), classifier))
            break
        if spec.family == "concat":
            out_ch = int(spec.compression * close_ch)
        else:
            out_ch = spec.blocks[bi].width
        prefix = f"transition{bi}"
        ops = [BnRelu(f"{prefix}.bn", close_ch)]
        if spec.family == "concat" or out_ch != close_ch:
            if spec.family in ("sum", "average") and not spec.allow_projection:
                raise PlanError(
                    f"width changes from {close_ch} to {out_ch} after block {bi} "
                    "but allow_projection is off"
                )
            ops.append(Conv(f"{prefix}.conv", close_ch, out_ch, 1, 1, 0, h, w))
        stride = bspec.spatial_stride_out
        if h % stride or w % stride:
            raise PlanError(
                f"{prefix} average-pools by {stride}, but block {bi} is {h}x{w}; "
                "choose an input size that every pooling stride divides"
            )
        ops.append(Pool("avg", stride, stride))
        blocks.append(BlockPlan(bi, tuple(layers), Unit(prefix, bi, slices, out_ch, tuple(ops))))
        block_in = out_ch
        h, w = h // stride, w // stride

    return NetworkPlan(spec, stem, tuple(blocks))


# --------------------------------------------------------------------------
# Cost analysis


@dataclass(frozen=True)
class CostRow:
    layer: str
    block: int
    in_ch: int
    out_ch: int
    params: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    rows: tuple[CostRow, ...]
    total_params: int
    total_flops: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("layer,block,in_ch,out_ch,params,flops\n")
        for row in self.rows:
            buf.write(f"{row.layer},{row.block},{row.in_ch},{row.out_ch},{row.params},{row.flops}\n")
        buf.write(f"total,,,,{self.total_params},{self.total_flops}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        obj = {
            "rows": [dataclasses.asdict(row) for row in self.rows],
            "total_params": self.total_params,
            "total_flops": self.total_flops,
        }
        return json.dumps(obj, indent=2) + "\n"


def _op_cost(op: Op) -> tuple[int, int]:
    """(params, FLOPs) of one op; batch-norm scale and shift count as parameters."""
    if isinstance(op, Conv):
        params = op.in_channels * op.out_channels * op.kernel * op.kernel
        return params, 2 * op.out_h * op.out_w * params
    if isinstance(op, BnRelu):
        return 2 * op.channels, 0
    if isinstance(op, Linear):
        macs = op.in_features * op.out_features
        return macs + op.out_features, 2 * macs
    return 0, 0


def analyze(spec: NetworkSpec) -> CostReport:
    """Price every unit of the planned network in parameters and FLOPs."""
    rows: list[CostRow] = []
    for unit in plan_network(spec).units:
        costs = [_op_cost(op) for op in unit.ops]
        rows.append(CostRow(unit.row, unit.block, unit.in_channels, unit.out_channels,
                            sum(p for p, _ in costs), sum(f for _, f in costs)))
    total_params = sum(r.params for r in rows)
    total_flops = sum(r.flops for r in rows)
    return CostReport(tuple(rows), total_params, total_flops)


def compare_topologies(spec: NetworkSpec, kinds: list[TopologyKind]) -> dict[str, CostReport]:
    """Analyze the same spec under each topology; keys are topology strings."""
    reports: dict[str, CostReport] = {}
    for kind in kinds:
        variant = dataclasses.replace(spec, topology=kind)
        reports[format_topology(kind)] = analyze(variant)
    return reports
