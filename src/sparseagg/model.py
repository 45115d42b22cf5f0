"""Compile network plans into executable parameter sets and run them.

``compile_network`` materializes the parameters of every op in the plan's
units -- convolutions, batch norms, the classifier's linear layer -- as
float tensors with seeded He initialization.  ``Network.forward`` runs the
stem's op list on the input, then for each block aggregates every layer's
predecessors and runs its op list, keeping a per-block cache of layer
outputs that is evicted as soon as the last consumer has read each entry
(so sparse topologies genuinely hold fewer live activations than dense
ones), and finally runs the block's exit unit (transition or classifier)
on the block's closing aggregation.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .architecture import (
    BnRelu,
    Conv,
    Linear,
    NetworkPlan,
    NetworkSpec,
    Op,
    Unit,
    plan_network,
    spec_from_json_obj,
    spec_hash,
)
from .errors import CheckpointError, DataFormatError
from .tensor import BatchNormState, Tensor

__all__ = [
    "Network",
    "ForwardStats",
    "compile_network",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "aggnet-checkpoint-v1"
# JSON types of the manifest fields that load_checkpoint reads.
_MANIFEST_FIELDS = {"spec": dict, "spec_hash": str, "seed": int, "dtype": str,
                    "params": list, "bn_states": dict}
_BN_META_FIELDS = {"steps": int, "eps": (int, float), "momentum": (int, float)}
_FLOAT_DTYPES = ("float32", "float64")  # the dtypes Tensor and save_array support

@dataclass
class ForwardStats:
    """Activation liveness counters collected during one forward pass."""

    peak_cached: int = 0

    def observe(self, block_peak: int) -> None:
        self.peak_cached = max(self.peak_cached, block_peak)


def _he_conv(rng: np.random.Generator, out_ch: int, in_ch: int, k: int, dtype) -> np.ndarray:
    fan_in = in_ch * k * k
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal((out_ch, in_ch, k, k)) * std).astype(dtype)


def _he_linear(rng: np.random.Generator, in_f: int, out_f: int, dtype) -> np.ndarray:
    std = np.sqrt(2.0 / in_f)
    return (rng.standard_normal((in_f, out_f)) * std).astype(dtype)


class Network:
    """Executable network: parameters plus the plan that orders them."""

    def __init__(self, spec: NetworkSpec, plan: NetworkPlan, params: dict[str, Tensor],
                 bn_states: dict[str, BatchNormState], seed: int, dtype):
        self.spec = spec
        self.plan = plan
        self.params = params
        self.bn_states = bn_states
        self.seed = seed
        self.dtype = np.dtype(dtype)

    # -- parameter access ---------------------------------------------------

    def num_params(self) -> int:
        return sum(int(p.data.size) for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- forward ------------------------------------------------------------

    def _op(self, op: Op, x: Tensor, training: bool) -> Tensor:
        # Ops are looked up on the tensor module at call time, so that a
        # profiler can wrap them; each takes its parameter positionally.
        if isinstance(op, Conv):
            return T.conv2d(x, self.params[op.name], op.stride, op.padding)
        if isinstance(op, BnRelu):
            return T.batch_norm(x, self.params[f"{op.name}.gamma"], self.params[f"{op.name}.beta"],
                                self.bn_states[op.name], training, relu=True)
        if isinstance(op, Linear):
            return T.linear(x, self.params[f"{op.name}.weight"], self.params[f"{op.name}.bias"])
        if op.kind == "max":
            return T.max_pool2d(x, op.kernel, op.stride, op.padding)
        if op.kind == "avg":
            return T.avg_pool2d(x, op.stride)
        return T.global_avg_pool(x)

    def _unit(self, unit: Unit, x: Tensor, training: bool) -> Tensor:
        for op in unit.ops:
            x = self._op(op, x, training)
        return x

    def _gather(self, cache: dict[int, Tensor], remaining: Counter, unit: Unit) -> Tensor:
        """Aggregate ``unit``'s predecessors, evicting each after its last read."""
        agg = T.aggregate(self.spec.family, [cache[p] for p in unit.predecessors])
        for p in unit.predecessors:
            remaining[p] -= 1
            if remaining[p] == 0:
                del cache[p]
        return agg

    def forward(self, x, training: bool = False, stats: ForwardStats | None = None) -> Tensor:
        """Run the network; returns logits (N, num_classes)."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        n, c, h, w = x.data.shape if x.data.ndim == 4 else (0, 0, 0, 0)
        inp = self.spec.input
        if x.data.ndim != 4 or (c, h, w) != (inp.channels, inp.height, inp.width):
            raise DataFormatError(
                f"input shape {tuple(x.data.shape)} does not match spec "
                f"(N, {inp.channels}, {inp.height}, {inp.width})"
            )

        out = self._unit(self.plan.stem, x, training)
        for block in self.plan.blocks:
            remaining = Counter(p for unit in (*block.layers, block.exit) for p in unit.predecessors)
            cache: dict[int, Tensor] = {0: out}
            peak = 1
            for li, unit in enumerate(block.layers, start=1):
                # No local holds the aggregate, so without a graph it is
                # freed as soon as the unit has run.
                cache[li] = self._unit(unit, self._gather(cache, remaining, unit), training)
                peak = max(peak, len(cache))
            if stats is not None:
                stats.observe(peak)
            out = self._gather(cache, remaining, block.exit)  # drops the block input
            out = self._unit(block.exit, out, training)
        return out

    def predict(self, x) -> np.ndarray:
        """Argmax class indices in eval mode, no graph construction."""
        with T.no_grad():
            logits = self.forward(x, training=False)
        return logits.data.argmax(axis=1)


def compile_network(spec: NetworkSpec, seed: int = 0, dtype=np.float32) -> Network:
    """Materialize a spec as tensors with seeded He-normal initialization."""
    plan = plan_network(spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    dtype = np.dtype(dtype)
    params: dict[str, Tensor] = {}
    bn_states: dict[str, BatchNormState] = {}
    # Weights are drawn from the RNG in this order -- stem, every layer block
    # by block, then every block's exit (the transitions, then the
    # classifier) -- not in forward order: seeded initial weights, and so
    # every seeded result and the seeded checkpoints already written,
    # depend on it.
    layers = [unit for block in plan.blocks for unit in block.layers]
    for unit in (plan.stem, *layers, *(block.exit for block in plan.blocks)):
        for op in unit.ops:
            if isinstance(op, Conv):
                params[op.name] = Tensor(
                    _he_conv(rng, op.out_channels, op.in_channels, op.kernel, dtype),
                    requires_grad=True)
            elif isinstance(op, BnRelu):
                params[f"{op.name}.gamma"] = Tensor(np.ones(op.channels, dtype=dtype),
                                                    requires_grad=True)
                params[f"{op.name}.beta"] = Tensor(np.zeros(op.channels, dtype=dtype),
                                                   requires_grad=True)
                bn_states[op.name] = BatchNormState.create(op.channels, dtype=dtype)
            elif isinstance(op, Linear):
                params[f"{op.name}.weight"] = Tensor(
                    _he_linear(rng, op.in_features, op.out_features, dtype), requires_grad=True)
                params[f"{op.name}.bias"] = Tensor(np.zeros(op.out_features, dtype=dtype),
                                                   requires_grad=True)
    return Network(spec, plan, params, bn_states, seed, dtype)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(net: Network, directory, epoch: int = 0, extra: dict | None = None) -> None:
    """Write parameters, batch-norm state, and a manifest under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for name, p in net.params.items():
        T.save_array(p.data, os.path.join(directory, name))
    bn_meta = {}
    for name, st in net.bn_states.items():
        T.save_array(st.running_mean, os.path.join(directory, f"{name}.running_mean"))
        T.save_array(st.running_var, os.path.join(directory, f"{name}.running_var"))
        bn_meta[name] = {"steps": st.steps, "eps": st.eps, "momentum": st.momentum}
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "spec": net.spec.to_json_obj(),
        "spec_hash": spec_hash(net.spec),
        "seed": net.seed,
        "dtype": str(net.dtype),
        "epoch": epoch,
        "params": sorted(net.params),
        "bn_states": bn_meta,
    }
    if extra:
        manifest["extra"] = extra
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_tensor(directory, name: str, shape: tuple, dtype) -> np.ndarray:
    arr = T.load_array(os.path.join(directory, name))
    if arr.shape != shape:
        raise CheckpointError(f"checkpoint tensor {name} has shape {arr.shape}, expected {shape}")
    arr = arr.astype(dtype, copy=False)
    if not np.isfinite(arr).all():
        raise CheckpointError(f"checkpoint tensor {name} holds a value that is not finite")
    return arr


def _check_fields(obj, fields: dict, where: str) -> None:
    if not isinstance(obj, dict):
        raise CheckpointError(f"{where} must be a JSON object, got {type(obj).__name__}")
    for key, kind in fields.items():
        if key not in obj:
            raise CheckpointError(f"{where} is missing field {key!r}")
        if isinstance(obj[key], bool) or not isinstance(obj[key], kind):
            raise CheckpointError(f"{where} field {key!r} has the wrong type: {obj[key]!r}")


def load_checkpoint(directory, expect_spec: NetworkSpec | None = None) -> tuple[Network, dict]:
    """Rebuild a network bit-exactly from ``save_checkpoint`` output."""
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint manifest at {path}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable checkpoint manifest at {path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        found = manifest.get("format") if isinstance(manifest, dict) else manifest
        raise CheckpointError(f"unknown checkpoint format {found!r}")
    _check_fields(manifest, _MANIFEST_FIELDS, "checkpoint manifest")
    if manifest["seed"] < 0:
        raise CheckpointError(f"checkpoint seed must be non-negative, got {manifest['seed']}")
    if manifest["dtype"] not in _FLOAT_DTYPES:
        raise CheckpointError(f"checkpoint dtype must be one of {_FLOAT_DTYPES}, "
                              f"got {manifest['dtype']!r}")

    spec = spec_from_json_obj(manifest["spec"])
    if spec_hash(spec) != manifest["spec_hash"]:
        raise CheckpointError("checkpoint spec hash does not match its spec payload")
    if expect_spec is not None and spec_hash(expect_spec) != manifest["spec_hash"]:
        raise CheckpointError("checkpoint was produced for a different network spec")

    net = compile_network(spec, seed=manifest["seed"], dtype=np.dtype(manifest["dtype"]))
    if sorted(net.params) != manifest["params"]:
        raise CheckpointError("checkpoint parameter list does not match the compiled network")
    for name, p in net.params.items():
        p.data = _load_tensor(directory, name, p.data.shape, net.dtype)
    for name, st in net.bn_states.items():
        meta = manifest["bn_states"].get(name)
        if meta is None:
            raise CheckpointError(f"checkpoint is missing batch-norm state {name}")
        _check_fields(meta, _BN_META_FIELDS, f"checkpoint batch-norm state {name}")
        # NaN fails every comparison, so it is rejected here too
        if not (meta["steps"] >= 0 and 0 < meta["eps"] < np.inf and 0 <= meta["momentum"] <= 1):
            raise CheckpointError(f"checkpoint batch-norm state {name} needs steps >= 0, a finite "
                                  f"eps > 0 and momentum in [0, 1], got {meta!r}")
        st.running_mean = _load_tensor(directory, f"{name}.running_mean",
                                       st.running_mean.shape, net.dtype)
        st.running_var = _load_tensor(directory, f"{name}.running_var",
                                      st.running_var.shape, net.dtype)
        if (st.running_var < 0).any():
            raise CheckpointError(f"checkpoint tensor {name}.running_var holds a negative variance")
        st.steps = meta["steps"]
        st.eps = float(meta["eps"])
        st.momentum = float(meta["momentum"])
    return net, manifest
