"""Compile network plans into executable parameter sets and run them.

``compile_network`` materializes every convolution, batch norm, and linear
layer of a plan as float tensors with seeded He initialization.  The
resulting ``Network.forward`` walks the plan block by block, keeping a
per-block cache of layer outputs that is evicted as soon as the last
consumer has read each entry, so sparse topologies genuinely hold fewer
live activations than dense ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .architecture import (
    NetworkPlan,
    NetworkSpec,
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

@dataclass
class ForwardStats:
    """Activation liveness counters collected during one forward pass."""

    peak_cached: int = 0
    per_block: list[int] = field(default_factory=list)

    def observe(self, block_peak: int) -> None:
        self.per_block.append(block_peak)
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

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def num_params(self) -> int:
        return sum(int(p.data.size) for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- building blocks ----------------------------------------------------

    def _bn(self, name: str, x: Tensor, training: bool) -> Tensor:
        return T.batch_norm(x, self.params[f"{name}.gamma"], self.params[f"{name}.beta"],
                            self.bn_states[name], training)

    def _conv(self, plan_conv, x: Tensor) -> Tensor:
        return T.conv2d(x, self.params[plan_conv.name], plan_conv.stride, plan_conv.padding)

    def _layer(self, lp, x: Tensor, training: bool) -> Tensor:
        preact = self.spec.unit_order == "preact"
        prefix = f"block{lp.block}.layer{lp.index}"
        if self.spec.bottleneck:
            if preact:
                x = T.relu(self._bn(f"{prefix}.bn1", x, training))
                x = self._conv(lp.convs[0], x)
                x = T.relu(self._bn(f"{prefix}.bn2", x, training))
                return self._conv(lp.convs[1], x)
            x = self._conv(lp.convs[0], x)
            x = T.relu(self._bn(f"{prefix}.bn1", x, training))
            x = self._conv(lp.convs[1], x)
            return T.relu(self._bn(f"{prefix}.bn2", x, training))
        if preact:
            x = T.relu(self._bn(f"{prefix}.bn1", x, training))
            return self._conv(lp.convs[0], x)
        x = self._conv(lp.convs[0], x)
        return T.relu(self._bn(f"{prefix}.bn1", x, training))

    def _aggregate(self, cache: dict[int, Tensor], preds: tuple[int, ...]) -> Tensor:
        return T.aggregate(self.spec.family, [cache[p] for p in preds])

    # -- forward ------------------------------------------------------------

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

        preact = self.spec.unit_order == "preact"
        out = self._conv(self.plan.stem.convs[0], x)
        if self.plan.stem.max_pool:
            out = T.relu(self._bn("stem.bn", out, training))
            out = T.max_pool2d(out, 3, 2, 1)

        for bi, bp in enumerate(self.plan.blocks, start=1):
            close_preds = (self.plan.transitions[bi - 1].predecessors
                           if bi <= len(self.plan.transitions)
                           else self.plan.classifier.predecessors)
            remaining: dict[int, int] = {}
            for lp in bp.layers:
                for p in lp.predecessors:
                    remaining[p] = remaining.get(p, 0) + 1
            for p in close_preds:
                remaining[p] = remaining.get(p, 0) + 1

            cache: dict[int, Tensor] = {0: out}
            peak = 1
            for lp in bp.layers:
                agg = self._aggregate(cache, lp.predecessors)
                for p in lp.predecessors:
                    remaining[p] -= 1
                    if remaining[p] == 0:
                        del cache[p]
                cache[lp.index] = self._layer(lp, agg, training)
                peak = max(peak, len(cache))
            if stats is not None:
                stats.observe(peak)

            closed = self._aggregate(cache, close_preds)
            cache.clear()
            if bi <= len(self.plan.transitions):
                tp = self.plan.transitions[bi - 1]
                out = closed
                if preact:
                    out = T.relu(self._bn(f"transition{bi}.bn", out, training))
                    if tp.convs:
                        out = self._conv(tp.convs[0], out)
                else:
                    if tp.convs:
                        out = self._conv(tp.convs[0], out)
                    out = T.relu(self._bn(f"transition{bi}.bn", out, training))
                out = T.avg_pool2d(out, tp.pool)
            else:
                out = closed

        if self.plan.classifier.norms:
            out = T.relu(self._bn("classifier.bn", out, training))
        pooled = T.global_avg_pool(out)
        return T.linear(pooled, self.params["classifier.fc.weight"],
                        self.params["classifier.fc.bias"])

    def predict(self, x) -> np.ndarray:
        """Argmax class indices in eval mode, no graph construction."""
        with T.no_grad():
            logits = self.forward(x, training=False)
        return logits.data.argmax(axis=1)


def _iter_plan_items(plan: NetworkPlan):
    """Yield ('conv'|'norm'|'linear', plan item) in deterministic forward order."""
    for cp in plan.stem.convs:
        yield "conv", cp
    for np_ in plan.stem.norms:
        yield "norm", np_
    for bp in plan.blocks:
        for lp in bp.layers:
            for cp in lp.convs:
                yield "conv", cp
            for np_ in lp.norms:
                yield "norm", np_
    for tp in plan.transitions:
        for cp in tp.convs:
            yield "conv", cp
        for np_ in tp.norms:
            yield "norm", np_
    for np_ in plan.classifier.norms:
        yield "norm", np_
    yield "linear", plan.classifier.linear


def compile_network(spec: NetworkSpec, seed: int = 0, dtype=np.float32) -> Network:
    """Materialize a spec as tensors with seeded He-normal initialization."""
    plan = plan_network(spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    dtype = np.dtype(dtype)
    params: dict[str, Tensor] = {}
    bn_states: dict[str, BatchNormState] = {}
    for kind, item in _iter_plan_items(plan):
        if kind == "conv":
            params[item.name] = Tensor(
                _he_conv(rng, item.out_channels, item.in_channels, item.kernel, dtype),
                requires_grad=True)
        elif kind == "norm":
            params[f"{item.name}.gamma"] = Tensor(np.ones(item.channels, dtype=dtype),
                                                  requires_grad=True)
            params[f"{item.name}.beta"] = Tensor(np.zeros(item.channels, dtype=dtype),
                                                 requires_grad=True)
            bn_states[item.name] = BatchNormState.create(item.channels, dtype=dtype)
        else:
            params["classifier.fc.weight"] = Tensor(
                _he_linear(rng, item.in_features, item.out_features, dtype),
                requires_grad=True)
            params["classifier.fc.bias"] = Tensor(np.zeros(item.out_features, dtype=dtype),
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


def _load_tensor(directory, name: str, shape: tuple) -> np.ndarray:
    arr = T.load_array(os.path.join(directory, name))
    if arr.shape != shape:
        raise CheckpointError(f"checkpoint tensor {name} has shape {arr.shape}, expected {shape}")
    return arr


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
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unknown checkpoint format {manifest.get('format')!r}")

    spec = spec_from_json_obj(manifest["spec"])
    if spec_hash(spec) != manifest["spec_hash"]:
        raise CheckpointError("checkpoint spec hash does not match its spec payload")
    if expect_spec is not None and spec_hash(expect_spec) != manifest["spec_hash"]:
        raise CheckpointError("checkpoint was produced for a different network spec")

    net = compile_network(spec, seed=int(manifest["seed"]), dtype=np.dtype(manifest["dtype"]))
    if sorted(net.params) != manifest["params"]:
        raise CheckpointError("checkpoint parameter list does not match the compiled network")
    for name, p in net.params.items():
        p.data = _load_tensor(directory, name, p.data.shape).astype(net.dtype, copy=False)
    for name, st in net.bn_states.items():
        meta = manifest["bn_states"].get(name)
        if meta is None:
            raise CheckpointError(f"checkpoint is missing batch-norm state {name}")
        st.running_mean = _load_tensor(directory, f"{name}.running_mean",
                                       st.running_mean.shape).astype(net.dtype)
        st.running_var = _load_tensor(directory, f"{name}.running_var",
                                      st.running_var.shape).astype(net.dtype)
        st.steps = int(meta["steps"])
        st.eps = float(meta["eps"])
        st.momentum = float(meta["momentum"])
    return net, manifest
