"""Minimal reverse-mode autodiff over numpy arrays.

Layout conventions: activations are NCHW, conv kernels OIHW, linear weights
(in, out).  Tensors are float32 or float64; float64 is used by the gradient
checker.  No op mutates its inputs; ``backward`` accumulates into the
``.grad`` of leaf tensors and leaves it in place until the caller zeroes it.

Retention rule: a backward closure keeps the op's inputs, its own output
(relu, and batch norm with ``relu=True``, which masks ``g`` with it) and
per-channel statistics, never a derived full-size buffer.  Conv keeps ``x``
and ``w`` and reads its operand again in backward.  The backward of every
pooling op reads of its input only the ``shape`` and ``dtype`` that its
Tensor keeps, so the input's array may be freed.  Batch norm builds each
input's ``xhat`` again from the input, mean and inverse std, in the buffer
where it then builds that input's gradient; given a concat unit's
predecessors as a list, its inputs are those predecessors, so no
concatenation is built or kept.  The only derived arrays kept are
output-sized ones: max-pool argmax indices and softmax probabilities.

The batch-norm to conv hand-off.  A planned ``BnRelu`` is one batch-norm
node: the ReLU is applied as the output is written, so no pre-ReLU output
exists.  When a conv at padding m reads that output,
``batch_norm(..., margin=m)`` writes it into the conv's zero-margined,
channel-major operand (C, N, H+2m, W+2m), and the output's ``data`` is the
NCHW view of the operand's interior.  ``conv2d`` reads that operand as it
is, with no gather; it gathers any other input with ``K.im2col``, and never
infers an operand from strides.  One routine, ``make`` in ``batch_norm``,
writes every batch-norm output, one part at a time.  Every batch-norm
statistic is summed per (image, channel) plane and then over the images in
order, so its bits do not depend on how the channels are split into parts.
The output, its operand and ``make`` live in one holder, ``_Rebuildable``.

Freeing.  A freed array is None: ``_release(t)`` sets ``t.data``, and its
holder's output and operand, to None; ``t.shape`` and ``t.dtype`` stay.
The next backward step that reads a freed batch-norm output, the conv's
through ``_data`` or batch norm's own for its ReLU mask, has ``make``
write it again, bit for bit (the recompute of Chen et al., arXiv
1604.06174); ``_data`` raises for an array that no ``make`` can rebuild.
The executor frees the input of every conv and pool that is not its
unit's first op.  So what a training step keeps alive between forward and
backward is the layer outputs plus per-channel statistics: a transition
keeps its pooled output, not its conv's.  One unit's backward adds to
that: the conv's output gradient until its zero-margined copy holds it,
that copy, the rebuilt operand, the tap stack, at most one image's plus
one chunk's operand gradient, the input gradient that ``K.col2im`` folds
them into, and then batch norm's per-part ``dx``.

Gradient ownership: each backward closure owns the gradient it is handed,
and the sweep keeps no reference to it, so the closure may overwrite it or
free it early.  ``accumulate_grad`` takes ownership of what it is given:
it adds into an existing ``.grad``, adopts an array that owns its memory
and is C-contiguous with the data's dtype and shape, and copies anything
else into a C-order array.  So an op hands over arrays it built and
passes views (concat slices, one view of a shared gradient per parent),
which are copied.

Set ``SPARSEAGG_DEBUG=1`` (or call ``set_debug(True)``) to assert every op
output is finite and to warn when batch norm is evaluated before any
training step has populated its running statistics.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import CheckpointError, NonFiniteError

__all__ = [
    "Tensor",
    "BatchNormState",
    "no_grad",
    "set_debug",
    "conv2d",
    "batch_norm",
    "relu",
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool",
    "linear",
    "softmax_cross_entropy",
    "aggregate",
    "weighted_sum",
    "save_array",
    "load_array",
]

_GRAD_ENABLED = True
_DEBUG = os.environ.get("SPARSEAGG_DEBUG", "").strip().lower() in ("1", "true", "yes", "on")
BN_EPS = 1e-5  # every batch-norm site normalizes by sqrt(var + BN_EPS)
BN_MOMENTUM = 0.9  # running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch statistic


def set_debug(enabled: bool) -> None:
    global _DEBUG
    _DEBUG = bool(enabled)


@contextmanager
def no_grad():
    """Disable graph construction inside the block (cheap inference)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    __slots__ = ("data", "shape", "dtype", "grad", "requires_grad", "_parents", "_backward",
                 "_rebuild")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr  # None once freed by _release
        self.shape, self.dtype = arr.shape, arr.dtype
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._rebuild: _Rebuildable | None = None  # set on batch-norm outputs

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into ``.grad``, taking ownership of ``g``.

        The first gradient becomes ``.grad`` itself when it owns its memory
        and is C-contiguous with the data's dtype and shape; anything else,
        views included, is copied into a C-order array, whatever the layout
        of ``data`` (a margined batch-norm output is a channel-major view).
        The caller must not write to ``g`` afterwards.
        """
        if self.grad is not None:
            self.grad += g
        elif (g.flags.owndata and g.flags.c_contiguous and g.dtype == self.dtype
              and g.shape == self.shape):
            self.grad = g
        else:
            self.grad = np.empty(self.shape, dtype=self.dtype)
            np.copyto(self.grad, g, casting="same_kind")

    def backward(self, grad: np.ndarray | None = None, free_graph: bool = True) -> None:
        """Reverse-mode sweep from this tensor through recorded ops.

        Each closure is handed its node's gradient to own.  With
        ``free_graph`` the node's ``.grad`` is cleared before the call and
        its closure and parent links after it, so activations are freed
        during the sweep; without it the closure gets a copy.  Leaf tensors
        (parameters, inputs) keep ``.grad``; ``grad`` itself is copied and
        must have this tensor's shape.
        """
        if not self.requires_grad:
            raise ValueError("backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward without an explicit gradient needs a scalar tensor")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ValueError(f"backward seed has shape {np.shape(grad)}, "
                             f"tensor has {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.accumulate_grad(np.array(grad, dtype=self.data.dtype))
        while topo:
            node = topo.pop()
            if node._backward is None or node.grad is None:
                continue
            if free_graph:
                node._backward(_take_grad(node))
                node._backward = node._rebuild = None
                node._parents = ()
            else:
                node._backward(node.grad.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def _take_grad(node: Tensor) -> np.ndarray:
    """Clear ``node.grad`` and return it: the closure it is passed to holds the only reference."""
    g, node.grad = node.grad, None
    return g


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by {op}")


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    if _DEBUG:
        _finite_or_raise(data, op)
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward = backward
    return out


def _check_float(t: Tensor, name: str, op: str) -> None:
    if not isinstance(t, Tensor):
        raise TypeError(f"{op}: {name} must be a Tensor, got {type(t).__name__}")


class _Rebuildable:
    """A batch-norm output ``out``, the zero-margined ``operand`` it views (or None), and ``make``.

    Shared by the output Tensor (its ``_rebuild`` slot) and the op's backward
    closure, which reads ``out`` from here: a closure that held the output
    Tensor would make a reference cycle.  ``make()`` writes ``out`` and
    ``operand`` again, bit for bit; it is None when no graph was recorded.
    """

    __slots__ = ("out", "operand", "make")

    def __init__(self, out: np.ndarray, operand: np.ndarray | None, make):
        self.out = out
        self.operand = operand
        self.make = make


def _release(t: Tensor) -> None:
    """Free ``t``'s array, and its operand if it has one: ``t.data`` is None until ``_data``."""
    t.data = None
    if t._rebuild is not None:
        t._rebuild.out = t._rebuild.operand = None


def _rebuilt(saved: _Rebuildable) -> np.ndarray:
    """``saved.out``, written again first if it was released."""
    if saved.out is None:
        saved.out, saved.operand = saved.make()
    return saved.out


def _data(t: Tensor) -> np.ndarray:
    """``t.data``, rebuilt first if it was released; an array nothing can rebuild raises."""
    if t.data is None:
        if t._rebuild is None or t._rebuild.make is None:
            raise RuntimeError(f"the {t.shape} {t.dtype} array of this tensor was released "
                               "and nothing can rebuild it")
        t.data = _rebuilt(t._rebuild)
    return t.data


# ---------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution (cross-correlation), no bias.

    The output size is floored, ``oh = (H + 2 * padding - kh) // stride + 1``,
    as the planner sizes it.  The conv reads shifted views of a zero-padded,
    channel-major operand (C, N, Hp, Wp) of ``x`` (Anderson et al., arXiv
    1709.03395), so no patch matrix is built at any kernel size or stride;
    the module docstring says where the operand comes from.  Window origin
    q of the flat operand (C, N*Hp*Wp) gets
    ``sum_t W_t @ operand[:, q + offset_t]`` over the kernel taps
    t = (ky, kx), ``offset_t = ky * Wp + kx``, on the dense (O, N, Hp, Wp)
    grid of origins; the output is the grid's ``[::stride, ::stride]``
    corner.  A strided conv pays stride**2 more FLOPs for one path.

    Forward stacks the taps: per chunk [a, b) of grid columns it runs one
    GEMM ``W_cat @ operand[:, a:b + lead]``, with ``W_cat`` the (kh*kw*O, C)
    tap weights and ``lead`` the largest offset, and adds each tap's rows,
    shifted by its offset, onto ``grid[:, a:b]``.  A 1x1 conv is one GEMM
    straight into the grid.

    Backward mirrors it: per chunk of operand columns q it copies the kh*kw
    shifted views ``g_grid[:, q - offset]`` into one (kh*kw*O, chunk)
    matrix G and runs two GEMMs, ``dW += G @ operand.T`` and
    ``d_operand = W_cat.T @ G``, so each operand-gradient column is written
    once.  Each run of whole images that a chunk completes is folded at
    once by ``K.col2im`` into an NCHW gradient that the conv owns, so at
    most one image's operand gradient plus one chunk's is ever pending.

    Both directions use one chunk width per call, ``_chunk_columns``: a tap
    stack no larger than the operand, 1024 to 4096 columns wide.  Backward
    reads ``x`` and its operand again, through ``_data``, so ``x`` may have
    been released after forward.
    """
    _check_float(x, "x", "conv2d")
    _check_float(w, "w", "conv2d")
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv2d expects x (N,C,H,W) and w (O,C,KH,KW)")
    n, c, h, wdt = x.data.shape
    o, ci, kh, kw = w.data.shape
    if ci != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, kernel expects {ci}")
    if x.data.dtype != w.data.dtype:
        raise ValueError("conv2d requires matching dtypes for input and kernel")
    hp, wp = h + 2 * padding, wdt + 2 * padding
    if kh > hp or kw > wp:
        raise ValueError(f"conv2d kernel {kh}x{kw} is larger than the padded input {hp}x{wp}")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    dtype = x.data.dtype
    # Every window origin that reaches the output lies below `span` on the
    # flat grid, so tap t reads operand[:, offsets[t]:offsets[t] + span].
    span = n * hp * wp - (kh - 1) * wp - (kw - 1)
    offsets = [ky * wp + kx for ky in range(kh) for kx in range(kw)]
    corner = (slice(None), slice(None), slice(0, stride * oh, stride), slice(0, stride * ow, stride))

    # Grid columns from `span` on are never written and never read.
    operand = _operand(x, padding).reshape(c, -1)
    rows = len(offsets) * o
    chunk = _chunk_columns(operand.size, rows)
    grid = np.empty((o, n * hp * wp), dtype=dtype)
    if len(offsets) == 1:
        np.matmul(w.data.reshape(o, c), operand, out=grid)
    else:
        lead = offsets[-1]
        w_cat = _tap_weights(w.data)
        buf = np.empty(rows * (min(chunk, span) + lead), dtype=dtype)
        for a in range(0, span, chunk):
            m = min(chunk, span - a)
            stack = buf[:rows * (m + lead)].reshape(rows, m + lead)
            np.matmul(w_cat, operand[:, a:a + m + lead], out=stack)
            stack = stack.reshape(len(offsets), o, m + lead)
            acc = grid[:, a:a + m]
            np.copyto(acc, stack[0, :, :m])
            for t, d in enumerate(offsets[1:], 1):
                acc += stack[t, :, d:d + m]
        del buf, stack
    del operand
    out = grid.reshape(o, n, hp, wp)[corner].transpose(1, 0, 2, 3)

    def backward(g):
        # The gradient grid sits after `lead` zero columns and ends in zeros, so
        # G[(t, o), q] = g_grid[o, q - offsets[t]] is a plain slice for every
        # operand column q; each chunk stacks its kh*kw slices and runs two GEMMs.
        # x is rebuilt even when only x needs a gradient: the batch norm
        # that wrote it reads it next, for its ReLU mask.
        _data(x)
        width, lead, image = n * hp * wp, offsets[-1], hp * wp
        covered = (oh, ow) == (hp, wp)  # 1x1, unpadded: no margin to zero
        g_pad = (np.empty if covered else np.zeros)((o, lead + width), dtype=dtype)
        g_pad[:, lead:].reshape(o, n, hp, wp)[corner] = g.transpose(1, 0, 2, 3)
        del g  # the sweep keeps no reference to it
        operand = _operand(x, padding).reshape(c, -1) if w.requires_grad else None
        w_cat = _tap_weights(w.data)
        dw = np.zeros_like(w_cat) if w.requires_grad else None
        dx = np.empty((n, c, h, wdt), dtype=dtype) if x.requires_grad else None
        # The operand-gradient columns of the images not yet folded into dx
        # (the first `done` are): at most one image's plus one chunk's.
        pending = np.empty((c, min(width, image + chunk)), dtype=dtype) if x.requires_grad else None
        done = 0
        buf = np.empty(rows * min(chunk, width), dtype=dtype)
        tmp = None
        for a in range(0, width, chunk):
            b = min(a + chunk, width)
            stack = buf[:rows * (b - a)].reshape(len(offsets), o, b - a)
            for t, d in enumerate(offsets):
                stack[t] = g_pad[:, lead - d + a:lead - d + b]
            stack = stack.reshape(-1, b - a)
            if dw is not None:
                tmp = np.matmul(stack, operand[:, a:b].T, out=tmp)
                dw += tmp
            if dx is None:
                continue
            lo = a - done * image  # where column a sits in `pending`
            np.matmul(w_cat.T, stack, out=pending[:, lo:lo + b - a])
            ready = b // image  # images whose operand columns are all computed
            if ready > done:
                cols = (ready - done) * image
                dx[done:ready] = K.col2im(pending[:, :cols].reshape(c, -1, hp, wp), padding)
                rest = lo + b - a - cols  # the next image's columns so far
                pending[:, :rest] = pending[:, cols:cols + rest]
                done = ready
        del g_pad, operand, buf, stack, tmp, pending
        if dw is not None:
            w.accumulate_grad(dw.reshape(kh, kw, o, c).transpose(2, 3, 0, 1))
        if dx is not None:
            x.accumulate_grad(dx)

    return _result(np.ascontiguousarray(out), (x, w), backward, "conv2d")


def _operand(x: Tensor, padding: int) -> np.ndarray:
    """``x``'s (C, N, H+2p, W+2p) conv operand at padding p.

    The one ``batch_norm`` wrote when it was given margin p, else a gather
    by ``K.im2col``: an operand is never inferred from strides.
    """
    n, c, h, w = x.data.shape
    operand = x._rebuild.operand if x._rebuild is not None else None
    if operand is not None and operand.shape == (c, n, h + 2 * padding, w + 2 * padding):
        return operand
    return K.im2col(x.data, padding)


# Widest column chunk of the stacked-tap conv, in both directions: single 3x3
# convs ran 1.4-1.7x slower forward at 2048 columns than at 4096, and a wide
# block-1 backward 1.5x slower at 1024, on a 2-CPU OpenBLAS host.
_CHUNK = 4096


def _chunk_columns(operand_size: int, rows: int) -> int:
    """Columns per chunk for a (rows, chunk) tap stack over an operand of ``operand_size``."""
    return min(_CHUNK, max(_CHUNK // 4, operand_size // rows))


def _tap_weights(w: np.ndarray) -> np.ndarray:
    """OIHW kernel -> W_cat (KH*KW*O, C): the taps' (O, C) matrices stacked, (ky, kx) order."""
    o, c, kh, kw = w.shape
    return np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw * o, c)


# ---------------------------------------------------------------------------
# batch normalization


@dataclass
class BatchNormState:
    """Running statistics for one batch-norm site (not trainable); eps and momentum are fixed."""

    running_mean: np.ndarray
    running_var: np.ndarray
    steps: int = 0

    @classmethod
    def create(cls, channels: int, dtype=np.float32) -> "BatchNormState":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


def batch_norm(x: Tensor | list[Tensor], gamma: Tensor, beta: Tensor, state: BatchNormState,
               training: bool, relu: bool = False, margin: int | None = None) -> Tensor:
    """Per-channel batch norm over an NCHW tensor, optionally followed by ReLU.

    ``x`` is one tensor or a sequence of NCHW tensors standing for their
    channel concatenation, in order (a concat unit's predecessors).  The
    parts are read in place: no concatenation is built, and backward hands
    each part a gradient of its own.  Each statistic is summed per (image,
    channel) plane and then over the images in order, which gives the bits
    of batch norm over ``aggregate("concat", x)`` whenever that has two or
    more channels.

    Training mode normalizes by batch statistics (biased variance) and updates
    ``state`` at ``BN_MOMENTUM``; eval mode uses the running statistics.

    ``relu=True`` makes the pair one node with the bits of
    ``relu(batch_norm(...))``; backward masks ``g`` with ``out > 0``.
    ``margin=m`` writes the output into the operand of a conv at padding m,
    as the module docstring describes.
    """
    parts = (x,) if isinstance(x, Tensor) else tuple(x)
    if not parts:
        raise ValueError("batch_norm needs at least one input tensor")
    for p in parts:
        _check_float(p, "x", "batch_norm")
        if p.data.ndim != 4:
            raise ValueError("batch_norm expects NCHW tensors")
    n, _, h, w = parts[0].data.shape
    dtype = parts[0].data.dtype
    for p in parts[1:]:
        if p.data.shape[0] != n or p.data.shape[2:] != (h, w) or p.data.dtype != dtype:
            raise ValueError("batch_norm inputs must agree on dtype and all dims except channels")
    bounds = np.cumsum([0] + [p.data.shape[1] for p in parts]).tolist()
    c = bounds[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(f"batch_norm parameter shape mismatch for {c} channels")
    g4 = gamma.data.reshape(1, c, 1, 1)
    b4 = beta.data.reshape(1, c, 1, 1)
    count = n * h * w
    spans = list(zip(parts, bounds[:-1], bounds[1:]))

    if training:
        mu = np.concatenate([_over_images(p.data.sum(axis=(2, 3))) for p in parts])
        # as ``mean`` does: divide by an intp count, in float64 for a float32 sum
        np.true_divide(mu, np.intp(count), out=mu, casting="unsafe")
        var, inv = np.empty_like(mu), np.empty_like(mu)  # measured by the first make()
    else:
        if state.steps == 0 and _DEBUG:
            warnings.warn("batch_norm evaluated before any training step; using (0, 1) defaults",
                          RuntimeWarning, stacklevel=2)
        mu, var = state.running_mean, state.running_var
        inv = 1.0 / np.sqrt(var + BN_EPS)
    inv4 = inv.reshape(1, c, 1, 1)

    def make(measure=False):
        """The output and the operand it views (or None); ``measure`` also fills ``var`` and ``inv``."""
        if margin is not None:
            operand = np.zeros((c, n, h + 2 * margin, w + 2 * margin), dtype=dtype)
            y = operand[:, :, margin:margin + h, margin:margin + w].transpose(1, 0, 2, 3)
        else:
            operand, y = None, np.empty((n, c, h, w), dtype=dtype)
        # each part is centred in turn in one part-sized buffer
        scratch = np.empty(n * max(hi - lo for _, lo, hi in spans) * h * w,
                           dtype=np.result_type(dtype, mu.dtype))
        for p, lo, hi in spans:
            src = scratch[:p.data.size].reshape(p.data.shape)
            np.subtract(p.data, mu[lo:hi].reshape(1, -1, 1, 1), out=src)
            if measure:
                var[lo:hi] = _over_images(np.einsum("nchw,nchw->nc", src, src)) / count
                inv[lo:hi] = 1.0 / np.sqrt(var[lo:hi] + BN_EPS)
            src *= inv4[:, lo:hi]
            src *= g4[:, lo:hi]
            src += b4[:, lo:hi]
            src = src.astype(dtype, copy=False)
            if relu:
                np.maximum(src, 0, out=y[:, lo:hi])  # propagates NaN, as relu() does
            else:
                np.copyto(y[:, lo:hi], src)
        return y, operand

    saved = _Rebuildable(*make(measure=training), make)
    if training:
        m = BN_MOMENTUM
        state.running_mean = (m * state.running_mean + (1.0 - m) * mu).astype(state.running_mean.dtype)
        state.running_var = (m * state.running_var + (1.0 - m) * var).astype(state.running_var.dtype)
        state.steps += 1
    del var  # written once, by the first make(); its closure need not keep it

    def backward(g):
        out = _rebuilt(saved) if relu else None  # the ReLU mask; its reader may have released it
        sum_g = np.empty(c, dtype=g.dtype)
        sum_gx = np.empty_like(sum_g)
        scale = g4 * inv4
        # Per part, in the channel order: the part's gradient masked and
        # summed, xhat from the part, then the part's dx built in xhat's
        # buffer and handed over.
        for p, lo, hi in spans:
            gp = g[:, lo:hi]
            if relu:
                np.multiply(gp, out[:, lo:hi] > 0, out=gp)
            sum_g[lo:hi] = _over_images(np.einsum("nchw->nc", gp))
            xhat = p.data - mu[lo:hi].reshape(1, -1, 1, 1)
            xhat *= inv4[:, lo:hi]
            sum_gx[lo:hi] = _over_images(np.einsum("nchw,nchw->nc", gp, xhat))
            if not p.requires_grad:
                continue
            if not training:
                p.accumulate_grad(gp * scale[:, lo:hi])
                continue
            # dx = gamma * inv * (g - mean(g) - xhat * mean(g * xhat))
            dx = xhat
            dx *= (-sum_gx[lo:hi] / count).reshape(1, -1, 1, 1)
            dx += gp
            dx -= (sum_g[lo:hi] / count).reshape(1, -1, 1, 1)
            dx *= scale[:, lo:hi]
            p.accumulate_grad(dx)
        if beta.requires_grad:
            beta.accumulate_grad(sum_g)
        if gamma.requires_grad:
            gamma.accumulate_grad(sum_gx)

    result = _result(saved.out, (*parts, gamma, beta), backward, "batch_norm")
    result._rebuild = saved
    if not result.requires_grad:
        saved.make = None
    return result


def _over_images(planes: np.ndarray) -> np.ndarray:
    """Per-channel totals of (N, C) per-plane sums, adding the images in order."""
    return np.add.accumulate(planes, axis=0)[-1]


# ---------------------------------------------------------------------------
# simple elementwise / pooling / linear ops


def relu(x: Tensor) -> Tensor:
    _check_float(x, "x", "relu")
    out = np.maximum(x.data, 0)  # propagates NaN, so a diverged input stays visible

    def backward(g):
        if x.requires_grad:
            np.multiply(g, out > 0, out=g)
            x.accumulate_grad(g)

    return _result(out, (x,), backward, "relu")


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling (stride == kernel).

    Adds the kernel**2 strided views ``x[:, :, ky::kernel, kx::kernel]``
    row by row onto zeros, then divides by kernel**2: the summation order
    and divisor of ``mean`` over the window axes, so the bits match it.
    Backward writes ``g / kernel**2`` into the same views of one buffer;
    it reads only ``x``'s shape and dtype, so ``x`` may be released once
    the pool has run.
    """
    _check_float(x, "x", "avg_pool2d")
    n, c, h, w = x.data.shape
    if h % kernel or w % kernel:
        raise ValueError(f"avg_pool2d needs sizes divisible by {kernel}, got {h}x{w}")
    xd, dtype = x.data, x.data.dtype
    out = np.zeros((n, c, h // kernel, w // kernel), dtype=dtype)
    row = np.empty_like(out)
    for ky in range(kernel):
        np.copyto(row, xd[:, :, ky::kernel, ::kernel])
        for kx in range(1, kernel):
            row += xd[:, :, ky::kernel, kx::kernel]
        out += row
    del row
    out /= kernel * kernel

    def backward(g):
        if x.requires_grad:
            share = g / (kernel * kernel)
            dx = np.empty((n, c, h, w), dtype=dtype)
            for ky in range(kernel):
                for kx in range(kernel):
                    dx[:, :, ky::kernel, kx::kernel] = share
            x.accumulate_grad(dx)

    return _result(out, (x,), backward, "avg_pool2d")


def max_pool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Max pooling with -inf padding.

    A running max over the kernel**2 strided views of the padded input, in
    (ky, kx) order, merged with arithmetic rather than masked copies (which
    stall on data-dependent branches).  A later slot wins only when strictly
    greater, so ties go to the first slot, and a NaN wins over any number,
    so a window holding NaN gives its first NaN (as ``argmax`` would).
    Backward puts each gradient in its winning slot's plane of a zero buffer
    and adds the planes onto their views last to first, so every input
    position sums its windows' gradients in the order ``np.add.at`` used.
    """
    _check_float(x, "x", "max_pool2d")
    n, c, h, w = x.data.shape
    if padding > kernel // 2:
        # a window could then lie wholly in the -inf padding
        raise ValueError(f"max_pool2d padding {padding} exceeds half the kernel {kernel}")
    if h + 2 * padding < kernel or w + 2 * padding < kernel:
        raise ValueError("max_pool2d window larger than padded input")
    oh, ow = (h + 2 * padding - kernel) // stride + 1, (w + 2 * padding - kernel) // stride + 1
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.data.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x.data
    out = _slot_view(xp, 0, 0, stride, oh, ow).copy()
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(kernel * kernel - 1))
    step = np.empty_like(arg)
    out_is_number = np.empty(out.shape, dtype=bool)
    wins = np.empty(out.shape, dtype=bool)
    for slot in range(1, kernel * kernel):
        view = _slot_view(xp, *divmod(slot, kernel), stride, oh, ow)
        np.equal(out, out, out=out_is_number)
        np.less_equal(view, out, out=wins)
        np.logical_not(wins, out=wins)   # view > out, or either is NaN
        wins &= out_is_number
        np.maximum(view, out, out=out)   # on a tie this keeps `out`, the earlier slot
        np.subtract(slot, arg, out=step)
        step *= wins
        arg += step                      # arg = slot where the slot wins
    arg = arg.astype(np.int64)

    def backward(g):
        if x.requires_grad:
            planes = np.zeros((kernel * kernel,) + g.shape, dtype=g.dtype)
            np.put_along_axis(planes, arg[None], g[None], axis=0)
            dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
            for slot in reversed(range(kernel * kernel)):
                _slot_view(dxp, *divmod(slot, kernel), stride, oh, ow)[...] += planes[slot]
            del planes  # before accumulate_grad copies dx: one k**2 buffer less at the peak
            x.accumulate_grad(dxp[:, :, padding:padding + h, padding:padding + w])

    return _result(out, (x,), backward, "max_pool2d")


def _slot_view(xp: np.ndarray, ky: int, kx: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """The (N, C, oh, ow) strided view holding window slot (ky, kx) of every window."""
    return xp[:, :, ky:ky + stride * (oh - 1) + 1:stride, kx:kx + stride * (ow - 1) + 1:stride]


def global_avg_pool(x: Tensor) -> Tensor:
    """(N,C,H,W) -> (N,C) spatial mean; backward reads only ``x``'s shape and dtype."""
    _check_float(x, "x", "global_avg_pool")
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))

    def backward(g):
        if x.requires_grad:
            ge = np.broadcast_to(g.reshape(n, c, 1, 1), (n, c, h, w)) / (h * w)
            x.accumulate_grad(ge.astype(x.dtype, copy=False))

    return _result(out, (x,), backward, "global_avg_pool")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map: x (N,F) @ w (F,O) + b (O,)."""
    _check_float(x, "x", "linear")
    _check_float(w, "w", "linear")
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shape mismatch: x {x.data.shape}, w {w.data.shape}")
    out = x.data @ w.data + b.data

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return _result(out, (x, w, b), backward, "linear")


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels."""
    _check_float(logits, "logits", "softmax_cross_entropy")
    labels = np.asarray(labels)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(n), labels] - np.log(exp.sum(axis=1))
    loss = np.asarray(-picked.mean(), dtype=logits.data.dtype)

    def backward(g):
        if logits.requires_grad:
            d = probs.copy()
            d[np.arange(n), labels] -= 1.0
            logits.accumulate_grad((g * d / n).astype(logits.data.dtype, copy=False))

    return _result(loss, (logits,), backward, "softmax_cross_entropy")


def aggregate(op: str, tensors: list[Tensor]) -> Tensor:
    """Combine predecessor outputs: elementwise 'sum' or channel 'concat'.

    Concat joins along channels in the order given (callers pass sources
    nearest-first); it is the bit-exact reference for ``batch_norm``'s list form.
    """
    if op not in ("sum", "concat"):
        raise ValueError(f"unknown aggregation op {op!r}")
    if not tensors:
        raise ValueError("aggregate needs at least one tensor")
    for t in tensors:
        _check_float(t, "input", "aggregate")

    if op == "concat":
        base = tensors[0].data.shape
        for t in tensors[1:]:
            s = t.data.shape
            if len(s) != len(base) or s[0] != base[0] or s[2:] != base[2:]:
                raise ValueError("concat inputs must agree on all dims except channels")
        out = np.concatenate([t.data for t in tensors], axis=1)
        sizes = [t.data.shape[1] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward_cat(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    t.accumulate_grad(g[:, lo:hi])

        return _result(out, tuple(tensors), backward_cat, "aggregate")

    base = tensors[0].data.shape
    for t in tensors[1:]:
        if t.data.shape != base:
            raise ValueError(f"sum aggregation needs equal shapes, got {base} and {t.data.shape}")
    total = tensors[0].data.copy()
    for t in tensors[1:]:
        total += t.data

    def backward_sum(g):
        for t in tensors:
            if t.requires_grad:
                t.accumulate_grad(g[...])

    return _result(total, tuple(tensors), backward_sum, "aggregate")


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar projection sum(x * weights); handy for reducing ops under test."""
    _check_float(x, "x", "weighted_sum")
    weights = np.asarray(weights, dtype=x.data.dtype)
    if weights.shape != x.data.shape:
        raise ValueError("weights must match the tensor shape")
    out = np.asarray((x.data * weights).sum(), dtype=x.data.dtype)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * weights)

    return _result(out, (x,), backward, "weighted_sum")


# ---------------------------------------------------------------------------
# flat binary serialization

_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}


def save_array(arr: np.ndarray, base_path) -> None:
    """Write ``<base>.bin`` (flat little-endian) plus ``<base>.json`` sidecar."""
    name = str(arr.dtype)
    if name not in _DTYPE_CODES:
        raise ValueError(f"unsupported dtype {name} for serialization")
    base = str(base_path)
    with open(base + ".bin", "wb") as fh:
        fh.write(np.ascontiguousarray(arr).astype(_DTYPE_CODES[name]).tobytes())
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"shape": list(arr.shape), "dtype": name}, fh)
        fh.write("\n")


def load_array(base_path) -> np.ndarray:
    """Read a ``save_array`` pair; an unreadable or inconsistent pair raises CheckpointError."""
    base = str(base_path)
    try:
        with open(base + ".json", "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(base + ".bin", "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError, RecursionError) as exc:  # missing, a directory, not JSON, too deep
        raise CheckpointError(f"unreadable array {base}: {exc}") from None
    name = meta.get("dtype") if isinstance(meta, dict) else None
    if name not in _DTYPE_CODES:
        raise CheckpointError(f"unsupported dtype {name!r} in {base}.json")
    shape = meta.get("shape")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise CheckpointError(f"shape in {base}.json must be a list of non-negative ints, "
                              f"got {shape!r}")
    expected = math.prod(shape) * np.dtype(_DTYPE_CODES[name]).itemsize
    if len(raw) != expected:
        raise CheckpointError(f"{base}.bin holds {len(raw)} bytes; shape {shape} of {name} "
                              f"needs {expected}")
    return np.frombuffer(raw, dtype=_DTYPE_CODES[name]).astype(name).reshape(shape)
