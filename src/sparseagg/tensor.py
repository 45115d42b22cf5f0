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
input's ``xhat`` again from the input, mean and inverse std, a block of
images at a time, in a small buffer where it then builds that block of the
input's gradient; given a concat unit's predecessors as a list, its inputs
are those predecessors, so no concatenation is built or kept.  The only derived arrays kept are
output-sized ones: max-pool argmax indices and softmax probabilities.

The batch-norm to conv hand-off.  A planned ``BnRelu`` is one batch-norm
node: the ReLU is applied as the output is written, so no pre-ReLU output
exists.  When a conv at padding m reads that output,
``batch_norm(..., margin=m)`` writes it into the conv's zero-margined,
channel-major operand (C, N, H+2m, W+2m), and the output's ``data`` is the
NCHW view of the operand's interior.  ``conv2d`` reads that operand as it
is, with no gather; it gathers any other input with ``K.im2col``, and never
infers an operand from strides.  One routine, ``make`` in ``batch_norm``,
writes every batch-norm output, one piece of a part at a time.  Every batch-norm
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

Threads.  Importing this module sets the OpenBLAS that numpy bundles to
one thread (``_pin_blas``): its idle threads busy-wait after each GEMM and
so hold the second CPU through the numpy passes between GEMMs.  Instead,
``conv2d`` and ``batch_norm`` split their own work into shares, one run by
the calling thread and one by each of ``_WORKERS`` worker threads, one
per further CPU that the process may use (``_split``).  With no OpenBLAS
to pin, or for an op over less than ``_SPLIT_BYTES``, everything runs
inline.  Every GEMM keeps the M and K it has on one thread, and the dW
sums keep their chunks; a conv forward cuts a GEMM by N only where
OpenBLAS gave every element the same bits whatever N is (``_cuttable``,
measured on its SkylakeX kernel).  So a seeded run gives the bits of a
single-threaded one, whatever ``OPENBLAS_NUM_THREADS`` says, on that
kernel; the bit tests pin this on the host they run on.  Batch norm cuts
its channels into one contiguous range per share; every statistic is per
channel, so no share waits for another.  A share never calls an op that
splits, so splits never nest; ops called from several threads split one
at a time (``_SPLIT_LOCK``); and an error in any share is raised in the
caller once every share has stopped.  The pin and the split were tuned
and measured on a 2-CPU host only.  With more CPUs, conv backward still
runs its two GEMMs on two threads, and every GEMM outside conv (the
linear layer, float64) on one, where OpenBLAS would have used every CPU.

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

import ctypes
import glob
import json
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
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


# ---------------------------------------------------------------------------
# threads


def _openblas(name: str, restype, *argtypes):
    """``openblas_<name>`` of the OpenBLAS that numpy bundles, under the symbol it exports, or None."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, list(argtypes)
                return fn
    return None


def _blas_threads() -> int | None:
    """The thread count that numpy's bundled OpenBLAS reports, or None without one."""
    get = _openblas("get_num_threads", ctypes.c_int)
    return None if get is None else get()


def _pin_blas() -> bool:
    """Set numpy's bundled OpenBLAS to one thread; False when there is none to set."""
    set_threads = _openblas("set_num_threads", None, ctypes.c_int)
    if set_threads is not None:
        set_threads(1)
    return set_threads is not None


# Workers beside the calling thread: one per CPU beyond the caller's, and
# none (every op inline) when BLAS cannot be held to one thread.
_WORKERS = len(os.sched_getaffinity(0)) - 1 if _pin_blas() else 0
# ((pid, workers), pool): made again after a fork or a change of _WORKERS
_pool: tuple[tuple[int, int], ThreadPoolExecutor] | None = None
# Held by the caller of a split: two at once could fill the pool with
# shares that wait at their barriers for shares queued behind them.
_SPLIT_LOCK = threading.Lock()
# An op over fewer bytes of activations than this runs inline: handing it
# to a worker would cost more than it saves.
_SPLIT_BYTES = 1 << 20


def _shares(nbytes: int) -> int:
    """How many shares an op over ``nbytes`` of activations is split into."""
    return 1 + _WORKERS if nbytes >= _SPLIT_BYTES else 1


def _split(share, shares: int, barrier: threading.Barrier | None = None) -> None:
    """Run ``share(k)`` for k in range(shares): k = 0 on the caller, the rest on workers.

    Returns once every share has.  The first error raised is raised again,
    after ``barrier`` (which every share waits at) has been aborted so that
    no share is left waiting.  A share must not call an op that splits.
    """
    global _pool

    def run(k):
        try:
            share(k)
        except BaseException:
            if barrier is not None:
                barrier.abort()
            raise

    if shares == 1:
        run(0)
        return
    errors = []
    with _SPLIT_LOCK:
        if _pool is None or _pool[0] != (os.getpid(), _WORKERS):
            _pool = ((os.getpid(), _WORKERS), ThreadPoolExecutor(_WORKERS, thread_name_prefix="sparseagg"))
        futures = [_pool[1].submit(run, k) for k in range(1, shares)]
        try:
            run(0)
        except BaseException as exc:
            errors.append(exc)
        for future in futures:
            try:
                future.result()
            except BaseException as exc:
                errors.append(exc)
    if errors:
        # a share that found the barrier broken reports the effect, not the cause
        raise next((e for e in errors if not isinstance(e, threading.BrokenBarrierError)),
                   errors[0])


def _cut(length: int, k: int, shares: int) -> tuple[int, int]:
    """Share k's [start, stop) of ``length`` items split evenly into ``shares`` ranges."""
    return length * k // shares, length * (k + 1) // shares


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

    Split into shares (the module docstring's "Threads"), forward cuts each
    chunk's columns evenly, one piece per share with a stack of its own,
    where ``_cuttable`` allows; any other chunk runs whole on the caller.
    (With OpenBLAS at one thread, running every chunk whole on the caller
    made a sparse40 b64 training step 3.8% slower on a 2-CPU host.)
    The shares then copy the output, by output channel.  Backward fills
    ``g_grid`` by output channel.  Then, per chunk, each share folds its
    channels of the images that the last chunk completed and copies its
    rows of G; share 0 runs the dW GEMM and adds it to dW in chunk order
    while share 1 runs the operand-gradient GEMM.  They meet at a barrier
    before and after the GEMMs, so one G and one pending buffer serve all.
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
    shares = _shares(operand.nbytes)
    if len(offsets) == 1:
        w_mat = w.data.reshape(o, c)
        if not _cuttable(dtype, o * c * (grid.shape[1] // shares)):
            shares = 1

        def share(k):
            a, b = _cut(grid.shape[1], k, shares)
            np.matmul(w_mat, operand[:, a:b], out=grid[:, a:b])

        _split(share, shares)
    else:
        lead = offsets[-1]
        w_cat = _tap_weights(w.data)
        chunks = [(a, min(chunk, span - a)) for a in range(0, span, chunk)]
        cut = [(a, m) for a, m in chunks if _cuttable(dtype, rows * c * (m // shares + lead))]
        # One stack per share, of its piece of a chunk plus the lead: a
        # single share's stack when no chunk is cut.
        if not cut:
            shares = 1
        buf = np.empty((shares, rows * (-(-min(chunk, span) // shares) + lead)), dtype=dtype)

        def tap_sum(stack, a, m):
            """grid[:, a:a + m], from one GEMM over operand[:, a:a + m + lead] into ``stack``."""
            stack = stack[:rows * (m + lead)].reshape(rows, m + lead)
            np.matmul(w_cat, operand[:, a:a + m + lead], out=stack)
            stack = stack.reshape(len(offsets), o, m + lead)
            acc = grid[:, a:a + m]
            np.copyto(acc, stack[0, :, :m])
            for t, d in enumerate(offsets[1:], 1):
                acc += stack[t, :, d:d + m]

        def share(k):
            for a, m in cut:  # each share takes its piece of every chunk that is cut
                lo, hi = _cut(m, k, shares)
                tap_sum(buf[k], a + lo, hi - lo)

        _split(share, shares)
        for a, m in chunks:  # a chunk that is not cut runs whole, on the caller
            if (a, m) not in cut:
                tap_sum(buf.reshape(-1), a, m)
        del buf
    del operand
    out = np.empty((n, o, oh, ow), dtype=dtype)
    shares = _shares(out.nbytes)

    def copy_out(k):
        o0, o1 = _cut(o, k, shares)
        out[:, o0:o1] = grid[o0:o1].reshape(o1 - o0, n, hp, wp)[corner].transpose(1, 0, 2, 3)

    _split(copy_out, shares)
    del grid

    def backward(g):
        # The gradient grid sits after `lead` zero columns and ends in zeros, so
        # G[(t, o), q] = g_grid[o, q - offsets[t]] is a plain slice for every
        # operand column q; each chunk stacks its kh*kw slices and runs two GEMMs.
        # x is rebuilt even when only x needs a gradient: the batch norm
        # that wrote it reads it next, for its ReLU mask.
        _data(x)
        width, lead, image = n * hp * wp, offsets[-1], hp * wp
        covered = (oh, ow) == (hp, wp)  # 1x1, unpadded: no margin to zero
        g_pad = np.empty((o, lead + width), dtype=dtype)
        shares = _shares(c * width * dtype.itemsize)

        def fill(k):
            o0, o1 = _cut(o, k, shares)
            if not covered:
                g_pad[o0:o1] = 0
            g_pad[o0:o1, lead:].reshape(o1 - o0, n, hp, wp)[corner] = \
                g[:, o0:o1].transpose(1, 0, 2, 3)

        _split(fill, shares)
        del g  # the sweep keeps no reference to it
        operand = _operand(x, padding).reshape(c, -1) if w.requires_grad else None
        w_cat = _tap_weights(w.data)
        dw = np.zeros_like(w_cat) if w.requires_grad else None
        dx = np.empty((n, c, h, wdt), dtype=dtype) if x.requires_grad else None
        # The operand-gradient columns of the images not yet folded into dx
        # (the first `done` are): at most one image's plus one chunk's.
        pending = np.empty((c, min(width, image + chunk)), dtype=dtype) if x.requires_grad else None
        buf = np.empty(rows * min(chunk, width), dtype=dtype)
        tmp = None
        barrier = threading.Barrier(shares)
        dx_share = min(1, shares - 1)

        def share(k):
            # Per chunk: every share folds its channels of the images that the
            # last chunk completed and copies its rows of the stack; then share
            # 0 runs the dW GEMM and share dx_share the operand-gradient GEMM.
            nonlocal tmp, dw
            r0, r1 = _cut(rows, k, shares)
            c0, c1 = _cut(c, k, shares)
            done = 0  # images folded into dx; the same count in every share
            for a in range(0, width + chunk, chunk):
                ready = min(a, width) // image  # images whose operand columns are all computed
                if dx is not None and ready > done:
                    cols = (ready - done) * image
                    rest = min(a, width) - ready * image  # the next image's columns so far
                    if c0 < c1:
                        mine = pending[c0:c1]
                        dx[done:ready, c0:c1] = K.col2im(
                            mine[:, :cols].reshape(c1 - c0, -1, hp, wp), padding)
                        mine[:, :rest] = mine[:, cols:cols + rest]
                    done = ready
                if a >= width:
                    break
                b = min(a + chunk, width)
                stack = buf[:rows * (b - a)].reshape(rows, b - a)
                for t, d in enumerate(offsets):
                    lo, hi = max(r0, t * o), min(r1, t * o + o)
                    if lo < hi:
                        stack[lo:hi] = g_pad[lo - t * o:hi - t * o, lead - d + a:lead - d + b]
                barrier.wait()
                if k == 0 and dw is not None:
                    tmp = np.matmul(stack, operand[:, a:b].T, out=tmp)
                    dw += tmp
                if k == dx_share and dx is not None:
                    lo = a - done * image  # where column a sits in `pending`
                    np.matmul(w_cat.T, stack, out=pending[:, lo:lo + b - a])
                barrier.wait()

        _split(share, shares, barrier)
        del g_pad, operand, buf, tmp, pending
        if dw is not None:
            w.accumulate_grad(dw.reshape(kh, kw, o, c).transpose(2, 3, 0, 1))
        if dx is not None:
            x.accumulate_grad(dx)

    return _result(out, (x, w), backward, "conv2d")


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


# Above this M*N*K, numpy's bundled OpenBLAS runs a float32 GEMM with its
# blocked kernel, which gives every output element the same bits whatever N
# is.  Its small-matrix kernel, which runs smaller ones, and its float64
# kernel can round differently when N changes.  Cutting random GEMMs by N
# on a SkylakeX core changed a bit in 0 of 4419 float32 cuts above this,
# in 471 of 1081 at or below it, and in 2077 of 2300 float64 cuts above it.
# numpy's OpenBLAS picks its kernel for the CPU at run time: this rule was
# measured on SkylakeX only, and another kernel may need another bound.
_WHOLE_GEMM = 100 ** 3


def _cuttable(dtype, mnk: int) -> bool:
    """Whether GEMMs cut by N into pieces of at least ``mnk`` = M*N*K keep their bits."""
    return dtype == np.float32 and mnk > _WHOLE_GEMM


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

    Split into shares, each takes a contiguous range of the channels (a
    part may straddle a cut, ``_pieces``) and works through each piece of
    a part a block of images at a time (``_blocks``), in buffers of its
    own.  Backward masks ``g`` in place, then adds each block of a part's
    gradient into the gradient the part already has, or writes it into a
    new array, or into ``g`` itself for a lone part, which it hands over.
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
        mu, var, inv = (np.empty(c, dtype=dtype) for _ in range(3))  # measured by the first make()
    else:
        if state.steps == 0 and _DEBUG:
            warnings.warn("batch_norm evaluated before any training step; using (0, 1) defaults",
                          RuntimeWarning, stacklevel=2)
        mu, var = state.running_mean, state.running_var
        inv = 1.0 / np.sqrt(var + BN_EPS)
    inv4 = inv.reshape(1, c, 1, 1)
    mu4 = mu.reshape(1, c, 1, 1)
    sdtype = np.result_type(dtype, mu.dtype)  # of the centred input, xhat and dx
    per_channel = h * w * sdtype.itemsize  # bytes of one image's plane in that dtype
    shares = _shares(n * c * h * w * dtype.itemsize)

    def make(measure=False):
        """The output and the operand it views (or None); ``measure`` also fills ``mu``, ``var`` and ``inv``."""
        if margin is not None:  # its margins are zeroed by the shares
            operand = np.empty((c, n, h + 2 * margin, w + 2 * margin), dtype=dtype)
            y = operand[:, :, margin:margin + h, margin:margin + w].transpose(1, 0, 2, 3)
        else:
            operand, y = None, np.empty((n, c, h, w), dtype=dtype)
        pieces = _pieces(spans, c, shares)

        def fill(k):
            if margin and pieces[k]:
                edges = operand[pieces[k][0][2]:pieces[k][-1][3]]
                edges[:, :, :margin] = edges[:, :, -margin:] = 0
                edges[:, :, margin:-margin, :margin] = edges[:, :, margin:-margin, -margin:] = 0
            # each piece is centred a block of images at a time in a small buffer
            for p, lo, a, b in pieces[k]:
                xp = p.data[:, a - lo:b - lo]
                blocks = _blocks(n, (b - a) * per_channel)
                buf = np.empty((blocks[0][1], b - a, h, w), dtype=sdtype)
                if measure:
                    mu[a:b] = _over_images(xp.sum(axis=(2, 3)))
                    # as ``mean`` does: divide by an intp count, in float64 for a float32 sum
                    np.true_divide(mu[a:b], np.intp(count), out=mu[a:b], casting="unsafe")
                    planes = np.empty((n, b - a), dtype=sdtype)
                    for i, j in blocks:
                        src = np.subtract(xp[i:j], mu4[:, a:b], out=buf[:j - i])
                        planes[i:j] = np.einsum("nchw,nchw->nc", src, src)
                    var[a:b] = _over_images(planes) / count
                    inv[a:b] = 1.0 / np.sqrt(var[a:b] + BN_EPS)
                for i, j in blocks:
                    src = buf[:j - i]
                    if not (measure and len(blocks) == 1):  # else src is centred already
                        np.subtract(xp[i:j], mu4[:, a:b], out=src)
                    src *= inv4[:, a:b]
                    src *= g4[:, a:b]
                    src += b4[:, a:b]
                    src = src.astype(dtype, copy=False)
                    if relu:
                        np.maximum(src, 0, out=y[i:j, a:b])  # propagates NaN, as relu() does
                    else:
                        np.copyto(y[i:j, a:b], src)

        _split(fill, shares)
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
        pieces = _pieces(spans, c, shares)
        # Where each part's dx goes: added into the part's gradient, or
        # written into g for a lone part, or into a new array, handed over
        # after the split.  A part listed twice gets a new array each time.
        dests = {}
        for p, lo, hi in spans:
            if not p.requires_grad:
                continue
            if p.grad is not None and sum(q is p for q in parts) == 1:
                dests[lo] = (p.grad, True)
            else:
                dests[lo] = (g if hi - lo == c else np.empty(p.shape, dtype=p.dtype), False)

        def grad(k):
            # Per piece, a block of images at a time: the gradient masked in
            # place and summed, with xhat built from the input; then dx built
            # in the same small buffer and added or written to its place.
            for p, lo, a, b in pieces[k]:
                gp, xp = g[:, a:b], p.data[:, a - lo:b - lo]
                blocks = _blocks(n, (b - a) * per_channel)
                buf = np.empty((blocks[0][1], b - a, h, w), dtype=sdtype)
                mask = np.empty(buf.shape, dtype=bool) if relu else None
                planes_g = np.empty((n, b - a), dtype=g.dtype)
                planes_gx = np.empty((n, b - a), dtype=np.result_type(g.dtype, sdtype))
                for i, j in blocks:
                    gb = gp[i:j]
                    if relu:
                        np.multiply(gb, np.greater(out[i:j, a:b], 0, out=mask[:j - i]), out=gb)
                    planes_g[i:j] = np.einsum("nchw->nc", gb)
                    xhat = np.subtract(xp[i:j], mu4[:, a:b], out=buf[:j - i])
                    xhat *= inv4[:, a:b]
                    planes_gx[i:j] = np.einsum("nchw,nchw->nc", gb, xhat)
                sum_g[a:b] = _over_images(planes_g)
                sum_gx[a:b] = _over_images(planes_gx)
                if lo not in dests:
                    continue
                dest, add = dests[lo]
                for i, j in blocks:
                    dx, to = buf[:j - i], dest[i:j, a - lo:b - lo]
                    if not training:
                        np.multiply(gp[i:j], scale[:, a:b], out=dx)
                    else:
                        # dx = gamma * inv * (g - mean(g) - xhat * mean(g * xhat))
                        if len(blocks) > 1:  # else dx holds this block's xhat already
                            np.subtract(xp[i:j], mu4[:, a:b], out=dx)
                            dx *= inv4[:, a:b]
                        dx *= (-sum_gx[a:b] / count).reshape(1, -1, 1, 1)
                        dx += gp[i:j]
                        dx -= (sum_g[a:b] / count).reshape(1, -1, 1, 1)
                        dx *= scale[:, a:b]
                    if add:
                        to += dx
                    else:
                        np.copyto(to, dx, casting="same_kind")

        _split(grad, shares)
        for p, lo, _ in spans:
            if lo in dests and not dests[lo][1]:
                p.accumulate_grad(dests[lo][0])
        if beta.requires_grad:
            beta.accumulate_grad(sum_g)
        if gamma.requires_grad:
            gamma.accumulate_grad(sum_gx)

    result = _result(saved.out, (*parts, gamma, beta), backward, "batch_norm")
    result._rebuild = saved
    if not result.requires_grad:
        saved.make = None
    return result


# Batch norm runs each pass over a block of images at a time, about this many
# bytes of scratch per share, so that a block's chain of passes stays in cache.
_BLOCK_BYTES = 1 << 19


def _blocks(n: int, image_bytes: int) -> list[tuple[int, int]]:
    """[i, j) ranges that cover n images in blocks, the first of them the largest.

    A block is about ``_BLOCK_BYTES``, or a quarter of the piece when that
    is smaller (but not below an eighth of ``_BLOCK_BYTES``), so that the
    shares' buffers stay small beside the piece.  Each block holds at least
    two images when n does: einsum sums a lone plane of more than 8192
    elements (numpy's buffer) in another order than it sums two or more,
    and ``_pieces`` leaves a piece one channel wide only where its whole
    part is, so a block is a lone plane only where its part is.
    """
    target = min(_BLOCK_BYTES, max(_BLOCK_BYTES // 8, n * image_bytes // 4))
    count = max(1, n // max(2, target // max(1, image_bytes)))
    return [(-(-n * j // count), -(-n * (j + 1) // count)) for j in range(count)]


def _pieces(spans, c: int, shares: int) -> list[list[tuple]]:
    """Each share's (part, part's first channel, start, stop) pieces of the ``c`` channels.

    The channels are cut into one contiguous range per share.  A part may
    straddle a cut, but a cut never leaves one channel of a wider part alone.
    """
    cuts = [0]
    for k in range(1, shares):
        cut = max(c * k // shares, cuts[-1])
        for _, lo, hi in spans:
            if lo < cut < hi:
                cut = lo if cut - lo == 1 else hi if hi - cut == 1 else cut
        cuts.append(cut)
    cuts.append(c)
    return [[(p, lo, max(lo, c0), min(hi, c1)) for p, lo, hi in spans if max(lo, c0) < min(hi, c1)]
            for c0, c1 in zip(cuts[:-1], cuts[1:])]


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
