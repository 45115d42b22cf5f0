"""Hot inner loops: patch gather/scatter and max-pool routing.

Two implementations live side by side: vectorized numpy and numba-jitted
loops.  The active set is picked once at import time; set
``SPARSEAGG_NUMBA=0`` to force the pure-numpy path (useful on machines
without a working numba).

Matrix multiplies stay in numpy/BLAS either way; only the gather/scatter
loops benefit from jitting.
"""

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def _numba_requested() -> bool:
    return os.environ.get("SPARSEAGG_NUMBA", "1").strip().lower() not in ("0", "false", "no", "off")


# ---------------------------------------------------------------------------
# numpy implementations


def im2col_numpy(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Gather conv patches from padded input ``x`` (N,C,H,W).

    Returns (C*kh*kw, N*oh*ow): rows in (c, ky, kx) order, columns in
    (n, y, x) order.  Row-major rows keep every copy here a plain strided
    slice with no permutation pass.
    """
    n, c, _, _ = x.shape
    cols = np.empty((c * kh * kw, n, oh, ow), dtype=x.dtype)
    r = 0
    for ci in range(c):
        for ky in range(kh):
            y_end = ky + stride * oh
            for kx in range(kw):
                cols[r] = x[:, ci, ky:y_end:stride, kx:kx + stride * ow:stride]
                r += 1
    return cols.reshape(c * kh * kw, n * oh * ow)


def col2im_numpy(cols: np.ndarray, shape: tuple, kh: int, kw: int, stride: int,
                 oh: int, ow: int) -> np.ndarray:
    """Scatter-add patch gradients back onto the padded input shape."""
    n, c, hp, wp = shape
    cols4 = cols.reshape(c * kh * kw, n, oh, ow)
    out = np.zeros(shape, dtype=cols.dtype)
    r = 0
    for ci in range(c):
        for ky in range(kh):
            y_end = ky + stride * oh
            for kx in range(kw):
                out[:, ci, ky:y_end:stride, kx:kx + stride * ow:stride] += cols4[r]
                r += 1
    return out


def maxpool_forward_numpy(x: np.ndarray, kernel: int, stride: int, padding: int):
    """Max pool with -inf padding; returns output and flat argmax indices."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if padding:
        pad_value = -np.inf if np.issubdtype(x.dtype, np.floating) else x.min()
        xp = np.full((n, c, h + 2 * padding, w + 2 * padding), pad_value, dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
    else:
        xp = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride][:, :, :oh, :ow]
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1).astype(np.int64)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), arg


def maxpool_backward_numpy(grad: np.ndarray, arg: np.ndarray, x_shape: tuple,
                           kernel: int, stride: int, padding: int) -> np.ndarray:
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = grad.shape[2], grad.shape[3]
    dxp = np.zeros((n, c, hp, wp), dtype=grad.dtype)
    ky = (arg // kernel).astype(np.int64)
    kx = (arg % kernel).astype(np.int64)
    oy = np.arange(oh).reshape(1, 1, oh, 1) * stride
    ox = np.arange(ow).reshape(1, 1, 1, ow) * stride
    rows = (oy + ky).reshape(n, c, -1)
    colsx = (ox + kx).reshape(n, c, -1)
    ni = np.arange(n).reshape(n, 1, 1)
    ci = np.arange(c).reshape(1, c, 1)
    np.add.at(dxp, (ni, ci, rows, colsx), grad.reshape(n, c, -1))
    if padding:
        return dxp[:, :, padding:padding + h, padding:padding + w]
    return dxp


# ---------------------------------------------------------------------------
# numba implementations


@njit(cache=True)
def _im2col_jit(x, kh, kw, stride, oh, ow):
    n, c, _, _ = x.shape
    cols = np.empty((c * kh * kw, n * oh * ow), dtype=x.dtype)
    for ci in range(c):
        for ky in range(kh):
            for kx in range(kw):
                r = (ci * kh + ky) * kw + kx
                m = 0
                for ni in range(n):
                    for oy in range(oh):
                        src = x[ni, ci, oy * stride + ky]
                        for ox in range(ow):
                            cols[r, m + ox] = src[ox * stride + kx]
                        m += ow
    return cols


@njit(cache=True)
def _col2im_jit(cols, n, c, hp, wp, kh, kw, stride, oh, ow):
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for ci in range(c):
        for ky in range(kh):
            for kx in range(kw):
                r = (ci * kh + ky) * kw + kx
                m = 0
                for ni in range(n):
                    for oy in range(oh):
                        dst = out[ni, ci, oy * stride + ky]
                        for ox in range(ow):
                            dst[ox * stride + kx] += cols[r, m + ox]
                        m += ow
    return out


@njit(cache=True)
def _maxpool_forward_jit(x, kernel, stride, padding, oh, ow):
    n, c, h, w = x.shape
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    arg = np.empty((n, c, oh, ow), dtype=np.int64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best = -np.inf
                    best_idx = 0
                    for ky in range(kernel):
                        y = oy * stride + ky - padding
                        if y < 0 or y >= h:
                            continue
                        for kx in range(kernel):
                            xq = ox * stride + kx - padding
                            if xq < 0 or xq >= w:
                                continue
                            v = x[ni, ci, y, xq]
                            if v > best:
                                best = v
                                best_idx = ky * kernel + kx
                    out[ni, ci, oy, ox] = best
                    arg[ni, ci, oy, ox] = best_idx
    return out, arg


@njit(cache=True)
def _maxpool_backward_jit(grad, arg, n, c, h, w, kernel, stride, padding):
    dx = np.zeros((n, c, h, w), dtype=grad.dtype)
    oh, ow = grad.shape[2], grad.shape[3]
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    idx = arg[ni, ci, oy, ox]
                    y = oy * stride + idx // kernel - padding
                    xq = ox * stride + idx % kernel - padding
                    dx[ni, ci, y, xq] += grad[ni, ci, oy, ox]
    return dx


def im2col_numba(x, kh, kw, stride, oh, ow):
    return _im2col_jit(np.ascontiguousarray(x), kh, kw, stride, oh, ow)


def col2im_numba(cols, shape, kh, kw, stride, oh, ow):
    n, c, hp, wp = shape
    return _col2im_jit(np.ascontiguousarray(cols), n, c, hp, wp, kh, kw, stride, oh, ow)


def maxpool_forward_numba(x, kernel, stride, padding):
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    return _maxpool_forward_jit(np.ascontiguousarray(x), kernel, stride, padding, oh, ow)


def maxpool_backward_numba(grad, arg, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    return _maxpool_backward_jit(np.ascontiguousarray(grad), arg, n, c, h, w,
                                 kernel, stride, padding)


# ---------------------------------------------------------------------------
# dispatch
#
# Stride-1 patch gather/scatter reduces to contiguous row copies, which
# numpy's C memmove path does faster than the jitted loop; strided patches
# and max-pool argmax routing are where the jit wins.  The accelerated mode
# routes accordingly.

_USE_NUMBA = HAS_NUMBA and _numba_requested()


def _im2col_routed(x, kh, kw, stride, oh, ow):
    if stride == 1:
        return im2col_numpy(x, kh, kw, stride, oh, ow)
    return im2col_numba(x, kh, kw, stride, oh, ow)


def _col2im_routed(cols, shape, kh, kw, stride, oh, ow):
    if stride == 1:
        return col2im_numpy(cols, shape, kh, kw, stride, oh, ow)
    return col2im_numba(cols, shape, kh, kw, stride, oh, ow)


if _USE_NUMBA:
    im2col = _im2col_routed
    col2im = _col2im_routed
    maxpool_forward = maxpool_forward_numba
    maxpool_backward = maxpool_backward_numba
else:
    im2col = im2col_numpy
    col2im = col2im_numpy
    maxpool_forward = maxpool_forward_numpy
    maxpool_backward = maxpool_backward_numpy


def active_backend() -> str:
    return "numba" if _USE_NUMBA else "numpy"
