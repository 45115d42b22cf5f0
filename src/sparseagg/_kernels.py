"""Hot inner loops: the conv operand gather and fold, and max-pool routing.

Everything here is vectorized numpy.  ``tensor.conv2d`` runs one GEMM per
kernel tap over shifted views of a zero-padded, channel-major copy of its
input (Anderson et al., *Low-memory GEMM-based convolution algorithms*,
arXiv 1709.03395), so no patch matrix is built at any kernel size or
stride.  ``im2col`` gathers that operand and ``col2im`` folds its gradient
back onto the input; they keep the names of the patch gather and scatter
they replaced, and ``tensor`` looks them up at call time, so a profiler
can wrap them.  Matrix multiplies go to numpy/BLAS.
"""

import numpy as np


def im2col(x: np.ndarray, padding: int) -> np.ndarray:
    """Gather the conv operand: NCHW ``x`` -> zero-padded (C, N, H+2p, W+2p).

    The result is C-contiguous, so its flat (C, N*Hp*Wp) view is the one
    GEMM operand that every kernel tap reads at its own offset.  It holds
    the input plus its zero margins: no patch is duplicated.
    """
    n, c, h, w = x.shape
    out = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    out[:, :, padding:padding + h, padding:padding + w] = x.transpose(1, 0, 2, 3)
    return out


def col2im(grad: np.ndarray, padding: int) -> np.ndarray:
    """Fold an operand-shaped gradient (C, N, Hp, Wp) back to the NCHW input.

    The adjoint of ``im2col``: drops the margins and restores NCHW order.
    Returns a view; the caller's gradient accumulation makes the one copy.
    """
    _, _, hp, wp = grad.shape
    return grad[:, :, padding:hp - padding, padding:wp - padding].transpose(1, 0, 2, 3)


def maxpool_forward(x: np.ndarray, kernel: int, stride: int, padding: int):
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


def maxpool_backward(grad: np.ndarray, arg: np.ndarray, x_shape: tuple,
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


def active_backend() -> str:
    """Name of the kernel implementation, recorded in run provenance."""
    return "numpy"
