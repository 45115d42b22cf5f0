"""The conv operand gather and fold, which a profiler wraps by these names.

``im2col`` gathers the zero-padded, channel-major operand whose shifted
views ``tensor.conv2d`` reads (its docstring describes the algorithm), for
any input that batch norm has not written as one (see ``tensor``).
``col2im`` folds one chunk of whole images of the operand's gradient back
onto the NCHW input.  They are a pad and an unpad, under the names of the
patch gather and scatter they replaced.  ``tensor`` looks
both up at call time, so a wrapper sees every call.  ``active_backend``
names the implementation in run provenance.
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
    """Fold an operand-shaped gradient (C, k, Hp, Wp) back to its k NCHW images.

    The adjoint of ``im2col``: drops the margins and restores NCHW order.
    ``conv2d`` calls it on each chunk of whole images that its backward
    completes.  Returns a view; the caller copies it into the gradient it
    builds.
    """
    _, _, hp, wp = grad.shape
    return grad[:, :, padding:hp - padding, padding:wp - padding].transpose(1, 0, 2, 3)


def active_backend() -> str:
    """Name of the kernel implementation, recorded in run provenance."""
    return "numpy"
