"""Hot inner loops: the conv operand gather and fold, and max-pool routing.

Everything here is vectorized numpy.  ``im2col`` gathers the zero-padded,
channel-major operand whose shifted views ``tensor.conv2d`` reads (its
docstring describes the algorithm), and ``col2im`` folds the operand's
gradient back onto the input; they keep the names of the patch gather and
scatter they replaced, and ``tensor`` looks them up at call time, so a
profiler can wrap them.  Max pooling is a running max over the kernel**2
strided views of its padded input.  Matrix multiplies go to numpy/BLAS.
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
    """Max pool with -inf padding; returns output and flat argmax indices.

    A running max over the kernel**2 strided views of the padded input, in
    (ky, kx) order.  A later slot wins only when strictly greater, so ties
    go to the first slot, and a NaN wins over any number, so a window
    holding NaN gives its first NaN (as ``argmax`` would).  Winners are
    merged with arithmetic rather than masked copies, which stall on
    data-dependent branches.
    """
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if padding:
        xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
    else:
        xp = x
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
    return out, arg.astype(np.int64)


def maxpool_backward(grad: np.ndarray, arg: np.ndarray, x_shape: tuple,
                     kernel: int, stride: int, padding: int) -> np.ndarray:
    """Route each output gradient to its argmax slot of the padded input.

    Each gradient is first put in its slot's plane of a (kernel**2, N, C,
    oh, ow) zero buffer, then the planes are added onto their strided views
    last to first, so every input position sums its windows' gradients in
    the order ``np.add.at`` used.
    """
    n, c, h, w = x_shape
    oh, ow = grad.shape[2], grad.shape[3]
    planes = np.zeros((kernel * kernel,) + grad.shape, dtype=grad.dtype)
    np.put_along_axis(planes, arg[None], grad[None], axis=0)
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=grad.dtype)
    for slot in reversed(range(kernel * kernel)):
        _slot_view(dxp, *divmod(slot, kernel), stride, oh, ow)[...] += planes[slot]
    return dxp[:, :, padding:padding + h, padding:padding + w]


def _slot_view(xp: np.ndarray, ky: int, kx: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """The (N, C, oh, ow) strided view holding window slot (ky, kx) of every window."""
    return xp[:, :, ky:ky + stride * (oh - 1) + 1:stride, kx:kx + stride * (ow - 1) + 1:stride]


def active_backend() -> str:
    """Name of the kernel implementation, recorded in run provenance."""
    return "numpy"
