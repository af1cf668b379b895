"""Vectorized 1-D convolution primitives (im2col / col2im).

Both :class:`repro.nn.conv.Conv1d` and
:class:`repro.nn.conv.ConvTranspose1d` are expressed in terms of the two
helpers here, which keeps the adjoint relationships between the four
convolution maps (forward / input-grad / weight-grad, and their transposed
counterparts) in one auditable place.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError


def conv1d_output_length(length: int, kernel: int, stride: int, pad: int) -> int:
    """Output length of a 1-D convolution."""
    out = (length + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution produces empty output: length={length}, "
            f"kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


def conv_transpose1d_output_length(
    length: int, kernel: int, stride: int, pad: int
) -> int:
    """Output length of a 1-D transposed convolution."""
    out = (length - 1) * stride - 2 * pad + kernel
    if out <= 0:
        raise ShapeError(
            f"transposed convolution produces empty output: length={length}, "
            f"kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


def im2col1d(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> np.ndarray:
    """Extract sliding windows.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, L)``.

    Returns
    -------
    Array of shape ``(N, C * kernel, L_out)`` where column ``t`` holds the
    flattened receptive field of output position ``t``.
    """
    n, c, length = x.shape
    l_out = conv1d_output_length(length, kernel, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    s0, s1, s2 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, l_out, kernel),
        strides=(s0, s1, s2 * stride, s2),
        writeable=False,
    )
    # (N, C, L_out, K) -> (N, C, K, L_out) -> (N, C*K, L_out)
    return np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(
        n, c * kernel, l_out
    )


def col2im1d(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col1d`: scatter-add columns back to the signal.

    ``cols`` has shape ``(N, C * kernel, L_out)``; the result has shape
    ``x_shape = (N, C, L)``.
    """
    n, c, length = x_shape
    l_out = conv1d_output_length(length, kernel, stride, pad)
    if cols.shape != (n, c * kernel, l_out):
        raise ShapeError(
            f"col2im1d: cols shape {cols.shape} incompatible with "
            f"x_shape={x_shape}, kernel={kernel}, stride={stride}, pad={pad}"
        )
    cols = cols.reshape(n, c, kernel, l_out)
    padded = np.zeros((n, c, length + 2 * pad), dtype=cols.dtype)
    for k in range(kernel):
        padded[:, :, k : k + stride * l_out : stride] += cols[:, :, k, :]
    if pad:
        return padded[:, :, pad:-pad]
    return padded


def conv1d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, pad: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Convolution forward pass.

    ``x``: ``(N, C_in, L)``; ``weight``: ``(C_out, C_in, K)``; ``bias``:
    ``(C_out,)``.  Returns ``(output, cols)`` where ``cols`` is the im2col
    cache needed by the backward pass.
    """
    c_out, c_in, kernel = weight.shape
    if x.shape[1] != c_in:
        raise ShapeError(
            f"conv1d: input channels {x.shape[1]} != weight channels {c_in}"
        )
    cols = im2col1d(x, kernel, stride, pad)
    w2 = weight.reshape(c_out, c_in * kernel)
    # (O, F) @ (N, F, L) broadcasts to one BLAS gemm per sample; this is
    # several times faster than the equivalent einsum, and the gap widens
    # with batch size, which the batched key-seed path relies on.
    out = np.matmul(w2, cols)
    out += bias[None, :, None]
    return out, cols


def conv1d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: Tuple[int, int, int],
    weight: np.ndarray,
    stride: int,
    pad: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convolution backward pass.

    Returns ``(grad_x, grad_weight, grad_bias)``.
    """
    c_out, c_in, kernel = weight.shape
    w2 = weight.reshape(c_out, c_in * kernel)
    grad_cols = np.matmul(w2.T, grad_out)
    grad_x = col2im1d(grad_cols, x_shape, kernel, stride, pad)
    grad_w = np.matmul(grad_out, cols.swapaxes(1, 2)).sum(axis=0).reshape(
        weight.shape
    )
    grad_b = grad_out.sum(axis=(0, 2))
    return grad_x, grad_w, grad_b
