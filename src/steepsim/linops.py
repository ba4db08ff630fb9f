"""Complex Gaussian sampling primitives shared by all modules.

Circular complex Gaussian draws, the (re, im) views that split one buffer of
standard normals into them, the error for a degenerate draw, and the heap
rule for block temporaries. Vectors and matrices are plain complex128
ndarrays; the package does its linear algebra with numpy directly.
"""
from __future__ import annotations

import math

import numpy as np


class DegenerateChannelError(Exception):
    """A channel draw or derived matrix is too degenerate to analyze."""


def keep_block_memory() -> None:
    """Make glibc keep the numpy temporaries that later blocks free in the heap.

    An ensemble or verify block frees arrays of up to 1.4 MB, which glibc
    would otherwise serve from fresh mmaps, faulting every page again on each
    block. Freeing this mmap-served 4 MiB array raises glibc's dynamic mmap
    threshold to its size and the trim threshold to twice that (glibc's
    M_MMAP_THRESHOLD documentation). Other allocators ignore it.
    """
    np.empty(4 << 20, dtype=np.uint8)


# numpy divides (re + 1j*im) by the real sqrt(2) through Smith's algorithm,
# which multiplies each part by 1/sqrt(2): the same bits as below
_CN_SCALE = 1.0 / np.sqrt(2.0)


def cn_from_normals(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """CN(0,1) entries from standard normal real and imaginary parts.

    Equals (re + 1j*im)/np.sqrt(2.0) bit for bit, without its complex
    temporaries. The result is a new C-contiguous array of re's shape.
    """
    z = np.empty(re.shape, dtype=complex)
    np.multiply(re, _CN_SCALE, out=z.real)
    np.multiply(im, _CN_SCALE, out=z.imag)
    return z


def cn_parts(buf: np.ndarray, shapes) -> list:
    """(re, im) views over buf's last axis for CN draws of the given shapes.

    Each draw holds all its real parts, then all its imaginary parts, as
    sample_cn draws them; buf's leading axes lead each view.
    """
    parts, lo, lead = [], 0, buf.shape[:-1]
    for shape in shapes:
        size = math.prod(shape)
        parts.append(tuple(buf[..., a:a + size].reshape(lead + shape) for a in (lo, lo + size)))
        lo += 2 * size
    return parts


def sample_cn(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a length-dim vector of i.i.d. CN(0,1) entries.

    Real and imaginary parts are independent N(0, 1/2), so each entry has
    unit total variance.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    re = rng.standard_normal(dim)
    im = rng.standard_normal(dim)
    return cn_from_normals(re, im)


def sample_cn_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a rows-by-cols matrix of i.i.d. CN(0,1) entries."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dims must be positive, got {rows}x{cols}")
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return cn_from_normals(re, im)
