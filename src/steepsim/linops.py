"""Complex-valued sampling and linear algebra primitives shared by all modules.

Thin contract layer over numpy: circular complex Gaussian draws, Hermitian
eigendecomposition with a fixed (descending) eigenvalue order, a guarded
positive-definite solver, and the heap rule for block temporaries. Vectors
and matrices are plain complex128 ndarrays.
"""
from __future__ import annotations

import math

import numpy as np

# Tolerance ladder: symmetry checks at 1e-12, algebraic identities at 1e-10,
# statistical checks at 3-5 standard errors (see tests).
HERMITIAN_TOL = 1e-12
# Rounding lets the Cholesky of an exactly singular Gram pass, with its least
# squared pivot within 1.9 eps of its largest diagonal entry (n <= 4); that of
# I + 1e10*G^H G stayed above 1800*n eps (n <= 16).
SINGULAR_PIVOT_TOL = 4 * np.finfo(float).eps


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


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition m = Q diag(vals) Q^H of a Hermitian matrix.

    Returns (vals, Q). Eigenvalues come out descending so that the zero modes
    of a rank-deficient Gram matrix occupy the trailing slots.

    Raises:
        ValueError: if m is not Hermitian within HERMITIAN_TOL (relative).
    """
    m = np.asarray(m)
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.conj().T))) > HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def solve_psd(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve m @ x = rhs for Hermitian positive definite m.

    Raises:
        DegenerateChannelError: if m is singular or indefinite, or if a
            squared Cholesky pivot is at most n*SINGULAR_PIVOT_TOL*max(diag m).
    """
    m = np.asarray(m)
    try:
        pivots = np.abs(np.diagonal(np.linalg.cholesky(m))) ** 2
        if pivots.min() <= m.shape[0] * SINGULAR_PIVOT_TOL * np.diagonal(m).real.max():
            raise np.linalg.LinAlgError("singular within rounding")
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChannelError("matrix is singular or not positive definite") from exc
