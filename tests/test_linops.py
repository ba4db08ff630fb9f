import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steepsim.linops import (
    DegenerateChannelError,
    cn_from_normals,
    cn_parts,
    hermitian_eig,
    sample_cn,
    sample_cn_matrix,
    solve_psd,
)


def _random_hermitian_psd(n, seed):
    rng = np.random.default_rng(seed)
    a = sample_cn_matrix(n, n + 2, rng)
    return a @ a.conj().T


def test_sample_cn_moments():
    rng = np.random.default_rng(0)
    z = sample_cn(200_000, rng)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    # circularity: pseudo second moment vanishes
    assert abs(np.mean(z**2)) < 0.01


def test_sample_cn_matrix_shape_and_dtype():
    rng = np.random.default_rng(1)
    m = sample_cn_matrix(3, 5, rng)
    assert m.shape == (3, 5)
    assert m.dtype == np.complex128


def _bits(z):
    return z.view(np.uint64)


def test_sample_cn_bit_equal_to_complex_division():
    # the CN draw is defined as (re + 1j*im)/np.sqrt(2.0); its helper writes
    # the parts without complex temporaries and must keep every bit
    for shape in [(1001,), (3, 333)]:
        rng = np.random.default_rng(7)
        got = sample_cn(*shape, rng) if len(shape) == 1 else sample_cn_matrix(*shape, rng)
        rng = np.random.default_rng(7)
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        assert np.array_equal(_bits(got), _bits((re + 1j * im) / np.sqrt(2.0)))
    # column slices of a wider buffer, as the signal-level oracle passes them
    big = np.random.default_rng(8).standard_normal((2, 5, 700))
    re, im = big[0, :, 100:613], big[1, :, 100:613]
    got = cn_from_normals(re, im)
    assert got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits((re + 1j * im) / np.sqrt(2.0)))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_cn_parts_follows_sample_cn_draw_order(lead):
    # views of flat draws, with or without a leading axis, that give
    # sample_cn's and sample_cn_matrix's draws bit for bit
    width = 2 * (4 + 6 + 1)
    seeds = [[7, t] for t in range(math.prod(lead))]
    rows = [np.random.default_rng(sd).standard_normal(width) for sd in seeds]
    buf = np.stack(rows).reshape(lead + (width,))
    parts = cn_parts(buf, [(4,), (2, 3), (1,)])
    for t, sd in enumerate(seeds):
        rng = np.random.default_rng(sd)
        want = [sample_cn(4, rng), sample_cn_matrix(2, 3, rng), sample_cn(1, rng)]
        for (re, im), w in zip(parts, want):
            assert re.shape == im.shape == lead + w.shape
            got = cn_from_normals(re.reshape(-1, *w.shape)[t], im.reshape(-1, *w.shape)[t])
            assert np.array_equal(_bits(got), _bits(w))
    assert all(np.shares_memory(re, buf) and np.shares_memory(im, buf) for re, im in parts)


def test_sample_cn_reproducible():
    a = sample_cn(16, np.random.default_rng(42))
    b = sample_cn(16, np.random.default_rng(42))
    assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), seed=st.integers(min_value=0, max_value=2**31))
def test_hermitian_eig_reconstructs(n, seed):
    m = _random_hermitian_psd(n, seed)
    lam, v = hermitian_eig(m)
    assert np.all(np.diff(lam) <= 0), "eigenvalues must come back descending"
    assert np.allclose(v @ np.diag(lam) @ v.conj().T, m, atol=1e-10)
    assert np.allclose(v.conj().T @ v, np.eye(n), atol=1e-10)


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        hermitian_eig(m)


def test_solve_psd_matches_direct_solve():
    m = _random_hermitian_psd(4, 7) + np.eye(4)
    rhs = sample_cn_matrix(4, 2, np.random.default_rng(8))
    x = solve_psd(m, rhs)
    assert np.allclose(m @ x, rhs, atol=1e-10)


def test_solve_psd_rejects_indefinite():
    m = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(DegenerateChannelError):
        solve_psd(m, np.ones(2, dtype=complex))


def test_solve_psd_rejects_singular():
    m = np.zeros((3, 3), dtype=complex)
    with pytest.raises(DegenerateChannelError):
        solve_psd(m, np.ones(3, dtype=complex))


@pytest.mark.parametrize("n_A, n_E", [(2, 4), (3, 3), (4, 6)])
def test_solve_psd_rank_deficient_gram_raises_documented_error(n_A, n_E):
    # two equal columns make the Gram G^H G singular. Rounding lets its
    # Cholesky pass on some draws (e.g. n_A=2, n_E=4, seed 5), after which the
    # solve raised a raw LinAlgError or, on 94 of 900 draws, returned ||x|| up
    # to 1e34; any other exception fails here
    raised = 0
    for seed in range(300):
        rng = np.random.default_rng([n_A, n_E, seed])
        g = sample_cn_matrix(n_E, n_A, rng)
        g[:, 1] = g[:, 0]
        try:
            solve_psd(g.conj().T @ g, sample_cn(n_A, rng).conj())
        except DegenerateChannelError:
            raised += 1
    assert raised == 300


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_solve_psd_accepts_ill_conditioned_gram(n):
    # the singular-pivot rule must not reject a nonsingular matrix whose
    # condition number reaches 1e10-1e12: G has fewer rows than columns
    for seed in range(20):
        rng = np.random.default_rng([n, seed])
        g = sample_cn_matrix(max(1, n // 2), n, rng)
        m = np.eye(n) + 1e10 * (g.conj().T @ g)
        rhs = sample_cn(n, rng)
        x = solve_psd(m, rhs)
        residual = np.linalg.norm(m @ x - rhs)
        assert residual <= 1e-14 * np.linalg.norm(m, 2) * np.linalg.norm(x)
