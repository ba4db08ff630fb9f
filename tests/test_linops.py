import math

import numpy as np
import pytest

from steepsim.linops import cn_from_normals, cn_parts, sample_cn, sample_cn_matrix


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
