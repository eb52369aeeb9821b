"""Weighted grid spaces, Gram matrices, and whitening."""

import tracemalloc

import numpy as np
import pytest

import gridpcr.space

from gridpcr import AmbientSpace, BasisSet, ConformanceError, EmptyBasisError
from gridpcr.space import (
    as_element,
    as_sample,
    gram,
    project_scores,
    whiten,
)


def rng_for(case):
    return np.random.default_rng(1000 + case)


def random_space(rng, max_axes=3):
    nd = int(rng.integers(1, max_axes + 1))
    dims = tuple(int(rng.integers(3, 7)) for _ in range(nd))
    weights = rng.uniform(0.2, 2.0, size=int(np.prod(dims)))
    return AmbientSpace(dims=dims, weights=weights)


def test_regular_and_unit_domain_weights():
    sp = AmbientSpace.regular((3, 4))
    assert sp.size == 12
    np.testing.assert_array_equal(sp.weights, np.ones(12))
    sp = AmbientSpace.regular((3, 4), (0.5, 0.25))
    np.testing.assert_allclose(sp.weights, np.full(12, 0.125))
    sp = AmbientSpace.unit_domain((10, 20))
    # unit domain: total measure 1
    assert sp.weights.sum() == pytest.approx(1.0)


def test_centers_cover_unit_interval():
    sp = AmbientSpace.unit_domain((4,))
    np.testing.assert_allclose(sp.centers()[0], [0.125, 0.375, 0.625, 0.875])


def test_space_validation():
    with pytest.raises(ConformanceError):
        AmbientSpace(dims=(2, 2), weights=np.ones(3))
    with pytest.raises(ConformanceError):
        AmbientSpace(dims=(2,), weights=np.array([1.0, -1.0]))
    with pytest.raises(ConformanceError):
        AmbientSpace(dims=(2,), weights=np.zeros(2))
    with pytest.raises(ConformanceError):
        AmbientSpace(dims=(2,), weights=np.array([1.0, np.inf]))
    # masked cells must carry zero weight
    with pytest.raises(ConformanceError):
        AmbientSpace(
            dims=(2,), weights=np.ones(2), mask=np.array([True, False])
        )


def test_inner_is_weighted_dot():
    rng = rng_for(0)
    sp = random_space(rng)
    f = rng.standard_normal(sp.size)
    g = rng.standard_normal(sp.size)
    manual = sum(sp.weights[v] * f[v] * g[v] for v in range(sp.size))
    assert sp.inner(f, g) == pytest.approx(manual, rel=1e-12)
    assert sp.norm(f) == pytest.approx(np.sqrt(sp.inner(f, f)), rel=1e-12)


def test_as_element_accepts_shaped_and_flat():
    sp = AmbientSpace.regular((2, 3))
    shaped = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(as_element(sp, shaped), np.arange(6.0))
    np.testing.assert_array_equal(as_element(sp, np.arange(6.0)), np.arange(6.0))
    with pytest.raises(ConformanceError):
        as_element(sp, np.arange(5.0))


def test_as_sample_shapes():
    sp = AmbientSpace.regular((2, 3))
    stacked = np.arange(12.0).reshape(2, 2, 3)
    flat = as_sample(sp, stacked)
    assert flat.shape == (2, 6)
    np.testing.assert_array_equal(as_sample(sp, flat), flat)
    with pytest.raises(ConformanceError):
        as_sample(sp, np.zeros((2, 5)))


def test_as_sample_checks_one_row_chunk_at_a_time(monkeypatch):
    # A non-finite value in the last chunk is still found, and the check
    # holds no n x V bool temporary.
    monkeypatch.setattr(gridpcr.space, "ROW_CHUNK_VALUES", 600)
    sp = AmbientSpace.regular((20, 30))
    sample = np.ones((400, sp.size))
    tracemalloc.start()
    try:
        assert as_sample(sp, sample) is sample
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sample.size / 4
    sample[-1, -1] = np.nan
    with pytest.raises(ConformanceError, match="^sample contains non-finite values$"):
        as_sample(sp, sample)


def test_gram_matches_loop():
    rng = rng_for(1)
    sp = random_space(rng)
    funcs = rng.standard_normal((4, sp.size))
    basis = BasisSet(functions=funcs, provenance={"kind": "custom"})
    g = gram(sp, basis)
    for i in range(4):
        for j in range(4):
            assert g[i, j] == pytest.approx(sp.inner(funcs[i], funcs[j]), rel=1e-12)
    np.testing.assert_array_equal(g, g.T)


def test_whitener_orthonormalizes_gram():
    # factor L factor^T = I for full-rank and rank-deficient Gram matrices
    for case in range(10):
        rng = rng_for(100 + case)
        dims = (int(rng.integers(3, 7)), int(rng.integers(3, 7)))
        sp = AmbientSpace(dims=dims, weights=rng.uniform(0.2, 2.0, int(np.prod(dims))))
        n_fns = int(rng.integers(3, 8))
        funcs = rng.standard_normal((n_fns, sp.size))
        if case % 2:
            funcs[-1] = funcs[0] * 2.0 + funcs[1]  # force a dependent row
        g = gram(sp, BasisSet(functions=funcs, provenance={"kind": "custom"}))
        wh = whiten(g)
        expect_rank = n_fns - 1 if case % 2 else n_fns
        assert wh.rank == expect_rank
        assert wh.dropped == n_fns - expect_rank
        ident = wh.factor @ g @ wh.factor.T
        np.testing.assert_allclose(ident, np.eye(wh.rank), atol=1e-10)
        assert np.all(np.diff(wh.spectrum) <= 0) and wh.spectrum[0] > 0


def test_whitener_rejects_zero_gram():
    with pytest.raises(EmptyBasisError):
        whiten(np.zeros((3, 3)))


def test_whitener_drop_tol_is_relative():
    g = np.diag([1.0, 1e-6, 1e-14])
    assert whiten(g, drop_tol=1e-10).rank == 2
    assert whiten(g, drop_tol=1e-3).rank == 1


def test_project_scores_matches_loop():
    rng = rng_for(2)
    sp = random_space(rng)
    funcs = rng.standard_normal((3, sp.size))
    basis = BasisSet(functions=funcs, provenance={"kind": "custom"})
    sample = rng.standard_normal((5, sp.size))
    center = rng.standard_normal(sp.size)
    raw = project_scores(sp, basis, sample, center=center)
    for i in range(5):
        for k in range(3):
            want = sp.inner(sample[i] - center, funcs[k])
            assert raw[i, k] == pytest.approx(want, rel=1e-12, abs=1e-12)
