import math

import numpy as np
import pytest

from ripcert.errors import (
    MatrixShapeError,
    NotHermitianError,
    UnsupportedExponentError,
)
from ripcert.linalg import gram, spectral_norm, trace_power


def random_hermitian(n, seed, complex_entries=True):
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.normal(size=(n, n))
    if complex_entries:
        a = a + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def hollow_ones(k):
    return np.eye(k) - np.ones((k, k))


class TestGram:
    def test_identity(self):
        g = gram(np.eye(3))
        assert np.allclose(g, np.eye(3), atol=0)

    def test_hand_multiplied_rank_one(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert np.allclose(gram(a), [[2.0, 0.0], [0.0, 0.0]], atol=0)

    def test_paley5_off_diagonals_have_gauss_sum_modulus(self, paley5):
        g = gram(paley5.matrix)
        off = np.abs(g[:5, :5])[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 1 / math.sqrt(5), atol=1e-14)

    def test_gram_is_hermitian_psd(self):
        for seed in range(4):
            rng = np.random.Generator(np.random.Philox(key=seed))
            a = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
            g = gram(a)
            assert np.array_equal(g, g.conj().T)
            w = np.linalg.eigvalsh(g)
            assert w.min() >= -1e-12 * max(1.0, w.max())

    def test_steiner_gram_spectrum_is_tight(self, steiner_6x16):
        w = np.linalg.eigvalsh(gram(steiner_6x16.matrix))[::-1]
        ratio = 16 / 6
        for lam in w:
            assert min(abs(lam), abs(lam - ratio)) < 1e-12
        assert np.isclose(w[:6], ratio, atol=1e-12).all()


class TestOperatorNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_hollow_ones_k4(self):
        assert math.isclose(spectral_norm(hollow_ones(4)), 3.0, rel_tol=1e-12)

    def test_nilpotent(self):
        assert math.isclose(
            spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])), 1.0, rel_tol=1e-12
        )

    def test_matches_max_eigenvalue_for_hermitian(self):
        for seed in range(4):
            h = random_hermitian(5, seed)
            assert math.isclose(
                spectral_norm(h), float(np.abs(np.linalg.eigvalsh(h)).max()), rel_tol=1e-10
            )

    def test_matches_svd_for_rectangular(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        a = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
        assert math.isclose(
            spectral_norm(a),
            float(np.linalg.svd(a, compute_uv=False)[0]),
            rel_tol=1e-10,
        )


class TestTracePower:
    def test_identity(self):
        assert trace_power(np.eye(5), 2) == 5.0

    def test_hollow_ones_k4_square(self):
        # eigenvalues are {-3, 1, 1, 1}
        assert math.isclose(trace_power(hollow_ones(4), 2), 12.0, rel_tol=1e-12)

    def test_two_column_hollow_gram(self):
        c = 0.37
        h = np.array([[0.0, c], [c, 0.0]])
        assert math.isclose(trace_power(h, 2), 2 * c * c, rel_tol=1e-12)

    def test_odd_or_nonpositive_exponent_rejected(self):
        h = np.eye(2)
        with pytest.raises(UnsupportedExponentError):
            trace_power(h, 3)
        with pytest.raises(UnsupportedExponentError):
            trace_power(h, 0)

    def test_matches_spectrum_route(self):
        for seed in range(5):
            h = random_hermitian(6, seed)
            w = np.linalg.eigvalsh(h)
            for q in (1, 2, 4):
                via_power = trace_power(h, 2 * q)
                via_spectrum = float(np.sum(w ** (2 * q)))
                assert math.isclose(via_power, via_spectrum, rel_tol=1e-10)

    def test_rejects_nonsquare_and_nonhermitian(self):
        with pytest.raises(MatrixShapeError):
            trace_power(np.ones((2, 3)), 2)
        with pytest.raises(MatrixShapeError):
            trace_power(np.ones(4), 2)
        with pytest.raises(NotHermitianError):
            trace_power(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)
