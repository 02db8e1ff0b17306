import math

import numpy as np

from ripcert.linalg import gram


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
