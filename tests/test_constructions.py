import itertools
import math

import numpy as np
import pytest

from ripcert import (
    all_pairs_steiner,
    bernoulli_matrix,
    gaussian_matrix,
    hadamard,
    incidence_matrix,
    paley_etf,
    realify,
    steiner_etf,
    steiner_triple,
    verify_etf,
    welch_bound,
)
from ripcert.constructions import _GRAM_BUDGET, Frame, SteinerSystem
from ripcert.errors import (
    CongruenceError,
    EnumerationBudgetError,
    InvalidParameterError,
    MatrixShapeError,
    NotRealError,
)
from ripcert.modular import legendre_symbol

PRINTED_STEINER_SIGNS = [
    "+-+-+-+-........",
    "++--....+-+-....",
    "+--+........+-+-",
    "....++--++--....",
    "....+--+....++--",
    "........+--++--+",
]


def sign_rows(frame):
    data = frame.matrix.real
    out = []
    for row in data:
        out.append(
            "".join("." if abs(x) < 1e-14 else ("+" if x > 0 else "-") for x in row)
        )
    return out


class TestSteinerSystems:
    def test_all_pairs_v4_blocks(self):
        s = all_pairs_steiner(4)
        assert s.blocks == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_all_pairs_v2(self):
        assert all_pairs_steiner(2).blocks == ((0, 1),)

    def test_all_pairs_v5_coverage(self):
        s = all_pairs_steiner(5)
        assert s.num_blocks == 10  # validation in the constructor is exhaustive

    def test_all_pairs_rejects_small_v(self):
        with pytest.raises(InvalidParameterError):
            all_pairs_steiner(1)

    def test_triple_v7(self):
        s = steiner_triple(7)
        assert s.num_blocks == 7
        covered = {pair for b in s.blocks for pair in itertools.combinations(b, 2)}
        assert len(covered) == 21

    def test_triple_v9_block_count(self):
        assert steiner_triple(9).num_blocks == 12

    def test_triple_rejects_bad_congruence(self):
        for v in (8, 10, 11, 12, 14):
            with pytest.raises(CongruenceError):
                steiner_triple(v)

    @pytest.mark.parametrize("v", [7, 9, 13, 15, 19, 21, 25, 27])
    def test_triple_family_validates(self, v):
        s = steiner_triple(v)  # exhaustive pair coverage runs in the constructor
        assert s.num_blocks == v * (v - 1) // 6

    def test_invalid_design_rejected(self):
        with pytest.raises(InvalidParameterError):
            SteinerSystem(4, 2, ((0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))


class TestIncidenceMatrix:
    def test_printed_2_2_4(self):
        a = incidence_matrix(all_pairs_steiner(4))
        expected = np.array(
            [
                [1, 1, 0, 0],
                [1, 0, 1, 0],
                [1, 0, 0, 1],
                [0, 1, 1, 0],
                [0, 1, 0, 1],
                [0, 0, 1, 1],
            ]
        )
        assert np.array_equal(a, expected)

    def test_degenerate_2_2_2(self):
        assert np.array_equal(incidence_matrix(all_pairs_steiner(2)), [[1, 1]])

    def test_triple_v7_row_and_column_sums(self):
        a = incidence_matrix(steiner_triple(7))
        assert a.shape == (7, 7)
        assert np.all(a.sum(axis=1) == 3)
        assert np.all(a.sum(axis=0) == 3)

    def test_column_sums_equal_replication(self):
        for s in (all_pairs_steiner(6), steiner_triple(9)):
            a = incidence_matrix(s)
            assert np.all(a.sum(axis=0) == s.replication)


class TestHadamard:
    def test_sylvester_4_printed(self):
        h = hadamard(4, "sylvester")
        expected = np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        )
        assert np.array_equal(h, expected)

    def test_size_one(self):
        assert np.array_equal(hadamard(1, "sylvester"), [[1.0]])
        assert np.array_equal(hadamard(1, "dft"), [[1.0]])

    def test_dft_5_unitary_rows(self):
        h = hadamard(5, "dft")
        assert np.allclose(np.abs(h), 1.0, atol=1e-12)
        assert np.allclose(h @ h.conj().T, 5 * np.eye(5), atol=1e-12)

    def test_sylvester_rejects_non_power_of_two(self):
        with pytest.raises(InvalidParameterError):
            hadamard(3, "sylvester")

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            hadamard(4, "walsh")


class TestSteinerEtf:
    def test_matches_printed_6x16(self, steiner_6x16):
        assert (steiner_6x16.m, steiner_6x16.n) == (6, 16)
        assert sign_rows(steiner_6x16) == PRINTED_STEINER_SIGNS
        mags = np.abs(steiner_6x16.matrix)
        assert np.allclose(mags[mags > 1e-14], 1 / math.sqrt(3), atol=1e-14)

    def test_axioms_and_welch_equality(self, steiner_6x16):
        assert verify_etf(steiner_6x16).all_ok
        assert math.isclose(
            steiner_6x16.coherence, welch_bound(6, 16), rel_tol=0, abs_tol=1e-12
        )

    def test_triple_system_with_dft_hadamard(self):
        frame = steiner_etf(steiner_triple(7), hadamard(4, "dft"))
        assert (frame.m, frame.n) == (7, 28)
        assert verify_etf(frame).all_ok

    def test_size_mismatch_rejected(self):
        with pytest.raises(MatrixShapeError):
            steiner_etf(all_pairs_steiner(4), hadamard(8, "sylvester"))


class TestPaleyEtf:
    def test_printed_3x6(self, paley5):
        root15 = math.sqrt(1 / 5)
        root25 = math.sqrt(2 / 5)
        w = np.exp(-2j * np.pi / 5)
        expected = np.array(
            [
                [root15, root15, root15, root15, root15, 1.0],
                [root25, root25 * w, root25 * w**2, root25 * w**3, root25 * w**4, 0.0],
                [root25, root25 * w**4, root25 * w**3, root25 * w**2, root25 * w, 0.0],
            ]
        )
        assert np.abs(paley5.matrix - expected).max() < 1e-14

    def test_gauss_sum_gram(self, paley5):
        g = paley5.gram
        for a in range(5):
            for b in range(5):
                if a == b:
                    continue
                expected = legendre_symbol(b - a, 5) / math.sqrt(5)
                assert abs(g[a, b] - expected) < 1e-12

    def test_tightness_p13(self, paley13):
        arr = paley13.matrix
        assert (paley13.m, paley13.n) == (7, 14)
        assert np.abs(arr @ arr.conj().T - 2 * np.eye(7)).max() < 1e-12

    def test_rejects_non_prime_and_congruence(self):
        with pytest.raises(InvalidParameterError):
            paley_etf(9)
        with pytest.raises(CongruenceError):
            paley_etf(7)

    def test_allows_3mod4_when_requested(self):
        frame = paley_etf(7, require_1mod4=False)
        assert verify_etf(frame).all_ok
        assert math.isclose(frame.coherence, 1 / math.sqrt(7), abs_tol=1e-12)


class TestRealify:
    def test_real_frame_keeps_gram(self, steiner_6x16):
        rotated = realify(steiner_6x16)
        assert rotated.is_real
        diff = rotated.gram - steiner_6x16.gram
        assert np.linalg.norm(diff, 2) < 1e-10

    def test_paley5_gram_preserved(self, paley5, paley5_real):
        assert (paley5_real.m, paley5_real.n) == (3, 6)
        assert paley5_real.is_real
        assert np.linalg.norm(paley5_real.gram - paley5.gram, 2) < 1e-10

    def test_paley13_is_etf(self, paley13_real):
        assert (paley13_real.m, paley13_real.n) == (7, 14)
        assert verify_etf(paley13_real).all_ok

    def test_complex_gram_rejected(self):
        with pytest.raises(NotRealError):
            realify(paley_etf(7, require_1mod4=False))

    def test_realness_tolerance_scales_with_the_gram(self, paley13):
        # scaled by 1e4 the Gram's rounding leaves imaginary parts ~1e-7,
        # far above 1e-12 but within 1e-12 * sqrt(g_ii g_jj) = 1e-4
        frame = Frame(paley13.matrix * 1e4)
        assert frame.gram.dtype == np.float64
        rotated = realify(frame)
        assert rotated.is_real
        assert (rotated.m, rotated.n) == (7, 14)
        gram_norm = np.linalg.norm(frame.gram, 2)
        assert np.linalg.norm(rotated.gram - frame.gram, 2) <= 1e-10 * gram_norm

    def test_complex_gram_stays_complex_when_scaled(self):
        frame = Frame(paley_etf(7, require_1mod4=False).matrix * 1e4)
        assert frame.gram.dtype == np.complex128
        with pytest.raises(NotRealError, match="cannot realify"):
            realify(frame)

    def test_gram_is_read_only_in_both_dtypes(self, paley13):
        for frame in (paley13, paley_etf(7, require_1mod4=False)):
            assert not frame.gram.flags.writeable

    def test_global_phase_is_removed(self, steiner_6x16):
        phased = Frame(steiner_6x16.matrix * np.exp(0.7j))
        assert not phased.is_real
        rotated = realify(phased)
        assert rotated.is_real
        assert np.linalg.norm(rotated.gram - steiner_6x16.gram, 2) < 1e-10

    @pytest.mark.parametrize("scale", [1e-4, 1e4])
    def test_residual_gate_is_relative_to_the_gram_norm(self, steiner_6x16, scale):
        # at scale 1e4 the Gram has norm ~3e8, so its rounding exceeds any
        # absolute 1e-11 gate; the gate scales with s[0]^2 and still admits it
        frame = Frame(steiner_6x16.matrix * scale)
        rotated = realify(frame)
        assert rotated.is_real
        gram_norm = np.linalg.norm(frame.gram, 2)
        assert np.linalg.norm(rotated.gram - frame.gram, 2) <= 1e-10 * max(gram_norm, 1.0)

    def test_gram_norm_is_top_singular_value_squared(self, paley5, paley13, steiner_6x16):
        for frame in (paley5, paley13, steiner_6x16, gaussian_matrix(5, 9, 3)):
            stacked = np.vstack([frame.matrix.real, frame.matrix.imag])
            top = float(np.linalg.svd(stacked, compute_uv=False)[0])
            assert math.isclose(np.linalg.norm(frame.gram, 2), top**2, rel_tol=1e-10)

    def test_rank_deficient_frame_keeps_one_row_per_rank(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        a = rng.normal(size=(2, 7))
        frame = Frame(np.vstack([a, a[:1], a[1:] - a[:1]]))
        rotated = realify(frame)
        assert (rotated.m, rotated.n) == (2, 7)
        assert np.linalg.norm(rotated.gram - frame.gram, 2) < 1e-10

    @pytest.mark.parametrize("p", [37, 41, 53, 101, 197])
    def test_large_paley_frames_give_their_strongly_regular_graph(self, p):
        from ripcert import descendant_graph, predicted_srg, seidel_from_gram, srg_check

        frame = realify(paley_etf(p))
        assert (frame.m, frame.n) == ((p + 1) // 2, p + 1)
        assert verify_etf(frame).all_ok
        seidel, _ = seidel_from_gram(frame)
        _, graph = descendant_graph(seidel, frame.n - 1)
        assert srg_check(graph).params == predicted_srg(frame.m, frame.n)


class TestTightFrameSpectra:
    def test_nonzero_gram_eigenvalues_equal_n_over_m(self, steiner_6x16, paley13_real):
        frames = [
            steiner_6x16,
            paley13_real,
            steiner_etf(all_pairs_steiner(7), hadamard(7, "dft")),
            steiner_etf(steiner_triple(7), hadamard(4, "dft")),
            paley_etf(5),
            paley_etf(17),
        ]
        for frame in frames:
            w = np.linalg.eigvalsh(frame.gram)
            ratio = frame.n / frame.m
            nonzero = w[np.abs(w) > 1e-9]
            assert np.allclose(nonzero, ratio, atol=1e-9), frame.label
            assert nonzero.size == frame.m


class TestRandomEnsembles:
    def test_gaussian_determinism(self):
        a = gaussian_matrix(8, 12, 7)
        b = gaussian_matrix(8, 12, 7)
        assert np.array_equal(a.matrix, b.matrix)
        c = gaussian_matrix(8, 12, 8)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_gaussian_mean_within_four_sigma(self):
        frame = gaussian_matrix(100, 200, 3)
        sem = (1 / math.sqrt(100)) / math.sqrt(100 * 200)
        assert abs(frame.matrix.real.mean()) <= 4 * sem

    def test_gaussian_average_column_norm(self):
        frame = gaussian_matrix(50, 100, 1)
        assert 0.7 <= frame.column_norms_squared.mean() <= 1.3

    def test_bernoulli_entries_and_unit_norm(self):
        frame = bernoulli_matrix(6, 10, 2)
        vals = np.unique(np.abs(frame.matrix.real))
        assert np.allclose(vals, 1 / math.sqrt(6), atol=0)
        assert np.abs(frame.column_norms_squared - 1.0).max() < 1e-12

    def test_bernoulli_determinism(self):
        assert np.array_equal(
            bernoulli_matrix(5, 9, 42).matrix, bernoulli_matrix(5, 9, 42).matrix
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidParameterError):
            gaussian_matrix(0, 3, 1)


class TestFrameValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            Frame(np.array([[np.nan, 1.0]]))
        with pytest.raises(InvalidParameterError):
            Frame(np.array([[1.0, np.inf]]))

    def test_rejects_empty_and_1d(self):
        with pytest.raises(MatrixShapeError):
            Frame(np.zeros((0, 3)))
        with pytest.raises(MatrixShapeError):
            Frame(np.ones(4))

    def test_is_real_predicate(self):
        assert Frame(np.eye(2)).is_real
        assert not Frame(np.eye(2) * (1 + 1e-6j)).is_real

    def test_matrix_is_readonly(self):
        frame = Frame(np.eye(2))
        with pytest.raises(ValueError):
            frame.matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            frame.gram[0, 0] = 2.0

    def test_overflowing_gram_rejected(self):
        frame = Frame(np.full((1, 2), 1.3e154))  # finite norms, Gram entries overflow
        with pytest.raises(InvalidParameterError):  # and no overflow warning first
            frame.gram

    def test_gram_budget_admits_the_widest_built_in_frames(self):
        triple, pairs = steiner_triple(87), all_pairs_steiner(56)
        # a paley frame of prime order p has p + 1 columns
        widths = [s.v * (s.replication + 1) for s in (triple, pairs)] + [3137 + 1]
        assert widths == [3828, 3136, 3138]
        assert all(n * n <= _GRAM_BUDGET for n in widths)

    def test_oversized_gram_refused_before_allocating(self):
        frame = Frame(np.ones((1, 3873)))
        with pytest.raises(EnumerationBudgetError, match="the 3873x3873 gram matrix requires"):
            frame.gram

    @pytest.mark.parametrize("data", [np.eye(2), np.eye(2, dtype=int), np.eye(2) * 1j])
    def test_stores_readonly_complex128_copy(self, data):
        frame = Frame(data)
        assert frame.matrix.dtype == np.complex128
        assert not frame.matrix.flags.writeable
        assert np.array_equal(frame.matrix, data)
        assert data.flags.writeable

    def test_tiny_complex_gram_stays_complex(self):
        # every Gram entry is below 1e-12, yet its imaginary parts are not rounding
        frame = Frame(paley_etf(7, require_1mod4=False).matrix * 1e-7)
        assert frame.gram.dtype == np.complex128
        assert math.isclose(frame.coherence, 1e-14 / math.sqrt(7), rel_tol=1e-9)

    def test_one_long_column_keeps_the_others_complex(self):
        # a column of norm 1e6 must not widen the realness allowance of g_12 = 0.707i
        data = np.array([[0, 1, 1j / math.sqrt(2)], [0, 0, 1 / math.sqrt(2)], [1e6, 0, 0]])
        frame = Frame(data)
        assert frame.gram.dtype == np.complex128
        assert math.isclose(frame.coherence, 1 / math.sqrt(2), rel_tol=1e-12)

    def test_zero_column_rejected(self):
        data = np.eye(3)
        data[:, 1] = 0.0
        with pytest.raises(InvalidParameterError):
            Frame(data)
