import itertools
import math

import numpy as np
import pytest

from ripcert import (
    appendix_constants,
    bernoulli_matrix,
    certify_frame,
    delta1,
    fro_constant_search,
    fro_to_ro_bound,
    gaussian_matrix,
    gershgorin_bound,
    halving_chain,
    iterated_ro_bound,
    ric_exact_search,
    ric_power_search,
    ro_to_rip_bound,
    roc_exact_search,
    select_t,
    spark_search,
    verify_etf,
    welch_bound,
)
from ripcert import certification
from ripcert.certification import SPARK_TOL, SparkResult, _hollow_subgrams, _spark_clear_ratio
from ripcert.constructions import Frame
from ripcert.errors import (
    ChainError,
    EnumerationBudgetError,
    InvalidParameterError,
    PreconditionError,
)


def orthonormal_frame(n):
    return Frame(np.eye(n), label="identity")


def svd_only_spark(frame, cap, tol):
    """Reference spark search: one SVD per subset, in lexicographic order."""
    mat = frame.matrix
    tested = 0
    for size in range(1, cap + 1):
        subsets = list(itertools.combinations(range(frame.n), size))
        sv = np.linalg.svd(np.transpose(mat[:, subsets], (1, 0, 2)), compute_uv=False)
        dependent = (sv[:, -1] <= tol * sv[:, 0]) | (size > frame.m)
        hits = np.flatnonzero(dependent)
        if hits.size:
            return SparkResult(size, cap, subsets[hits[0]], tested + int(hits[0]) + 1)
        tested += len(subsets)
    return SparkResult(None, cap, None, tested)


class TestCoherenceAndWelch:
    def test_orthonormal_coherence_zero(self):
        assert orthonormal_frame(4).coherence == 0.0

    def test_steiner_coherence(self, steiner_6x16):
        assert math.isclose(steiner_6x16.coherence, 1 / 3, abs_tol=1e-14)

    def test_paley_coherence(self, paley5):
        assert math.isclose(paley5.coherence, 1 / math.sqrt(5), abs_tol=1e-12)

    def test_single_column_rejected(self):
        with pytest.raises(InvalidParameterError):
            Frame(np.ones((3, 1))).coherence

    def test_welch_values(self):
        assert math.isclose(welch_bound(6, 16), 1 / 3, rel_tol=1e-15)
        assert math.isclose(welch_bound(3, 6), 1 / math.sqrt(5), rel_tol=1e-15)
        assert welch_bound(4, 4) == 0.0
        with pytest.raises(InvalidParameterError):
            welch_bound(5, 4)


class TestVerifyEtf:
    def test_steiner_passes(self, steiner_6x16):
        assert verify_etf(steiner_6x16).all_ok

    def test_gaussian_fails_equiangularity(self):
        rep = verify_etf(gaussian_matrix(10, 20, 5))
        assert not rep.equiangular_ok

    def test_identity_passes(self):
        rep = verify_etf(orthonormal_frame(4))
        assert rep.unit_norm_ok and rep.tight_ok and rep.equiangular_ok


class TestDelta1:
    def test_unit_norm_frames(self, steiner_6x16, paley13):
        assert delta1(steiner_6x16) < 1e-12
        assert delta1(paley13) < 1e-12

    def test_scaled_column(self):
        data = np.eye(3)
        data[:, 1] *= 2.0
        assert math.isclose(delta1(Frame(data)), 3.0, rel_tol=1e-15)

    def test_gaussian_tall_matrix(self):
        value = delta1(gaussian_matrix(100, 50, 0))
        assert 0.0 < value < 0.6


class TestGershgorin:
    def test_k1_is_zero(self, steiner_6x16):
        assert gershgorin_bound(steiner_6x16, 1) == 0.0

    def test_steiner_k4(self, steiner_6x16):
        assert math.isclose(gershgorin_bound(steiner_6x16, 4), 1.0, abs_tol=1e-12)

    def test_paley13_k3(self, paley13_real):
        assert math.isclose(
            gershgorin_bound(paley13_real, 3), 2 / math.sqrt(13), abs_tol=1e-10
        )

    def test_non_unit_columns_rejected(self):
        with pytest.raises(PreconditionError):
            gershgorin_bound(gaussian_matrix(8, 12, 0), 2)


class TestRicExact:
    def test_k1_equals_delta1(self, paley13_real):
        assert ric_exact_search(paley13_real, 1).value < 1e-12

    def test_paley5_k2_is_mu(self, paley5_real):
        assert math.isclose(
            ric_exact_search(paley5_real, 2).value, 1 / math.sqrt(5), abs_tol=1e-12
        )

    def test_steiner_k4_is_one(self, steiner_6x16):
        search = ric_exact_search(steiner_6x16, 4)
        assert math.isclose(search.value, 1.0, abs_tol=1e-12)
        assert search.count == math.comb(16, 4)

    def test_never_exceeds_gershgorin(self, steiner_6x16, paley13_real):
        for frame in (steiner_6x16, paley13_real):
            for k in (2, 3, 4):
                assert ric_exact_search(frame, k).value <= gershgorin_bound(frame, k) + 1e-9

    def test_budget_error_names_count(self, paley13_real):
        with pytest.raises(EnumerationBudgetError) as err:
            ric_exact_search(paley13_real, 7, budget=100)
        assert err.value.needed == math.comb(14, 7)

    def test_complex_gram_frames(self, paley13, paley13_real):
        # rotation to real coordinates preserves the Gram matrix, hence
        # every exact constant; also exercises a genuinely complex Gram
        from ripcert.constructions import hadamard, steiner_etf, steiner_triple

        for k in (2, 3):
            assert math.isclose(
                ric_exact_search(paley13, k).value,
                ric_exact_search(paley13_real, k).value,
                abs_tol=1e-10,
            )
        complex_gram = steiner_etf(steiner_triple(7), hadamard(4, "dft"))
        assert np.abs(complex_gram.gram.imag).max() > 1e-3
        mu = complex_gram.coherence
        assert math.isclose(ric_exact_search(complex_gram, 2).value, mu, abs_tol=1e-12)
        assert math.isclose(
            roc_exact_search(complex_gram, 1).value, mu, abs_tol=1e-12
        )

    def test_one_long_column_keeps_the_cross_gram_complex(self):
        data = np.array([[0, 1, 1j / math.sqrt(2)], [0, 0, 1 / math.sqrt(2)], [1e6, 0, 0]])
        result = roc_exact_search(Frame(data), 1)
        assert math.isclose(result.value, 1 / math.sqrt(2), rel_tol=1e-12)


class TestRicPower:
    def test_etf_q1_closed_form(self, steiner_6x16, paley13_real):
        for frame in (steiner_6x16, paley13_real):
            mu = frame.coherence
            for k in (2, 3, 4):
                expected = math.sqrt(k * (k - 1)) * mu
                assert math.isclose(ric_power_search(frame, k, 1).value, expected, abs_tol=1e-10)

    def test_large_q_converges_to_exact(self, paley5_real):
        # q chosen so the k^(1/2q) envelope collapses within 1e-6
        k = 2
        q = 1
        while k ** (1 / (2 * q)) > 1 + 1e-6:
            q *= 2
        exact = ric_exact_search(paley5_real, k).value
        assert abs(ric_power_search(paley5_real, k, q).value - exact) <= 1e-6

    def test_monotone_in_q_and_envelope(self):
        frame = gaussian_matrix(8, 16, 11)
        for k in (2, 3, 4):
            exact = ric_exact_search(frame, k).value
            values = [ric_power_search(frame, k, q).value for q in (1, 2, 3, 4, 5)]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-9
            for q, v in zip((1, 2, 3, 4, 5), values):
                assert exact - 1e-9 <= v <= k ** (1 / (2 * q)) * exact + 1e-9

    def test_k1_unit_norm_is_zero(self, paley13_real):
        for q in (1, 3):
            assert ric_power_search(paley13_real, 1, q).value < 1e-12

    def test_matches_plain_trace_route(self):
        # the scaled exponentiation must agree with direct matrix powers
        frame = gaussian_matrix(6, 10, 3)
        g = frame.gram
        k, q = 3, 2
        best = 0.0
        for sub in itertools.combinations(range(10), k):
            hollow = g[np.ix_(sub, sub)] - np.eye(k)
            trace = np.trace(np.linalg.matrix_power(hollow, 2 * q))
            best = max(best, trace ** (1 / (2 * q)))
        assert math.isclose(ric_power_search(frame, k, q).value, best, rel_tol=1e-10)


class TestRocExact:
    def test_orthonormal_zero(self):
        assert roc_exact_search(orthonormal_frame(6), 2).value == 0.0

    def test_k1_equals_coherence(self, paley5_real):
        assert math.isclose(
            roc_exact_search(paley5_real, 1).value, paley5_real.coherence, abs_tol=1e-12
        )

    def test_sandwich_against_exact_constants(self):
        frame = gaussian_matrix(8, 12, 21)
        theta = roc_exact_search(frame, 2).value
        d2 = ric_exact_search(frame, 2).value
        d4 = ric_exact_search(frame, 4).value
        assert theta <= d4 + 1e-9
        assert d4 <= theta + d2 + 1e-9

    def test_full_size_supports_suffice(self):
        # restricting to |I| = |J| = K loses nothing: the cross-Gram norm
        # is monotone under adding columns
        frame = gaussian_matrix(4, 7, 9)
        g = frame.gram
        for k in (1, 2, 3):
            subs = [
                c
                for size in range(1, k + 1)
                for c in itertools.combinations(range(frame.n), size)
            ]
            best = 0.0
            for first in subs:
                for second in subs:
                    if set(first) & set(second):
                        continue
                    cross = g[np.ix_(first, second)].astype(complex)
                    best = max(best, np.linalg.norm(cross, 2))
            assert math.isclose(roc_exact_search(frame, k).value, best, rel_tol=1e-10)

    def test_oversized_k_rejected(self, paley5_real):
        with pytest.raises(PreconditionError):
            roc_exact_search(paley5_real, 4)

    @pytest.mark.parametrize("shape, k", [((5, 10), 2), ((5, 10), 3), ((8, 12), 3), (None, 2)])
    def test_matches_per_pair_spectral_norms(self, shape, k, paley13):
        frame = paley13 if shape is None else gaussian_matrix(*shape, 17)
        g = frame.gram
        subsets = list(itertools.combinations(range(frame.n), k))
        best = max(
            np.linalg.norm(g[np.ix_(a, b)], 2)
            for a in subsets
            for b in subsets
            if a[0] < b[0] and not set(a) & set(b)
        )
        result = roc_exact_search(frame, k)
        assert math.isclose(result.value, best, rel_tol=1e-12)
        attained = np.linalg.norm(g[np.ix_(result.witness_i, result.witness_j)], 2)
        assert math.isclose(attained, result.value, rel_tol=1e-12)


class TestFroConstant:
    def test_orthonormal_zero(self):
        assert fro_constant_search(orthonormal_frame(5), 2).value == 0.0

    def test_k1_equals_coherence(self, paley5_real):
        assert math.isclose(
            fro_constant_search(paley5_real, 1).value, paley5_real.coherence, abs_tol=1e-12
        )

    def test_at_most_roc(self, paley13_real):
        for k in (2, 3):
            theta_hat = fro_constant_search(paley13_real, k).value
            assert theta_hat <= roc_exact_search(paley13_real, k).value + 1e-9

    # k >= n - 1 clips the subset sizes to n - 1, the largest with a disjoint partner
    @pytest.mark.parametrize("m, n, k, seed", [(5, 8, 3, 17), (4, 6, 5, 3), (4, 6, 9, 3)])
    def test_matches_bruteforce(self, m, n, k, seed):
        frame = gaussian_matrix(m, n, seed)
        g = frame.gram
        subs = [
            c for size in range(1, k + 1) for c in itertools.combinations(range(n), size)
        ]
        best = 0.0
        pairs = 0
        for first in subs:
            for second in subs:
                if set(first) & set(second):
                    continue
                value = abs(
                    sum(g[i, j] for i in first for j in second)
                ) / math.sqrt(len(first) * len(second))
                best = max(best, value)
                pairs += 1
        search = fro_constant_search(frame, k)
        assert math.isclose(search.value, best, rel_tol=1e-10)
        assert search.count == pairs // 2
        # the reported witness reproduces the reported value
        wi, wj = search.witness_i, search.witness_j
        recomputed = abs(sum(g[i, j] for i in wi for j in wj)) / math.sqrt(
            len(wi) * len(wj)
        )
        assert math.isclose(recomputed, search.value, rel_tol=1e-12)


class TestBoundChains:
    def test_simple_mode_value(self):
        assert math.isclose(fro_to_ro_bound(3, 1.0), 75 * math.log(3), rel_tol=1e-15)
        assert math.isclose(fro_to_ro_bound(3, 0.5), 37.5 * math.log(3), rel_tol=1e-15)

    def test_appendix_constants_match_quoted_decimals(self):
        consts = appendix_constants()
        assert round(consts.c0, 2) == 5.77
        assert round(consts.c1, 2) == 11.85

    def test_t_selection(self):
        assert select_t(4) <= 2
        for k in range(2, 65):
            assert select_t(k) <= math.ceil(math.log2(k))

    def test_appendix_mode_formula(self):
        k, theta = 8, 0.25
        t = select_t(k)
        ln2 = math.log(2)
        expected = 16 * 4 * theta * (t + 1 / ln2 + 1 / ((2 * ln2) ** 2 * t))
        assert math.isclose(fro_to_ro_bound(k, theta, "appendix"), expected, rel_tol=1e-15)

    def test_k1_rejected(self):
        with pytest.raises(InvalidParameterError):
            fro_to_ro_bound(1, 1.0)

    def test_ro_to_rip_trivial(self):
        assert ro_to_rip_bound(0.0, 0.0) == 0.0
        assert ro_to_rip_bound(0.3, 0.0) == 0.6

    def test_ro_to_rip_exhaustive(self):
        frame = gaussian_matrix(8, 12, 33)
        bound = ro_to_rip_bound(roc_exact_search(frame, 2).value, delta1(frame))
        assert ric_exact_search(frame, 4).value <= bound + 1e-9


class TestIteratedRoBound:
    def test_zero_chain(self):
        result = iterated_ro_bound([0.0, 0.0, 0.0], 0.0)
        assert result.sum_bound == 0.0 and result.closed_form == 0.0

    def test_halving_chains(self):
        assert halving_chain(4) == [4, 2, 1]
        assert halving_chain(5) == [5, 3, 2, 1]
        assert halving_chain(1) == [1]
        assert len(halving_chain(4)) == math.ceil(math.log2(4)) + 1

    def test_constant_theta_sum_equals_closed_form(self):
        theta, d1 = 0.2, 0.05
        result = iterated_ro_bound([theta] * len(halving_chain(4)), d1, k=4)
        assert math.isclose(result.sum_bound, 3 * theta + d1, rel_tol=1e-15)
        assert math.isclose(result.closed_form, 3 * theta + d1, rel_tol=1e-15)

    def test_sum_never_exceeds_closed_form(self):
        frame = gaussian_matrix(8, 12, 2)
        d1 = delta1(frame)
        thetas = [roc_exact_search(frame, kk).value for kk in halving_chain(4)]
        result = iterated_ro_bound(thetas, d1, k=4)
        assert result.sum_bound <= result.closed_form + 1e-12
        assert ric_exact_search(frame, 8, budget=10**6).value <= result.sum_bound + 1e-9

    def test_bad_chains_rejected(self):
        with pytest.raises(ChainError):
            iterated_ro_bound([], 0.0)
        with pytest.raises(ChainError):
            iterated_ro_bound([0.1, 0.5], 0.0)  # increasing
        with pytest.raises(ChainError):
            iterated_ro_bound([0.5, 0.4], 0.0, k=4)  # wrong length

    def test_two_theta_bound_never_weaker_than_closed_form(self):
        # 2*theta + d1 <= (1 + ceil(log2 k)) * theta + d1 whenever k >= 2
        for seed in range(3):
            frame = gaussian_matrix(8, 12, 100 + seed)
            d1 = delta1(frame)
            for k in (2, 4):
                thetas = [roc_exact_search(frame, kk).value for kk in halving_chain(k)]
                closed = iterated_ro_bound(thetas, d1, k=k).closed_form
                assert ro_to_rip_bound(thetas[0], d1) <= closed + 1e-12


class TestSpark:
    def test_steiner_spark_four(self, steiner_6x16):
        result = spark_search(steiner_6x16, 4)
        assert result.spark == 4
        assert result.witness == (0, 1, 2, 3)

    def test_paley5_spark_is_m_plus_one(self, paley5_real):
        result = spark_search(paley5_real, 6)
        assert result.spark == 4

    def test_identity_has_no_dependence(self):
        result = spark_search(orthonormal_frame(5), 5)
        assert result.spark is None
        assert result.lower_bound == 6
        assert result.tested == sum(math.comb(5, s) for s in range(1, 6))

    def test_spark_implies_ric_at_least_one(self, steiner_6x16):
        assert ric_exact_search(steiner_6x16, 4).value >= 1.0 - 1e-9

    def test_budget_error(self, paley13_real):
        with pytest.raises(EnumerationBudgetError):
            spark_search(paley13_real, 8, budget=1000)

    @pytest.mark.parametrize(
        "name, cap", [("steiner_6x16", 4), ("paley5", 6), ("paley13", 8)]
    )
    def test_equals_svd_only_search(self, name, cap, request):
        frame = request.getfixturevalue(name)
        assert spark_search(frame, cap) == svd_only_spark(frame, cap, SPARK_TOL)

    @pytest.mark.parametrize("side", [1e-6, -1e-6])
    def test_planted_dependence_at_the_tolerance(self, side):
        # column 5 is 0.6 * column 1 - 0.8 * column 3 plus a 1e-9 perturbation;
        # tol sits just above or just below that triple's singular value
        # ratio, where only the SVD can decide
        data = np.random.default_rng(5).normal(size=(5, 9))
        data[:, 5] = 0.6 * data[:, 1] - 0.8 * data[:, 3] + 1e-9 * data[:, 7]
        frame = Frame(data, label="planted")
        sv = np.linalg.svd(frame.matrix[:, [1, 3, 5]], compute_uv=False)
        ratio = sv[-1] / sv[0]
        assert ratio**2 < _spark_clear_ratio(frame, 3, ratio)
        tol = ratio * (1.0 + side)
        result = spark_search(frame, 4, tol=tol)
        assert result == svd_only_spark(frame, 4, tol)
        assert (result.spark == 3) == (side > 0)
        if side > 0:
            assert result.witness == (1, 3, 5)


class TestCertifyFrame:
    def test_report_and_invariants(self, paley5_real):
        report = certify_frame(
            paley5_real,
            gershgorin=True,
            exact_ks=(2, 3),
            power_specs=((2, (1, 2, 3)),),
            roc_ks=(2,),
            fro_ks=(2,),
            spark_cap=4,
            bounds=True,
        )
        assert report.invariant_violations() == []
        rec = report.record(2)
        assert rec.ric.count == math.comb(6, 2)
        assert dict(rec.powers)[1] >= rec.ric.value - 1e-9
        assert rec.fro.value <= rec.roc.value + 1e-9
        names = [name for name, _ in rec.bounds]
        assert "fro-to-ro-simple" in names and "iterated-ro-sum-2k" in names
        assert report.spark.spark == 4

    def test_violations_detected_on_tampered_report(self, paley5_real):
        import dataclasses

        report = certify_frame(paley5_real, gershgorin=True, exact_ks=(2,))
        rec = report.per_k[0]
        bad_rec = dataclasses.replace(
            rec, ric=dataclasses.replace(rec.ric, value=rec.gershgorin + 1.0)
        )
        bad = dataclasses.replace(report, per_k=(bad_rec,))
        assert any("gershgorin" in v for v in bad.invariant_violations())


class TestWorkerDeterminism:
    def test_results_identical_across_worker_counts(self, paley13_real, monkeypatch):
        frame = paley13_real
        serial = (
            ric_exact_search(frame, 4, workers=1),
            roc_exact_search(frame, 2, workers=1),
            fro_constant_search(frame, 2, workers=1),
        )
        monkeypatch.setenv("RIPCERT_WORKERS", "4")
        parallel = (
            ric_exact_search(frame, 4),
            roc_exact_search(frame, 2),
            fro_constant_search(frame, 2),
        )
        assert serial == parallel


def unchecked_frame(data):
    """A Frame over ``data`` without the constructor's column checks (zero columns pass).

    Stored as ``Frame`` stores it, read-only complex128, so the searches see
    the Gram that ``Frame`` builds.
    """
    arr = np.array(data, dtype=np.complex128)
    arr.setflags(write=False)
    frame = object.__new__(Frame)
    object.__setattr__(frame, "matrix", arr)
    object.__setattr__(frame, "label", "unchecked")
    return frame


def degenerate_frame():
    """Duplicated columns, a column negated, a near-zero column whose Gram entries
    are subnormal, and an all-zero column."""
    base = gaussian_matrix(5, 6, 2).matrix.real
    cols = [base[:, 0], base[:, 0], base[:, 1], -base[:, 1], 1e-156 * base[:, 2],
            np.zeros(5), base[:, 3], base[:, 4], base[:, 4], base[:, 5]]
    return unchecked_frame(np.column_stack(cols))


def named_frame(request, name):
    if name == "gaussian":
        return gaussian_matrix(5, 10, 3)
    if name == "bernoulli":  # entries +-1/sqrt(5): many exactly tied sub-Grams
        return bernoulli_matrix(5, 10, 3)
    if name == "degenerate":
        return degenerate_frame()
    return request.getfixturevalue(name)


#: (search, arguments after the frame) for every exhaustive search
SEARCHES = {
    "ric": (ric_exact_search, (3,)),
    "power": (ric_power_search, (3, 2)),
    "roc": (roc_exact_search, (2,)),
    "fro": (fro_constant_search, (2,)),
    "spark": (spark_search, (6,)),
}


class TestChunkIndependence:
    """Value, witness and count do not depend on chunk size or worker count."""

    @staticmethod
    def _set_chunk(monkeypatch, chunk, sizes):
        from ripcert import certification, subsets

        def limited(iterator):
            def chunks(*args):
                for rows in iterator(*args, chunk=chunk):
                    sizes.append(len(rows[0] if isinstance(rows, tuple) else rows))
                    yield rows

            return chunks

        for name in ("iter_subset_chunks", "iter_disjoint_pair_chunks"):
            monkeypatch.setattr(certification, name, limited(getattr(subsets, name)))
        monkeypatch.setattr(certification, "_FRO_BLOCK", chunk)

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    @pytest.mark.parametrize(
        "frame_name", ["steiner_6x16", "paley13_real", "paley13", "gaussian", "bernoulli"]
    )
    def test_same_result_for_every_chunk_size_and_worker_count(
        self, request, monkeypatch, search, frame_name
    ):
        frame = named_frame(request, frame_name)
        fn, args = SEARCHES[search]
        reference = fn(frame, *args, workers=1)
        for chunk in (1, 5, 4096):
            sizes = []
            self._set_chunk(monkeypatch, chunk, sizes)
            for workers in (1, 3):
                assert fn(frame, *args, workers=workers) == reference, (chunk, workers)
            if search != "fro":
                assert sizes and max(sizes) <= chunk


def _full_ric(g, chunk):
    return np.abs(np.linalg.eigvalsh(_hollow_subgrams(g, chunk))).max(axis=1)


def _full_roc(g, pair):
    first, second = pair
    cross = g[first[:, :, None], second[:, None, :]]
    lam = np.linalg.eigvalsh(cross.conj().swapaxes(1, 2) @ cross)[:, -1]
    return np.sqrt(np.maximum(lam, 0.0))


class TestScreen:
    """Rows the exact RIC and ROC kernels leave at -1 are strictly below their chunk's best."""

    SCREENED = {"ric": (ric_exact_search, 4, _full_ric), "roc": (roc_exact_search, 2, _full_roc)}

    @pytest.mark.parametrize("top", [1, 8])
    @pytest.mark.parametrize("search", sorted(SCREENED))
    @pytest.mark.parametrize(
        "frame_name",
        ["gaussian", "bernoulli", "steiner_6x16", "paley13_real", "paley13", "degenerate"],
    )
    def test_settled_rows_are_below_the_chunk_maximum(
        self, request, monkeypatch, frame_name, search, top
    ):
        frame = named_frame(request, frame_name)
        fn, k, full = self.SCREENED[search]
        seen = []
        real = certification._first_max

        def recording(chunks, kernel, witness, workers, stop=math.inf):
            def recorded(chunk):
                values = kernel(chunk)
                seen.append((chunk, values))
                return values

            return real(chunks, recorded, witness, workers, stop)

        monkeypatch.setattr(certification, "_first_max", recording)
        monkeypatch.setattr(certification, "_SCREEN_TOP", top)
        TestChunkIndependence._set_chunk(monkeypatch, 64, [])
        fn(frame, k)
        g = frame.gram
        settled = 0
        for chunk, values in seen:
            reference = full(g, chunk)
            skipped = values == -1.0
            settled += int(skipped.sum())
            # solved rows carry the unscreened float, bit for bit
            assert np.array_equal(values[~skipped], reference[~skipped])
            assert np.all(reference[skipped] < values.max())
            assert values.max() == reference.max()
            assert np.argmax(values) == np.argmax(reference)
        assert settled > 0


#: repr(value) and witnesses of the exact searches on gaussian_matrix(11, 22, seed);
#: a kernel change that moves one digit or one witness fails here
GOLDEN = {
    7: ("1.8212421771601413", (2, 4, 20), (3, 12, 21),
        "2.835575211707501", (1, 2, 4, 12, 20, 21)),
    101: ("1.5123442779525131", (1, 13, 19), (7, 10, 12),
          "2.2495744521941563", (2, 12, 13, 14, 16, 19)),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_exact_searches(seed):
    roc_value, wi, wj, ric_value, witness = GOLDEN[seed]
    frame = gaussian_matrix(11, 22, seed)
    roc = roc_exact_search(frame, 3)
    assert (repr(roc.value), roc.witness_i, roc.witness_j, roc.count) == (roc_value, wi, wj, 746130)
    ric = ric_exact_search(frame, 6)
    assert (repr(ric.value), ric.witness, ric.count) == (ric_value, witness, 74613)
