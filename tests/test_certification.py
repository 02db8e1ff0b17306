import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ripcert import (
    bernoulli_matrix,
    certify_frame,
    delta1,
    fro_constant_search,
    fro_to_ro_bound,
    gaussian_matrix,
    gershgorin_bound,
    halving_chain,
    iterated_ro_bound,
    negate_columns,
    paley_etf,
    realify,
    ric_exact_search,
    ric_power_search,
    ro_to_rip_bound,
    roc_exact_search,
    select_t,
    spark_search,
    verify_etf,
    welch_bound,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from ripcert import all_pairs_steiner, certification, hadamard, steiner_etf, subsets
from ripcert.certification import (
    SPARK_TOL,
    SparkResult,
    SubsetSearch,
    _hollow_subgrams,
    _spark_clear_ratio,
)
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

    @pytest.mark.parametrize("k", [0, 17])
    def test_k_outside_one_to_n_rejected(self, steiner_6x16, k):
        with pytest.raises(InvalidParameterError, match=f"need 1 <= k <= 16, got k={k}"):
            gershgorin_bound(steiner_6x16, k)


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


def chain_roots(a, p):
    """Tr[a_i^p]^(1/p) per matrix of a batch, by binary powering rescaled to unit
    Frobenius norm at every step: the float sequence of the search's chain for one p."""

    def fro(x):
        return np.sqrt(np.einsum("bij,bij->b", x, x.conj()).real)

    norm = fro(a)
    live = norm > 0.0
    base, logbase = a[live] / norm[live, None, None], np.zeros(int(live.sum()))
    res = logres = None
    e = p
    while e:
        if e & 1:
            if res is None:
                res, logres = base, logbase
            else:
                res = res @ base
                rn = fro(res)
                res, logres = res / rn[:, None, None], logres + logbase + np.log(rn)
        e >>= 1
        if e:
            base = base @ base
            bn = fro(base)
            base, logbase = base / bn[:, None, None], 2.0 * logbase + np.log(bn)
    t = np.clip(np.einsum("bii->b", res).real, 0.0, None)
    vals = np.zeros(len(t))
    pos = t > 0.0
    vals[pos] = np.exp((np.log(t[pos]) + logres[pos]) / p)
    out = np.zeros(len(a))
    out[live] = vals * norm[live]
    return out


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

    def test_all_zero_batch_gives_zero_at_the_first_subset(self):
        # every hollow sub-Gram of the identity is zero, so no row has a trace to root
        assert ric_power_search(orthonormal_frame(4), 3, 2) == SubsetSearch(0.0, (0, 1, 2), 4)

    #: the shared chain squares up to the largest q; 3 and 5 multiply squares together
    SHARED_QS = (1, 2, 3, 5, 8)

    @pytest.mark.parametrize("frame_name", ["gaussian", "bernoulli", "paley13_real", "paley13"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_shared_chain_matches_single_q_searches(self, request, frame_name, k):
        frame = named_frame(request, frame_name)
        search = ric_exact_search(frame, k, qs=self.SHARED_QS)
        assert search == dataclasses.replace(ric_exact_search(frame, k), powers=search.powers)
        assert [q for q, _ in search.powers] == list(self.SHARED_QS)
        every = np.array(list(itertools.combinations(range(frame.n), k)))
        hollow = _hollow_subgrams(frame.gram, every)
        for q, power in search.powers:
            single = ric_power_search(frame, k, q)
            # bit for bit: the float's hex, the witness and the count
            assert (power.value.hex(), power.witness, power.count, power.powers) == (
                single.value.hex(), single.witness, single.count, ()
            ), q
            # and the first maximum of a chain of q's own over all subsets at once
            values = chain_roots(hollow, 2 * q)
            row = int(np.argmax(values))
            assert (power.value.hex(), power.witness) == (
                float(values[row]).hex(), tuple(every[row].tolist())
            ), q

    def test_one_pass_gathers_each_chunk_once(self, paley13_real, monkeypatch):
        gathered, real = [], certification._hollow_subgrams

        def counting(g, chunk):
            gathered.append(chunk.copy())
            return real(g, chunk)

        monkeypatch.setattr(certification, "_hollow_subgrams", counting)
        report = certify_frame(paley13_real, exact_ks=[4], power_specs=[(4, [8, 2])])
        assert [q for q, _ in report.record(4).powers] == [2, 8]
        chunks = list(subsets.iter_subset_chunks(paley13_real.n, 4))
        assert len(gathered) == len(chunks)
        assert all(np.array_equal(a, b) for a, b in zip(gathered, chunks))

    def test_power_only_k_gathers_each_chunk_once(self, paley13_real, monkeypatch):
        singles = [ric_power_search(paley13_real, 4, q).value for q in (2, 8)]
        gathered, real = [], certification._hollow_subgrams

        def counting(g, chunk):
            gathered.append(chunk.copy())
            return real(g, chunk)

        monkeypatch.setattr(certification, "_hollow_subgrams", counting)
        report = certify_frame(paley13_real, power_specs=[(4, [8, 2]), (4, [2])])
        assert report.record(4).ric is None
        assert report.record(4).powers == ((2, singles[0]), (8, singles[1]))
        chunks = list(subsets.iter_subset_chunks(paley13_real.n, 4))
        assert len(gathered) == len(chunks)
        assert all(np.array_equal(a, b) for a, b in zip(gathered, chunks))
        with pytest.raises(EnumerationBudgetError, match="trace power estimate at K=4"):
            certify_frame(paley13_real, power_specs=[(4, [2, 8])], budget=10)

    def test_q_errors_before_the_budget(self, paley13_real):
        with pytest.raises(InvalidParameterError, match="need integer q >= 1, got 0"):
            ric_exact_search(paley13_real, 4, budget=10, qs=(0,))
        with pytest.raises(InvalidParameterError, match="need integer q >= 1, got 0"):
            ric_exact_search(paley13_real, 4, qs=(2, 0))
        with pytest.raises(InvalidParameterError, match="need integer q >= 1, got 0"):
            ric_power_search(paley13_real, 4, 0, budget=10)

    def test_q_is_bounded_where_2q_is_exact_as_a_float(self, paley5_real):
        # at q = 2**52 the estimate 2^(1/2q) mu is mu to the last bit
        exact = ric_exact_search(paley5_real, 2).value
        assert math.isclose(ric_power_search(paley5_real, 2, 2**52).value, exact, rel_tol=1e-14)
        with pytest.raises(InvalidParameterError, match=r"need q <= 2\*\*52, got 4503599627370497"):
            ric_power_search(paley5_real, 2, 2**52 + 1)

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


def long_last_column(frame):
    mat = np.array(frame.matrix)
    mat[:, -1] *= 10.0
    return Frame(mat, label=frame.label)


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
    @pytest.mark.parametrize("m, n, k, seed", [(5, 8, 3, 17), (4, 6, 5, 3), (4, 6, 6, 3)])
    def test_matches_bruteforce(self, m, n, k, seed):
        frame = gaussian_matrix(m, n, seed)
        g = frame.gram
        best, pairs, first_max = fro_bruteforce(frame, k)
        search = fro_constant_search(frame, k)
        assert math.isclose(search.value, best, rel_tol=1e-10)
        assert search.count == pairs
        assert (search.witness_i, search.witness_j) == first_max
        # the reported witness reproduces the reported value
        wi, wj = search.witness_i, search.witness_j
        recomputed = abs(sum(g[i, j] for i in wi for j in wj)) / math.sqrt(
            len(wi) * len(wj)
        )
        assert math.isclose(recomputed, search.value, rel_tol=1e-12)

    # many exactly tied values: the witness is the first of them in enumeration order
    @pytest.mark.parametrize(
        "frame, k, witness",
        [
            (bernoulli_matrix(5, 10, 3), 3, None),
            (orthonormal_frame(5), 3, ((0,), (1,))),
        ],
        ids=["bernoulli", "identity"],
    )
    def test_witness_is_first_maximiser_on_ties(self, frame, k, witness, monkeypatch):
        best, pairs, first_max = fro_bruteforce(frame, k)
        assert witness in (None, first_max)
        for block in (1, 7, 256):  # the block boundaries do not move the witness
            monkeypatch.setattr(certification, "_FRO_BLOCK", block)
            search = fro_constant_search(frame, k)
            assert (search.value, search.count) == (best, pairs)
            assert (search.witness_i, search.witness_j) == first_max

    # n = 65 needs two 64-column words per subset bitmask, and a long column 64 makes
    # every pair that shares it score high; n = 8 at K = 3 has size runs of 8, 28 and
    # 56 rows, so blocks of 7 rows straddle two of its run edges
    @pytest.mark.parametrize(
        "frame, k",
        [(long_last_column(gaussian_matrix(3, 65, 1)), 2),
         (long_last_column(bernoulli_matrix(4, 65, 2)), 2),
         (gaussian_matrix(4, 8, 5), 3), (bernoulli_matrix(4, 8, 6), 3)],
        ids=["gaussian-65", "bernoulli-65", "gaussian-8", "bernoulli-8"],
    )
    def test_block_kernel_matches_bruteforce(self, frame, k, monkeypatch):
        best, pairs, first_max = fro_bruteforce(frame, k)
        for block in (1, 7, 256):
            monkeypatch.setattr(certification, "_FRO_BLOCK", block)
            search = fro_constant_search(frame, k)
            assert (search.value, search.count) == (best, pairs), block
            assert (search.witness_i, search.witness_j) == first_max, block
        # a run of one subset size starts inside a block of 7 rows
        edges = itertools.accumulate(math.comb(frame.n, size) for size in range(1, k))
        assert any(edge % 7 for edge in edges)


def fro_bruteforce(frame, k):
    """(value, pair count, first maximiser) over pairs (I, J), J after I in subset order.

    Values are summed in the search's order, column sums of I first, one
    addition at a time, so tied values round alike; subsets are ordered by
    size, then lexicographically.
    """
    g = frame.gram.tolist()
    n = frame.n
    subs = [c for size in range(1, k + 1) for c in itertools.combinations(range(n), size)]
    masks = [sum(1 << i for i in sub) for sub in subs]
    best, pairs, first_max = -1.0, 0, None
    for a, first in enumerate(subs):
        sums = []  # column sums of I
        for j in range(n):
            total = 0.0
            for i in first:
                total += g[i][j]
            sums.append(total)
        for b in range(a + 1, len(subs)):
            if masks[a] & masks[b]:
                continue
            second = subs[b]
            total = 0.0
            for j in second:
                total += sums[j]
            value = abs(total) / math.sqrt(len(first) * len(second))
            if value > best:
                best, first_max = value, (first, second)
            pairs += 1
    return best, pairs, first_max


def planted_late_pair(n=10, seed=0):
    """Columns n-4, n-3 orthonormal, n-2 and n-1 orthogonal and each at inner product
    1/2 with both of them, the rest small noise: the pair (n-4, n-3) | (n-2, n-1) is
    the only maximiser, of value 1, in the row of (n-4, n-3), six rows from the end."""
    mat = 0.02 * np.random.default_rng(seed).standard_normal((5, n))
    mat[:, -4:] = 0.0
    r = math.sqrt(0.5)
    mat[:3, -4:] = [[1.0, 0.0, 0.5, 0.5], [0.0, 1.0, 0.5, 0.5], [0.0, 0.0, r, -r]]
    return Frame(mat, label="planted")


def complex_gaussian(m, n, seed):
    rng = np.random.default_rng(seed)
    return Frame(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)), label="cgauss")


def fro_rows(n, k):
    """The subsets of the flat-orthogonality search, in its row order."""
    sizes = range(1, min(k, n - 1) + 1)
    return [c for size in sizes for c in itertools.combinations(range(n), size)]


class TestFroCeilings:
    """Rows settled by sorted ceilings before the block kernel move no value or witness."""

    BLOCKS = (1, 7, 256)

    @staticmethod
    def _searches(monkeypatch, frame, k):
        """(search, rows each block evaluated) at every block size of ``BLOCKS``."""
        out = []
        for block in TestFroCeilings.BLOCKS:
            monkeypatch.setattr(certification, "_FRO_BLOCK", block)
            chunks, real = [], certification._first_max

            def recording(blocks, kernel, witness, stop=math.inf):
                chunks.extend(blocks)
                return real(blocks, kernel, witness, stop)

            monkeypatch.setattr(certification, "_first_max", recording)
            search = fro_constant_search(frame, k)
            monkeypatch.setattr(certification, "_first_max", real)
            out.append((search, [rows.tolist() for _, rows in chunks]))
        return out

    @staticmethod
    def _matches(search, reference):
        best, pairs, first_max = reference
        assert (search.value, search.count) == (best, pairs)
        assert (search.witness_i, search.witness_j) == first_max

    def test_planted_maximiser_in_the_last_kept_row(self, monkeypatch):
        frame = planted_late_pair()
        reference = fro_bruteforce(frame, 2)
        rows = fro_rows(frame.n, 2)
        first, second = rows.index((6, 7)), rows.index((8, 9))
        assert reference == (1.0, reference[1], ((6, 7), (8, 9)))
        for search, chunks in self._searches(monkeypatch, frame, 2):
            self._matches(search, reference)
            kept = [row for block in chunks for row in block]
            # the witness's row is the last kept row with a later partner; the one
            # after it is its partner's, whose ceiling also reaches the maximum
            assert kept == [first, second]
            assert search.settled == len(rows) - 2

    @pytest.mark.parametrize(
        "frame, k",
        [(steiner_etf(all_pairs_steiner(4), hadamard(4, "dft")), 2),
         (steiner_etf(all_pairs_steiner(4), hadamard(4, "dft")), 3),
         (complex_gaussian(4, 9, 5), 2), (complex_gaussian(4, 9, 6), 3)],
        ids=["steiner-dft-2", "steiner-dft-3", "complex-gaussian-2", "complex-gaussian-3"],
    )
    def test_complex_gram_matches_bruteforce(self, frame, k, monkeypatch):
        assert np.iscomplexobj(frame.gram)
        best, pairs, first_max = fro_bruteforce(frame, k)
        searches = [search for search, _ in self._searches(monkeypatch, frame, k)]
        for search in searches:
            # BLAS may add three complex terms in another order than the reference does
            assert math.isclose(search.value, best, rel_tol=4 * np.finfo(float).eps)
            assert (search.witness_i, search.witness_j, search.count) == (*first_max, pairs)
            assert search == searches[0]
        # the sum of the largest moduli settles rows of a frame without structure
        assert any(search.settled for search in searches) or frame.label != "cgauss"

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.sampled_from([gaussian_matrix, bernoulli_matrix]),
        st.integers(2, 10),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_small_real_frames_match_bruteforce(self, kind, n, k, seed, data):
        k = min(k, n)  # K > n is refused; K = n still clips the subset sizes to n - 1
        frame = kind(data.draw(st.integers(1, n), label="m"), n, seed)
        reference = fro_bruteforce(frame, k)
        with pytest.MonkeyPatch.context() as monkeypatch:
            for search, _ in self._searches(monkeypatch, frame, k):
                self._matches(search, reference)

    @pytest.mark.parametrize(
        "frame, k",
        [(gaussian_matrix(11, 22, 7), 2), (gaussian_matrix(6, 12, 3), 3),
         (complex_gaussian(4, 9, 5), 3), (bernoulli_matrix(5, 10, 3), 3)],
        ids=["gaussian-2", "gaussian-3", "complex-gaussian-3", "bernoulli-3"],
    )
    def test_no_row_settled_gives_the_same_search(self, frame, k, monkeypatch):
        reference = fro_bruteforce(frame, k)
        screened = [search for search, _ in self._searches(monkeypatch, frame, k)]
        # at K = 3 a block that keeps a row is evaluated whole, so small blocks settle rows
        assert any(search.settled for search in screened)
        real = certification._fro_ceilings

        def unbounded(sums, indicator, runs):
            ceiling, margin = real(sums, indicator, runs)
            return np.full_like(ceiling, np.inf), margin

        monkeypatch.setattr(certification, "_fro_ceilings", unbounded)
        for search, chunks in self._searches(monkeypatch, frame, k):
            self._matches(search, reference)
            assert search.settled == 0
            rows = [row for block in chunks for row in block]
            assert rows == list(range(len(fro_rows(frame.n, k))))
            assert search == screened[0]

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-160])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_ceilings_bound_every_row(self, monkeypatch, kind, scale):
        frame = gaussian_matrix(4, 9, 11) if kind == "real" else complex_gaussian(4, 9, 11)
        frame = unchecked_frame(scale * frame.matrix)  # tiny scales reach subnormal sums
        ceilings, values, real = [], [], certification._fro_ceilings

        def recording(sums, indicator, runs):
            ceiling, margin = real(sums, indicator, runs)
            ceilings.append(ceiling)
            return np.full_like(ceiling, np.inf), margin  # every row reaches the kernel

        def kept(blocks, kernel, witness, stop=math.inf):
            for lo, rows in blocks:
                values.append(kernel((lo, rows)).reshape(len(rows), -1).max(axis=1))
            return [(0.0, ((), ()), 0)]

        monkeypatch.setattr(certification, "_fro_ceilings", recording)
        monkeypatch.setattr(certification, "_first_max", kept)
        fro_constant_search(frame, 3)
        values = np.concatenate(values)
        assert values.max() > 0.0
        assert (values <= ceilings[0]).all()


class TestBoundChains:
    def test_simple_mode_value(self):
        assert math.isclose(fro_to_ro_bound(3, 1.0), 75 * math.log(3), rel_tol=1e-15)
        assert math.isclose(fro_to_ro_bound(3, 0.5), 37.5 * math.log(3), rel_tol=1e-15)

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
        result = iterated_ro_bound([0.0, 0.0, 0.0], 0.0, k=4)
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

    def test_sum_is_taken_left_to_right(self):
        # a compensated sum (math.fsum, or sum() from Python 3.12 on) gives 1 + 2^-52;
        # adding left to right keeps report bodies the same on every Python
        assert math.fsum([1.0, 1e-16, 1e-16]) > 1.0
        assert iterated_ro_bound([1.0, 1e-16, 1e-16], 0.0, k=3).sum_bound == 1.0

    def test_sum_never_exceeds_closed_form(self):
        frame = gaussian_matrix(8, 12, 2)
        d1 = delta1(frame)
        thetas = [roc_exact_search(frame, kk).value for kk in halving_chain(4)]
        result = iterated_ro_bound(thetas, d1, k=4)
        assert result.sum_bound <= result.closed_form + 1e-12
        assert ric_exact_search(frame, 8, budget=10**6).value <= result.sum_bound + 1e-9

    def test_bad_chains_rejected(self):
        with pytest.raises(ChainError):
            iterated_ro_bound([], 0.0, k=1)
        with pytest.raises(ChainError):
            iterated_ro_bound([0.1, 0.5], 0.0, k=2)  # increasing
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

    @pytest.mark.parametrize(
        "name, cap, discs",
        [
            ("identity", 5, 5),  # every size certified
            ("paley13_real", 8, 4),  # some sizes certified
            ("paley13", 8, 4),
            ("gaussian", 6, 1),  # only size 1 certified
            ("tiny_column", 4, 0),  # no size certified
            ("scaled_identity", 5, 5),
            ("scaled_paley13_real", 8, 3),
        ],
    )
    def test_disc_certificate_matches_svd_only_search(self, name, cap, discs, request):
        frame = spark_frame(request, name)
        result = spark_search(frame, cap)
        assert result == svd_only_spark(frame, cap, SPARK_TOL)
        assert result.disc_sizes == discs

    def test_bench_frame_certified_through_size_six(self):
        # realified Paley 29 with columns negated, as the benchmark builds it
        frame = negate_columns(realify(paley_etf(29)), [1, 4, 7, 20])
        assert 1 - 5 * frame.coherence > 0 > 1 - 6 * frame.coherence
        assert certification._disc_sizes(frame, 7) == 6
        result = spark_search(frame, 6)
        assert (result.spark, result.tested, result.disc_sizes) == (
            None,
            sum(math.comb(30, s) for s in range(1, 7)),
            6,
        )

    @pytest.mark.parametrize("side", [1e-6, -1e-6])
    def test_planted_dependence_at_the_tolerance(self, side, monkeypatch):
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
        monkeypatch.setattr(certification, "SPARK_TOL", tol)
        result = spark_search(frame, 4)
        assert result == svd_only_spark(frame, 4, tol)
        assert (result.spark == 3) == (side > 0)
        assert result.disc_sizes == 1  # size 3 is enumerated
        if side > 0:
            assert result.witness == (1, 3, 5)


def spark_frame(request, name):
    if name == "identity":
        return orthonormal_frame(5)
    if name == "tiny_column":  # Frame refuses an exactly zero column
        data = np.array(gaussian_matrix(5, 8, 4).matrix)
        data[:, 3] *= 1e-12
        return Frame(data, label="tiny column")
    if name == "scaled_identity":
        return Frame(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), label="scaled identity")
    if name == "scaled_paley13_real":  # column norms from 0.8 to 1.25
        frame = request.getfixturevalue("paley13_real")
        return Frame(frame.matrix * np.linspace(0.8, 1.25, frame.n), label="scaled")
    return named_frame(request, name)


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

    def test_power_increase_detected_between_any_consecutive_qs(self, paley5_real):
        import dataclasses

        report = certify_frame(paley5_real, power_specs=((2, (1, 2, 3)),))
        rec = report.per_k[0]
        (q1, v1), (q2, _), last = rec.powers
        bad_rec = dataclasses.replace(rec, powers=((q1, v1), (q2, v1 + 0.1), last))
        bad = dataclasses.replace(report, per_k=(bad_rec,))
        assert "K=2: power estimate increased from q=1 to q=2" in bad.invariant_violations()

    def test_violations_detected_on_tampered_report(self, paley5_real):
        import dataclasses

        report = certify_frame(paley5_real, gershgorin=True, exact_ks=(2,))
        rec = report.per_k[0]
        bad_rec = dataclasses.replace(
            rec, ric=dataclasses.replace(rec.ric, value=rec.gershgorin + 1.0)
        )
        bad = dataclasses.replace(report, per_k=(bad_rec,))
        assert any("gershgorin" in v for v in bad.invariant_violations())

    def test_sandwich_of_delta_at_2k(self):
        # theta_K <= delta_2K <= min(theta_K + delta_K, 2 theta_K + delta_1) is checked
        # only when a K has both constants and its 2K has the exact one
        report = certify_frame(bernoulli_matrix(8, 12, 3), exact_ks=(2, 4), roc_ks=(2,))
        assert report.invariant_violations() == []
        rec, double = report.per_k
        theta, delta_2k = rec.roc.value, double.ric.value
        assert theta <= delta_2k <= min(theta + rec.ric.value, 2 * theta + report.delta1)

        def tampered(roc=theta, ric_2k=delta_2k):
            bad_rec = dataclasses.replace(rec, roc=dataclasses.replace(rec.roc, value=roc))
            bad_double = dataclasses.replace(
                double, ric=dataclasses.replace(double.ric, value=ric_2k)
            )
            return dataclasses.replace(report, per_k=(bad_rec, bad_double))

        assert tampered(roc=delta_2k + 0.1).invariant_violations() == [
            "K=2: orthogonality constant exceeds delta at 2K"
        ]
        assert tampered(ric_2k=2 * theta + report.delta1 + 0.1).invariant_violations() == [
            "K=2: delta at 2K exceeds both sandwich bounds"
        ]

    def test_power_and_flat_invariants_on_tampered_reports(self, paley5_real):
        report = certify_frame(
            paley5_real, exact_ks=(2,), power_specs=((2, (2,)),), roc_ks=(2,), fro_ks=(2,)
        )
        assert report.invariant_violations() == []
        [rec] = report.per_k
        exact = rec.ric.value

        def tampered(**changes):
            return dataclasses.replace(report, per_k=(dataclasses.replace(rec, **changes),))

        assert tampered(powers=((2, exact - 0.1),)).invariant_violations() == [
            "K=2: power estimate at q=2 fell below the exact constant"
        ]
        assert tampered(powers=((2, 2 ** 0.25 * exact + 0.1),)).invariant_violations() == [
            "K=2: power estimate at q=2 exceeds the K^(1/2q) envelope of the exact constant"
        ]
        fro = dataclasses.replace(rec.fro, value=rec.roc.value + 0.1)
        assert tampered(fro=fro).invariant_violations() == [
            "K=2: flat orthogonality constant exceeds the plain one"
        ]

    def test_each_orthogonality_search_runs_once_in_order(self, monkeypatch):
        # a requested K and the halving chains share one search per K
        calls = []
        real = certification.roc_exact_search

        def recording(frame, k, budget):
            calls.append(k)
            return real(frame, k, budget)

        monkeypatch.setattr(certification, "roc_exact_search", recording)
        frame = gaussian_matrix(8, 12, 2)
        report = certify_frame(frame, roc_ks=(2, 4), bounds=True)
        assert calls == [2, 1, 4]
        thetas = [real(frame, kk).value for kk in (4, 2, 1)]
        expected = iterated_ro_bound(thetas, report.delta1, k=4).sum_bound
        assert dict(report.record(4).bounds)["iterated-ro-sum-2k"] == expected

    def test_spark_at_most_k_forces_delta_one(self, paley5_real):
        report = certify_frame(paley5_real, exact_ks=(4,), spark_cap=4)
        assert report.invariant_violations() == []
        [rec] = report.per_k
        assert report.spark.spark == 4 and rec.ric.value >= 1.0 - 1e-9
        bad_rec = dataclasses.replace(rec, ric=dataclasses.replace(rec.ric, value=0.5))
        bad = dataclasses.replace(report, per_k=(bad_rec,))
        assert bad.invariant_violations() == ["K=4: spark 4 <= K but exact constant 0.5 < 1"]


class TestWorkerDeterminism:
    def test_results_identical_across_worker_counts(self, paley13_real, monkeypatch):
        frame = paley13_real
        monkeypatch.setenv("RIPCERT_WORKERS", "1")
        serial = (
            ric_exact_search(frame, 4),
            roc_exact_search(frame, 2),
            fro_constant_search(frame, 2),
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
    "ric-powers": (lambda frame, k: ric_exact_search(frame, k, qs=(2, 3, 8)), (3,)),
    "roc": (roc_exact_search, (2,)),
    # at K = 3 whole groups of pairs settle before they are enumerated
    "roc-3": (roc_exact_search, (3,)),
    "fro": (fro_constant_search, (2,)),
    "spark": (spark_search, (6,)),
}


#: (frame, search) pairs of ``TestChunkIndependence``; "roc-3" runs where whole ROC
#: groups settle: on the ETFs none does, as at K = 2, and one pair per chunk over
#: their 30,030 to 80,080 pairs takes seconds each
CHUNK_CASES = [
    (frame_name, search)
    for search in sorted(SEARCHES)
    for frame_name in ["steiner_6x16", "paley13_real", "paley13", "gaussian", "bernoulli"]
    if search != "roc-3" or frame_name in ("gaussian", "bernoulli")
]


class TestChunkIndependence:
    """Value, witness and count do not depend on chunk size or worker count."""

    @staticmethod
    def _set_chunk(monkeypatch, chunk, sizes):
        def recorded(iterator):
            def chunks(*args):
                for rows in iterator(*args):
                    sizes.append(len(rows[0] if isinstance(rows, tuple) else rows))
                    yield rows

            return chunks

        monkeypatch.setattr(subsets, "CHUNK", chunk)
        for name in ("iter_subset_chunks", "iter_disjoint_pair_chunks"):
            monkeypatch.setattr(certification, name, recorded(getattr(subsets, name)))
        monkeypatch.setattr(certification, "_FRO_BLOCK", chunk)

    @pytest.mark.parametrize(
        "frame_name, search", CHUNK_CASES, ids=[f"{f}-{s}" for f, s in CHUNK_CASES]
    )
    def test_same_result_for_every_chunk_size_and_worker_count(
        self, request, monkeypatch, search, frame_name
    ):
        frame = named_frame(request, frame_name)
        fn, args = SEARCHES[search]
        monkeypatch.setenv("RIPCERT_WORKERS", "1")
        reference = fn(frame, *args)
        for chunk in (1, 5, 4096):
            sizes = []
            self._set_chunk(monkeypatch, chunk, sizes)
            for workers in ("1", "3"):
                monkeypatch.setenv("RIPCERT_WORKERS", workers)
                assert fn(frame, *args) == reference, (chunk, workers)
            if search != "fro":
                assert sizes and max(sizes) <= chunk


def _full_ric(g, chunk):
    return np.abs(np.linalg.eigvalsh(_hollow_subgrams(g, chunk))).max(axis=1)


def _full_roc(g, pair):
    first, second = pair
    cross = g[first[:, :, None], second[:, None, :]]
    lam = np.linalg.eigvalsh(cross.conj().swapaxes(1, 2) @ cross)[:, -1]
    return np.sqrt(np.maximum(lam, 0.0))


def _full_powers(qs):
    """The unscreened trace power lines of a chunk, one per q, then the exact RIC line
    in front of them if ``exact``."""

    def full(g, chunk, exact=False):
        lines = certification._trace_power_roots(_hollow_subgrams(g, chunk), [2 * q for q in qs])
        return np.vstack([_full_ric(g, chunk), lines]) if exact else lines

    return full


class TestScreen:
    """Rows the screened kernels leave at -1 are strictly below their chunk's best."""

    SCREENED = {
        "ric": (ric_exact_search, 4, _full_ric),
        # the screened RIC line of a kernel that also takes trace powers, and those powers
        "ric-powers": (lambda frame, k: ric_exact_search(frame, k, qs=(2, 3)), 4,
                       functools.partial(_full_powers((2, 3)), exact=True)),
        "roc": (roc_exact_search, 2, _full_roc),
        # trace powers without the exact search: the same ceilings, the exact line left out
        "power": (lambda frame, k: ric_power_search(frame, k, 2), 4, _full_powers((2,))),
        "powers": (lambda frame, k: certify_frame(frame, power_specs=[(k, (2, 8))]), 4,
                   _full_powers((2, 8))),
    }
    #: the searches whose first line is an exact RIC or ROC one
    EXACT = ("ric", "ric-powers", "roc")
    #: whether the Frobenius ceiling alone settles rows: it does on a generic frame, and
    #: on a real ETF, whose sub-Grams all share one Frobenius norm, it settles none
    FROBENIUS_SETTLES = {"gaussian": True, "paley13_real": False}
    #: frames with a real Gram equiangular within DEFAULT_TOL: only there is the
    #: sign-class ceiling applied, in every pass, and there it settles rows the
    #: Frobenius one leaves
    CLASS_FRAMES = ("steiner_6x16", "paley13_real", "paley13")
    FRAMES = ["gaussian", "bernoulli", "steiner_6x16", "paley13_real", "paley13", "degenerate"]

    @staticmethod
    def _settled(monkeypatch, frame, search, top):
        """Rows settled by one screened search at chunk 64, per value line, each
        chunk's lines checked against the unscreened ones: the exact line and one
        line per q."""
        fn, k, full = TestScreen.SCREENED[search]
        seen = []
        real = certification._first_max
        real_screen = certification._screened

        def recording(chunks, kernel, witness, stop=math.inf):
            def recorded(chunk):
                values = kernel(chunk)
                seen.append((chunk, np.atleast_2d(values)))
                return values

            return real(chunks, recorded, witness, stop)

        def counting(rows, ceiling, solve):
            solved = []

            def counted(x):
                solved.append(x)
                return solve(x)

            out = real_screen(rows, ceiling, counted)
            lines = len(np.atleast_2d(ceiling))
            if len(solved) == lines + 1 and len(solved[-1]) == len(rows):  # tops, then all
                assert solved[-1] is rows  # nothing settled: no row-subset copy
            return out

        monkeypatch.setattr(certification, "_first_max", recording)
        monkeypatch.setattr(certification, "_screened", counting)
        monkeypatch.setattr(certification, "_SCREEN_TOP", top)
        TestChunkIndependence._set_chunk(monkeypatch, 64, [])
        fn(frame, k)
        g = frame.gram
        settled = 0
        for chunk, lines in seen:
            references = np.atleast_2d(full(g, chunk))
            assert lines.shape == references.shape
            skipped = lines == -1.0
            settled = settled + skipped.sum(axis=1)
            for values, reference, skip in zip(lines, references, skipped):
                # solved rows carry the unscreened float, bit for bit
                assert np.array_equal(values[~skip], reference[~skip])
                assert np.all(reference[skip] < values.max())
                assert values.max() == reference.max()
                assert np.argmax(values) == np.argmax(reference)
        return settled.tolist()

    @pytest.mark.parametrize("top", [1, 8])
    @pytest.mark.parametrize("search", EXACT)
    @pytest.mark.parametrize("frame_name", FRAMES)
    def test_settled_rows_are_below_the_chunk_maximum(
        self, request, monkeypatch, frame_name, search, top
    ):
        frame = named_frame(request, frame_name)
        real_equiangular, real_norms = certification._equiangular, certification._sign_norms
        monkeypatch.setattr(certification, "_equiangular", lambda g: None)
        # the Frobenius ceiling alone
        frobenius = self._settled(monkeypatch, frame, search, top)[0]
        monkeypatch.setattr(certification, "_equiangular", real_equiangular)
        applied = []

        def norms(block, cross):
            applied.append(len(block))
            return real_norms(block, cross)

        monkeypatch.setattr(certification, "_sign_norms", norms)
        settled = self._settled(monkeypatch, frame, search, top)[0]
        assert settled > 0
        if frame_name in self.FROBENIUS_SETTLES:
            assert (frobenius > 0) == self.FROBENIUS_SETTLES[frame_name]
        assert bool(applied) == (frame_name in self.CLASS_FRAMES)
        if applied:
            assert settled > frobenius
        else:
            assert settled == frobenius

    @pytest.mark.parametrize("top", [1, 8])
    @pytest.mark.parametrize("search", ["ric-powers", "power", "powers"])
    @pytest.mark.parametrize("frame_name", FRAMES)
    def test_power_lines_settle_below_the_chunk_maximum(
        self, request, monkeypatch, frame_name, search, top
    ):
        frame = named_frame(request, frame_name)
        settled = self._settled(monkeypatch, frame, search, top)
        powers = settled[1:] if search == "ric-powers" else settled
        # an ETF's sub-Grams share one Frobenius norm, but every pass, with the exact
        # line or without it, applies the sign-class ceilings to a real ETF
        assert all(line > 0 for line in powers), powers

    U = np.finfo(float).eps

    @pytest.mark.parametrize(
        "top, rows, ceiling, expected",
        [
            # the screen settles only rows whose ceiling is strictly below
            # bar = b (1 - 8u): row 0 sits exactly at the bar and ties the top row 1
            (1, [1.0, 1.0, 0.25, 0.25], [1.0 - 8 * U, 2.0, 0.5, 0.5], [1.0, 1.0, -1.0, -1.0]),
            # rows 0 and 1 are the top rows; row 1's ceiling is below row 0's bar
            (2, [1.0, 0.5, 0.25], [1.0, 0.5, 0.25], [1.0, -1.0, -1.0]),
        ],
        ids=["at-the-bar", "top-row-below-the-bar"],
    )
    def test_rows_settle_strictly_below_the_bar(self, monkeypatch, top, rows, ceiling, expected):
        monkeypatch.setattr(certification, "_SCREEN_TOP", top)
        rows = np.array(rows)[:, None, None]
        out = certification._screened(rows, np.array(ceiling), certification._squared_norm)
        assert out.tolist() == expected


def rank_one_plant(search, k, rng, scale):
    """A frame whose first ROC pair has the rank-one cross-Gram C = scale x y^T
    (|x| = |y| = 1) or whose first RIC subset has the hollow sub-Gram of
    I + scale^2 v v^T; two orthonormal columns in rows of their own follow."""
    if search == "roc":
        x, y = rng.standard_normal(k), rng.standard_normal(k)
        c = scale * np.outer(x / np.linalg.norm(x), y / np.linalg.norm(y))
        block = np.hstack([np.eye(k), c])
    else:
        block = np.vstack([np.eye(k), scale * rng.standard_normal((1, k))])
    mat = np.zeros((block.shape[0] + 2, block.shape[1] + 2))
    mat[: block.shape[0], : block.shape[1]] = block
    mat[-2:, -2:] = np.eye(2)
    return unchecked_frame(mat)  # a tiny column's computed norm can underflow to 0


#: trace power orders of the ceiling test: at 2^20 the margin is finite at K = 1
#: only, and at 2^52 at no K, so those rows keep an infinite ceiling
POWER_QS = (1, 2, 3, 8, 2**20, 2**52)


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
@pytest.mark.parametrize("frame_name", TestScreen.FRAMES)
def test_power_ceilings_bound_every_row(request, monkeypatch, frame_name, scale):
    """Every trace power value is at most its row's ceiling, in the exact pass (with
    the sign-class ceilings on a real ETF) and without it. Scaled by 1e100, F^2
    overflows: those ceilings are inf, and the chain's values stay finite."""
    frame = unchecked_frame(named_frame(request, frame_name).matrix * scale)
    records = []
    real_screen = certification._screened

    def recording(rows, ceiling, solve):
        records.append((np.atleast_2d(ceiling), np.atleast_2d(solve(rows))))
        return real_screen(rows, ceiling, solve)

    monkeypatch.setattr(certification, "_screened", recording)
    monkeypatch.setattr(certification, "_SCREEN_TOP", 10**9)  # solve every row
    for k in (1, 2, 3, 4):
        ric_exact_search(frame, k, qs=POWER_QS)
        certify_frame(frame, power_specs=[(k, POWER_QS)])
    powers = [(ceiling, values) for ceiling, values in records if len(ceiling) > 1]
    # per K one chunk: a RIC and a power batch in the exact pass, a power batch without it
    assert len(powers) == 2 * (len(records) - len(powers)) == 8
    for ceiling, values in records:
        assert np.isfinite(values).all()
        assert not np.any(values > ceiling)
    if scale <= 1.0:
        for ceiling, _ in powers:
            finite = np.isfinite(ceiling).all(axis=1)
            assert finite[:4].all() and not finite[-1]


def test_power_margin_bounds_exact_trace_powers():
    """On H = s P, P a symmetric permutation with a unit phase on each swap, Tr H^(2q)
    is an exact rational: the computed estimate never exceeds its exact value times
    ``_power_margin``, and it exceeds the exact value itself on some rows."""
    rng = np.random.default_rng(28)
    qs = (1, 2, 3, 8)
    above = 0
    for k in (2, 3, 4, 5, 6):
        rows, exact = [], []
        for _ in range(40):
            order, s = rng.permutation(k), float(rng.uniform(0.1, 3.0))
            h = np.zeros((k, k), dtype=complex)
            terms = [Fraction(s) ** 2] * (k % 2)  # s^2 per fixed point, s^2 |w|^2 per swap
            if k % 2:
                h[order[-1], order[-1]] = s
            for i, j in order[: k - k % 2].reshape(-1, 2):
                w = s * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
                h[i, j], h[j, i] = w, np.conj(w)
                terms += [Fraction(w.real) ** 2 + Fraction(w.imag) ** 2] * 2
            rows.append(h)
            exact.append([sum(t**q for t in terms) for q in qs])
        values = certification._trace_power_roots(np.array(rows), [2 * q for q in qs])
        for line, q in enumerate(qs):
            margin = Fraction(certification._power_margin(k, q)) ** (2 * q)
            for value, trace in zip(values[line], exact):
                assert Fraction(value) ** (2 * q) <= trace[line] * margin
                above += Fraction(value) ** (2 * q) > trace[line]
    assert above > 0


class TestFrobeniusNearTie:
    """On a rank-one row sigma_max = ||C||_F (ROC) and rho = ||H||_F (RIC) in exact
    arithmetic, so the computed value can exceed the computed norm by rounding;
    only the ceiling's margin keeps such a row from being settled. At scale 1
    the plant is the maximiser. The tiny scales put every square below the
    normal range, where the margin's absolute term does the work. As
    ``roc_exact_search`` scales a tiny Gram into the normal range, the tiny ROC
    case screens the planted cross-Grams directly."""

    @pytest.mark.parametrize(
        "search, scale", [("ric", 1.0), ("ric", 1e-81), ("roc", 1.0), ("roc", 1e-160)]
    )
    def test_ceilings_bound_rank_one_rows(self, monkeypatch, search, scale):
        fn, _, full = TestScreen.SCREENED[search]
        if search == "roc" and scale < 1.0:
            fn = screened_roc
        rng = np.random.default_rng(16)
        records, margin = [], [True]
        real_screen, real_ceiling = certification._screened, certification._ceiling

        def recording(rows, ceiling, solve):
            records.append((ceiling, solve(rows)))
            return real_screen(rows, ceiling, solve)

        def ceiling(squares, k):
            return real_ceiling(squares, k) if margin[0] else squares

        monkeypatch.setattr(certification, "_screened", recording)
        monkeypatch.setattr(certification, "_ceiling", ceiling)
        above_raw = 0
        for k in (1, 2, 3, 4):
            for _ in range(30):
                frame = rank_one_plant(search, k, rng, scale)
                monkeypatch.setattr(certification, "_SCREEN_TOP", 10**9)  # solve every row
                reference = fn(frame, k)
                monkeypatch.setattr(certification, "_SCREEN_TOP", 1)
                margin[0] = True
                records.clear()
                assert fn(frame, k) == reference
                # one screened batch per search, and for ROC one more before it: the
                # pairs of the top group, which set the bar for the group ceilings
                assert len(records) == (2 if fn is roc_exact_search else 1)
                for bounds, values in records:
                    # every row's ceiling bounds its computed value, the tie included
                    assert np.all(bounds >= values)
                planted = np.arange(k)[None]
                if scale == 1.0 and search == "roc":
                    pair = (tuple(range(k)), tuple(range(k, 2 * k)))
                    assert (reference.witness_i, reference.witness_j) == pair
                    assert reference.value == full(frame.gram, (planted, planted + k))[0]
                elif scale == 1.0:
                    assert reference.witness == tuple(range(k))
                    assert reference.value == full(frame.gram, planted)[0]
                # the same rows with the ceiling's margin taken off; every ROC group is
                # kept, as without its margin a group ceiling can settle the maximum
                margin[0] = False
                records.clear()
                without_group_ceilings(monkeypatch, lambda: fn(frame, k))
                above_raw += sum(int(np.sum(values > raw)) for raw, values in records)
        # some rows compute above their unmargined Frobenius norm
        assert above_raw > 0


def perturbed_paley13(scale, noise):
    """Realified Paley 13 with every column scaled by 1 + ``scale``, which moves every
    g_ii - 1 by about 2 ``scale``, and every entry moved by up to ``noise``."""
    base = realify(paley_etf(13)).matrix.real
    moves = np.random.default_rng(17).uniform(-noise, noise, base.shape)
    return Frame(base * (1 + scale) + moves, label="perturbed")


#: frames within DEFAULT_TOL of realified Paley 13: the columns scaled up and every
#: entry moved (spread e ~ 1e-14), or only scaled, so that d ~ 2e-13 dominates e
PERTURBED = {"perturbed": (5e-15, 1e-15), "scaled": (1e-13, 0.0)}


class TestClassCeiling:
    """On a real ETF each hollow sub-Gram is mu S_K and each cross-Gram mu S_IJ up to
    rounding and the spread, so a row can compute above mu times the computed norm of
    its sign block; only the class ceiling's slack keeps such a row from being settled.
    The perturbed frames stay within DEFAULT_TOL of an ETF."""

    #: (frame, K) per search; steiner_6x16 (RIC K=4, ROC K=3) and the perturbed frames
    #: (RIC) have rows that compute above the unslacked ceiling, and on "scaled" some
    #: compute above it by more than every slack term but d
    CASES = {
        "ric": [("steiner_6x16", 4), ("paley13_real", 4), ("paley13", 4), ("perturbed", 4),
                ("scaled", 4)],
        "roc": [("steiner_6x16", 2), ("steiner_6x16", 3), ("paley13_real", 2),
                ("paley13", 2), ("perturbed", 2)],
    }

    @pytest.mark.parametrize("search", sorted(CASES))
    def test_class_ceilings_bound_every_row(self, request, monkeypatch, search):
        fn = TestScreen.SCREENED[search][0]
        real_screen, real_norms = certification._screened, certification._sign_norms
        above_raw = 0
        for frame_name, k in self.CASES[search]:
            if frame_name in PERTURBED:
                frame = perturbed_paley13(*PERTURBED[frame_name])
            else:
                frame = request.getfixturevalue(frame_name)
            g = frame.gram
            mu = float(np.abs(g[~np.eye(frame.n, dtype=bool)]).max())
            records, applied = [], []

            def recording(rows, ceiling, solve):
                records.append((rows, ceiling, solve(rows)))
                return real_screen(rows, ceiling, solve)

            def norms(block, cross):
                applied.append(len(block))
                return real_norms(block, cross)

            monkeypatch.setattr(certification, "_screened", recording)
            monkeypatch.setattr(certification, "_sign_norms", norms)
            monkeypatch.setattr(certification, "_SCREEN_TOP", 10**9)  # solve every row
            reference = fn(frame, k)
            monkeypatch.undo()
            assert fn(frame, k) == reference
            # every row got a class ceiling
            assert sum(applied) == sum(len(rows) for rows, _, _ in records)
            for rows, ceiling, values in records:
                # every row's ceiling bounds its computed value, tied maximisers included
                assert np.all(ceiling >= values), (frame_name, k)
                # mu times the computed norm of the row's sign block: the class
                # ceiling with its slack taken off
                signs = np.sign(rows)
                if search == "ric":
                    signs[:, np.arange(k), np.arange(k)] = 0.0
                    raw = mu * np.abs(np.linalg.eigvalsh(signs)).max(axis=1)
                else:
                    raw = (mu * np.linalg.norm(signs, 2, axis=(1, 2))) ** 2
                above_raw += int(np.sum(values > raw))
        # some rows compute above it
        assert above_raw > 0

    @pytest.mark.parametrize("search", sorted(CASES))
    def test_no_class_ceiling_past_the_tolerance(self, monkeypatch, search):
        fn, k, _ = TestScreen.SCREENED[search]
        frame = perturbed_paley13(1e-10, 2e-11)
        assert verify_etf(frame).equiangular_spread > 1e-12
        applied = []
        monkeypatch.setattr(certification, "_sign_norms", lambda block, cross: applied.append(1))
        fn(frame, k)
        assert not applied

    @pytest.mark.parametrize("p", [13, 17])
    def test_class_code_matches_switching(self, p):
        # every K of both searches, RIC on the first chunk (every subset on Paley 13): on
        # realified Paley 13, RIC at K >= 13 keys its classes by more than 64 bits, and
        # RIC at K <= 2 and ROC at K = 1 by none
        frame = realify(paley_etf(p))
        g, n = frame.gram, frame.n
        signs = np.sign(g).astype(np.int8)
        np.fill_diagonal(signs, 0)
        for k in range(1, n + 1):
            for chunk in itertools.islice(subsets.iter_subset_chunks(n, k), 1):
                norms = certification._sign_norms(_hollow_subgrams(g, chunk), cross=False)
                reference = switched_sign_norms(certification._gather(signs, chunk, chunk))
                assert np.array_equal(norms, reference), k
        for k in range(1, n // 2 + 1):
            groups = math.comb(n, k) - math.comb(2 * k - 1, k)
            # a few thousand pairs per K, first members spread over the table
            firsts = np.arange(0, groups, max(1, groups // 40))
            for first, second in subsets.iter_disjoint_pair_chunks(n, k, firsts):
                norms = certification._sign_norms(certification._gather(g, first, second), cross=True)
                reference = switched_sign_norms(certification._gather(signs, first, second))
                assert np.array_equal(norms, reference), k

    @pytest.mark.parametrize("cross", [False, True])
    def test_class_code_of_random_blocks(self, cross):
        # symmetric hollow blocks (RIC) and any blocks (ROC) of +-mu; past 64 code bits
        # from K = 13 (RIC) and K = 10 (ROC), and none at K = 1 and 2 (RIC) or 1 (ROC)
        rng = np.random.default_rng(31)
        for k in range(1, 15):
            block = rng.choice([-0.3, 0.3], (300, k, k))
            diagonal = np.arange(k)
            if not cross:
                block = np.triu(block, 1)
                block += block.swapaxes(1, 2)
                # a hollow diagonal can be a tiny number of either sign, never read
                block[:, diagonal, diagonal] = rng.choice([-1e-17, 0.0, 1e-17], (300, k))
            signs = np.sign(block).astype(np.int8)
            if not cross:
                signs[:, diagonal, diagonal] = 0
            norms = certification._sign_norms(block, cross=cross)
            assert np.array_equal(norms, switched_sign_norms(signs)), k

    def test_roc_gathers_each_chunk_once(self, paley13_real, monkeypatch):
        # the class code is read off the gathered cross-Gram: no sign block is gathered
        gathered, chunks = [], []
        real_gather, real_chunks = certification._gather, certification.iter_disjoint_pair_chunks

        def gather(a, rows, cols):
            gathered.append(a)
            return real_gather(a, rows, cols)

        def counted(n, k, firsts):
            for pair in real_chunks(n, k, firsts):
                chunks.append(len(pair[0]))
                yield pair

        monkeypatch.setattr(certification, "_gather", gather)
        monkeypatch.setattr(certification, "iter_disjoint_pair_chunks", counted)
        search = roc_exact_search(paley13_real, 2)
        assert len(gathered) == len(chunks) > 1
        assert all(a is paley13_real.gram for a in gathered)
        assert sum(chunks) > search.count  # the pairs of the bar's top groups, then all


def switched_sign_norms(signs):
    """The reference of ``_sign_norms``: each int8 sign block switched, rows by its first
    column and then columns by its new first row (0 read as +1), and its S^T S solved by
    ``eigvalsh`` on its own."""
    k = signs.shape[1]
    signs = signs * (signs[:, :, :1] | 1)  # x | 1 is x with 0 read as +1
    signs *= signs[:, :1, :] | 1
    s = signs.astype(float)
    lam = np.linalg.eigvalsh(s.swapaxes(1, 2) @ s)[:, -1]
    return np.sqrt(lam + 16 * k**3 * np.finfo(float).eps)


def screened_roc(frame, k):
    """(value, position) of the first maximum that ROC's screen, ``_screened`` under the
    Frobenius ceilings, leaves of every disjoint pair of ``frame``'s Gram, unscaled."""
    _, pairs, _ = roc_groups(frame, k)
    cross = certification._gather(frame.gram, *pairs)
    ceiling = certification._ceiling(certification._squares(cross.reshape(len(cross), -1)), k)
    values = certification._screened(cross, ceiling, certification._squared_norm)
    return float(values.max()), int(values.argmax())


def roc_groups(frame, k):
    """(group ceilings, pairs, each pair's group) of ``roc_exact_search`` at K = k: the
    pairs in enumeration order as (first, second) index arrays, a group being the row
    of the pair's first member in the k-subset table."""
    n = frame.n
    table = list(itertools.combinations(range(n), k))
    pairs = [(r, a, b) for r, a in enumerate(table) for b in table
             if b[0] > a[0] and not set(a) & set(b)]
    group, first, second = (np.array(column) for column in zip(*pairs))
    rows = len(table) - math.comb(2 * k - 1, k)  # the first members with a partner
    ceiling = certification._group_ceilings(frame.gram, subsets._subset_table(n, k)[:rows])
    return ceiling, (first, second), group


def without_group_ceilings(monkeypatch, fn):
    """``fn()`` with every ROC group kept, as before the group ceilings."""
    with monkeypatch.context() as patch:
        patch.setattr(
            certification, "_group_ceilings", lambda g, table: np.full(len(table), np.inf)
        )
        return fn()


class TestGroupCeilings:
    """A group of ROC pairs, those that share a first member, is settled before it is
    enumerated when its ceiling is below the best value of the top groups' pairs."""

    CASES = [
        (gaussian_matrix(8, 12, 9), 2), (gaussian_matrix(8, 12, 9), 3),
        (bernoulli_matrix(5, 10, 3), 2), (bernoulli_matrix(5, 10, 3), 3),
        ("paley13", 2), ("steiner_6x16", 2), (long_last_column(gaussian_matrix(5, 10, 1)), 2),
        # every square below the normal range, where the margin's absolute term does the work
        (unchecked_frame(1e-80 * gaussian_matrix(5, 10, 2).matrix), 2),
    ]
    IDS = ["gaussian-2", "gaussian-3", "bernoulli-2", "bernoulli-3", "paley13", "steiner",
           "long-last-column", "tiny"]

    @pytest.mark.parametrize("frame, k", CASES, ids=IDS)
    def test_ceilings_bound_every_pair(self, request, frame, k):
        if isinstance(frame, str):
            frame = request.getfixturevalue(frame)
        ceiling, (first, second), group = roc_groups(frame, k)
        cross = certification._gather(frame.gram, first, second)
        lam = certification._squared_norm(cross)
        assert lam.max() > 0.0
        assert np.all(lam <= ceiling[group])
        assert np.all(_full_roc(frame.gram, (first, second)) <= np.sqrt(ceiling[group]))
        # a group without pairs has no ceiling
        assert group.max() < len(ceiling)

    @pytest.mark.parametrize(
        "frame, k, top",
        [(gaussian_matrix(8, 12, 9), 3, 8), (long_last_column(gaussian_matrix(5, 10, 1)), 2, 1),
         (bernoulli_matrix(5, 10, 3), 3, 8)],
        ids=["gaussian", "long-last-column", "bernoulli"],
    )
    def test_maximum_outside_the_top_groups(self, monkeypatch, frame, k, top):
        monkeypatch.setattr(certification, "_SCREEN_TOP", top)
        ceiling, pairs, group = roc_groups(frame, k)
        values = _full_roc(frame.gram, pairs)
        best = int(np.argmax(values))  # the first maximiser in enumeration order
        # the group of the maximum is not among the top groups, so their pairs only set a bar
        assert np.sum(ceiling > ceiling[group[best]]) >= top
        search = roc_exact_search(frame, k)
        assert search.settled > 0
        witness = tuple(pairs[0][best].tolist()), tuple(pairs[1][best].tolist())
        assert (search.value, (search.witness_i, search.witness_j)) == (values[best], witness)
        reference = without_group_ceilings(monkeypatch, lambda: roc_exact_search(frame, k))
        assert reference.settled == 0
        assert search == reference

    @pytest.mark.parametrize("scale", [1.0, 1e-160])
    def test_rank_one_pairs_need_the_margin(self, monkeypatch, scale):
        # as in TestFrobeniusNearTie: some pairs compute above the unmargined ceiling
        rng = np.random.default_rng(16)
        monkeypatch.setattr(certification, "_ceiling", lambda squares, k: squares)
        above_raw = 0
        for k in (1, 2, 3, 4):
            for _ in range(30):
                frame = rank_one_plant("roc", k, rng, scale)
                raw, pairs, group = roc_groups(frame, k)
                cross = certification._gather(frame.gram, *pairs)
                lam = certification._squared_norm(cross)
                above_raw += int(np.sum(lam > raw[group]))
        assert above_raw > 0

    def test_few_first_members_reach_the_gather(self, monkeypatch):
        frame = gaussian_matrix(11, 22, 11)
        firsts, real = set(), certification._gather

        def counting(a, rows, cols):
            firsts.update(map(tuple, rows.tolist()))
            return real(a, rows, cols)

        monkeypatch.setattr(certification, "_gather", counting)
        search = roc_exact_search(frame, 3)
        assert len(firsts) < 0.05 * math.comb(22, 3)
        assert search.settled >= math.comb(22, 3) - math.comb(5, 3) - len(firsts)
        monkeypatch.undo()
        assert search == without_group_ceilings(monkeypatch, lambda: roc_exact_search(frame, 3))

    def test_equal_ceilings_settle_no_group(self, paley13_real):
        # every cross-Gram of a real ETF has the same Frobenius norm
        search = roc_exact_search(paley13_real, 2)
        assert search.settled == 0

    def test_no_bar_below_the_normal_range(self, monkeypatch):
        # the off-diagonal Gram entries are ~1e-160, so RIC's and FRO's squares are
        # subnormal; ROC scales such a Gram into the normal range first
        frame = Frame(np.eye(8) + 1e-160 * np.random.default_rng(0).standard_normal((8, 8)))
        searches = [(fn, k) for fn in (ric_exact_search, fro_constant_search) for k in (2, 3)]
        found = [fn(frame, k) for fn, k in searches]
        monkeypatch.setattr(certification, "_SCREEN_TOP", 10**9)  # solve every row
        assert found == [fn(frame, k) for fn, k in searches]

    def test_a_subnormal_bar_settles_nothing(self, monkeypatch):
        # below the normal range the bar's relative rounding bounds fail
        monkeypatch.setattr(certification, "_SCREEN_TOP", 1)
        ceiling = np.array([1e-320, 0.0, 3e-310, 2e-310])
        tops = []

        def best(top):
            tops.append(top.tolist())
            return float(ceiling[top].max())

        assert certification._live(ceiling, best).all()
        # the same ceilings scaled into the normal range settle all but the top row
        ceiling = np.ldexp(ceiling, 100)
        assert certification._live(ceiling, best).tolist() == [False, False, True, False]
        assert tops == [[2], [2]]


@pytest.mark.parametrize("power", [300, 400, -300, -400])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_roc_of_a_huge_frame_scales_exactly(k, power):
    # squared cross-Gram entries near 2^(4 power) overflow or underflow unless the Gram
    # is scaled into the normal range
    matrix = gaussian_matrix(5, 12, 3).matrix
    unit = roc_exact_search(Frame(matrix), k)
    huge = roc_exact_search(Frame(matrix * 2.0**power), k)
    assert huge.value == math.ldexp(unit.value, 2 * power)
    assert dataclasses.replace(huge, value=unit.value) == unit


@pytest.mark.parametrize("power", [300, -300])
def test_roc_of_a_huge_complex_frame_scales_exactly(power):
    # a complex Gram is scaled through its real and imaginary parts
    matrix = steiner_etf(all_pairs_steiner(4), hadamard(4, "dft")).matrix
    unit = roc_exact_search(Frame(matrix), 2)
    huge = roc_exact_search(Frame(matrix * 2.0**power), 2)
    assert huge.value == math.ldexp(unit.value, 2 * power)
    assert dataclasses.replace(huge, value=unit.value) == unit


#: repr(value) and witnesses of the exact searches on gaussian_matrix(11, 22, seed);
#: a kernel change that moves one digit or one witness fails here
GOLDEN = {
    7: ("1.8212421771601413", (2, 4, 20), (3, 12, 21),
        "2.835575211707501", (1, 2, 4, 12, 20, 21)),
    101: ("1.5123442779525131", (1, 13, 19), (7, 10, 12),
          "2.2495744521941563", (2, 12, 13, 14, 16, 19)),
}


#: repr(value) and witness of the trace power estimates at K = 4 on
#: gaussian_matrix(11, 22, seed), one per q, taken in the exact search's pass and alone
GOLDEN_POWERS = {
    7: ((2, "2.260243851204223", (2, 4, 12, 21)), (3, "2.2519332242442474", (2, 4, 12, 21))),
    101: ((2, "1.7602890631184054", (7, 12, 13, 19)),
          (3, "1.7445841158430044", (7, 12, 13, 19))),
}


def _power_pins(frame, k, qs):
    """(q, repr(value), witness) of each power column, after checking that the
    exact search's pass and ``ric_power_search`` agree on it."""
    shared = ric_exact_search(frame, k, qs=qs).powers
    assert [search for _, search in shared] == [ric_power_search(frame, k, q) for q in qs]
    return tuple((q, repr(search.value), search.witness) for q, search in shared)


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_exact_searches(seed):
    roc_value, wi, wj, ric_value, witness = GOLDEN[seed]
    frame = gaussian_matrix(11, 22, seed)
    roc = roc_exact_search(frame, 3)
    assert (repr(roc.value), roc.witness_i, roc.witness_j, roc.count) == (roc_value, wi, wj, 746130)
    ric = ric_exact_search(frame, 6)
    assert (repr(ric.value), ric.witness, ric.count) == (ric_value, witness, 74613)
    assert _power_pins(frame, 4, (2, 3)) == GOLDEN_POWERS[seed]


#: repr(value) and witnesses of the exact RIC (K=5) and ROC (K=2) searches on
#: realified Paley 29, as given and with the columns of the bench's seed-1 mask
#: negated; tied maximisers make these witnesses the ones the screen must not move
GOLDEN_ETF = ("0.7427813527082129", (5, 9, 17, 23, 25),
              "0.37139067635410916", (6, 18), (14, 28))
#: the same for the trace power estimates at K = 5, q = 2 and 8
GOLDEN_ETF_POWERS = ((2, "0.7456659947622231", (5, 9, 17, 23, 25)),
                     (8, "0.7427813527514484", (5, 9, 17, 23, 25)))


@pytest.mark.parametrize("negated", [False, True])
def test_golden_etf_searches(negated):
    ric_value, witness, roc_value, wi, wj = GOLDEN_ETF
    frame = realify(paley_etf(29))
    if negated:
        mask = np.random.default_rng(1).integers(0, 2, frame.n)
        frame = negate_columns(frame, np.flatnonzero(mask).tolist())
    ric = ric_exact_search(frame, 5)
    assert (repr(ric.value), ric.witness, ric.count) == (ric_value, witness, 142506)
    roc = roc_exact_search(frame, 2)
    assert (repr(roc.value), roc.witness_i, roc.witness_j, roc.count) == (roc_value, wi, wj, 82215)
    assert _power_pins(frame, 5, (2, 8)) == GOLDEN_ETF_POWERS


@pytest.mark.parametrize("qs, solved", [((2,), 2436), ((2, 8), 2637)])
def test_power_only_pass_settles_by_sign_class(monkeypatch, qs, solved):
    """A power-only pass on a real ETF applies the sign-class ceilings as the exact
    pass does: on realified Paley 29 at K = 5 only the top switching class and the
    rows solved for each chunk's bar reach the squaring chain, not all 142,506 rows
    and those top rows besides. Values and witnesses are those of solving every row."""
    frame = realify(paley_etf(29))
    rows = []
    real = certification._trace_power_roots

    def counted(a, ps):
        rows.append(len(a))
        return real(a, ps)

    search = functools.partial(certification._subset_pass, frame, 5, qs, 10**6, exact=False)
    monkeypatch.setattr(certification, "_trace_power_roots", counted)
    searches = search()
    assert sum(rows) == solved
    assert searches == [ric_power_search(frame, 5, q) for q in qs]
    monkeypatch.setattr(certification, "_SCREEN_TOP", 10**9)  # solve every row
    assert searches == search()


#: repr(value), witnesses and count of the flat-orthogonality search on
#: gaussian_matrix(11, 22, seed) at K = 2 and 3; the row ceilings of the search
#: must not move a digit or a witness
GOLDEN_FRO = {
    (7, 2): ("1.4257290152125441", (2, 4), (12, 21), 26796),
    (7, 3): ("1.6953166154203343", (12, 21), (2, 4, 20), 1065526),
    (101, 2): ("1.1011349849166439", (3, 8), (17, 20), 26796),
    (101, 3): ("1.334556077246842", (3, 13, 17), (6, 14, 16), 1065526),
}


@pytest.mark.parametrize("seed, k", sorted(GOLDEN_FRO))
def test_golden_fro_searches(seed, k):
    search = fro_constant_search(gaussian_matrix(11, 22, seed), k)
    assert (repr(search.value), search.witness_i, search.witness_j, search.count) == GOLDEN_FRO[
        seed, k
    ]


#: the same on realified Paley 29 at K = 3, as given and with the bench's seed-1
#: columns negated: nearly every row reaches the maximum, so the block kernel decides
GOLDEN_ETF_FRO = {
    False: ("0.5570860145311589", (0, 3, 29), (23, 25, 28), 7567260),
    True: ("0.5570860145311606", (3, 6, 18), (24, 26, 28), 7567260),
}


@pytest.mark.parametrize("negated", [False, True])
def test_golden_etf_fro_searches(negated):
    frame = realify(paley_etf(29))
    if negated:
        mask = np.random.default_rng(1).integers(0, 2, frame.n)
        frame = negate_columns(frame, np.flatnonzero(mask).tolist())
    search = fro_constant_search(frame, 3, budget=10**7)
    assert (repr(search.value), search.witness_i, search.witness_j, search.count) == (
        GOLDEN_ETF_FRO[negated]
    )
