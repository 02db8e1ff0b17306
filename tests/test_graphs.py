import itertools
import math

import numpy as np
import pytest

from ripcert import (
    clique_number,
    descendant_graph,
    expander_mixing_check,
    fro_constant_search,
    gaussian_matrix,
    negate_columns,
    paley_clique_number,
    paley_etf,
    paley_graph,
    predicted_srg,
    ric_exact_search,
    seidel_from_gram,
    seidel_trace_expansion,
    srg_check,
    steiner_etf,
)
from ripcert import graphs
from ripcert.constructions import Frame, hadamard
from ripcert.errors import (
    AmbiguousSignError,
    CongruenceError,
    EnumerationBudgetError,
    InfeasibleSizeError,
    InvalidParameterError,
    InvalidSelectionError,
    MatrixShapeError,
    NotEtfError,
    NotRealError,
    NotRegularError,
)
from ripcert.graphs import CliqueResult, SeidelMatrix, SimpleGraph, SrgParams
from ripcert.modular import is_prime, legendre_symbol, quadratic_residues


def realify_paley(p):
    from ripcert import paley_etf, realify

    return realify(paley_etf(p))


def complete_graph(n):
    return SimpleGraph(~np.eye(n, dtype=bool))


def empty_graph(n):
    return SimpleGraph(np.zeros((n, n), dtype=bool))


@pytest.fixture(scope="module")
def paley13_pipeline(paley13_real):
    seidel, mu = seidel_from_gram(paley13_real)
    return seidel, mu, descendant_graph(seidel, paley13_real.n - 1)[1]


def reference_descendant(frame, anchor):
    """The switched S and graph by negating frame columns, as the route before switching."""
    positive = [j for j in range(frame.n) if j != anchor and frame.gram[anchor, j] > 0]
    seidel, _ = seidel_from_gram(negate_columns(frame, positive))
    rest = np.delete(np.arange(frame.n), anchor)
    return seidel.entries, seidel.entries[np.ix_(rest, rest)] == -1


@pytest.fixture(scope="module")
def steiner_triple_7x28():
    from ripcert import steiner_triple

    return steiner_etf(steiner_triple(7), hadamard(4, "sylvester"))


class TestLegendre:
    def test_zero_one_two(self):
        assert legendre_symbol(0, 5) == 0
        assert legendre_symbol(1, 13) == 1
        assert legendre_symbol(2, 5) == -1

    def test_matches_square_enumeration(self):
        p = 13
        squares = set(quadratic_residues(p)) - {0}
        for k in range(1, p):
            assert legendre_symbol(k, p) == (1 if k in squares else -1)

    def test_rejects_even_or_composite(self):
        with pytest.raises(InvalidParameterError):
            legendre_symbol(3, 2)
        with pytest.raises(InvalidParameterError):
            legendre_symbol(3, 9)


class TestRefusals:
    @pytest.mark.parametrize(
        "kind, entries, error, message",
        [
            (SimpleGraph, np.zeros((2, 3)), MatrixShapeError, "adjacency must be square"),
            (SimpleGraph, np.zeros(3), MatrixShapeError, "adjacency must be square"),
            (SimpleGraph, [[0, 1], [0, 0]], InvalidParameterError, "must be symmetric"),
            (SimpleGraph, [[1, 0], [0, 0]], InvalidParameterError, "self-loops"),
            (SeidelMatrix, np.zeros((2, 3)), MatrixShapeError, "entries must be square"),
            (SeidelMatrix, [[0, 1], [-1, 0]], InvalidParameterError, "must be symmetric"),
            (SeidelMatrix, [[1, 1], [1, 0]], InvalidParameterError, "diagonal must be zero"),
            (SeidelMatrix, [[0, 2], [2, 0]], InvalidParameterError, r"must be \+/-1"),
        ],
        ids=["graph-nonsquare", "graph-1d", "graph-asymmetric", "graph-self-loop",
             "seidel-nonsquare", "seidel-asymmetric", "seidel-diagonal", "seidel-entry"],
    )
    def test_malformed_matrices_are_refused(self, kind, entries, error, message):
        with pytest.raises(error, match=message):
            kind(entries)


class TestPaleyGraph:
    def test_p5_is_pentagon(self):
        g = paley_graph(5)
        assert np.all(g.degrees == 2)
        # residues mod 5 are {1, 4}: neighbors are n +/- 1
        for a in range(5):
            assert g.adjacency[a, (a + 1) % 5]

    def test_p13_is_six_regular(self):
        assert np.all(paley_graph(13).degrees == 6)

    def test_rejects_composite_and_congruence(self):
        with pytest.raises(InvalidParameterError):
            paley_graph(9)
        with pytest.raises(CongruenceError):
            paley_graph(7)

    # -3 % 4 == 1 in Python, so the congruence alone lets a negative order through
    @pytest.mark.parametrize("p", [-3, 1, 9, 21])
    def test_orders_1_mod_4_that_are_not_odd_primes_are_refused(self, p):
        with pytest.raises(InvalidParameterError) as err:
            paley_graph(p)
        assert str(err.value) == f"p={p} is not an odd prime"

    @pytest.mark.parametrize("p", [5, 13, 17, 29, 101])
    def test_matches_residue_double_loop(self, p):
        residues = set(quadratic_residues(p)) - {0}
        expected = np.zeros((p, p), dtype=bool)
        for a in range(p):
            for b in range(a + 1, p):
                if (b - a) % p in residues:
                    expected[a, b] = expected[b, a] = True
        assert np.array_equal(paley_graph(p).adjacency, expected)

    def test_largest_order_within_the_budget_is_built(self):
        # 2221 is the last prime = 1 (mod 4) with 2221^2 <= DEFAULT_BUDGET
        assert paley_graph(2221).n == 2221

    @pytest.mark.parametrize("p", [2237, 1_000_000_009])
    def test_orders_over_the_budget_are_refused_before_the_primality_test(
        self, p, monkeypatch
    ):
        def no_trial_division(n):
            raise AssertionError("is_prime ran before the size check")

        monkeypatch.setattr("ripcert.modular.is_prime", no_trial_division)
        with pytest.raises(EnumerationBudgetError, match="adjacency entries"):
            paley_graph(p)

    @pytest.mark.parametrize("p", [5, 13, 17, 29])
    def test_strongly_regular_parameters(self, p):
        result = srg_check(paley_graph(p))
        assert result.is_srg
        assert result.params == SrgParams(p, (p - 1) // 2, (p - 5) // 4, (p - 1) // 4)


class TestSeidelFromGram:
    def test_two_column_frame(self):
        frame = Frame(np.array([[1.0, -1.0]]))
        seidel, mu = seidel_from_gram(frame)
        assert np.array_equal(seidel.entries, [[0, -1], [-1, 0]])
        assert math.isclose(mu, 1.0, rel_tol=1e-12)

    def test_paley5_matches_residue_signs(self, paley5_real):
        seidel, mu = seidel_from_gram(paley5_real)
        assert math.isclose(mu, 1 / math.sqrt(5), abs_tol=1e-10)
        assert np.all(np.diagonal(seidel.entries) == 0)
        for a in range(5):
            for b in range(5):
                if a != b:
                    assert seidel.entries[a, b] == legendre_symbol(b - a, 5)

    def test_steiner_simplex_block_is_all_negative(self, steiner_6x16):
        seidel, _ = seidel_from_gram(steiner_6x16)
        block = seidel.entries[:4, :4]
        assert np.all(block[~np.eye(4, dtype=bool)] == -1)

    def test_rejects_non_etf(self):
        with pytest.raises(NotEtfError):
            seidel_from_gram(gaussian_matrix(8, 12, 1))

    def test_rejects_orthonormal_signs(self):
        with pytest.raises(AmbiguousSignError):
            seidel_from_gram(Frame(np.eye(3)))


class TestDescendantGraph:
    def test_already_switched_unchanged(self):
        seidel, _ = seidel_from_gram(Frame(np.array([[1.0, -1.0]])))
        switched, graph = descendant_graph(seidel, 0)
        assert np.array_equal(switched.entries, seidel.entries)
        assert graph.n == 1

    @pytest.mark.parametrize("name", ["paley13_real", "steiner_6x16", "steiner_triple_7x28"])
    def test_every_anchor_matches_negated_columns(self, name, request):
        frame = request.getfixturevalue(name)
        seidel, _ = seidel_from_gram(frame)
        for anchor in range(frame.n):
            switched, graph = descendant_graph(seidel, anchor)
            entries, adjacency = reference_descendant(frame, anchor)
            assert switched.entries.dtype == np.int8
            assert np.array_equal(switched.entries, entries)
            assert np.array_equal(graph.adjacency, adjacency)
            assert np.all(np.delete(switched.entries[anchor], anchor) == -1)

    def test_double_negation_is_identity(self, paley5_real):
        once = negate_columns(paley5_real, [1, 3])
        twice = negate_columns(once, [1, 3])
        assert np.array_equal(twice.matrix, paley5_real.matrix)

    @pytest.mark.parametrize(
        "columns, message",
        [([1, 1], "duplicate entries in the columns"), ([6], "6 out of range in the columns"),
         ([-1], "-1 out of range in the columns")],
        ids=["duplicate", "too-large", "negative"],
    )
    def test_negation_refuses_bad_columns(self, paley5_real, columns, message):
        with pytest.raises(InvalidSelectionError) as err:
            negate_columns(paley5_real, columns)
        assert str(err.value) == message

    def test_switching_twice_changes_nothing(self, paley13_real):
        seidel, _ = seidel_from_gram(paley13_real)
        for anchor in range(paley13_real.n):
            switched, graph = descendant_graph(seidel, anchor)
            again, graph_again = descendant_graph(switched, anchor)
            assert np.array_equal(again.entries, switched.entries)
            assert np.array_equal(graph_again.adjacency, graph.adjacency)

    @pytest.mark.parametrize("anchor", [-1, 14])
    def test_out_of_range_anchor(self, paley13_pipeline, anchor):
        seidel, _, _ = paley13_pipeline
        with pytest.raises(InvalidSelectionError, match=f"anchor {anchor} out of range"):
            descendant_graph(seidel, anchor)

    def test_all_positive_gives_empty(self):
        s = SeidelMatrix(np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8))
        assert descendant_graph(s, 0)[1].adjacency.sum() == 0

    def test_all_negative_gives_complete(self):
        s = SeidelMatrix(np.eye(4, dtype=np.int8) - np.ones((4, 4), dtype=np.int8))
        switched, g = descendant_graph(s, 0)
        assert np.array_equal(switched.entries, s.entries)
        assert np.all(g.degrees == 2)

    def test_paley13_descendant_is_paley_graph_up_to_residue_relabeling(
        self, paley13_pipeline
    ):
        # the descendant joins n ~ n' when n' - n is a nonresidue; scaling
        # vertices by a nonresidue maps it onto the residue graph exactly
        _, _, descendant = paley13_pipeline
        p = 13
        nonresidue = next(
            k for k in range(2, p) if k not in set(quadratic_residues(p))
        )
        perm = [(nonresidue * v) % p for v in range(p)]
        relabeled = np.zeros((p, p), dtype=bool)
        for a in range(p):
            for b in range(p):
                relabeled[perm[a], perm[b]] = descendant.adjacency[a, b]
        assert np.array_equal(relabeled, paley_graph(p).adjacency)


class TestRealnessGates:
    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_complex_gram_is_refused(self, scale):
        frame = Frame(paley_etf(7, require_1mod4=False).matrix * scale)
        assert frame.gram.dtype == np.complex128
        with pytest.raises(NotRealError) as refused:
            seidel_from_gram(frame)
        imag = np.abs(frame.gram.imag).max()
        assert str(refused.value) == f"gram matrix has imaginary part {imag:.3e} > tol"


class TestSrgCheck:
    def test_complete_graph_degenerate(self):
        result = srg_check(complete_graph(5))
        assert result.status == "degenerate"
        assert "mu" in result.reason

    def test_empty_graph_degenerate(self):
        result = srg_check(empty_graph(4))
        assert result.status == "degenerate"
        assert "lambda" in result.reason

    def test_pentagon(self):
        result = srg_check(paley_graph(5))
        assert result.params == SrgParams(5, 2, 0, 1)

    def test_paley13(self):
        assert srg_check(paley_graph(13)).params == SrgParams(13, 6, 2, 3)

    def test_irregular_graph(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2)])
        assert srg_check(g).status == "not-srg"

    def test_regular_but_not_srg(self):
        # 6-cycle: adjacent pairs share 0 neighbors, non-adjacent 0 or 2
        g = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert srg_check(g).status == "not-srg"


class TestPredictedSrg:
    def test_known_sizes(self):
        assert predicted_srg(7, 14) == SrgParams(13, 6, 2, 3)
        assert predicted_srg(3, 6) == SrgParams(5, 2, 0, 1)
        assert predicted_srg(6, 16) == SrgParams(15, 6, 1, 3)

    def test_infeasible_size(self):
        with pytest.raises(InfeasibleSizeError):
            predicted_srg(5, 11)

    def test_requires_overcompleteness(self):
        with pytest.raises(InvalidParameterError):
            predicted_srg(6, 7)

    def test_negative_parameters_are_refused_with_the_size(self):
        # a real 1 x 4 ETF exists (the Steiner frame of v = k = 2), but its
        # parameters L = 0, lambda = -2, mu = 0 describe no graph
        with pytest.raises(InfeasibleSizeError) as info:
            predicted_srg(1, 4)
        message = str(info.value)
        assert "1x4" in message and "(0, -2, 0)" in message
        assert "no real frame" not in message


class TestDescendantPipeline:
    def test_paley_pipeline_matches_prediction(self, paley13_pipeline):
        _, _, descendant = paley13_pipeline
        assert srg_check(descendant).params == predicted_srg(7, 14)

    def test_steiner_pipeline_regression(self, steiner_6x16):
        _, _, descendant = descendant_of(steiner_6x16)
        assert srg_check(descendant).params == predicted_srg(6, 16)

    def test_triple_system_pipeline_regression(self, steiner_triple_7x28):
        _, _, descendant = descendant_of(steiner_triple_7x28)
        assert srg_check(descendant).params == predicted_srg(7, 28)


class TestCliqueNumber:
    def test_complete(self):
        result = clique_number(complete_graph(6))
        assert result.size == 6 and result.exact

    def test_pentagon_is_triangle_free(self):
        assert clique_number(paley_graph(5)).size == 2

    def test_paley13(self):
        result = clique_number(paley_graph(13))
        assert result.size == 3
        assert result.size < math.sqrt(13)
        # the witness really is a clique
        adj = paley_graph(13).adjacency
        for a, b in itertools.combinations(result.clique, 2):
            assert adj[a, b]

    @pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 41])
    def test_below_sqrt_p(self, p):
        result = clique_number(paley_graph(p))
        assert result.exact
        assert result.size < math.sqrt(p)

    def test_budget_exhaustion_flags_inexact(self, monkeypatch):
        exact = clique_number(paley_graph(29))
        monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_BUDGET", 3)
        result = clique_number(paley_graph(29))
        assert not result.exact
        assert result.size <= exact.size

    def test_paley101_golden(self):
        # size, witness and search-node count pinned from the per-vertex bitmask build
        result = clique_number(paley_graph(101))
        assert result == CliqueResult(5, (78, 94, 95, 99, 100), True, 7008)


def assert_clique(g, clique):
    assert all(g.adjacency[a, b] for a, b in itertools.combinations(clique, 2))


class TestPaleyCliqueNumber:
    @pytest.mark.parametrize(
        "p", [p for p in range(5, 230) if p % 4 == 1 and is_prime(p)]
    )
    def test_matches_generic_search(self, p):
        g = paley_graph(p)
        result = paley_clique_number(g)
        assert result.exact
        assert result.size == clique_number(g).size
        assert len(result.clique) == result.size
        assert {0, 1} <= set(result.clique)
        assert_clique(g, result.clique)

    def test_budget_exhaustion_keeps_a_clique(self, monkeypatch):
        # a one-node inner search stops early; its witness must still map back
        monkeypatch.setattr(graphs, "DEFAULT_CLIQUE_BUDGET", 1)
        g = paley_graph(229)
        result = paley_clique_number(g)
        assert not result.exact
        assert {0, 1} <= set(result.clique) and len(result.clique) == result.size
        assert_clique(g, result.clique)

    def test_paley401_below_sqrt_p(self):
        # the generic search needs about 1.9M nodes here
        g = paley_graph(401)
        result = paley_clique_number(g)
        assert result.exact
        assert len(result.clique) == result.size < math.sqrt(401)
        assert_clique(g, result.clique)


def descendant_of(frame):
    seidel, mu = seidel_from_gram(frame)
    return frame, mu, descendant_graph(seidel, frame.n - 1)[1]


def assert_clique_identity(frame, mu, descendant, ks=None):
    """delta_K and the anchor-plus-clique sub-Gram norm equal (K-1)*mu.

    ``descendant`` is the graph left after switching to and removing the
    anchor, the last column of ``frame``, so its vertex v stands for column
    v; switching keeps every sub-Gram norm. ``ks`` defaults to every K from
    2 to omega+1.
    """
    anchor = frame.n - 1
    clique = clique_number(descendant)
    assert clique.exact
    for k in ks or range(2, clique.size + 2):
        cols = [*clique.clique[: k - 1], anchor]
        hollow = frame.gram[np.ix_(cols, cols)] - np.eye(k)
        clique_value = np.abs(np.linalg.eigvalsh(hollow)).max()
        assert math.isclose(ric_exact_search(frame, k).value, (k - 1) * mu, abs_tol=1e-9)
        assert math.isclose(clique_value, (k - 1) * mu, abs_tol=1e-9)


class TestCliqueRicIdentity:
    def test_k2_on_any_real_etf(self, steiner_6x16):
        frame, mu, descendant = descendant_of(steiner_6x16)
        assert math.isclose(mu, steiner_6x16.coherence, abs_tol=1e-12)
        assert_clique_identity(frame, mu, descendant, ks=(2,))

    def test_full_range_on_every_constructed_real_etf(self, steiner_6x16, paley5_real):
        for frame in (steiner_6x16, paley5_real, realify_paley(17)):
            assert_clique_identity(*descendant_of(frame))

    def test_paley13_all_k(self, paley13_real, paley13_pipeline):
        _, mu, descendant = paley13_pipeline
        assert_clique_identity(paley13_real, mu, descendant)


class TestExpanderMixing:
    def test_empty_sets(self):
        check = expander_mixing_check(paley_graph(13), [], [])
        assert check.lhs == 0.0 and check.rhs == 0.0 and check.ok

    def test_complete_graph(self):
        check = expander_mixing_check(complete_graph(6), [0, 1, 2], [3, 4])
        assert math.isclose(check.second_eigenvalue, 1.0, abs_tol=1e-9)
        assert check.ok

    @pytest.mark.parametrize(
        "i_set, j_set, message",
        [([0, 0], [1], "duplicate entries in I"), ([0], [2, 2], "duplicate entries in J"),
         ([13, 13], [0], "duplicate entries in I"), ([0], [2, 13], "13 out of range in J"),
         ([-1], [0], "-1 out of range in I")],
        ids=["duplicate-i", "duplicate-j", "duplicate-before-range", "too-large", "negative"],
    )
    def test_rejects_bad_vertex_sets(self, i_set, j_set, message):
        with pytest.raises(InvalidSelectionError) as err:
            expander_mixing_check(paley_graph(13), i_set, j_set)
        assert str(err.value) == message

    def test_irregular_rejected(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(NotRegularError):
            expander_mixing_check(g, [0], [1])

    def test_paley13_random_draws(self):
        g = paley_graph(13)
        rng = np.random.Generator(np.random.Philox(key=123))
        for _ in range(200):
            si = int(rng.integers(1, 14))
            sj = int(rng.integers(1, 14))
            i_set = sorted(int(x) for x in rng.choice(13, si, replace=False))
            j_set = sorted(int(x) for x in rng.choice(13, sj, replace=False))
            assert expander_mixing_check(g, i_set, j_set).ok

    def test_edge_count_convention_is_quadratic_form(self):
        g = paley_graph(5)
        check = expander_mixing_check(g, [0, 1], [0, 1])
        # edge {0,1} exists and is counted once per orientation
        assert check.edge_count == 2.0

    @pytest.mark.parametrize("p", [13, 29])
    def test_matches_quadratic_form_and_fresh_spectrum(self, p):
        g = paley_graph(p)
        adj = g.adjacency.astype(np.float64)
        w = np.linalg.eigvalsh(adj)
        lam = float(max(abs(w[0]), abs(w[-2])))
        d = (p - 1) // 2
        rng = np.random.default_rng(p)
        pairs = [([], []), ([], [0, 1]), (list(range(p)), list(range(p)))]
        for _ in range(30):
            i_set = sorted(rng.choice(p, int(rng.integers(1, p + 1)), replace=False).tolist())
            j_set = sorted(rng.choice(p, int(rng.integers(1, p + 1)), replace=False).tolist())
            pairs += [(i_set, j_set), (i_set, i_set), (i_set, i_set[: len(i_set) // 2 + 1])]
        for i_set, j_set in pairs:
            ones_i, ones_j = np.zeros(p), np.zeros(p)
            ones_i[i_set] = 1.0
            ones_j[j_set] = 1.0
            edges = float(ones_i @ adj @ ones_j)
            check = expander_mixing_check(g, i_set, j_set)
            assert check.edge_count == edges
            assert check.lhs == abs(edges - d / p * len(i_set) * len(j_set))
            assert check.second_eigenvalue == lam
            assert check.rhs == lam * math.sqrt(len(i_set) * len(j_set))


class TestSeidelTraceExpansion:
    def test_two_columns_q1(self, paley5_real):
        mu = paley5_real.coherence
        result = seidel_trace_expansion(paley5_real, (0, 1), 1)
        assert math.isclose(result.direct, 2 * mu * mu, rel_tol=1e-10)
        assert result.tuple_sum == 2
        assert result.ok

    def test_paley13_q2(self, paley13_real):
        result = seidel_trace_expansion(paley13_real, (0, 1, 2, 3), 2)
        assert result.ok
        assert result.q2_first_term == 4 * 3 * 3
        assert result.q2_first_term + result.q2_residual == result.tuple_sum

    def test_multiple_subsets_agree(self, paley13_real):
        for kset in [(0, 2, 5, 9), (1, 3, 7, 13), (0, 1, 2)]:
            for q in (1, 2):
                assert seidel_trace_expansion(paley13_real, kset, q).ok

    def test_generator_kset_is_read_once(self, paley13_real):
        from_generator = seidel_trace_expansion(paley13_real, (c for c in (0, 1, 2)), 2)
        assert from_generator == seidel_trace_expansion(paley13_real, [0, 1, 2], 2)

    def test_budget(self):
        # 2 k^3 log2(2q) multiply-adds: 2 * 95^3 * 3 > 5,000,000, charged
        # before the frame is read, so any frame with 95 columns shows it
        with pytest.raises(EnumerationBudgetError, match="5144250 integer multiply-adds"):
            seidel_trace_expansion(gaussian_matrix(2, 95, 1), range(95), 2)

    def test_walk_counts_past_the_old_budget_run(self, paley13_real):
        # 10^16 sign walks, refused while the budget counted walks
        assert seidel_trace_expansion(paley13_real, range(10), 8).ok
        assert seidel_trace_expansion(paley13_real, range(14), 20).ok

    def test_walk_sums_past_the_float_range_are_refused(self, paley13_real):
        with pytest.raises(InvalidParameterError, match="k=4, q=2000"):
            seidel_trace_expansion(paley13_real, (0, 1, 2, 3), 2000)
        # 3 * 2^1022 stays below 2^1024; two columns never overflow
        assert seidel_trace_expansion(paley13_real, (0, 1, 2), 511).ok
        with pytest.raises(InvalidParameterError):
            seidel_trace_expansion(paley13_real, (0, 1, 2), 512)
        assert seidel_trace_expansion(paley13_real, (0, 1), 10**6).ok

    def test_signed_pair_is_exact(self):
        frame = Frame(np.array([[1.0, -1.0]]))
        for q in (1, 2, 3, 4):
            result = seidel_trace_expansion(frame, (0, 1), q)
            assert result.direct == 2.0
            assert result.expansion == 2.0
            assert result.tuple_sum == 2

    def test_two_columns_every_q(self, paley13_real):
        mu = paley13_real.coherence
        for q in (1, 2, 3, 4):
            result = seidel_trace_expansion(paley13_real, (0, 5), q)
            assert math.isclose(result.direct, 2 * mu ** (2 * q), rel_tol=1e-10)
            assert result.ok

    def test_all_negative_steiner_block(self, steiner_6x16):
        # G_K - I = -mu (J - I) with mu = 1/3 has eigenvalues -3 mu once and mu thrice
        for q in (1, 2, 3):
            result = seidel_trace_expansion(steiner_6x16, (0, 1, 2, 3), q)
            assert math.isclose(result.direct, (3 ** (2 * q) + 3) / 3 ** (2 * q), rel_tol=1e-12)
            assert result.ok
        assert result.tuple_sum == 3**6 + 3

    @pytest.mark.parametrize("p", [13, 29])
    def test_direct_matches_spectrum_route(self, p):
        frame = realify_paley(p)
        rng = np.random.default_rng(p + 1)
        for k in (3, 5, 7):
            kset = sorted(rng.choice(frame.n, k, replace=False).tolist())
            hollow = frame.gram[np.ix_(kset, kset)] - np.eye(k)
            w = np.linalg.eigvalsh(hollow)
            for q in (1, 2, 4):
                direct = seidel_trace_expansion(frame, kset, q).direct
                assert math.isclose(direct, float(np.sum(w ** (2 * q))), rel_tol=1e-10)

    def test_q_must_be_a_positive_integer(self, paley13_real):
        for q in (0, -1, 1.5):
            with pytest.raises(InvalidParameterError):
                seidel_trace_expansion(paley13_real, (0, 1, 2), q)

    def test_rejects_bad_subsets(self, paley13_real):
        with pytest.raises(InvalidSelectionError):
            seidel_trace_expansion(paley13_real, (0, 0, 1), 1)
        with pytest.raises(InvalidSelectionError):
            seidel_trace_expansion(paley13_real, (0, paley13_real.n), 1)
        with pytest.raises(InvalidParameterError):
            seidel_trace_expansion(paley13_real, (3,), 1)

    @pytest.mark.parametrize(
        "kset, message",
        [((0, 0, 1), "duplicate entries in the subset"),
         ((14, 14), "duplicate entries in the subset"),
         ((0, 14), "14 out of range in the subset"),
         ((2, -1), "-1 out of range in the subset")],
        ids=["duplicate", "duplicate-before-range", "too-large", "negative"],
    )
    def test_bad_subset_messages(self, paley13_real, kset, message):
        with pytest.raises(InvalidSelectionError) as err:
            seidel_trace_expansion(paley13_real, kset, 1)
        assert str(err.value) == message

    def test_non_etf_rejected(self):
        with pytest.raises(NotEtfError):
            seidel_trace_expansion(gaussian_matrix(8, 12, 1), (0, 1, 2), 1)

    @pytest.mark.parametrize("p", [13, 29])
    def test_trace_equals_closed_walk_enumeration(self, p):
        frame = realify_paley(p)
        seidel, _ = seidel_from_gram(frame)
        rng = np.random.default_rng(p)
        for k in range(2, 7):
            for q in (1, 2, 3):
                kset = sorted(rng.choice(frame.n, k, replace=False).tolist())
                s_sub = seidel.entries[np.ix_(kset, kset)].astype(np.int64)
                total = 0
                for walk in itertools.product(range(k), repeat=2 * q):
                    if any(walk[i] == walk[(i + 1) % (2 * q)] for i in range(2 * q)):
                        continue
                    prod = 1
                    for i in range(2 * q):
                        prod *= int(s_sub[walk[i], walk[(i + 1) % (2 * q)]])
                    total += prod
                result = seidel_trace_expansion(frame, kset, q)
                assert result.tuple_sum == total, (kset, q)
                assert result.ok


class TestGramRoundTrip:
    def test_identity_plus_mu_seidel_reproduces_gram(self, paley13_real, steiner_6x16):
        for frame in (paley13_real, steiner_6x16):
            seidel, mu = seidel_from_gram(frame)
            rebuilt = np.eye(frame.n) + mu * seidel.entries
            assert np.linalg.norm(rebuilt - frame.gram, 2) < 1e-9


class TestFroEdgeCountIdentity:
    def test_paley13_k_up_to_three(self, paley13_real):
        seidel, mu = seidel_from_gram(paley13_real)
        adj = (seidel.entries == -1).astype(int)
        n = paley13_real.n
        k = 3
        subs = [
            c for size in range(1, k + 1) for c in itertools.combinations(range(n), size)
        ]
        best_graph = 0.0
        for first in subs:
            for second in subs:
                if set(first) & set(second):
                    continue
                edges = sum(adj[i, j] for i in first for j in second)
                value = (
                    2
                    * mu
                    * abs(edges - len(first) * len(second) / 2)
                    / math.sqrt(len(first) * len(second))
                )
                best_graph = max(best_graph, value)
        assert math.isclose(fro_constant_search(paley13_real, k).value, best_graph, abs_tol=1e-9)
