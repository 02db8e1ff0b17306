"""Graph machinery for real equiangular tight frames.

A real unit-norm equiangular frame decomposes its Gram matrix as
I + mu*S where S is a symmetric sign matrix with zero diagonal; reading
the -1 entries of S as edges gives a simple graph. Switching S, which
is what negating frame columns does to it, until one anchor vertex is
joined to all others and then removing the anchor leaves a strongly
regular graph whose parameters depend only on the frame dimensions.
This module builds and checks all of that, plus quadratic-residue
(Paley) graphs, exact clique numbers by branch and bound (for Paley
graphs on the common neighbourhood of one edge, by arc-transitivity),
the expander mixing inequality, and the sign-walk expansion of trace
powers as an exact integer trace. The clique identity
delta_K = (K-1)*mu for K <= omega+1 needs no function of its own:
``clique_number`` gives omega and ``ric_exact_search`` gives delta_K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certification import CHECK_SLACK, _check_q, _equiangular, verify_etf
from .constructions import Frame
from .errors import (
    AmbiguousSignError,
    CongruenceError,
    InfeasibleSizeError,
    InvalidParameterError,
    InvalidSelectionError,
    MatrixShapeError,
    NotEtfError,
    NotRealError,
    NotRegularError,
)
from .modular import quadratic_residues
from .subsets import DEFAULT_BUDGET, _selection, require_budget

DEFAULT_CLIQUE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on vertices 0..n-1 stored as a boolean adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise MatrixShapeError(f"adjacency must be square, got {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise InvalidParameterError("adjacency must be symmetric")
        if np.any(np.diagonal(adj)):
            raise InvalidParameterError("self-loops are not allowed")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def degrees(self) -> np.ndarray:
        degs = self.adjacency.sum(axis=1)
        degs.setflags(write=False)
        return degs

    def is_regular(self) -> bool:
        degs = self.degrees
        return bool(degs.size == 0 or np.all(degs == degs[0]))

    @cached_property
    def second_eigenvalue(self) -> float:
        """Largest magnitude among the adjacency eigenvalues below the top one."""
        if self.n < 2:
            return 0.0
        w = np.linalg.eigvalsh(self.adjacency.astype(np.float64))
        return float(max(abs(w[0]), abs(w[-2])))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(self.adjacency[v]))

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        adj = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            if a == b:
                raise InvalidParameterError(f"self-loop at {a}")
            adj[a, b] = adj[b, a] = True
        return cls(adj)


@dataclass(frozen=True)
class SeidelMatrix:
    """Symmetric sign matrix: zero diagonal, +/-1 off the diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MatrixShapeError(f"entries must be square, got {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise InvalidParameterError("sign matrix must be symmetric")
        if np.any(np.diagonal(arr) != 0):
            raise InvalidParameterError("diagonal must be zero")
        off = arr[~np.eye(arr.shape[0], dtype=bool)]
        if off.size and not np.all(np.abs(off) == 1):
            raise InvalidParameterError("off-diagonal entries must be +/-1")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class SrgParams:
    """Strong-regularity parameters (v, k, lambda, mu)."""

    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        if min(self.v, self.k, self.lam, self.mu) < 0:
            raise InvalidParameterError("parameters must be nonnegative")
        if self.k * (self.k - self.lam - 1) != (self.v - self.k - 1) * self.mu:
            raise InvalidParameterError(
                f"infeasible parameters srg({self.v},{self.k},{self.lam},{self.mu}):"
                " k(k-lam-1) != (v-k-1)mu"
            )

    def __str__(self) -> str:
        return f"srg({self.v},{self.k},{self.lam},{self.mu})"


@dataclass(frozen=True)
class SrgCheckResult:
    """Outcome of strong-regularity verification."""

    status: str  # "srg", "not-srg" or "degenerate"
    params: SrgParams | None
    reason: str = ""

    @property
    def is_srg(self) -> bool:
        return self.status == "srg"


# ---------------------------------------------------------------------------
# Number-theoretic graphs
# ---------------------------------------------------------------------------


def paley_graph(p: int) -> SimpleGraph:
    """Graph on Z_p joining residues that differ by a nonzero square, p = 1 (mod 4).

    Like a graph file, the dense adjacency matrix must fit the default
    budget; larger orders are refused before any primality test.
    """
    if p % 4 != 1:
        raise CongruenceError(f"paley graphs need p = 1 (mod 4), got {p}")
    require_budget(p * p, DEFAULT_BUDGET, f"a paley graph of order {p}", "adjacency entries")
    residues = quadratic_residues(p)  # refuses a p that is not an odd prime before np.zeros
    square = np.zeros(p, dtype=bool)
    square[residues] = True
    square[0] = False
    vertices = np.arange(p)
    return SimpleGraph(square[(vertices[None, :] - vertices[:, None]) % p])


# ---------------------------------------------------------------------------
# Seidel matrices and switching
# ---------------------------------------------------------------------------


def seidel_from_gram(frame: Frame) -> tuple[SeidelMatrix, float]:
    """Sign pattern S and magnitude mu of a real equiangular frame's Gram.

    Requires a real Gram matrix and the tight-frame axioms at
    ``DEFAULT_TOL``; mu and S are those of ``_equiangular``, which also
    refuses off-diagonal entries indistinguishable from zero.
    """
    if np.iscomplexobj(frame.gram):
        imag = float(np.abs(frame.gram.imag).max())
        raise NotRealError(f"gram matrix has imaginary part {imag:.3e} > tol")
    report = verify_etf(frame)
    if not report.all_ok:
        raise NotEtfError(
            "frame fails the tight-frame axioms: "
            f"unit-norm dev {report.unit_norm_dev:.3e}, "
            f"tightness dev {report.tight_dev:.3e}, "
            f"equiangularity spread {report.equiangular_spread:.3e}"
        )
    equiangular = _equiangular(frame.gram)
    if equiangular is None:
        raise AmbiguousSignError("off-diagonal Gram entries vanish; signs are undefined")
    mu, _, _, signs = equiangular
    return SeidelMatrix(signs), float(mu)


def descendant_graph(seidel: SeidelMatrix, anchor: int) -> tuple[SeidelMatrix, SimpleGraph]:
    """Switch S to D S D, D = diag(-S_anchor) with D_anchor = 1, and the graph it leaves.

    Switching is what negating frame columns does to S, so it keeps every
    Gram magnitude. The switched anchor row is all -1; the graph joins the
    other n - 1 vertices where the switched S is -1 (vertex v stands for
    column v, or v + 1 past the anchor) and, for an ETF, is strongly regular.
    """
    s = seidel.entries
    if not 0 <= anchor < len(s):
        raise InvalidSelectionError(f"anchor {anchor} out of range")
    d = -s[anchor]
    d[anchor] = 1
    switched = d[:, None] * s * d
    rest = np.delete(np.arange(len(s)), anchor)
    return SeidelMatrix(switched), SimpleGraph(switched[np.ix_(rest, rest)] == -1)


# ---------------------------------------------------------------------------
# Strong regularity
# ---------------------------------------------------------------------------


def srg_check(g: SimpleGraph) -> SrgCheckResult:
    """Verify strong regularity by exhaustive common-neighbor counting.

    Graphs with no adjacent pairs or no non-adjacent pairs leave one
    parameter undefined and are reported as degenerate rather than
    silently assigned.
    """
    n = g.n
    adj = g.adjacency
    degs = g.degrees
    if n == 0:
        return SrgCheckResult("degenerate", None, "empty vertex set")
    if not g.is_regular():
        return SrgCheckResult("not-srg", None, "graph is not regular")
    k = int(degs[0])
    # float64 so BLAS runs the product; counts <= n < 2**53 are exact in any order
    common = adj.astype(np.float64) @ adj.astype(np.float64)
    nonadjacent = ~adj & ~np.eye(n, dtype=bool)
    if not adj.any():
        return SrgCheckResult("degenerate", None, "no adjacent pairs; lambda undefined")
    if not nonadjacent.any():
        return SrgCheckResult("degenerate", None, "no non-adjacent pairs; mu undefined")
    lam_vals = np.unique(common[adj])
    if lam_vals.size != 1:
        return SrgCheckResult(
            "not-srg", None, f"adjacent pairs see {lam_vals.size} distinct counts"
        )
    mu_vals = np.unique(common[nonadjacent])
    if mu_vals.size != 1:
        return SrgCheckResult(
            "not-srg", None, f"non-adjacent pairs see {mu_vals.size} distinct counts"
        )
    params = SrgParams(n, k, int(lam_vals[0]), int(mu_vals[0]))
    return SrgCheckResult("srg", params)


def predicted_srg(m: int, n: int) -> SrgParams:
    """Strong-regularity parameters forced by the frame dimensions alone.

    A real m x n equiangular tight frame with n > m + 1 switches to
    a vertex joined with an srg(n-1, L, (3L-n)/2, L/2) graph, where
    L = n/2 - 1 + (1 - n/(2m)) sqrt(m(n-1)/(n-m)). Non-integer values
    mean no real frame of that size exists; negative ones (as for 1 x 4)
    mean no strongly regular descendant does.
    """
    if n <= m + 1:
        raise InvalidParameterError(f"need n > m+1, got m={m}, n={n}")
    ell = n / 2.0 - 1.0 + (1.0 - n / (2.0 * m)) * math.sqrt(m * (n - 1) / (n - m))
    lam = (3.0 * ell - n) / 2.0
    mu = ell / 2.0
    values = (ell, lam, mu)
    if any(abs(x - round(x)) > 1e-9 for x in values):
        raise InfeasibleSizeError(
            f"no real frame of size {m}x{n}: parameters ({ell}, {lam}, {mu}) "
            "are not integers"
        )
    params = (round(ell), round(lam), round(mu))
    if min(params) < 0:
        raise InfeasibleSizeError(f"size {m}x{n} has no srg descendant: (L, lambda, mu) = {params}")
    return SrgParams(n - 1, *params)


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueResult:
    """Largest clique found; exact unless the node budget ran out."""

    size: int
    clique: tuple[int, ...]
    exact: bool
    nodes: int


class _BudgetExhausted(Exception):
    pass


def clique_number(g: SimpleGraph) -> CliqueResult:
    """Exact maximum clique via branch and bound with greedy coloring.

    Vertices are ordered by descending degree with index tie-break, so
    the search (and any budget-limited partial result) is deterministic.
    A search of more than ``DEFAULT_CLIQUE_BUDGET`` nodes stops there and
    returns its best clique marked inexact.
    """
    n = g.n
    if n == 0:
        return CliqueResult(0, (), True, 0)
    order = np.argsort(-g.degrees, kind="stable")
    # adjacency over reordered labels, one integer bitmask per row
    rows = np.packbits(g.adjacency[np.ix_(order, order)], axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in rows]

    best_size = 0
    best_clique: list[int] = []
    nodes = 0

    def color_sort(candidates: int) -> list[tuple[int, int]]:
        # greedy coloring; returns (vertex, bound) with bounds non-decreasing
        classes: list[int] = []
        ordered: list[tuple[int, int]] = []
        rest = candidates
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            for ci, cmask in enumerate(classes):
                if not (cmask & masks[v]):
                    classes[ci] |= 1 << v
                    break
            else:
                classes.append(1 << v)
        for ci, cmask in enumerate(classes):
            while cmask:
                v = (cmask & -cmask).bit_length() - 1
                cmask &= cmask - 1
                ordered.append((v, ci + 1))
        return ordered

    def expand(current: list[int], candidates: int) -> None:
        nonlocal best_size, best_clique, nodes
        nodes += 1
        if nodes > DEFAULT_CLIQUE_BUDGET:
            raise _BudgetExhausted
        ordered = color_sort(candidates)
        remaining = candidates
        for v, bound in reversed(ordered):
            if len(current) + bound <= best_size:
                return
            remaining &= ~(1 << v)
            current.append(v)
            new_candidates = remaining & masks[v]
            if new_candidates:
                expand(current, new_candidates)
            elif len(current) > best_size:
                best_size = len(current)
                best_clique = current.copy()
            current.pop()

    exact = True
    try:
        expand([], (1 << n) - 1)
    except _BudgetExhausted:
        exact = False
    clique = tuple(sorted(int(order[v]) for v in best_clique))
    return CliqueResult(best_size, clique, exact, nodes)


def paley_clique_number(g: SimpleGraph) -> CliqueResult:
    """Exact clique number of a Paley graph, searched on N(0) & N(1).

    ``g`` must be ``paley_graph(p)``: its labels are the residues mod p.
    The affine maps x -> ax + b with a a nonzero square are automorphisms
    taking the edge {0, 1} to any edge {u, v} (b = u, a = v - u), so some
    maximum clique contains 0 and 1 and omega = 2 + omega(P_p[N(0) & N(1)]).
    ``nodes`` counts the search on that (p - 5)/4-vertex subgraph.
    """
    adj = g.adjacency
    common = np.flatnonzero(adj[0] & adj[1])
    inner = clique_number(SimpleGraph(adj[np.ix_(common, common)]))
    clique = tuple(sorted((0, 1, *(int(common[v]) for v in inner.clique))))
    return CliqueResult(inner.size + 2, clique, inner.exact, inner.nodes)


# ---------------------------------------------------------------------------
# Expander mixing and trace expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixingCheck:
    """Edge-count deviation against the spectral bound for one subset pair."""

    lhs: float
    rhs: float
    second_eigenvalue: float
    edge_count: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + CHECK_SLACK


def expander_mixing_check(g: SimpleGraph, i_set, j_set) -> MixingCheck:
    """Compare |E(I,J) - (d/n)|I||J|| with lambda * sqrt(|I||J|).

    E(I,J) counts ordered adjacent pairs, the sum of the I x J adjacency
    block (the quadratic-form convention, so an edge inside the
    intersection counts twice), and lambda is the graph's cached
    ``second_eigenvalue``.
    """
    if not g.is_regular():
        raise NotRegularError("mixing bound needs a regular graph")
    i_idx = _selection(i_set, g.n, "I")
    j_idx = _selection(j_set, g.n, "J")
    n = g.n
    d = int(g.degrees[0]) if n else 0
    edges = float(g.adjacency[np.ix_(i_idx, j_idx)].sum())
    lhs = abs(edges - d / n * len(i_idx) * len(j_idx)) if n else 0.0
    lam = g.second_eigenvalue
    rhs = lam * math.sqrt(len(i_idx) * len(j_idx))
    return MixingCheck(lhs, rhs, lam, edges)


@dataclass(frozen=True)
class TraceExpansion:
    """Trace power of a hollow sub-Gram against its sign-walk expansion."""

    direct: float
    expansion: float
    tuple_sum: int
    q2_first_term: int | None
    q2_residual: int | None

    @property
    def ok(self) -> bool:
        scale = max(1.0, abs(self.direct))
        agree = abs(self.direct - self.expansion) <= 1e-9 * scale
        if self.q2_first_term is not None:
            agree = agree and (self.q2_first_term + self.q2_residual == self.tuple_sum)
        return agree


def seidel_trace_expansion(frame: Frame, kset, q: int, seidel=None) -> TraceExpansion:
    """Evaluate Tr[(sub-Gram - I)^(2q)] two independent ways.

    Directly by matrix powers, and as mu^(2q) times the sum over closed
    sign walks: 2q-tuples of subset elements with no two cyclically
    consecutive entries equal, each contributing the product of sign
    matrix entries along the walk. S has a zero diagonal, so the walks
    that repeat an entry contribute nothing and the walk sum is the exact
    integer trace of S_K^(2q): one exact matrix power, whose
    2 k^3 (2q).bit_length() integer multiply-adds are charged to
    ``DEFAULT_BUDGET``. Subsets whose walk-sum bound k (k-1)^(2q) reaches
    2^1024, past the float range, are refused. For q = 2 the walk sum
    splits into the backtracking term k(k-1)^2 plus a residual, both
    returned. ``seidel`` is the (S, mu) pair of ``seidel_from_gram(frame)``
    when the caller has it already; otherwise it is computed here.
    """
    _check_q(q)
    cols = sorted(_selection(kset, frame.n, "the subset"))
    k = len(cols)
    if k < 2:
        raise InvalidParameterError("need at least two columns")
    # |Tr S_K^(2q)| <= k (k-1)^(2q), and k >= 3 makes it at least 2^(2q)
    if k > 2 and (q >= 512 or k * (k - 1) ** (2 * q) >= 2**1024):
        raise InvalidParameterError(f"k={k}, q={q}: the walk-sum bound k (k-1)^(2q) reaches 2^1024")
    require_budget(
        2 * k**3 * (2 * q).bit_length(), DEFAULT_BUDGET, "sign-walk expansion",
        "integer multiply-adds",
    )
    seidel, mu = seidel if seidel is not None else seidel_from_gram(frame)
    s_sub = seidel.entries[np.ix_(cols, cols)].astype(np.int64)
    hollow = frame.gram[np.ix_(cols, cols)] - np.eye(k)
    direct = float(np.trace(np.linalg.matrix_power(hollow.astype(np.complex128), 2 * q)).real)

    total = int(np.trace(np.linalg.matrix_power(s_sub.astype(object), 2 * q)))
    expansion = mu ** (2 * q) * total

    first_term = residual = None
    if q == 2:
        paths = s_sub @ s_sub  # path counts of length 2 through the subset
        first_term = int(np.sum(np.diagonal(paths) ** 2))
        residual = int(np.sum(paths**2) - np.sum(np.diagonal(paths) ** 2))
    return TraceExpansion(direct, expansion, total, first_term, residual)
