"""Restricted-isometry certification: every bound and exact constant.

Exact quantities (the isometry constant, the orthogonality constant, the
flat-orthogonality constant, the spark) are computed by exhaustive
subset enumeration under an explicit budget; they are the brute-force
oracles against which the cheap bounds (coherence/Welch, Gershgorin, the
trace power method, and the flat-to-plain orthogonality chain) are
checked. All searches enumerate lexicographically and report the
witness subset and the exact number of evaluations performed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .constructions import _GRAM_BUDGET, Frame
from .errors import (
    ChainError,
    InvalidParameterError,
    PreconditionError,
)
from .linalg import DEFAULT_TOL
from .subsets import (
    DEFAULT_BUDGET,
    _subset_table,
    disjoint_pair_count,
    iter_disjoint_pair_chunks,
    iter_subset_chunks,
    mixed_pair_count,
    ordered_map,
    require_budget,
    subset_count,
    worker_count,
)

#: relative smallest-singular-value threshold declaring columns dependent
SPARK_TOL = 1e-9
#: slack used by the internal consistency checks between computed constants
CHECK_SLACK = 1e-9
#: subsets per row block of the flat-orthogonality search
_FRO_BLOCK = 256
#: rows per chunk solved first, by largest Frobenius norm, to set the bar the
#: rest of an exact RIC or ROC chunk is screened against
_SCREEN_TOP = 8

LN2 = math.log(2.0)
#: headline constant of the flat-to-plain orthogonality bound
FRO_C = 75.0


# ---------------------------------------------------------------------------
# Scalar quantities and axiom checks
# ---------------------------------------------------------------------------


def welch_bound(m: int, n: int) -> float:
    """Coherence lower bound sqrt((n-m)/(m(n-1))) for unit-norm frames."""
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    if n < m:
        raise InvalidParameterError(f"welch bound needs n >= m, got n={n} < m={m}")
    if n == m:
        return 0.0
    return math.sqrt((n - m) / (m * (n - 1)))


@dataclass(frozen=True)
class EtfReport:
    """Measured deviations from the three tight-frame axioms, each held to ``DEFAULT_TOL``."""

    unit_norm_dev: float
    tight_dev: float
    equiangular_spread: float

    @property
    def unit_norm_ok(self) -> bool:
        return self.unit_norm_dev <= DEFAULT_TOL

    @property
    def tight_ok(self) -> bool:
        return self.tight_dev <= DEFAULT_TOL

    @property
    def equiangular_ok(self) -> bool:
        return self.equiangular_spread <= DEFAULT_TOL

    @property
    def all_ok(self) -> bool:
        return self.unit_norm_ok and self.tight_ok and self.equiangular_ok


def verify_etf(frame: Frame) -> EtfReport:
    """Check the tight-frame axioms, reporting measured deviations.

    (i) unit-norm columns, (ii) orthogonal equal-norm rows, measured as
    the largest entry of |FF* - (n/m) I|, and (iii) equal off-diagonal
    Gram magnitudes, measured as their max-min spread. The m x m row
    Gram is refused above ``_GRAM_BUDGET`` entries, like the n x n one.
    """
    arr = frame.matrix
    m = frame.m
    require_budget(m * m, _GRAM_BUDGET, f"the {m}x{m} row gram matrix", "row Gram entries")
    unit_dev = delta1(frame)
    ff = arr @ arr.conj().T
    target = (frame.n / m) * np.eye(m)
    tight_dev = float(np.abs(ff - target).max())
    if frame.n >= 2:
        off = np.abs(frame.gram)
        mask = ~np.eye(frame.n, dtype=bool)
        vals = off[mask]
        spread = float(vals.max() - vals.min())
    else:
        spread = 0.0
    return EtfReport(unit_dev, tight_dev, spread)


def delta1(frame: Frame) -> float:
    """Largest deviation of a squared column norm from one."""
    return float(np.abs(frame.column_norms_squared - 1.0).max())


def delta1_witness(frame: Frame) -> tuple[float, int]:
    devs = np.abs(frame.column_norms_squared - 1.0)
    col = int(np.argmax(devs))
    return float(devs[col]), col


def gershgorin_bound(frame: Frame, k: int) -> float:
    """Disc bound (k-1) * coherence, valid for unit-norm columns."""
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    d1 = delta1(frame)
    if d1 > 1e-9:
        raise PreconditionError(
            f"gershgorin bound assumes unit-norm columns, but delta1 = {d1:.3e}"
        )
    if k == 1:
        return 0.0
    return (k - 1) * frame.coherence


# ---------------------------------------------------------------------------
# Exhaustive subset searches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetSearch:
    """Maximum over enumerated subsets with its lexicographically first witness."""

    value: float
    witness: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class PairSearch:
    """Maximum over enumerated subset pairs with its first witness pair."""

    value: float
    witness_i: tuple[int, ...]
    witness_j: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class SparkResult:
    """Smallest dependent column-subset size, or a lower bound at the cap."""

    spark: int | None
    cap: int
    witness: tuple[int, ...] | None
    tested: int

    @property
    def exact(self) -> bool:
        return self.spark is not None

    @property
    def lower_bound(self) -> int:
        return self.spark if self.spark is not None else self.cap + 1


def _first_max(chunks, kernel, witness, workers, stop=math.inf):
    """Lexicographically first maximum of a vectorised kernel over enumerated chunks.

    ``kernel`` maps a chunk to one value per row and ``witness(chunk, row)``
    names a row; a row that provably cannot be the chunk's first maximum may
    carry -1 instead of its value. Chunks are reduced in enumeration order
    and only a strictly larger value replaces the best, so the result does
    not depend on chunk boundaries or the worker count. The search stops once a value reaches
    ``stop``. Returns (value, witness, position), position being the
    winner's index in the enumeration.
    """

    def evaluate(chunk):
        values = kernel(chunk)
        row = int(np.argmax(values))
        return len(values), float(values[row]), row, witness(chunk, row)

    best, seen = (-1.0, (), -1), 0
    for size, value, row, found in ordered_map(evaluate, chunks, worker_count(workers)):
        if value > best[0]:
            best = (value, found, seen + row)
            if value >= stop:
                break
        seen += size
    return best


def _row(chunk: np.ndarray, i: int) -> tuple[int, ...]:
    return tuple(int(x) for x in chunk[i])


def _pair_row(pair: tuple[np.ndarray, np.ndarray], i: int):
    return _row(pair[0], i), _row(pair[1], i)


def _hollow_subgrams(g: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    sub = g[chunk[:, :, None], chunk[:, None, :]].copy()
    k = chunk.shape[1]
    idx = np.arange(k)
    sub[:, idx, idx] -= 1.0
    return sub


def _frobenius(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("bij,bij->b", a, a.conj()).real)


def _cholesky_runs(m: np.ndarray, shift: np.ndarray, sign: float) -> np.ndarray:
    """Rows b on which floating-point Cholesky of shift[b] I - sign M_b runs to completion.

    Reads M's lower triangle and real diagonal, the Hermitian matrix
    ``eigvalsh`` sees; the shifted matrix is formed entry by entry, not stored.
    """
    k = m.shape[1]
    runs = np.ones(len(m), dtype=bool)
    low = {}
    for j in range(k):
        pivot = shift - sign * m[:, j, j].real
        for p in range(j):
            pivot = pivot - (low[j, p] * low[j, p].conj()).real
        runs &= pivot > 0.0
        root = np.sqrt(np.where(runs, pivot, 1.0))
        for i in range(j + 1, k):
            entry = -sign * m[:, i, j]
            for p in range(j):
                entry = entry - low[i, p] * low[j, p].conj()
            low[i, j] = entry / root
    return runs


def _screened(m: np.ndarray, solve, signs) -> np.ndarray:
    """``solve`` on the rows of a batch that can hold its first maximum, -1 elsewhere.

    ``solve(a)`` gives per row the largest eigenvalue ``eigvalsh`` computes
    for s a over s in ``signs``, clipped below at 0. The ``_SCREEN_TOP`` rows
    of largest Frobenius norm are solved first and their best value b is the
    bar; a row proved to fall strictly below b keeps -1 and every other row
    is solved. ``eigvalsh`` runs LAPACK matrix by matrix, so a row's float
    does not depend on the rows solved with it, and the batch's first
    maximum, its row and its float, are those of ``solve`` on the whole batch.

    The proof, per row M (k x k) with computed Frobenius norm F, u = eps
    (twice the unit roundoff) and H the Hermitian matrix of M's lower
    triangle and real diagonal, which ``eigvalsh`` reads:

    - ``eigvalsh`` is backward stable, so each computed eigenvalue of s H is
      within 16 k u F of the exact one (the model of ``_spark_clear_ratio``).
      If lambda_max(s H) < t = b (1 - 8u) - 16 k u F for every sign, the
      row's value is below b (1 - 8u) up to the rounding of t: strictly below
      b, and still strictly below after a correctly rounded square root.
    - lambda_max(s H) < t is certified as in S. M. Rump, "Verification of
      positive definiteness", BIT 46 (2006): Cholesky runs to completion on
      X = fl((t - c) I - s H). Its computed factor has R*R = X + E with
      |E_ij| <= a sqrt(x_ii x_jj), a = gamma/(1 - gamma), gamma = gamma_{k+1}
      for real data (Demmel), so lambda_min(X) >= -a tr X. Rounding X's
      diagonal moves it by at most u tr X and t - c by u (t + c), so
      lambda_max(s H) < t once c (1 - u) > u t + (a + u) tr X, where
      tr X <= (1 + u)^2 (k (t + c) + sum |m_ii|). Taking gamma = gamma_{4(k+1)}
      covers complex arithmetic (sqrt(2) gamma_2 per product) and the
      rounding of c; gradual underflow adds absolute errors, bounded by a
      term 4k (2k + 2 + max x_ii) eta at least as large as Rump's, eta the
      smallest subnormal. Hence
      c = (a + 4u) (k t + sum |m_ii|) + 4k (2k + 2 + t + max |m_ii|) eta.
    - Rows with t <= 0 are solved.
    """
    if len(m) <= _SCREEN_TOP:  # every row is a top row
        return solve(m)
    u = np.finfo(float).eps
    k = m.shape[1]
    fro = _frobenius(m)
    top = np.argsort(fro)[-_SCREEN_TOP:]
    out = np.full(len(m), -1.0)
    out[top] = solve(m[top])
    t = out[top].max() * (1.0 - 8 * u) - 16 * k * u * fro
    diag = np.abs(np.diagonal(m, axis1=1, axis2=2).real)
    gamma = 4 * (k + 1) * u / (1 - 4 * (k + 1) * u)
    eta = np.finfo(float).smallest_subnormal
    c = (gamma / (1 - gamma) + 4 * u) * (k * t + diag.sum(axis=1))
    c += 4 * k * (2 * k + 2 + t + diag.max(axis=1)) * eta
    shift, settled = t - c, t > 0.0
    for sign in signs:
        settled &= _cholesky_runs(m, shift, sign)
    settled[top] = True
    rest = np.flatnonzero(~settled)
    out[rest] = solve(m[rest])
    return out


def _spectral_radius(a: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(a)).max(axis=1)


def _top_eigenvalue(a: np.ndarray) -> np.ndarray:
    return np.maximum(np.linalg.eigvalsh(a)[:, -1], 0.0)


def ric_exact_search(
    frame: Frame, k: int, budget: int = DEFAULT_BUDGET, workers: int | None = None
) -> SubsetSearch:
    """Exact isometry constant: max spectral norm of hollow sub-Grams.

    Enumerates every k-column subset; this is the oracle every other
    estimate is compared against. Each chunk runs ``eigvalsh`` only on the
    sub-Grams that ``_screened`` cannot prove to fall below its best.
    """
    n = frame.n
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= {n}, got k={k}")
    total = subset_count(n, k)
    require_budget(total, budget, f"exact isometry constant at K={k}")
    g = frame.gram

    def kernel(chunk: np.ndarray) -> np.ndarray:
        return _screened(_hollow_subgrams(g, chunk), _spectral_radius, (1.0, -1.0))

    value, witness, _ = _first_max(iter_subset_chunks(n, k), kernel, _row, workers)
    return SubsetSearch(value, witness, total)


def _trace_power_roots(a: np.ndarray, p: int) -> np.ndarray:
    """Tr[a_i^p]^(1/p) for a batch of Hermitian matrices, p even positive.

    Binary exponentiation with per-step Frobenius rescaling, so even
    astronomically large p neither overflows nor underflows; the final
    normalized trace always lies in [1, sqrt(k)].
    """
    fro = _frobenius(a)
    out = np.zeros(a.shape[0])
    live = fro > 0.0
    if not live.any():
        return out
    base = a[live] / fro[live, None, None]
    logbase = np.zeros(base.shape[0])
    res: np.ndarray | None = None
    logres = np.zeros(base.shape[0])
    e = p
    while e:
        if e & 1:
            if res is None:
                res = base.copy()
                logres = logbase.copy()
            else:
                res = res @ base
                logres = logres + logbase
                rn = _frobenius(res)
                res = res / rn[:, None, None]
                logres = logres + np.log(rn)
        e >>= 1
        if e:
            base = base @ base
            bn = _frobenius(base)
            base = base / bn[:, None, None]
            logbase = 2.0 * logbase + np.log(bn)
    t = np.clip(np.einsum("bii->b", res).real, 0.0, None)
    vals = np.zeros(res.shape[0])
    pos = t > 0.0
    vals[pos] = np.exp((np.log(t[pos]) + logres[pos]) / p)
    out[live] = vals * fro[live]
    return out


def ric_power_search(
    frame: Frame,
    k: int,
    q: int,
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
) -> SubsetSearch:
    """Trace power estimate: max over subsets of Tr[(sub-Gram - I)^(2q)]^(1/2q).

    Non-increasing in q and converging to the exact isometry constant
    from above.
    """
    n = frame.n
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= {n}, got k={k}")
    if not isinstance(q, int) or q < 1:
        raise InvalidParameterError(f"need integer q >= 1, got {q}")
    total = subset_count(n, k)
    require_budget(total, budget, f"trace power estimate at K={k}")
    g = frame.gram

    def kernel(chunk: np.ndarray) -> np.ndarray:
        return _trace_power_roots(_hollow_subgrams(g, chunk), 2 * q)

    value, witness, _ = _first_max(iter_subset_chunks(n, k), kernel, _row, workers)
    return SubsetSearch(value, witness, total)


def roc_exact_search(
    frame: Frame, k: int, budget: int = DEFAULT_BUDGET, workers: int | None = None
) -> PairSearch:
    """Exact orthogonality constant over disjoint equal-size supports.

    Maximizes the spectral norm of the cross-Gram over all unordered
    pairs of disjoint k-subsets. Restricting to full-size supports loses
    nothing because the norm is monotone under adding columns (checked
    as a tested property on small frames). Each chunk runs ``eigvalsh``
    only on the pairs that ``_screened`` cannot prove to fall below its best.
    """
    n = frame.n
    if not 1 <= k <= n // 2:
        raise PreconditionError(f"need 1 <= k <= n/2 = {n // 2}, got k={k}")
    total = disjoint_pair_count(n, k)
    require_budget(total, budget, f"exact orthogonality constant at K={k}")
    g = frame.gram

    def kernel(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        first, second = pair
        cross = g[first[:, :, None], second[:, None, :]]
        # sigma_max(C) = sqrt(lambda_max(C*C)): a k x k eigvalsh is cheaper than an SVD
        lam = _screened(cross.conj().swapaxes(1, 2) @ cross, _top_eigenvalue, (1.0,))
        return np.sqrt(lam, out=np.full_like(lam, -1.0), where=lam >= 0.0)

    value, (wi, wj), _ = _first_max(iter_disjoint_pair_chunks(n, k), kernel, _pair_row, workers)
    return PairSearch(value, wi, wj, total)


def fro_constant_search(
    frame: Frame, k: int, budget: int = DEFAULT_BUDGET, workers: int | None = None
) -> PairSearch:
    """Smallest flat-orthogonality constant, by enumerating all subset pairs.

    Maximizes |<sum of columns in I, sum of columns in J>| / sqrt(|I||J|)
    over disjoint nonempty subsets with sizes up to k; each unordered
    pair is evaluated once. Rows of ``_FRO_BLOCK`` subsets are evaluated
    against every subset at once, flattened row-major.
    """
    n = frame.n
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    if n < 2:
        raise PreconditionError("need at least two columns")
    total = mixed_pair_count(n, k)
    require_budget(total, budget, f"flat orthogonality constant at K={k}")
    g = frame.gram
    # every subset of each size 1..min(k, n-1), sizes ascending, each size lexicographic
    tables = [_subset_table(n, size) for size in range(1, min(k, n - 1) + 1)]
    subs = [tuple(row) for table in tables for row in table.tolist()]
    count = len(subs)
    indicator = np.zeros((count, n))
    filled = 0
    for table in tables:
        indicator[np.arange(filled, filled + len(table))[:, None], table] = 1.0
        filled += len(table)
    sizes = indicator.sum(axis=1)
    sums = indicator @ g  # row s holds <column sums of s against every column>
    blocks = [(lo, min(lo + _FRO_BLOCK, count)) for lo in range(0, count, _FRO_BLOCK)]

    def kernel(block: tuple[int, int]) -> np.ndarray:
        lo, hi = block
        vals = np.abs(sums[lo:hi] @ indicator.T)
        vals /= np.sqrt(np.outer(sizes[lo:hi], sizes))
        overlap = indicator[lo:hi] @ indicator.T
        cols = np.arange(count)[None, :]
        usable = (overlap < 0.5) & (cols > np.arange(lo, hi)[:, None])
        return np.where(usable, vals, -1.0).ravel()

    def witness(block: tuple[int, int], flat: int):
        i, j = divmod(flat, count)
        return subs[block[0] + i], subs[j]

    value, (wi, wj), _ = _first_max(blocks, kernel, witness, workers)
    return PairSearch(value, wi, wj, total)


def _spark_clear_ratio(frame: Frame, size: int, tol: float) -> float:
    """Ratio rho with: lambda_min > rho * lambda_max of a computed sub-Gram
    implies that the SVD test of those columns finds them independent.

    With u the unit roundoff, m rows and s = ``size`` columns (s <= m):

    - each Gram entry is a length-m inner product, off by at most
      ~(m+2)u |phi_i||phi_j| <= (m+2)u lambda_max; a float64 ``Frame.gram``
      also dropped imaginary parts |E_ij| <= r |phi_i||phi_j|, r =
      ``Frame.gram_dropped_tol``, so |E|_2 <= r trace <= s r lambda_max.
      ``eigvalsh`` is backward stable with error ~s u lambda_max. By Weyl,
      every computed eigenvalue is within e_g * lambda_max of the exact
      one, e_g = s (16 (m+s) u + r);
    - the SVD's singular values are within e_s * sigma_max of the exact
      ones, e_s = 16 (m+s) u.

    The exact eigenvalues are the squared exact singular values, so a
    cleared subset has sigma_min / sigma_max >= t = tol (1+e_s) + e_s,
    and the SVD then sees sigma_min > tol * sigma_max, if
    rho = (t^2 + e_g) / (1 - e_g), i.e. tol^2 plus a margin of about
    e_g + 2 tol e_s. Subsets that are not cleared go to the SVD test.
    """
    m = frame.m
    u = np.finfo(float).eps
    e_g = size * (16 * (m + size) * u + frame.gram_dropped_tol)
    e_s = 16 * (m + size) * u
    if e_g >= 1.0:
        return math.inf
    t = tol * (1.0 + e_s) + e_s
    return (t * t + e_g) / (1.0 - e_g)


def spark_search(
    frame: Frame,
    cap: int,
    tol: float = SPARK_TOL,
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
) -> SparkResult:
    """Smallest linearly dependent column subset, searched size by size.

    A subset counts as dependent when its smallest singular value is at
    most ``tol`` times its largest. Subsets whose sub-Gram eigenvalues
    clear them by a margin above rounding error skip the SVD; only the
    rest are decided by it. Returns the exact spark if a
    dependent subset of size <= cap exists, otherwise the statement
    spark > cap.
    """
    n = frame.n
    if not 1 <= cap <= n:
        raise InvalidParameterError(f"need 1 <= cap <= {n}, got {cap}")
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    total = sum(subset_count(n, s) for s in range(1, cap + 1))
    require_budget(total, budget, f"spark search up to size {cap}")
    mat = frame.matrix
    g = frame.gram
    tested = 0
    for size in range(1, cap + 1):
        clear = _spark_clear_ratio(frame, size, tol)

        def dependent(chunk: np.ndarray) -> np.ndarray:
            if size > mat.shape[0]:
                return np.ones(len(chunk), dtype=bool)  # more columns than rows
            lam = np.linalg.eigvalsh(g[chunk[:, :, None], chunk[:, None, :]])
            rows = np.flatnonzero(lam[:, 0] <= clear * lam[:, -1])
            cols = np.transpose(mat[:, chunk[rows]], (1, 0, 2))
            sv = np.linalg.svd(cols, compute_uv=False)
            hits = np.zeros(len(chunk), dtype=bool)
            hits[rows[sv[:, -1] <= tol * sv[:, 0]]] = True
            return hits

        hit, witness, position = _first_max(
            iter_subset_chunks(n, size), dependent, _row, workers, stop=1.0
        )
        if hit == 1.0:
            return SparkResult(size, cap, witness, tested + position + 1)
        tested += subset_count(n, size)
    return SparkResult(None, cap, None, tested)


# ---------------------------------------------------------------------------
# Bound chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppendixConstants:
    """Constants of the flat-to-plain orthogonality bound proof.

    ``c_from_formula`` is what the constant chain actually evaluates to
    (4 * (c0 + c1/ln 2)); ``c_quoted`` and ``c_headline`` are the values
    stated alongside it. They disagree, and both are reported without
    reconciliation.
    """

    c0: float
    c1: float
    c_prime: float
    c_from_formula: float
    c_quoted: float = 74.17
    c_headline: float = FRO_C


def appendix_constants() -> AppendixConstants:
    c0 = 4.0 / LN2
    c1 = 4.0 * (1.0 + 1.0 / LN2 + 1.0 / (2.0 * LN2) ** 2)
    c_prime = c0 + c1 / LN2
    return AppendixConstants(c0, c1, c_prime, 4.0 * c_prime)


def select_t(k: int) -> int:
    """Smallest positive integer t with sqrt(k) 2^-t <= t^(-1/2) / (2 ln 2)."""
    if k < 2:
        raise InvalidParameterError(f"need k >= 2, got {k}")
    t = 1
    while math.sqrt(k) * 2.0**-t > 1.0 / (2.0 * LN2 * math.sqrt(t)):
        t += 1
    return t


def fro_to_ro_bound(k: int, theta_hat: float, mode: str = "simple") -> float:
    """Orthogonality constant bound implied by flat orthogonality.

    ``simple`` applies the headline constant: 75 * theta_hat * ln k.
    ``appendix`` recomputes the proof's own chain: the per-quadrant
    dyadic-decomposition bound 4 * theta_hat * (t + 1/ln2 + 1/((2 ln2)^2 t))
    with t from :func:`select_t`, times 16 for the four-part splitting of
    complex coefficient vectors. Vacuous at k = 1 (ln 1 = 0), hence the
    k >= 2 requirement.
    """
    if k < 2:
        raise InvalidParameterError(f"bound is vacuous at k < 2, got {k}")
    if theta_hat < 0:
        raise InvalidParameterError("theta_hat must be nonnegative")
    if mode == "simple":
        return FRO_C * theta_hat * math.log(k)
    if mode == "appendix":
        t = select_t(k)
        per_quadrant = 4.0 * theta_hat * (t + 1.0 / LN2 + 1.0 / ((2.0 * LN2) ** 2 * t))
        return 16.0 * per_quadrant
    raise InvalidParameterError(f"unknown mode {mode!r}")


def ro_to_rip_bound(theta_k: float, delta_1: float) -> float:
    """Isometry bound 2 * theta_k + delta_1 at doubled sparsity."""
    if theta_k < 0 or delta_1 < 0:
        raise InvalidParameterError("bound inputs must be nonnegative")
    return 2.0 * theta_k + delta_1


def halving_chain(k: int) -> list[int]:
    """[k, ceil(k/2), ceil(k/4), ..., 1]; length is 1 + ceil(log2 k)."""
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    chain = [k]
    while chain[-1] > 1:
        chain.append((chain[-1] + 1) // 2)
    return chain


@dataclass(frozen=True)
class IteratedRoBound:
    """Halving-chain isometry bound and its weaker closed form."""

    sum_bound: float
    closed_form: float


def iterated_ro_bound(thetas, delta_1: float, k: int | None = None) -> IteratedRoBound:
    """Isometry bound from a halving chain of orthogonality constants.

    ``thetas`` lists the orthogonality constant at k, ceil(k/2), ...,
    down to 1; the bound at doubled sparsity is their sum plus delta_1.
    The closed form replaces every term by the largest, giving
    (1 + ceil(log2 k)) * theta_k + delta_1.
    """
    values = [float(t) for t in thetas]
    if not values:
        raise ChainError("empty halving chain")
    if any(t < 0 or not math.isfinite(t) for t in values):
        raise ChainError("chain values must be finite and nonnegative")
    for a, b in zip(values, values[1:]):
        if b > a + CHECK_SLACK:
            raise ChainError(
                "chain must be non-increasing from k down to 1; "
                f"got consecutive values {a} -> {b}"
            )
    if delta_1 < 0:
        raise InvalidParameterError("delta_1 must be nonnegative")
    if k is not None and len(values) != len(halving_chain(k)):
        raise ChainError(
            f"k={k} needs a chain of length {len(halving_chain(k))}, got {len(values)}"
        )
    return IteratedRoBound(sum(values) + delta_1, len(values) * values[0] + delta_1)


# ---------------------------------------------------------------------------
# Full certification driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerKRecord:
    """Everything computed for one sparsity level."""

    k: int
    gershgorin: float | None = None
    ric: SubsetSearch | None = None
    powers: tuple[tuple[int, float], ...] = ()
    roc: PairSearch | None = None
    fro: PairSearch | None = None
    bounds: tuple[tuple[str, float], ...] = ()
    wall: float = 0.0


@dataclass(frozen=True)
class CertificationReport:
    """Per-frame record of every computed constant and bound."""

    label: str
    m: int
    n: int
    coherence: float | None
    welch: float | None
    delta1: float
    per_k: tuple[PerKRecord, ...] = ()
    spark: SparkResult | None = None

    def record(self, k: int) -> PerKRecord | None:
        for rec in self.per_k:
            if rec.k == k:
                return rec
        return None

    def invariant_violations(self) -> list[str]:
        """Cross-checks between the computed constants (empty means healthy)."""
        out: list[str] = []
        for rec in self.per_k:
            if rec.ric is not None and rec.gershgorin is not None:
                if rec.ric.value > rec.gershgorin + CHECK_SLACK:
                    out.append(
                        f"K={rec.k}: exact constant {rec.ric.value!r} exceeds "
                        f"gershgorin bound {rec.gershgorin!r}"
                    )
            if rec.powers:
                for (q1, v1), (q2, v2) in zip(rec.powers, rec.powers[1:]):
                    if q2 > q1 and v2 > v1 + CHECK_SLACK:
                        out.append(
                            f"K={rec.k}: power estimate increased from q={q1} to q={q2}"
                        )
                if rec.ric is not None:
                    for q, v in rec.powers:
                        if v < rec.ric.value - CHECK_SLACK:
                            out.append(
                                f"K={rec.k}: power estimate at q={q} fell below the exact constant"
                            )
                        if v > rec.k ** (1.0 / (2 * q)) * rec.ric.value + CHECK_SLACK:
                            out.append(
                                f"K={rec.k}: power estimate at q={q} exceeds the "
                                f"K^(1/2q) envelope of the exact constant"
                            )
            if rec.fro is not None and rec.roc is not None:
                if rec.fro.value > rec.roc.value + CHECK_SLACK:
                    out.append(
                        f"K={rec.k}: flat orthogonality constant exceeds the plain one"
                    )
        for rec in self.per_k:
            double = self.record(2 * rec.k)
            if (
                rec.roc is not None
                and rec.ric is not None
                and double is not None
                and double.ric is not None
            ):
                theta, delta_k, delta_2k = rec.roc.value, rec.ric.value, double.ric.value
                if theta > delta_2k + CHECK_SLACK:
                    out.append(f"K={rec.k}: orthogonality constant exceeds delta at 2K")
                cap = min(theta + delta_k, 2 * theta + self.delta1)
                if delta_2k > cap + CHECK_SLACK:
                    out.append(f"K={rec.k}: delta at 2K exceeds both sandwich bounds")
        if self.spark is not None and self.spark.exact:
            for rec in self.per_k:
                if rec.ric is not None and rec.k >= self.spark.spark:
                    if rec.ric.value < 1.0 - CHECK_SLACK:
                        out.append(
                            f"K={rec.k}: spark {self.spark.spark} <= K but exact "
                            f"constant {rec.ric.value!r} < 1"
                        )
        return out


def certify_frame(
    frame: Frame,
    *,
    gershgorin: bool = False,
    exact_ks=(),
    power_specs=(),
    roc_ks=(),
    fro_ks=(),
    spark_cap: int | None = None,
    bounds: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> CertificationReport:
    """Run the requested certifications on one frame and collect a report.

    ``power_specs`` is an iterable of (k, qs) pairs. With ``bounds``
    set, the flat-to-plain and orthogonality-to-isometry chains are
    evaluated from whatever constants were computed, including the
    halving-chain bound when the orthogonality constant is requested.
    """
    power_map: dict[int, tuple[int, ...]] = {}
    for k, qs in power_specs:
        power_map[int(k)] = tuple(int(q) for q in qs)
    ks = sorted(set(exact_ks) | set(roc_ks) | set(fro_ks) | set(power_map))
    d1 = delta1(frame)
    try:
        mu = frame.coherence
    except InvalidParameterError:
        mu = None
    try:
        welch = welch_bound(frame.m, frame.n)
    except InvalidParameterError:
        welch = None

    records: list[PerKRecord] = []
    theta_cache: dict[int, float] = {}
    for k in ks:
        start = time.perf_counter()
        gersh = gershgorin_bound(frame, k) if gershgorin else None
        ric = ric_exact_search(frame, k, budget) if k in exact_ks else None
        powers = tuple(
            (q, ric_power_search(frame, k, q, budget).value) for q in power_map.get(k, ())
        )
        roc = roc_exact_search(frame, k, budget) if k in roc_ks else None
        if roc is not None:
            theta_cache[k] = roc.value
        fro = fro_constant_search(frame, k, budget) if k in fro_ks else None
        derived: list[tuple[str, float]] = []
        if bounds:
            if fro is not None and k >= 2:
                derived.append(("fro-to-ro-simple", fro_to_ro_bound(k, fro.value, "simple")))
                derived.append(
                    ("fro-to-ro-appendix", fro_to_ro_bound(k, fro.value, "appendix"))
                )
            if roc is not None:
                derived.append(("ro-to-rip-2k", ro_to_rip_bound(roc.value, d1)))
                chain = halving_chain(k)
                for kk in chain:
                    if kk not in theta_cache:
                        theta_cache[kk] = roc_exact_search(frame, kk, budget).value
                thetas = [theta_cache[kk] for kk in chain]
                iterated = iterated_ro_bound(thetas, d1, k=k)
                derived.append(("iterated-ro-sum-2k", iterated.sum_bound))
                derived.append(("iterated-ro-closed-2k", iterated.closed_form))
        records.append(
            PerKRecord(
                k=k,
                gershgorin=gersh,
                ric=ric,
                powers=powers,
                roc=roc,
                fro=fro,
                bounds=tuple(derived),
                wall=time.perf_counter() - start,
            )
        )
    spark_result = spark_search(frame, spark_cap, budget=budget) if spark_cap is not None else None
    return CertificationReport(
        label=frame.label,
        m=frame.m,
        n=frame.n,
        coherence=mu,
        welch=welch,
        delta1=d1,
        per_k=tuple(records),
        spark=spark_result,
    )
