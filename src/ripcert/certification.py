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

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .constructions import Frame
from .errors import (
    ChainError,
    InvalidParameterError,
    PreconditionError,
)
from .subsets import (
    disjoint_pair_count,
    iter_disjoint_pair_chunks,
    iter_subset_chunks,
    mixed_pair_count,
    ordered_map,
    require_budget,
    subset_count,
    worker_count,
)

#: default cap on the number of enumerated subsets (or subset pairs)
DEFAULT_BUDGET = 5_000_000
#: relative smallest-singular-value threshold declaring columns dependent
SPARK_TOL = 1e-9
#: slack used by the internal consistency checks between computed constants
CHECK_SLACK = 1e-9

LN2 = math.log(2.0)
#: headline constant of the flat-to-plain orthogonality bound
FRO_C = 75.0


# ---------------------------------------------------------------------------
# Scalar quantities and axiom checks
# ---------------------------------------------------------------------------


def coherence(frame: Frame) -> float:
    """Worst-case coherence: the largest off-diagonal Gram magnitude."""
    return frame.coherence


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
    """Measured deviations from the three tight-frame axioms."""

    unit_norm_dev: float
    tight_dev: float
    equiangular_spread: float
    tol: float

    @property
    def unit_norm_ok(self) -> bool:
        return self.unit_norm_dev <= self.tol

    @property
    def tight_ok(self) -> bool:
        return self.tight_dev <= self.tol

    @property
    def equiangular_ok(self) -> bool:
        return self.equiangular_spread <= self.tol

    @property
    def all_ok(self) -> bool:
        return self.unit_norm_ok and self.tight_ok and self.equiangular_ok


def verify_etf(frame: Frame, tol: float = 1e-12) -> EtfReport:
    """Check the tight-frame axioms, reporting measured deviations.

    (i) unit-norm columns, (ii) orthogonal equal-norm rows, measured as
    the largest entry of |FF* - (n/m) I|, and (iii) equal off-diagonal
    Gram magnitudes, measured as their max-min spread.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    arr = frame.matrix.data
    unit_dev = float(np.abs(frame.column_norms_squared - 1.0).max())
    ff = arr @ arr.conj().T
    target = (frame.n / frame.m) * np.eye(frame.m)
    tight_dev = float(np.abs(ff - target).max())
    if frame.n >= 2:
        off = np.abs(frame.gram.data)
        mask = ~np.eye(frame.n, dtype=bool)
        vals = off[mask]
        spread = float(vals.max() - vals.min())
    else:
        spread = 0.0
    return EtfReport(unit_dev, tight_dev, spread, tol)


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
    return (k - 1) * coherence(frame)


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


def _hollow_subgrams(g: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    sub = g[chunk[:, :, None], chunk[:, None, :]].copy()
    k = chunk.shape[1]
    idx = np.arange(k)
    sub[:, idx, idx] -= 1.0
    return sub


def ric_exact_search(
    frame: Frame, k: int, budget: int = DEFAULT_BUDGET, workers: int | None = None
) -> SubsetSearch:
    """Exact isometry constant: max spectral norm of hollow sub-Grams.

    Enumerates every k-column subset; this is the oracle every other
    estimate is compared against.
    """
    n = frame.n
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= {n}, got k={k}")
    total = subset_count(n, k)
    require_budget(total, budget, f"exact isometry constant at K={k}")
    g = frame.gram_array
    nworkers = worker_count(workers)

    def evaluate(chunk: np.ndarray) -> tuple[float, tuple[int, ...]]:
        sub = _hollow_subgrams(g, chunk)
        dev = np.abs(np.linalg.eigvalsh(sub)).max(axis=1)
        i = int(np.argmax(dev))
        return float(dev[i]), tuple(int(x) for x in chunk[i])

    best_value, best_witness = -1.0, ()
    for value, witness in ordered_map(evaluate, iter_subset_chunks(n, k), nworkers):
        if value > best_value:
            best_value, best_witness = value, witness
    return SubsetSearch(best_value, best_witness, total)


def ric_exact(frame: Frame, k: int, budget: int = DEFAULT_BUDGET, workers: int | None = None) -> float:
    return ric_exact_search(frame, k, budget, workers).value


def _frobenius(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("bij,bij->b", a, a.conj()).real)


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
    g = frame.gram_array
    nworkers = worker_count(workers)

    def evaluate(chunk: np.ndarray) -> tuple[float, tuple[int, ...]]:
        vals = _trace_power_roots(_hollow_subgrams(g, chunk), 2 * q)
        i = int(np.argmax(vals))
        return float(vals[i]), tuple(int(x) for x in chunk[i])

    best_value, best_witness = -1.0, ()
    for value, witness in ordered_map(evaluate, iter_subset_chunks(n, k), nworkers):
        if value > best_value:
            best_value, best_witness = value, witness
    return SubsetSearch(best_value, best_witness, total)


def ric_power(
    frame: Frame, k: int, q: int, budget: int = DEFAULT_BUDGET, workers: int | None = None
) -> float:
    return ric_power_search(frame, k, q, budget, workers).value


def roc_exact_search(
    frame: Frame, k: int, budget: int = DEFAULT_BUDGET, workers: int | None = None
) -> PairSearch:
    """Exact orthogonality constant over disjoint equal-size supports.

    Maximizes the spectral norm of the cross-Gram over all unordered
    pairs of disjoint k-subsets. Restricting to full-size supports loses
    nothing because the norm is monotone under adding columns (checked
    as a tested property on small frames).
    """
    n = frame.n
    if not 1 <= k <= n // 2:
        raise PreconditionError(f"need 1 <= k <= n/2 = {n // 2}, got k={k}")
    total = disjoint_pair_count(n, k)
    require_budget(total, budget, f"exact orthogonality constant at K={k}")
    g = frame.gram_array
    nworkers = worker_count(workers)

    def evaluate(pair: tuple[np.ndarray, np.ndarray]):
        first, second = pair
        cross = g[first[:, :, None], second[:, None, :]]
        # sigma_max(C) = sqrt(lambda_max(C*C)): a k x k eigvalsh is cheaper than an SVD
        lam = np.linalg.eigvalsh(cross.conj().swapaxes(1, 2) @ cross)[:, -1]
        sv = np.sqrt(np.maximum(lam, 0.0))
        i = int(np.argmax(sv))
        return float(sv[i]), tuple(int(x) for x in first[i]), tuple(int(x) for x in second[i])

    best = (-1.0, (), ())
    for value, wi, wj in ordered_map(evaluate, iter_disjoint_pair_chunks(n, k), nworkers):
        if value > best[0]:
            best = (value, wi, wj)
    return PairSearch(best[0], best[1], best[2], total)


def roc_exact(frame: Frame, k: int, budget: int = DEFAULT_BUDGET, workers: int | None = None) -> float:
    return roc_exact_search(frame, k, budget, workers).value


def _subsets_up_to(n: int, k: int) -> list[tuple[int, ...]]:
    subs: list[tuple[int, ...]] = []
    for size in range(1, k + 1):
        subs.extend(itertools.combinations(range(n), size))
    return subs


def fro_constant_search(
    frame: Frame, k: int, budget: int = DEFAULT_BUDGET, workers: int | None = None
) -> PairSearch:
    """Smallest flat-orthogonality constant, by enumerating all subset pairs.

    Maximizes |<sum of columns in I, sum of columns in J>| / sqrt(|I||J|)
    over disjoint nonempty subsets with sizes up to k; each unordered
    pair is evaluated once.
    """
    n = frame.n
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    if n < 2:
        raise PreconditionError("need at least two columns")
    total = mixed_pair_count(n, k)
    require_budget(total, budget, f"flat orthogonality constant at K={k}")
    g = frame.gram_array
    subs = _subsets_up_to(n, min(k, n - 1))
    count = len(subs)
    indicator = np.zeros((count, n))
    for row, s in enumerate(subs):
        indicator[row, list(s)] = 1.0
    sizes = indicator.sum(axis=1)
    sums = indicator @ g  # row s holds <column sums of s against every column>
    nworkers = worker_count(workers)
    block_size = 256
    blocks = [(start, min(start + block_size, count)) for start in range(0, count, block_size)]

    def evaluate(block: tuple[int, int]):
        lo, hi = block
        vals = np.abs(sums[lo:hi] @ indicator.T)
        vals /= np.sqrt(np.outer(sizes[lo:hi], sizes))
        overlap = indicator[lo:hi] @ indicator.T
        cols = np.arange(count)[None, :]
        usable = (overlap < 0.5) & (cols > np.arange(lo, hi)[:, None])
        vals = np.where(usable, vals, -1.0)
        flat = int(np.argmax(vals))
        i, j = divmod(flat, count)
        return float(vals[i, j]), subs[lo + i], subs[j]

    best = (-1.0, (), ())
    for value, wi, wj in ordered_map(evaluate, blocks, nworkers):
        if value > best[0]:
            best = (value, wi, wj)
    return PairSearch(best[0], best[1], best[2], total)


def fro_constant(frame: Frame, k: int, budget: int = DEFAULT_BUDGET, workers: int | None = None) -> float:
    return fro_constant_search(frame, k, budget, workers).value


def _spark_clear_ratio(frame: Frame, size: int, tol: float) -> float:
    """Ratio rho with: lambda_min > rho * lambda_max of a computed sub-Gram
    implies that the SVD test of those columns finds them independent.

    With u the unit roundoff, m rows and s = ``size`` columns (s <= m):

    - each Gram entry is a length-m inner product, off by at most
      ~(m+2)u |phi_i||phi_j| <= (m+2)u lambda_max; a real ``gram_array``
      also drops an imaginary part d <= d/nu * lambda_max, nu the smallest
      squared column norm. ``eigvalsh`` is backward stable with error
      ~s u lambda_max. By Weyl, every computed eigenvalue is within
      e_g * lambda_max of the exact one, e_g = s (16 (m+s) u + d/nu);
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
    g = frame.gram_array
    dropped = 0.0 if np.iscomplexobj(g) else float(np.abs(frame.gram.data.imag).max())
    e_g = size * (16 * (m + size) * u + dropped / float(frame.column_norms_squared.min()))
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
    mat = frame.matrix.data
    g = frame.gram_array
    nworkers = worker_count(workers)
    tested = 0
    for size in range(1, cap + 1):
        clear = _spark_clear_ratio(frame, size, tol)

        def evaluate(chunk: np.ndarray):
            if size > mat.shape[0]:
                hits = np.arange(1)  # more columns than rows is always dependent
            else:
                lam = np.linalg.eigvalsh(g[chunk[:, :, None], chunk[:, None, :]])
                rows = np.flatnonzero(lam[:, 0] <= clear * lam[:, -1])
                cols = np.transpose(mat[:, chunk[rows]], (1, 0, 2))
                sv = np.linalg.svd(cols, compute_uv=False)
                hits = rows[sv[:, -1] <= tol * sv[:, 0]]
            if hits.size:
                first = int(hits[0])
                return len(chunk), tuple(int(x) for x in chunk[first]), first
            return len(chunk), None, None

        for chunk_len, witness, offset in ordered_map(
            evaluate, iter_subset_chunks(n, size), nworkers
        ):
            if witness is not None:
                tested += offset + 1
                return SparkResult(size, cap, witness, tested)
            tested += chunk_len
    return SparkResult(None, cap, None, tested)


def spark(
    frame: Frame,
    cap: int,
    tol: float = SPARK_TOL,
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
) -> SparkResult:
    return spark_search(frame, cap, tol, budget, workers)


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
    spark_tol: float = SPARK_TOL,
    workers: int | None = None,
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
        mu = coherence(frame)
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
        ric = ric_exact_search(frame, k, budget, workers) if k in exact_ks else None
        powers = tuple(
            (q, ric_power_search(frame, k, q, budget, workers).value)
            for q in power_map.get(k, ())
        )
        roc = roc_exact_search(frame, k, budget, workers) if k in roc_ks else None
        if roc is not None:
            theta_cache[k] = roc.value
        fro = fro_constant_search(frame, k, budget, workers) if k in fro_ks else None
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
                        theta_cache[kk] = roc_exact(frame, kk, budget, workers)
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
    spark_result = (
        spark_search(frame, spark_cap, spark_tol, budget, workers)
        if spark_cap is not None
        else None
    )
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
