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

import functools
import math
import time
from dataclasses import dataclass, field

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
    worker_count,
)

#: relative smallest-singular-value threshold declaring columns dependent
SPARK_TOL = 1e-9
#: slack used by the internal consistency checks between computed constants
CHECK_SLACK = 1e-9
#: subsets per row block of the flat-orthogonality search
_FRO_BLOCK = 256
#: rows solved first, by largest ceiling, to set the bar of ``_live``
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


def gershgorin_bound(frame: Frame, k: int) -> float:
    """Disc bound (k-1) * coherence, valid for unit-norm columns."""
    _check_k(frame.n, k)
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
    #: (q, trace power search) pairs that ``ric_exact_search`` took in the same pass
    powers: tuple[tuple[int, SubsetSearch], ...] = ()


@dataclass(frozen=True)
class PairSearch:
    """Maximum over enumerated subset pairs with its first witness pair."""

    value: float
    witness_i: tuple[int, ...]
    witness_j: tuple[int, ...]
    count: int
    #: what ceilings settled unevaluated, of ``rows``: rows of the flat-orthogonality
    #: search, or first members with a partner (groups of pairs) of the orthogonality one
    settled: int = field(default=0, compare=False)
    rows: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SparkResult:
    """Smallest dependent column-subset size, or a lower bound at the cap.

    ``disc_sizes`` says how the answer was reached, not what it is: sizes
    1..disc_sizes were decided by Gershgorin discs without enumeration.
    """

    spark: int | None
    cap: int
    witness: tuple[int, ...] | None
    tested: int
    disc_sizes: int = field(default=0, compare=False)

    @property
    def exact(self) -> bool:
        return self.spark is not None

    @property
    def lower_bound(self) -> int:
        return self.spark if self.spark is not None else self.cap + 1


def _first_max(chunks, kernel, witness, stop=math.inf):
    """Lexicographically first maximum of each value column of a vectorised kernel.

    ``kernel`` maps a chunk to one value per row, or to a 2-D array that
    stacks one such vector per value column, and ``witness(chunk, row)``
    names a row; a row that provably cannot be a column's first maximum in the
    chunk may carry -1 there instead of its value. Chunks are reduced in
    enumeration order and only a strictly larger value replaces a column's
    best, so the result does not depend on chunk boundaries or the worker
    count. The search stops once every column's value reaches ``stop``.
    Returns one (value, witness, position) per column, position being the
    winner's index in the enumeration.
    """

    def evaluate(chunk):
        values = np.atleast_2d(kernel(chunk))
        rows = values.argmax(axis=1).tolist()
        return values.shape[1], [(float(v[r]), r, witness(chunk, r)) for v, r in zip(values, rows)]

    best, seen = [], 0
    for size, found in ordered_map(evaluate, chunks, worker_count()):
        if not best:
            best = [(-1.0, (), -1)] * len(found)
        for column, (value, row, name) in enumerate(found):
            if value > best[column][0]:
                best[column] = (value, name, seen + row)
        if all(value >= stop for value, _, _ in best):
            break
        seen += size
    return best


def _row(chunk: np.ndarray, i: int) -> tuple[int, ...]:
    return tuple(int(x) for x in chunk[i])


def _pair_row(pair: tuple[np.ndarray, np.ndarray], i: int):
    return _row(pair[0], i), _row(pair[1], i)


def _gather(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The blocks a[rows[b]][:, cols[b]] of a square ``a``, gathered by one flat take."""
    return a.ravel().take(rows[:, :, None] * len(a) + cols[:, None, :])


def _hollow_subgrams(g: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    sub = _gather(g, chunk, chunk)
    idx = np.arange(chunk.shape[1])
    sub[:, idx, idx] -= 1.0
    return sub


def _frobenius(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("bij,bij->b", a, a.conj()).real)


def _squares(a: np.ndarray) -> np.ndarray:
    """Per row sum of |a_ri|^2 over the last axis, real and imaginary parts summed apart."""
    sq = np.einsum("bi,bi->b", a.real, a.real)
    if np.iscomplexobj(a):
        sq += np.einsum("bi,bi->b", a.imag, a.imag)
    return sq


def _ceiling(squares: np.ndarray, k: int) -> np.ndarray:
    """``squares`` raised by the rounding margin that ``_screened`` proves."""
    margin = 1.0 + 2 * (k + 16) ** 2 * np.finfo(float).eps
    return margin * (squares + 5 * k * k * np.finfo(float).smallest_subnormal)


def _equiangular(g: np.ndarray):
    """(mu, e, d, signs) of a float64 Gram equiangular within ``DEFAULT_TOL``, else None:
    mu = max |g_ij| and e = mu - min |g_ij| over i != j, d = max |g_ii - 1|, and the
    sign matrix of g with a zero diagonal. e, d <= DEFAULT_TOL < min |g_ij| keeps every
    sign nonzero and makes e and d exact (Sterbenz)."""
    if np.iscomplexobj(g) or len(g) < 2:
        return None
    off = np.abs(g[~np.eye(len(g), dtype=bool)])
    low, mu = off.min(), off.max()
    e, d = mu - low, np.abs(g.diagonal() - 1.0).max()
    if not (e <= DEFAULT_TOL < low and d <= DEFAULT_TOL):
        return None
    signs = np.sign(g).astype(np.int8)
    np.fill_diagonal(signs, 0)
    return mu, e, d, signs


def _sign_norms(block: np.ndarray, cross: bool) -> np.ndarray:
    """sqrt(lambda^ + 16 k^3 u), in two roundings, per k x k block B of a Gram that
    ``_equiangular`` accepts: a bound on the norm of B's sign matrix S, lambda^ being the
    top eigenvalue ``eigvalsh`` computes of T^T T for the switching class T of S. B is a
    cross-Gram (ROC) if ``cross``, else a hollow sub-Gram (RIC), and S is sign(B) with,
    for RIC, a zero diagonal.

    T is S switched, rows by its first column and then columns by its new first row (0
    read as +1), which keeps the norm. Its row and column 0 are ones off the diagonal,
    its diagonal is that of S, and off them T_ij = s_ij s_i0 s_0j, times s_00 for ROC.
    So [T_ij < 0] = [b_ij < 0] ^ [b_i0 < 0] ^ [b_0j < 0], ^ [b_00 < 0] for ROC: at
    1 <= i < j <= k - 1 for RIC, whose T is symmetric, and at every i, j in 1..k-1 for
    ROC. Those are the signs of the block: ``_equiangular`` requires every |g_ij| >= low
    > ``DEFAULT_TOL`` off the diagonal, so each b_ij read, never a diagonal entry of g,
    has the sign of g. RIC never reads b_ii, b_00 included: the hollow diagonal g_ii - 1
    can be a tiny negative number. The bits, packed little-endian into a uint64 key per
    row (a bytes key past 64 bits), name T; each distinct T, built from its bits, is
    solved once. T^T T is an exact integer matrix of Frobenius norm <= k^2, so the model
    of ``_screened`` applies."""
    k = block.shape[1]
    # the code's positions (i, j), row-major: i < j (RIC) or all (ROC)
    i, j = 1 + np.argwhere(np.triu(np.ones((k - 1, k - 1)), -k if cross else 1)).T
    neg = block < 0
    bits = np.zeros((len(block), max(64, -(-len(i) // 8) * 8)), dtype=bool)  # whole keys
    bits[:, : len(i)] = neg[:, i, j] ^ neg[:, i, 0] ^ neg[:, 0, j] ^ (neg[:, :1, 0] & cross)
    keys = np.packbits(bits, bitorder="little")
    keys = keys.view("<u8" if bits.shape[1] == 64 else f"V{bits.shape[1] // 8}")
    codes, inverse = np.unique(keys, return_inverse=True)
    codes = codes.view(np.uint8).reshape(len(codes), -1)
    classes = np.ones((len(codes), k, k)) - np.eye(k) * (not cross)  # hollow for RIC
    classes[:, i, j] = 1.0 - 2.0 * np.unpackbits(codes, axis=1, count=len(i), bitorder="little")
    if not cross:
        classes[:, j, i] = classes[:, i, j]
    lam = np.linalg.eigvalsh(classes.swapaxes(1, 2) @ classes)[:, -1]
    return np.sqrt(lam + 16 * k**3 * np.finfo(float).eps)[inverse]


def _live(ceiling: np.ndarray, best) -> np.ndarray:
    """Mask of the rows of a search that its ceilings leave to be solved.

    ``ceiling`` bounds every value the search computes in each row, and
    ``best(top)`` is b, a value it computes (or one its caller proves safe)
    in the ``_SCREEN_TOP`` rows of largest ceiling, ascending. With u = eps
    (twice the unit roundoff) and bar = b (1 - 8u), a row whose ceiling is
    below the bar holds only values v < bar < b, still below b after a
    correctly rounded square root: fl(bar) <= b (1 - 7u), so fl(sqrt(v)) <
    sqrt(b) (1 - 3.5u) (1 + u/2) < fl(sqrt(b)). It holds no first maximum
    and is settled; a nan ceiling is kept. These bounds need a normal bar,
    so a smaller one settles nothing, and so do at most ``_SCREEN_TOP`` rows.
    This is the only rule that settles rows: of the exact RIC and ROC
    columns and the trace power columns (each line of ``_screened``), of the
    ROC groups and of the flat-orthogonality rows.
    """
    if len(ceiling) > _SCREEN_TOP:
        top = np.sort(np.argpartition(ceiling, -_SCREEN_TOP)[-_SCREEN_TOP:])
        bar = best(top) * (1.0 - 8 * np.finfo(float).eps)
        if bar >= np.finfo(float).tiny:
            return ~(ceiling < bar)
    return np.ones(len(ceiling), dtype=bool)


def _screened(rows: np.ndarray, ceiling: np.ndarray, solve) -> np.ndarray:
    """``solve`` on the rows of a batch that can hold a first maximum, -1 elsewhere.

    ``solve(rows)`` gives per row one value, or one line of values per row of
    a 2-D ``ceiling``, which bounds each line; ``_live`` settles each line's
    rows against the best of that line's top rows, and a row kept for any
    line is solved for every line. ``solve`` takes its rows matrix by matrix
    (``eigvalsh``, or the products of ``_trace_power_roots``), so a row's
    float does not depend on the rows solved with it: the top rows keep the
    values solved for the bar, and each line's first maximum, its row and
    its float, are those of ``solve`` on the whole batch.

    Here ``solve`` gives per row the value ``eigvalsh`` computes from the
    k x k matrix M it forms of the row, clipped below at 0, or the trace
    power estimates, whose ceilings ``_power_margin`` proves from the
    spectral radius ceilings below. The Frobenius ceilings, with u = eps,
    gamma_n = n u / (1 - n u), eta the
    smallest subnormal, F the Frobenius norm of the Hermitian H of M's lower
    triangle and real diagonal, which ``eigvalsh`` reads, and s^ the
    ``_squares`` of the entries of C (ROC: C the cross-Gram, M = fl(C* C),
    the value lambda) or of M (RIC: M = H the hollow sub-Gram, exactly
    Hermitian as ``Frame.gram`` is, the value the spectral radius rho):

    - s^ sums at most 2k^2 squares, each rounded once and then in at most
      k^2 + 1 additions, so s^ >= s (1 - gamma_{k^2+2}) - 2 k^2 eta for the
      exact sum s, where each square below the normal range loses at most
      eta/2.
    - ``eigvalsh`` is backward stable: each computed eigenvalue of H is
      within 16 k u F of the exact one (the model of ``_spark_clear_ratio``).
    - RIC: H is what s^ sums, F = sqrt(s) and rho <= F (1 + 16ku).
    - ROC: the product has |M - C*C| <= gamma_{2k+4} |C|*|C| + 2k eta
      entrywise (a length-k complex inner product is off by at most
      sqrt(2) gamma_{k+2}), and C*C is Hermitian with a real diagonal, so
      ||H - C*C||_F <= sqrt(2) ||M - C*C||_F <= sqrt(2) gamma_{2k+4} s
      + 3 k^2 eta. As lambda_max(C*C) <= ||C*C||_F <= ||C||_F^2 = s, both
      lambda_max(H) and F are at most s (1 + sqrt(2) gamma_{2k+4}) + 3k^2 eta,
      and lambda <= (1 + 16ku) times that.
    - So the value (ROC) or rho^2 and F^2 (RIC) are at most A (s^ + 5 k^2 eta),
      A = (1 + 16ku) max(1 + sqrt(2) gamma_{2k+4}, 1 + 16ku) / (1 - gamma_{k^2+2})
      <= 1 + 1.5 (k + 16)^2 u while (k + 16)^2 u <= 1/8. ``_ceiling``
      multiplies s^ + 5 k^2 eta by 1 + 2 (k + 16)^2 u, which stays above A
      through that product's rounding, the rounding of the margin and, for
      RIC, of the square root taken of it: ceiling = ``_ceiling(s^, k)``
      for ROC and its square root for RIC. The RIC ceiling bounds the exact
      F and the exact spectral radius of H as well as the computed rho.

    The class ceilings, on a Gram that ``_equiangular`` accepts, with S the
    sign matrix of H (hollow) or C, sigma(S) <= ``_sign_norms`` of it and
    |E_ij| <= e off the diagonal and <= d on it: RIC: H = mu S + E, so rho <=
    mu sigma(S) + (k - 1) e + d + 16ku F, F <= k (mu + d), and the exact
    spectral radius is at most the same sum without 16ku F. ROC: C = mu S + E,
    so sigma_max(C) <= q = mu sigma(S) + k e, and with s <= k^2 mu^2 the ROC
    terms above give lambda <= q^2 + 2 (k + 16)^2 u k^2 mu^2 + 4 k^2 eta. Each
    is evaluated in at most 8 roundings of nonnegative terms and multiplied by
    1 + 8u: (1 - u/2)^9 (1 + 8u) > 1.
    """
    out = np.full(np.shape(ceiling), -1.0)
    keep, solved = np.zeros(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool)

    def best(top: np.ndarray, line: int) -> float:
        out[..., top] = solve(rows[top])
        solved[top] = True
        return np.atleast_2d(out)[line, top].max()

    for line, bound in enumerate(np.atleast_2d(ceiling)):
        keep |= _live(bound, lambda top: best(top, line))
    if keep.all():
        return solve(rows)
    rest = np.flatnonzero(keep & ~solved)
    if len(rest):
        out[..., rest] = solve(rows[rest])
    out[..., ~keep] = -1.0  # top rows below the bar are settled too
    return out


def _spectral_radius(a: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(a)).max(axis=1)


def _squared_norm(c: np.ndarray) -> np.ndarray:
    """sigma_max(C)^2 = lambda_max(C* C) per C, clipped below at 0: eigvalsh beats an SVD."""
    return np.maximum(np.linalg.eigvalsh(c.conj().swapaxes(1, 2) @ c)[:, -1], 0.0)


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise InvalidParameterError(f"need 1 <= k <= {n}, got k={k}")


def _check_q(q) -> None:
    """Refuse q unless it is an integer in 1..2**52, so that 2q is exact as a float."""
    if not isinstance(q, int) or q < 1:
        raise InvalidParameterError(f"need integer q >= 1, got {q}")
    if q > 2**52:
        raise InvalidParameterError(f"need q <= 2**52, got {q}")


def _subset_pass(frame: Frame, k: int, qs, budget: int, exact: bool) -> list[SubsetSearch]:
    """One pass over the k-subsets, each chunk's hollow sub-Grams gathered once.

    Checks k, then every q of ``qs``, then the budget. The value columns are
    the exact isometry constant, if ``exact``, then the trace power estimate
    at each q of ``qs``, all from one squaring chain. Returns one
    ``SubsetSearch`` per column, in that order.

    The exact column is the oracle every other estimate is compared against.
    Every column is screened by ``_screened``. A row's spectral radius
    ceiling rho^ is its Frobenius ceiling F^ and, on a real equiangular Gram,
    the smaller of that and its Seidel sign class's norm, with a rounding
    margin, whether or not the pass takes the exact column. That column
    settles rows whose rho^ is below the best of its chunk's top rows. The
    power column at q settles rows whose rho^ (F^ / rho^)^(1/q), times
    ``_power_margin(k, q)``, is below the best of its own top rows:
    Tr[H^(2q)] <= rho^(2q - 2) F^2, so that bounds the
    exact estimate, and the margin bounds the rounding of the computed one.
    The power columns share one ``_trace_power_roots`` call per chunk on the
    rows that any of them keeps, besides the top rows solved for each bar.
    """
    n = frame.n
    _check_k(n, k)
    for q in qs:
        _check_q(q)
    total = math.comb(n, k)
    what = "exact isometry constant" if exact else "trace power estimate"
    require_budget(total, budget, f"{what} at K={k}")
    g = frame.gram
    ps = [2 * q for q in qs]
    margins = [_power_margin(k, q) for q in qs]
    equiangular = _equiangular(g)
    u = np.finfo(float).eps

    def kernel(chunk: np.ndarray) -> np.ndarray:
        m = _hollow_subgrams(g, chunk)
        frobenius = rho = np.sqrt(_ceiling(_squares(m.reshape(len(m), -1)), k))
        if equiangular is None:  # rho^ (F^ / rho^)^(1/q) = F^, and F^ may be inf
            ceilings = np.multiply.outer(margins, frobenius)
        else:
            mu, e, d, _ = equiangular
            rho = mu * _sign_norms(m, cross=False) + (k - 1) * e + d
            rho = np.minimum(frobenius, (rho + 16 * k * k * u * (mu + d)) * (1 + 8 * u))
            ceilings = [rho * (frobenius / rho) ** (1 / q) * w for q, w in zip(qs, margins)]
        ric = _screened(m, rho, _spectral_radius) if exact else None
        if not ps:
            return ric
        powers = _screened(m, ceilings, lambda rows: _trace_power_roots(rows, ps))
        return powers if ric is None else np.vstack([ric, powers])

    found = _first_max(iter_subset_chunks(n, k), kernel, _row)
    return [SubsetSearch(value, witness, total) for value, witness, _ in found]


def ric_exact_search(frame: Frame, k: int, budget: int = DEFAULT_BUDGET, qs=()) -> SubsetSearch:
    """Exact isometry constant: max spectral norm of hollow sub-Grams.

    Enumerates every k-column subset in ``_subset_pass``. For each q of
    ``qs`` the same pass also takes the trace power estimate from the
    sub-Grams it gathers; ``powers`` holds (q, search) pairs equal, bit for
    bit, to ``ric_power_search`` at each q. Every column settles the rows
    that its proved ceilings put below its chunk's best (``_subset_pass``),
    the sign-class ceilings on a real ETF included.
    """
    ric, *powers = _subset_pass(frame, k, qs, budget, exact=True)
    return SubsetSearch(ric.value, ric.witness, ric.count, tuple(zip(qs, powers)))


@functools.lru_cache(maxsize=128)
def _power_margin(k: int, q: int) -> float:
    """1 + epsilon, with the value that ``_trace_power_roots`` computes at p = 2q
    for a k x k Hermitian H at most (1 + epsilon) P, P = Tr(H^p)^(1/p) exact;
    inf where the proof below does not give an epsilon below 2^-20.

    With u = eps, gamma_n = n u / (1 - n u) and eta as in ``_screened``: let f
    be the computed Frobenius norm of H and treat every computed norm that the
    chain divides by as an exact scalar. Then the chain approximates matrices
    Y that are positive multiples of powers of H, Y_0 = H / f, Y = Y_a Y_b / r
    for each product the chain forms and divides by its computed norm r, and
    logs L* that sum the exact logs of those norms, so that exactly
    P = f exp((ln Tr Y + L*) / p) for the line's last Y. For the computed
    matrix R of each Y, with e = ||R - Y||_F / ||Y||_F:

    - Dividing by a scalar rounds each entry within u (a complex quotient in
      two roundings), so e_0 <= u.
    - A product's Frobenius error is at most c ||R_a||_F ||R_b||_F, c = 2
      gamma_{k+2}: sqrt(2) gamma_{k+2} for a length-k complex inner product,
      and the rest covers underflow, at most k eta per entry against norms
      of at least 1/(2k).
    - ||R_a R_b - Y_a Y_b||_F <= (e_a + e_b + e_a e_b) ||Y_a||_F ||Y_b||_F, and
      for powers of one Hermitian H, ||Y_a||_F ||Y_b||_F <= sqrt(k)
      ||Y_a Y_b||_F (Chebyshev's sum inequality on |lambda_i|^2a and
      |lambda_i|^2b). So each product and division gives
      1 + e <= (1 + u) (1 + sqrt(k) ((1 + e_a)(1 + e_b)(1 + c) - 1)).
    - p is even, so Y is positive semidefinite and Tr Y >= ||Y||_F. The
      computed trace t^ sums k diagonal entries, each off by at most
      sqrt(k) e ||Y||_F in all, so t^ <= (1 + delta) Tr Y with 1 + delta =
      (1 + sqrt(k) e)(1 + gamma_k), and the 1/p root divides ln(1 + delta)
      by p. While delta < 1 every computed matrix is nonzero, so each log
      the chain takes is of a positive finite float and at most 745 in
      magnitude, within 4 ulps (numpy's log and exp, and power, are taken
      to be that accurate).
    - The logs: a logbase at bit j is at most 745 2^j in magnitude and
      enters L with weight at most p / 2^j; logres and the last sum are at
      most 1118 p. So each log's error and each rounding of a sum moves
      ln t^ + L by at most 3000 u p: 2 per squaring, 3 per product and 2 at
      the end, plus 1 for the division by p, with bits and ones the binary
      digits of p, at most 2 bits + 3 ones - 2 units of 3000 u in the
      exponent. One more covers exp and the last product by f, and one
      more the ceiling's own roundings (the power (F^ / rho^)^(1/q) with
      1/q rounded, two products and this margin).

    So epsilon = expm1(ln(1 + delta) / p + (2 bits + 3 ones) 3000 u), doubled
    to cover its own evaluation. Each squaring multiplies e by about
    2 sqrt(k), so at large q delta reaches 2^-20 and the ceiling is inf.
    """
    u = float(np.finfo(float).eps)  # a Python float: overflow to inf is silent
    c = 2 * (k + 2) * u / (1 - (k + 2) * u)

    def product(ea: float, eb: float) -> float:
        return (1 + u) * (1 + math.sqrt(k) * ((1 + ea) * (1 + eb) * (1 + c) - 1)) - 1

    p = 2 * q
    base, res = u, None
    for bit in range(p.bit_length()):
        if p >> bit & 1:
            res = base if res is None else product(res, base)
        base = product(base, base)
    delta = (1 + math.sqrt(k) * res) * (1 + k * u / (1 - k * u)) - 1
    if not delta < 2.0**-20:
        return math.inf
    units = 2 * p.bit_length() + 3 * bin(p).count("1")
    return 1 + 2 * math.expm1(math.log1p(delta) / p + 3000 * units * u)


def _trace_power_roots(a: np.ndarray, ps) -> np.ndarray:
    """Tr[a_i^p]^(1/p) for a batch of Hermitian matrices, one line per even positive p of ``ps``.

    Binary exponentiation with per-step Frobenius rescaling, so even
    astronomically large p neither overflows nor underflows; the final
    normalized trace always lies in [1, sqrt(k)]. One chain of rescaled
    squarings serves every p: each p multiplies, lowest first, the squares
    its binary digits select, so each line is bit for bit the one a chain
    of its own computes. A row whose squared Frobenius norm overflows takes
    its norm as s ||a_i / s||_F, s its largest |entry|.
    """
    fro = _frobenius(a)
    huge = ~np.isfinite(fro)
    if huge.any():
        s = np.abs(a[huge]).max(axis=(1, 2))
        fro[huge] = s * _frobenius(a[huge] / s[:, None, None])
    out = np.zeros((len(ps), a.shape[0]))
    live = fro > 0.0
    base = a[live] / fro[live, None, None]
    logbase = np.zeros(base.shape[0])
    res: list = [None] * len(ps)
    logres: list = [None] * len(ps)
    bits = max(ps).bit_length()
    for bit in range(bits):
        for line, p in enumerate(ps):
            if not p >> bit & 1:
                continue
            if res[line] is None:
                res[line], logres[line] = base, logbase
            else:
                prod = res[line] @ base
                rn = _frobenius(prod)
                prod /= rn[:, None, None]
                res[line], logres[line] = prod, logres[line] + logbase + np.log(rn)
        if bit + 1 < bits:
            base = base @ base
            bn = _frobenius(base)
            base /= bn[:, None, None]
            logbase = 2.0 * logbase + np.log(bn)
    for line, p in enumerate(ps):
        t = np.clip(np.einsum("bii->b", res[line]).real, 0.0, None)
        vals = np.zeros(len(t))
        pos = t > 0.0
        vals[pos] = np.exp((np.log(t[pos]) + logres[line][pos]) / p)
        out[line, live] = vals * fro[live]
    return out


def ric_power_search(frame: Frame, k: int, q: int, budget: int = DEFAULT_BUDGET) -> SubsetSearch:
    """Trace power estimate: max over subsets of Tr[(sub-Gram - I)^(2q)]^(1/2q).

    Non-increasing in q and converging to the exact isometry constant
    from above. Rows whose proved ceiling (``_subset_pass``: from the
    Frobenius norm and, on a real ETF, the Seidel sign class), times
    ``_power_margin``, is below the best of their chunk's top rows are
    settled unsolved.
    """
    [search] = _subset_pass(frame, k, (q,), budget, exact=False)
    return search


def _group_ceilings(g: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per row I of the k-subset ``table``: a ceiling on every value ``_screened``
    computes for a pair (I, J) of ``roc_exact_search``.

    With w_j(I) = sum over i in I of |g_ij|^2, ||G_IJ||_F^2 = sum over j in J of
    w_j(I), and every partner J lies in the columns j > I[0] outside I, so s =
    ||G_IJ||_F^2 is at most the sum of the k largest w_j(I) there. With u = eps,
    eta and gamma_n as in ``_screened``: each computed w^_j sums at most 2k
    rounded squares, so w^_j >= w_j (1 - gamma_{2k}) - k eta, and t^, the sum of
    the k largest w^_j in k - 1 additions, is >= s (1 - gamma_{3k}) - k^2 eta for
    every partner J. As 3k <= k^2 + 2, t^ meets the lower bound on s^ that the
    proof of ``_screened`` starts from, so ``_ceiling(t^, k)`` bounds the value of
    every pair in the group, as it bounds the row's own ceiling.
    """
    n, k = len(g), table.shape[1]
    sq = g.real * g.real
    if np.iscomplexobj(g):
        sq += g.imag * g.imag
    w = sq[table[:, 0]]
    for column in table.T[1:]:
        w += sq[column]
    w[np.arange(n) <= table[:, :1]] = 0.0
    np.put_along_axis(w, table, 0.0, axis=1)
    w.partition(n - k, axis=1)
    return _ceiling(w[:, n - k :].sum(axis=1), k)


def roc_exact_search(frame: Frame, k: int, budget: int = DEFAULT_BUDGET) -> PairSearch:
    """Exact orthogonality constant over disjoint equal-size supports.

    Maximizes the spectral norm of the cross-Gram over all unordered
    pairs of disjoint k-subsets. Restricting to full-size supports loses
    nothing because the norm is monotone under adding columns (checked
    as a tested property on small frames).

    Whole groups, the pairs that share a first member I, are settled before
    any of their pairs is enumerated: ``_group_ceilings`` bounds every value
    (lambda, before the square root) in each group, and ``_live`` settles
    groups against the best value that the kernel's screen computes for the
    pairs of the top groups. The other groups are enumerated in the same
    order, so the first maximum, its float and its witness are unchanged at
    every chunk size and worker count. ``settled`` counts the first members
    settled, of the ``rows`` that have a partner (the others are never
    enumerated); a real ETF, whose groups share one Frobenius ceiling,
    settles none.

    Inside the enumerated groups, ``_screened`` settles, without forming
    C*C, each pair whose ceiling, ||C||_F^2 or, on a real equiangular Gram,
    its Seidel sign class's squared norm, with a rounding margin, is below
    the best of its chunk's top rows.

    At a coherence above 2^256 or below 2^-256, where squared Gram entries
    can overflow or underflow, the search runs on the hollow Gram times 2^-e,
    e the coherence's binary exponent, and scales its value back, both
    exactly while no entry leaves the normal range.
    """
    n = frame.n
    if not 1 <= k <= n // 2:
        raise PreconditionError(f"need 1 <= k <= n/2 = {n // 2}, got k={k}")
    total = disjoint_pair_count(n, k)
    require_budget(total, budget, f"exact orthogonality constant at K={k}")
    coherence, g = frame.coherence, frame.gram
    scale = 0 if 2.0**-256 <= coherence <= 2.0**256 else math.frexp(coherence)[1]
    if scale:  # no pair reads the diagonal, which can overflow when scaled up
        g = g.copy()
        np.fill_diagonal(g, 0.0)
        g = np.ldexp(g.view(float), -scale).view(g.dtype)  # a complex Gram part by part
    equiangular = _equiangular(g)
    u, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal

    def solved(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        cross = _gather(g, first, second)
        ceiling = _ceiling(_squares(cross.reshape(len(cross), -1)), k)
        if equiangular is not None:
            mu, e, _, _ = equiangular
            q = mu * _sign_norms(cross, cross=True) + k * e
            lam = q * q + 2 * (k + 16) ** 2 * u * (k * mu) ** 2 + 4 * k * k * eta
            ceiling = np.minimum(ceiling, lam * (1 + 8 * u))
        return _screened(cross, ceiling, _squared_norm)

    def kernel(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        lam = solved(*pair)
        return np.sqrt(lam, out=np.full_like(lam, -1.0), where=lam >= 0.0)

    # the first members with a partner: all but the C(2k - 1, k) in the last 2k - 1 columns
    groups = math.comb(n, k) - math.comb(2 * k - 1, k)
    ceiling = _group_ceilings(g, _subset_table(n, k)[:groups])

    def best(top: np.ndarray) -> float:
        return max(solved(*pair).max() for pair in iter_disjoint_pair_chunks(n, k, top))

    live = np.flatnonzero(_live(ceiling, best))
    chunks = iter_disjoint_pair_chunks(n, k, live)
    [(value, (wi, wj), _)] = _first_max(chunks, kernel, _pair_row)
    return PairSearch(math.ldexp(value, scale), wi, wj, total, groups - len(live), groups)


def _fro_ceilings(sums: np.ndarray, indicator: np.ndarray, runs) -> tuple[np.ndarray, np.ndarray]:
    """(ceiling, margin) per row of the flat-orthogonality search: ``ceiling`` bounds
    every value the block kernel computes in the row, and two computations of one
    of its values that sum in different orders differ by at most ``margin``.

    Row r holds the subset I (|I| = a) and the computed sums c_j = ``sums[r, j]``;
    c'_j is c_j off I and 0 on I. With u the unit roundoff (eps = 2u), eta the
    smallest subnormal, gamma_m = m u / (1 - m u) and K the largest subset size:

    - The kernel's value of a pair (I, J), |J| = b, is v = fl(a^ / q), q =
      fl(sqrt(ab)) and a^ the modulus of the sum s^ that BLAS forms of the
      c_j over J (the other products are exact zeros), in any order: |s^ - s|
      <= gamma_{b-1} sum_J |c_j| for the exact sum s. A real modulus is exact;
      a complex one is taken within 2u |.| + eta.
    - Real Gram: s lies between the sums of the b smallest and of the b
      largest c'_j, so |s| <= max(top_b, -bottom_b). One sort of the row and
      two running sums give M^_b, their computed maximum, within gamma_{b-1}
      sum_j |c'_j|; fl(+) is monotone, so M^_b >= 0. Complex Gram: |s| <=
      sum_J |c_j|, and M^_b is the running sum of the b largest computed |c'_j|.
    - So a^ - M^_b <= 2 gamma_K A (real) or (2 gamma_K + 4.2u) A + (K + 2) eta
      (complex, as M^_b <= 1.01 A), A the exact sum of what ``spread`` sums.
      ``margin`` = fl(fl((2K + 4) eps spread) + (K + 3) eta) >= (4K + 8) u
      spread (1 - u)^2 + (K + 2) eta exceeds both while (n + K) u <= 1/10.
    - fl(M^_b + margin) >= a^, and rounding is monotone, so the ceiling
      max_b fl(fl(M^_b + margin) / q), dividing by the kernel's own q, is >= v.
      Two orders' moduli a^ differ by at most ``margin`` by the same bounds.
    """
    eta = np.finfo(float).smallest_subnormal
    kk = len(runs)
    outside = (np.abs(sums) if np.iscomplexobj(sums) else sums) * (1.0 - indicator)
    spread = np.abs(outside).sum(axis=1)
    margin = (2 * kk + 4) * np.finfo(float).eps * spread + (kk + 3) * eta
    ordered = np.sort(outside, axis=1)
    top = np.cumsum(ordered[:, : -kk - 1 : -1], axis=1)
    if not np.iscomplexobj(sums):
        np.maximum(top, -np.cumsum(ordered[:, :kk], axis=1), out=top)
    top += margin[:, None]
    for r0, r1, a in runs:
        top[r0:r1] /= [math.sqrt(a * b) for b in range(1, kk + 1)]
    return top.max(axis=1), margin


def fro_constant_search(frame: Frame, k: int, budget: int = DEFAULT_BUDGET) -> PairSearch:
    """Smallest flat-orthogonality constant, by enumerating all subset pairs.

    Maximizes |<sum of columns in I, sum of columns in J>| / sqrt(|I||J|)
    over disjoint nonempty subsets with sizes up to k; each unordered
    pair is evaluated once, in the row of whichever of I and J comes first.
    Subsets are sorted by size, then lexicographically; rows of ``_FRO_BLOCK``
    subsets are evaluated at once against every subset from the block's first
    one on, flattened row-major, so a block divides by sqrt(|I||J|) one
    rectangle of sizes at a time, and overlaps are found by ANDing 32-column
    bitmasks of the subsets.

    Rows are settled first by ``_fro_ceilings``, one sort per row, through
    ``_live`` with b the largest v - margin over the top rows, v a row's best
    value: b (1 - 8 eps) is below the value that pair gets in any order of
    summation, as q >= 1 and 8 eps covers the roundings of v, of the pair's
    other value and of the bar. So a settled row holds no value that reaches
    the maximum, and the first maximum, its value and its witness are found
    among the other rows, in the same order, at every block size and worker
    count.

    The kept rows of a block are evaluated without the settled ones when every
    subset has at most two columns: a sum of at most two nonzero terms rounds
    alike in any order. With three or more, BLAS sums a product's entries in
    an order that can depend on its shape, so a block that keeps any row is
    evaluated whole, as without the ceilings. ``settled`` counts the rows that
    no block evaluates.
    """
    n = frame.n
    _check_k(n, k)
    if n < 2:
        raise PreconditionError("need at least two columns")
    total = mixed_pair_count(n, k)
    require_budget(total, budget, f"flat orthogonality constant at K={k}")
    g = frame.gram
    # every subset of each size 1..min(k, n-1), sizes ascending, each size lexicographic;
    # runs[s] = (first row, end row, size)
    tables = [_subset_table(n, size) for size in range(1, min(k, n - 1) + 1)]
    ends = np.cumsum([len(table) for table in tables]).tolist()
    runs = [(end - len(table), end, table.shape[1]) for end, table in zip(ends, tables)]
    count = ends[-1]
    indicator = np.zeros((count, n))
    for (start, end, _), table in zip(runs, tables):
        indicator[np.arange(start, end)[:, None], table] = 1.0
    sums = indicator @ g  # row s holds <column sums of s against every column>
    # masks[w, s]: bits of subset s's columns 32w .. 32w + 31
    packed = np.zeros((count, -(-n // 32) * 4), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(indicator > 0.0, axis=1, bitorder="little")
    masks = packed.view("<u4").T.copy()
    starts = [r0 for r0, _, _ in runs] + [count]

    def kernel(chunk: tuple[int, np.ndarray]) -> np.ndarray:
        lo, rows = chunk  # rows ascending, none before lo
        # one row is solved twice: BLAS's matrix-vector kernel, which a one-row product
        # runs, may add three terms in another order than the matrix-matrix kernel
        vals = (sums[np.resize(rows, max(len(rows), 2))] @ indicator[lo:].T)[: len(rows)]
        vals = np.abs(vals, out=None if np.iscomplexobj(vals) else vals)
        cuts = np.searchsorted(rows, starts).tolist()
        for (_, _, a), first, last in zip(runs, cuts, cuts[1:]):
            if first < last:
                for c0, c1, b in runs:
                    if c1 > lo:
                        vals[first:last, max(c0, lo) - lo : c1 - lo] /= math.sqrt(a * b)
        # a pair is unusable if it overlaps or is not after the row's own subset
        unusable = (masks[0, rows, None] & masks[0, lo:]) != 0
        for word in masks[1:]:
            unusable |= (word[rows, None] & word[lo:]) != 0
        # offsets below count compare fastest as small integers, as in np.tri
        offsets = (rows - lo).astype(np.min_scalar_type(-count))
        span = np.arange(offsets[-1] + 1, dtype=offsets.dtype)
        unusable[:, : len(span)] |= span <= offsets[:, None]
        np.putmask(vals, unusable, -1.0)
        return vals.ravel()

    def witness(chunk: tuple[int, np.ndarray], flat: int):
        lo, rows = chunk
        i, j = divmod(flat, count - lo)
        return tuple(tuple(np.flatnonzero(indicator[r]).tolist()) for r in (rows[i], lo + j))

    ceiling, margin = _fro_ceilings(sums, indicator, runs)

    def best(top: np.ndarray) -> float:
        return (kernel((top[0], top)).reshape(len(top), -1).max(axis=1) - margin[top]).max()

    keep = _live(ceiling, best)
    chunks = []
    for lo in range(0, count, _FRO_BLOCK):
        rows = lo + np.flatnonzero(keep[lo : lo + _FRO_BLOCK])
        if len(rows) and len(runs) >= 3:  # a kept row keeps its whole block
            rows = np.arange(lo, min(lo + _FRO_BLOCK, count))
        if len(rows):
            chunks.append((lo, rows))
    settled = count - sum(len(rows) for _, rows in chunks)
    [(value, (wi, wj), _)] = _first_max(chunks, kernel, witness)
    return PairSearch(value, wi, wj, total, settled, count)


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


def _disc_sizes(frame: Frame, cap: int) -> int:
    """Largest d <= cap such that, for every size s <= d, Gershgorin discs
    prove that the SVD test of ``spark_search`` finds every s-subset independent.

    For size s let R_i be the sum of the s-1 largest off-diagonal |g_ij| of
    row i of the computed Gram G. Every s-subset S then has, by Gershgorin's
    theorem on the Hermitian G_S, all its eigenvalues in [L, U] with
    L = min_i (g_ii - R_i) and U = max_i (g_ii + R_i):

    - by the error model of ``_spark_clear_ratio``, the exact eigenvalues of
      the columns' Gram are within e_g lambda_max of those of G_S (e_g also
      covers an ``eigvalsh`` error, which is not made here). L and U bound
      those of G_S on the same side as the computed extreme eigenvalues in
      that argument, so L > rho U, rho = ``_spark_clear_ratio``, means that
      the SVD sees sigma_min > tol * sigma_max on every s-subset;
    - with u = eps, each |g_ij|, the (s-1)-term sums and g_ii -+ R_i are
      computed to within gamma_{s+3} (g_ii + R_i) <= gamma_{s+3} U, so
      L > rho U holds once the computed bounds meet
      L (1 - delta) > (rho + delta) U with delta = 4 (s+3) u, which also
      covers the roundings of that test.

    R_i and rho grow with s, so the test only gets weaker: the first size
    that fails ends the certificate, and it and every larger size are
    enumerated. ``cap`` must not exceed the row count m.
    """
    g = frame.gram
    diag = g.diagonal().real
    off = np.abs(g)
    np.fill_diagonal(off, 0.0)  # sorts last, so never displaces an off-diagonal entry
    # radii[i, s - 1] = R_i at size s
    radii = np.zeros((frame.n, cap))
    radii[:, 1:] = np.cumsum(np.sort(off, axis=1)[:, ::-1][:, : cap - 1], axis=1)
    u = np.finfo(float).eps
    for size in range(1, cap + 1):
        low = float((diag - radii[:, size - 1]).min())
        high = float((diag + radii[:, size - 1]).max())
        delta = 4 * (size + 3) * u
        rho = _spark_clear_ratio(frame, size, SPARK_TOL)
        if not low * (1.0 - delta) > (rho + delta) * high:
            return size - 1
    return cap


def spark_search(frame: Frame, cap: int, budget: int = DEFAULT_BUDGET) -> SparkResult:
    """Smallest linearly dependent column subset, searched size by size.

    A subset counts as dependent when its smallest singular value is at
    most ``SPARK_TOL`` times its largest. Sizes that ``_disc_sizes``
    certifies are counted as tested without enumeration. Above them,
    subsets whose sub-Gram eigenvalues clear the test by a margin above
    rounding error skip the SVD; only the rest are decided by it. Returns
    the exact spark if a dependent subset of size <= cap exists, otherwise
    the statement spark > cap.
    """
    n = frame.n
    if not 1 <= cap <= n:
        raise InvalidParameterError(f"need 1 <= cap <= {n}, got {cap}")
    total = sum(math.comb(n, s) for s in range(1, cap + 1))
    require_budget(total, budget, f"spark search up to size {cap}")
    mat = frame.matrix
    g = frame.gram
    discs = _disc_sizes(frame, min(cap, frame.m))
    tested = sum(math.comb(n, s) for s in range(1, discs + 1))
    for size in range(discs + 1, cap + 1):
        if size > frame.m:  # more columns than rows: the first subset is dependent
            return SparkResult(size, cap, tuple(range(size)), tested + 1, discs)
        clear = _spark_clear_ratio(frame, size, SPARK_TOL)

        def dependent(chunk: np.ndarray) -> np.ndarray:
            lam = np.linalg.eigvalsh(_gather(g, chunk, chunk))
            rows = np.flatnonzero(lam[:, 0] <= clear * lam[:, -1])
            cols = np.transpose(mat[:, chunk[rows]], (1, 0, 2))
            sv = np.linalg.svd(cols, compute_uv=False)
            hits = np.zeros(len(chunk), dtype=bool)
            hits[rows[sv[:, -1] <= SPARK_TOL * sv[:, 0]]] = True
            return hits

        [(hit, witness, position)] = _first_max(
            iter_subset_chunks(n, size), dependent, _row, stop=1.0
        )
        if hit == 1.0:
            return SparkResult(size, cap, witness, tested + position + 1, discs)
        tested += math.comb(n, size)
    return SparkResult(None, cap, None, tested, discs)


# ---------------------------------------------------------------------------
# Bound chains
# ---------------------------------------------------------------------------


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


def iterated_ro_bound(thetas, delta_1: float, k: int) -> IteratedRoBound:
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
    if len(values) != len(halving_chain(k)):
        raise ChainError(
            f"k={k} needs a chain of length {len(halving_chain(k))}, got {len(values)}"
        )
    total = 0.0
    for value in values:  # left to right: from Python 3.12 on, sum() compensates float sums
        total += value
    return IteratedRoBound(total + delta_1, len(values) * values[0] + delta_1)


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
                    if v2 > v1 + CHECK_SLACK:
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

    ``power_specs`` is an iterable of (k, qs) pairs; the qs given for one k
    are merged and estimated once each, in increasing order, in one pass
    over the k-subsets, the exact search's when that k has one. With ``bounds``
    set, the flat-to-plain and orthogonality-to-isometry chains are
    evaluated from whatever constants were computed, including the
    halving-chain bound when the orthogonality constant is requested.
    """
    power_map: dict[int, set[int]] = {}
    for k, qs in power_specs:
        power_map.setdefault(int(k), set()).update(int(q) for q in qs)
    ks = sorted(set(exact_ks) | set(roc_ks) | set(fro_ks) | set(power_map))
    d1 = delta1(frame)
    mu = frame.coherence if frame.n >= 2 else None
    welch = welch_bound(frame.m, frame.n) if frame.n >= 2 and frame.n >= frame.m else None
    # one search per orthogonality K, shared by a requested K and every halving chain
    roc_search = functools.cache(lambda kk: roc_exact_search(frame, kk, budget))

    records: list[PerKRecord] = []
    for k in ks:
        start = time.perf_counter()
        gersh = gershgorin_bound(frame, k) if gershgorin else None
        qs = sorted(power_map.get(k, ()))
        if k in exact_ks:
            ric = ric_exact_search(frame, k, budget, qs=qs)
            powers = tuple((q, search.value) for q, search in ric.powers)
        else:
            ric = None
            searches = _subset_pass(frame, k, qs, budget, exact=False) if qs else []
            powers = tuple((q, search.value) for q, search in zip(qs, searches))
        roc = roc_search(k) if k in roc_ks else None
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
                thetas = [roc_search(kk).value for kk in halving_chain(k)]
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
