"""Constructors for every matrix family the certifier studies.

Covers pair and triple Steiner systems with their incidence matrices,
Sylvester and DFT Hadamard matrices, the block-design equiangular tight
frames assembled from them, the quadratic-residue (Paley) frames built
from partial DFT rows plus one identity column, the rotation of a
complex frame with real Gram onto real coordinates, and seeded
Gaussian/Bernoulli random frames.

Random frames draw from a counter-based Philox generator keyed by the
caller's seed, so identical seeds reproduce matrices bit for bit on any
worker layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CongruenceError,
    InvalidParameterError,
    MatrixShapeError,
    NotRealError,
    RipcertError,
)
from .linalg import DEFAULT_TOL, gram
from .modular import is_prime, quadratic_residues
from .subsets import DEFAULT_BUDGET, require_budget

_SEED_MASK = (1 << 64) - 1
#: cap on n^2 for a frame's n x n Gram; it admits the widest built-in frames
#: (steiner_triple(87) has n = 3828, paley_etf(3137) n = 3138)
_GRAM_BUDGET = 3 * DEFAULT_BUDGET


@dataclass(frozen=True)
class SteinerSystem:
    """Blocks of a (2, k, v) design: every point pair lies in exactly one block.

    Construction validates the covering property exhaustively, so any
    instance that exists is a genuine design.
    """

    v: int
    k: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(x) for x in b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if self.v < 2 or self.k < 2:
            raise InvalidParameterError("need v >= 2 and k >= 2")
        expected = self.v * (self.v - 1) // (self.k * (self.k - 1))
        if len(blocks) != expected:
            raise InvalidParameterError(
                f"(2,{self.k},{self.v}) design needs {expected} blocks, got {len(blocks)}"
            )
        seen: set[tuple[int, int]] = set()
        for b in blocks:
            if len(b) != self.k or len(set(b)) != self.k:
                raise InvalidParameterError(f"block {b} is not a {self.k}-subset")
            if b[0] < 0 or b[-1] >= self.v:
                raise InvalidParameterError(f"block {b} out of range for v={self.v}")
            for i in range(self.k):
                for j in range(i + 1, self.k):
                    pair = (b[i], b[j])
                    if pair in seen:
                        raise InvalidParameterError(f"pair {pair} covered twice")
                    seen.add(pair)
        if len(seen) != self.v * (self.v - 1) // 2:
            raise InvalidParameterError("not every pair is covered by a block")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def replication(self) -> int:
        """Number of blocks through each point, (v-1)/(k-1)."""
        return (self.v - 1) // (self.k - 1)


@dataclass(frozen=True)
class Frame:
    """A dense matrix read as a dictionary of column vectors.

    ``matrix`` is stored as a read-only complex128 copy of the given array,
    which must be nonempty, 2-D and finite, with no zero column. The frame
    carries a provenance label and caches the Gram matrix and coherence,
    which almost every certification formula consumes.
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.matrix)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise MatrixShapeError(f"expected a nonempty 2-D array, got shape {arr.shape}")
        arr = np.array(arr, dtype=np.complex128, order="C")
        if not np.isfinite(arr).all():
            raise InvalidParameterError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        norms = np.linalg.norm(arr, axis=0)
        if not np.all(np.isfinite(norms)) or float(norms.min()) <= 0.0:
            raise InvalidParameterError("every frame column must have finite positive norm")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def is_real(self) -> bool:
        """Whether every entry's imaginary part is within ``DEFAULT_TOL`` of zero."""
        return float(np.abs(self.matrix.imag).max()) <= DEFAULT_TOL

    @cached_property
    def gram(self) -> np.ndarray:
        """Read-only Gram matrix Phi* Phi, refused above ``_GRAM_BUDGET`` entries: float64
        when every |Im g_ij| <= ``DEFAULT_TOL`` sqrt(g_ii g_jj), else complex128."""
        n = self.n
        require_budget(n * n, _GRAM_BUDGET, f"the {n}x{n} gram matrix", "Gram entries")
        g = gram(self.matrix)
        if not np.isfinite(g).all():  # finite entries can still overflow
            raise InvalidParameterError("matrix entries must be finite")
        norms = np.sqrt(g.diagonal().real)
        if (np.abs(g.imag) <= DEFAULT_TOL * np.outer(norms, norms)).all():
            g = np.array(g.real)
            g.setflags(write=False)
        return g

    @property
    def gram_dropped_tol(self) -> float:
        """r with every |Im g_ij| that ``gram`` dropped <= r sqrt(g_ii g_jj); 0 if complex."""
        return 0.0 if np.iscomplexobj(self.gram) else DEFAULT_TOL

    @cached_property
    def column_norms_squared(self) -> np.ndarray:
        return np.abs(np.diagonal(self.gram).real)

    @cached_property
    def coherence(self) -> float:
        """Largest off-diagonal Gram magnitude (needs at least two columns)."""
        if self.n < 2:
            raise InvalidParameterError("coherence is undefined for fewer than 2 columns")
        offdiag = np.abs(self.gram)
        np.fill_diagonal(offdiag, 0.0)
        return float(offdiag.max())


def negate_columns(frame: Frame, indices) -> Frame:
    """Flip the sign of the selected columns (a flipping-equivalent frame)."""
    idx = sorted({int(i) for i in indices})
    for i in idx:
        if not 0 <= i < frame.n:
            raise InvalidParameterError(f"column {i} out of range")
    data = np.array(frame.matrix)
    data[:, idx] *= -1.0
    return Frame(data, label=frame.label)


# ---------------------------------------------------------------------------
# Steiner systems
# ---------------------------------------------------------------------------


def _require_incidence_budget(v: int, k: int) -> None:
    """Refuse a (2, k, v) design whose b x v incidence matrix exceeds the budget."""
    b = v * (v - 1) // (k * (k - 1))
    require_budget(
        b * v, DEFAULT_BUDGET, f"the incidence matrix of a (2,{k},{v}) design", "matrix entries"
    )


def all_pairs_steiner(v: int) -> SteinerSystem:
    """The (2, 2, v) design whose blocks are all pairs, in lexicographic order."""
    if v < 2:
        raise InvalidParameterError(f"need v >= 2, got {v}")
    _require_incidence_budget(v, 2)
    blocks = tuple((i, j) for i in range(v) for j in range(i + 1, v))
    return SteinerSystem(v, 2, blocks)


def _idempotent_quasigroup(n: int):
    # commutative idempotent quasigroup on Z_n for odd n
    half = (n + 1) // 2

    def op(i, j):
        return ((i + j) * half) % n

    return op


def _half_idempotent_quasigroup(n: int):
    # commutative quasigroup on Z_n (n even) with i*i == i for i < n // 2
    t = n // 2

    def op(i, j):
        s = (i + j) % n
        return s // 2 if s % 2 == 0 else t + (s - 1) // 2

    return op


def steiner_triple(v: int) -> SteinerSystem:
    """A (2, 3, v) triple system for v = 3 or 1 mod 6 (Bose / Skolem builds)."""
    if v < 7 or v % 6 not in (1, 3):
        raise CongruenceError(
            f"triple systems exist only for v = 1 or 3 (mod 6) with v >= 7, got v={v}"
        )
    _require_incidence_budget(v, 3)
    blocks: list[tuple[int, int, int]] = []
    if v % 6 == 3:
        n = v // 3
        op = _idempotent_quasigroup(n)

        def pt(i, j):
            return i + n * j

        for i in range(n):
            blocks.append((pt(i, 0), pt(i, 1), pt(i, 2)))
        for i in range(n):
            for k in range(i + 1, n):
                for j in range(3):
                    blocks.append((pt(i, j), pt(k, j), pt(op(i, k), (j + 1) % 3)))
    else:
        t = v // 6
        n = 2 * t
        op = _half_idempotent_quasigroup(n)
        inf = 3 * n

        def pt(i, j):
            return i + n * j

        for i in range(t):
            blocks.append((pt(i, 0), pt(i, 1), pt(i, 2)))
        for i in range(t):
            for j in range(3):
                blocks.append((inf, pt(t + i, j), pt(i, (j + 1) % 3)))
        for i in range(n):
            for k in range(i + 1, n):
                for j in range(3):
                    blocks.append((pt(i, j), pt(k, j), pt(op(i, k), (j + 1) % 3)))
    canon = sorted(tuple(sorted(b)) for b in blocks)
    return SteinerSystem(v, 3, tuple(canon))


def incidence_matrix(system: SteinerSystem) -> np.ndarray:
    """0/1 block-by-point incidence matrix of a design."""
    a = np.zeros((system.num_blocks, system.v))
    for i, b in enumerate(system.blocks):
        for j in b:
            a[i, j] = 1.0
    return a


# ---------------------------------------------------------------------------
# Hadamard matrices
# ---------------------------------------------------------------------------


def hadamard(n: int, kind: str = "sylvester") -> np.ndarray:
    """Unit-modulus matrix with pairwise orthogonal rows (H*H = nI).

    ``sylvester`` gives the +/-1 doubling construction (n a power of 2),
    ``dft`` the discrete Fourier matrix exp(-2*pi*i*j*k/n) for any n.
    The first row is all ones in both kinds.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if kind == "sylvester":
        if n & (n - 1):
            raise InvalidParameterError(f"sylvester requires n a power of 2, got {n}")
        h = np.ones((1, 1))
        block = np.array([[1.0, 1.0], [1.0, -1.0]])
        while h.shape[0] < n:
            h = np.kron(block, h)
        return h
    if kind == "dft":
        jk = np.outer(np.arange(n), np.arange(n))
        return np.exp(-2j * np.pi * jk / n)
    raise InvalidParameterError(f"unknown hadamard kind {kind!r}")


# ---------------------------------------------------------------------------
# Equiangular tight frames
# ---------------------------------------------------------------------------


def steiner_etf(system: SteinerSystem, h: np.ndarray) -> Frame:
    """Equiangular tight frame assembled from a design and a Hadamard matrix.

    Each point contributes one block of 1 + (v-1)/(k-1) columns: the rows
    of its incidence column holding a one receive, in increasing row
    order, rows 2, 3, ... of the Hadamard matrix (the all-ones first row
    is never used), and everything is scaled by ((k-1)/(v-1))^(1/2).
    """
    r = system.replication
    size = r + 1
    if h.shape != (size, size):
        raise MatrixShapeError(f"hadamard must be {size}x{size} for this design, got {h.shape}")
    b = system.num_blocks
    cols = system.v * size
    require_budget(b * cols, DEFAULT_BUDGET, f"a {b}x{cols} steiner frame", "matrix entries")
    out = np.zeros((b, cols), dtype=np.complex128)
    a = incidence_matrix(system)
    for j in range(system.v):
        rows = np.flatnonzero(a[:, j] > 0.5)
        for pos, row in enumerate(rows):
            out[row, j * size : (j + 1) * size] = h[pos + 1]
    out *= math.sqrt((system.k - 1) / (system.v - 1))
    return Frame(out, label=f"steiner-etf v={system.v} k={system.k}")


def paley_etf(p: int, require_1mod4: bool = True) -> Frame:
    """Quadratic-residue frame: residue-indexed DFT rows plus one identity column.

    Produces an M x 2M frame with M = (p+1)/2. Rows are indexed by the
    quadratic residues mod p (zero included, increasing order); the
    zero-residue row is scaled by p^(-1/2) and the others by (2/p)^(1/2).
    With p = 1 (mod 4) the Gram matrix is real, which the graph
    correspondence requires; pass ``require_1mod4=False`` to allow the
    complex-Gram frames of p = 3 (mod 4). Like ``paley_graph``, orders
    whose dense matrix exceeds the default budget are refused before any
    primality test.
    """
    m = (p + 1) // 2
    require_budget(m * (p + 1), DEFAULT_BUDGET, f"a paley frame of order {p}", "matrix entries")
    if not is_prime(p) or p == 2:
        raise InvalidParameterError(f"p={p} is not an odd prime")
    if require_1mod4 and p % 4 != 1:
        raise CongruenceError(f"p={p} is not 1 (mod 4); pass require_1mod4=False to override")
    qs = np.array(quadratic_residues(p))
    h = np.exp(-2j * np.pi * np.outer(qs, np.arange(p)) / p)
    d = np.full(m, math.sqrt(2.0 / p))
    d[0] = math.sqrt(1.0 / p)  # residue list starts at zero
    phi = np.zeros((m, p + 1), dtype=np.complex128)
    phi[:, :p] = d[:, None] * h
    phi[0, p] = 1.0
    return Frame(phi, label=f"paley-etf p={p}")


def realify(frame: Frame) -> Frame:
    """Rotate a frame with real Gram onto real coordinates.

    When Phi*Phi is real, the stacked real matrix [Re Phi; Im Phi] has the
    same Gram. With its SVD U S V^T, the rows of S V^T above 1e-9 of the
    largest singular value form a real frame with that Gram, one row per
    Gram rank; the Gram's norm is s[0]^2.
    """
    if np.iscomplexobj(frame.gram):
        imag = float(np.abs(frame.gram.imag).max())
        raise NotRealError(f"gram matrix has imaginary part {imag:.3e} > tol; cannot realify")
    phi = frame.matrix
    _, s, vt = np.linalg.svd(np.vstack([phi.real, phi.imag]), full_matrices=False)
    keep = s > 1e-9 * s[0]
    psi = s[keep, None] * vt[keep]
    resid = float(np.linalg.norm(psi.T @ psi - frame.gram, 2))
    if resid > 10.0 * DEFAULT_TOL * max(float(s[0]) ** 2, 1.0):
        raise RipcertError(f"realified gram deviates by {resid:.3e}")
    return Frame(psi, label=f"{frame.label} realified".strip())


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _SEED_MASK))


def gaussian_matrix(m: int, n: int, seed: int) -> Frame:
    """i.i.d. Gaussian entries of mean zero and variance 1/m, seeded."""
    if m < 1 or n < 1:
        raise InvalidParameterError("need m, n >= 1")
    require_budget(m * n, DEFAULT_BUDGET, f"a {m}x{n} gaussian frame", "matrix entries")
    rng = _generator(seed)
    entries = rng.normal(0.0, 1.0 / math.sqrt(m), size=(m, n))
    return Frame(entries, label=f"gaussian m={m} n={n} seed={seed}")


def bernoulli_matrix(m: int, n: int, seed: int) -> Frame:
    """i.i.d. entries +/- 1/sqrt(m) with equal probability, seeded."""
    if m < 1 or n < 1:
        raise InvalidParameterError("need m, n >= 1")
    require_budget(m * n, DEFAULT_BUDGET, f"a {m}x{n} bernoulli frame", "matrix entries")
    rng = _generator(seed)
    signs = rng.integers(0, 2, size=(m, n)) * 2 - 1
    return Frame(signs / math.sqrt(m), label=f"bernoulli m={m} n={n} seed={seed}")
