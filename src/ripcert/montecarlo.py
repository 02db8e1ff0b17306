"""Seeded Monte Carlo reproductions of the probabilistic guarantees.

Random frames tend to have small flat-orthogonality constants and small
trace-power estimates once the number of rows is large enough; these
trials measure how often the certification criteria hold at desk scale,
always under explicit seeding so every outcome is reproducible bit for
bit. Empirical tail frequencies are compared against their exponential
bounds only where those bounds are actually theorems; the comparisons
carry binomial standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certification import (
    FRO_C,
    delta1_witness,
    fro_constant_search,
    ric_power_search,
)
from .constructions import _SEED_MASK, Frame, _generator, bernoulli_matrix, gaussian_matrix
from .errors import InvalidParameterError
from .subsets import DEFAULT_BUDGET, ordered_map, require_budget, worker_count

#: fraction of the isometry target budgeted to column-norm deviations
DEFAULT_ALPHA = 0.01
#: trials are simulated in fixed-size blocks so results never depend on workers
_TRIAL_BLOCK = 20_000
#: theta_hat values of the column-sum tail table
_TAIL_GRID = tuple(i / 10 for i in range(11))


def trial_seed(base_seed: int, trial: int) -> int:
    """Split a base seed into one independent stream key per trial."""
    return (int(base_seed) + int(trial)) & _SEED_MASK


@dataclass(frozen=True)
class TrialConfig:
    """Shape, target and seeding of one ensemble experiment."""

    m: int
    n: int
    k: int
    trials: int
    base_seed: int
    delta: float
    ensemble: str = "gaussian"
    q: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameterError("need trials >= 1")
        if not 1 <= self.k <= self.n:
            raise InvalidParameterError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.ensemble not in ("gaussian", "bernoulli"):
            raise InvalidParameterError(f"unknown ensemble {self.ensemble!r}")
        if self.delta <= 0:
            raise InvalidParameterError("delta must be positive")

    def draw(self, trial: int) -> Frame:
        seed = trial_seed(self.base_seed, trial)
        if self.ensemble == "gaussian":
            return gaussian_matrix(self.m, self.n, seed)
        return bernoulli_matrix(self.m, self.n, seed)


@dataclass(frozen=True)
class FailureWitness:
    """Enough information to regenerate and re-check one failed trial."""

    trial: int
    seed: int
    reason: str
    value: float
    subsets: tuple[tuple[int, ...], ...]


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidParameterError("need trials >= 1")
    z = 1.959963984540054  # two-sided 95% normal quantile
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class TrialOutcome:
    """Aggregate of one experiment: frequency, interval and failure witnesses."""

    trials: int
    successes: int
    values: tuple[float, ...]
    delta1_values: tuple[float, ...]
    failures: tuple[FailureWitness, ...]
    thresholds: tuple[tuple[str, float], ...]
    meets_measurement_bound: bool | None = None

    @property
    def frequency(self) -> float:
        return self.successes / self.trials

    @property
    def confidence_interval(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)


def _run_trials(cfg: TrialConfig, measure):
    """Draw and measure every trial of ``cfg``, in parallel, reduced in order.

    ``measure(frame)`` returns the trial's value, its delta1 (or None) and
    the (reason, value, subsets) of each criterion the frame failed; a
    trial succeeds when it failed none. Trials run on one pool of
    ``worker_count()`` threads and are consumed in trial order, so the
    outcome does not depend on the worker count. Returns the success
    count, the values, the delta1 values and the failure witnesses.
    """
    successes = 0
    values: list[float] = []
    d1_values: list[float] = []
    failures: list[FailureWitness] = []
    results = ordered_map(lambda t: measure(cfg.draw(t)), range(cfg.trials), worker_count())
    for t, (value, d1, failed) in enumerate(results):
        values.append(value)
        if d1 is not None:
            d1_values.append(d1)
        if not failed:
            successes += 1
        seed = trial_seed(cfg.base_seed, t)
        failures.extend(FailureWitness(t, seed, *fail) for fail in failed)
    return successes, tuple(values), tuple(d1_values), tuple(failures)


def run_fro_trials(cfg: TrialConfig) -> TrialOutcome:
    """Frequency with which seeded frames meet the flat-orthogonality criterion.

    Success at target delta means the flat constant is at most
    (1-alpha) * delta / (2 * 75 * ln k) and the column-norm deviation is
    at most alpha * delta, with alpha = ``DEFAULT_ALPHA``.
    """
    if cfg.k < 2:
        raise InvalidParameterError("flat-orthogonality trials need k >= 2")
    theta_thr = (1.0 - DEFAULT_ALPHA) * cfg.delta / (2.0 * FRO_C * math.log(cfg.k))
    d1_thr = DEFAULT_ALPHA * cfg.delta

    def measure(frame):
        search = fro_constant_search(frame, cfg.k, workers=1)
        d1, d1_col = delta1_witness(frame)
        failed = []
        if search.value > theta_thr:
            failed.append(("fro-constant", search.value, (search.witness_i, search.witness_j)))
        if d1 > d1_thr:
            failed.append(("delta1", d1, ((d1_col,),)))
        return search.value, d1, failed

    return TrialOutcome(
        cfg.trials,
        *_run_trials(cfg, measure),
        (("theta_hat", theta_thr), ("delta1", d1_thr)),
    )


def run_power_trials(cfg: TrialConfig) -> TrialOutcome:
    """Frequency with which the trace power estimate stays at or below delta.

    The outcome also records whether the configuration meets the
    measurement-count threshold m >= (81/delta^2) k^(1+1/q) ln(e n / k)
    under which high-probability success is guaranteed.
    """
    if cfg.q is None or cfg.q < 1:
        raise InvalidParameterError("power trials need q >= 1")

    def measure(frame):
        search = ric_power_search(frame, cfg.k, cfg.q, workers=1)
        if search.value <= cfg.delta:
            return search.value, None, ()
        return search.value, None, (("power", search.value, (search.witness,)),)

    needed = 81.0 / cfg.delta**2 * cfg.k ** (1.0 + 1.0 / cfg.q) * math.log(
        math.e * cfg.n / cfg.k
    )
    return TrialOutcome(
        cfg.trials,
        *_run_trials(cfg, measure),
        (("delta", cfg.delta),),
        meets_measurement_bound=bool(cfg.m >= needed),
    )


# ---------------------------------------------------------------------------
# Column-sum tail simulation
# ---------------------------------------------------------------------------


def sidak_z(tests: int) -> float:
    """Two-sided z at which ``tests`` tests together false-alarm at the rate
    alpha = erfc(3 / sqrt 2) = 0.27% of one test at three standard errors.

    Each test runs at 1 - (1 - alpha)^(1/tests). For two-sided tests of
    jointly normal statistics this holds whatever their correlation
    (Sidak's inequality). The z is found by bisecting the decreasing
    erfc(z / sqrt 2), which spares every CLI run importing ``statistics``.
    """
    alpha = math.erfc(3.0 / math.sqrt(2.0))
    per_test = -math.expm1(math.log1p(-alpha) / tests)
    lo, hi = 0.0, 40.0
    for _ in range(64):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if math.erfc(mid / math.sqrt(2.0)) > per_test else (lo, mid)
    return hi


@dataclass(frozen=True)
class TailRow:
    """One grid point of the column-sum tail table.

    ``family`` is the number of rows whose symmetry is tested together.
    """

    theta_hat: float
    threshold: float
    count: int
    trials: int
    bound: float
    pos_count: int
    neg_count: int
    family: int = 1

    @property
    def empirical(self) -> float:
        return self.count / self.trials

    @property
    def stderr(self) -> float:
        p = self.empirical
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def ok(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.stderr

    @property
    def symmetric_ok(self) -> bool:
        """|p+ - p-| within ``sidak_z(family)`` standard errors.

        The two tail counts of one multinomial sample are negatively
        correlated: Var(p+ - p-) = (p+ + p- - (p+ - p-)^2) / trials.
        """
        p_pos = self.pos_count / self.trials
        p_neg = self.neg_count / self.trials
        diff = p_pos - p_neg
        se = math.sqrt((p_pos + p_neg - diff * diff) / self.trials)
        return abs(diff) <= sidak_z(self.family) * se + 1e-12


@dataclass(frozen=True)
class TailTable:
    """Empirical two-sided tails of sums of Gaussian products, with bounds."""

    m: int
    k1: int
    k2: int
    trials: int
    seed: int
    rows: tuple[TailRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def all_symmetric(self) -> bool:
        return all(r.symmetric_ok for r in self.rows)


def column_sum_tail(m: int, k1: int, k2: int, trials: int, seed: int) -> TailTable:
    """Simulate sums of m independent Gaussian products and tabulate tails.

    Each trial draws X_i ~ N(0, k1/m) and Y_i ~ N(0, k2/m) and sums the
    products. For every theta_hat in 0, 0.1, ..., 1 the two-sided tail
    frequency at threshold theta_hat * sqrt(k1 k2) is compared with the
    exponential bound 2 exp(-m theta_hat^2 / 4). The bound is a theorem
    for theta_hat <= 1/2 and holds empirically well beyond. A block of
    ``min(trials, _TRIAL_BLOCK)`` x m draws is refused above
    ``DEFAULT_BUDGET`` entries before the first draw.
    """
    if m < 1 or k1 < 1 or k2 < 1:
        raise InvalidParameterError("need m, k1, k2 >= 1")
    if trials < 1:
        raise InvalidParameterError("need trials >= 1")
    block = min(trials, _TRIAL_BLOCK)
    require_budget(block * m, DEFAULT_BUDGET, f"a {block}x{m} tail block", "matrix entries")
    thresholds = np.array([th * math.sqrt(k1 * k2) for th in _TAIL_GRID])
    counts = np.zeros(len(_TAIL_GRID), dtype=np.int64)
    pos = np.zeros(len(_TAIL_GRID), dtype=np.int64)
    neg = np.zeros(len(_TAIL_GRID), dtype=np.int64)
    rng = _generator(seed)
    done = 0
    while done < trials:
        block = min(_TRIAL_BLOCK, trials - done)
        x = rng.normal(0.0, math.sqrt(k1 / m), size=(block, m))
        y = rng.normal(0.0, math.sqrt(k2 / m), size=(block, m))
        sums = np.einsum("ij,ij->i", x, y)
        # free this block before drawing the next, so two blocks are never alive
        del x, y
        counts += (np.abs(sums)[:, None] >= thresholds[None, :]).sum(axis=0)
        pos += (sums[:, None] >= thresholds[None, :]).sum(axis=0)
        neg += (sums[:, None] <= -thresholds[None, :]).sum(axis=0)
        done += block
    rows = tuple(
        TailRow(
            theta_hat=float(th),
            threshold=float(thresholds[i]),
            count=int(counts[i]),
            trials=trials,
            bound=2.0 * math.exp(-m * float(th) ** 2 / 4.0),
            pos_count=int(pos[i]),
            neg_count=int(neg[i]),
            family=len(_TAIL_GRID),
        )
        for i, th in enumerate(_TAIL_GRID)
    )
    return TailTable(m, k1, k2, trials, seed, rows)


# ---------------------------------------------------------------------------
# Tail bounds in their provable regimes
# ---------------------------------------------------------------------------


def fro_failure_bound(m: int, n: int, k: int, theta_hat: float) -> float:
    """Union bound 2 exp(-m theta_hat^2/4) n^(2k) on missing flat orthogonality.

    Valid as a theorem for Gaussian frames when theta_hat <= 1/2.
    """
    return 2.0 * math.exp(-m * theta_hat**2 / 4.0 + 2 * k * math.log(n))


def delta1_tail_bound(m: int, n: int, d: float) -> float:
    """Union bound 2 n exp(-m d^2 / 16) on the column-norm deviation tail.

    Follows from the chi-square concentration of squared column norms
    for d <= 4; the looser linear-exponent form printed alongside it is
    not a theorem at small d and is deliberately not used here.
    """
    if not 0 < d <= 4:
        raise InvalidParameterError("the bound applies for 0 < d <= 4")
    return 2.0 * n * math.exp(-m * d * d / 16.0)


def observed_tail(values, threshold: float) -> float:
    """Fraction of recorded values strictly above a threshold."""
    vals = list(values)
    if not vals:
        raise InvalidParameterError("no values recorded")
    return sum(1 for v in vals if v > threshold) / len(vals)
