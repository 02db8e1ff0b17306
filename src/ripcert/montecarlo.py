"""Seeded Monte Carlo reproductions of the probabilistic guarantees.

Random frames tend to have small flat-orthogonality constants and small
trace-power estimates once the number of rows is large enough; these
trials measure how often the certification criteria hold at desk scale,
always under explicit seeding so every outcome is reproducible bit for
bit. Empirical tail frequencies are compared against their exponential
bounds only where those bounds are actually theorems; the comparisons
are binomial tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certification import (
    FRO_C,
    _check_k,
    _check_q,
    delta1,
    fro_constant_search,
    ric_power_search,
)
from .constructions import _SEED_MASK, Frame, _generator, bernoulli_matrix, gaussian_matrix
from .errors import InvalidParameterError

#: fraction of the isometry target budgeted to column-norm deviations
DEFAULT_ALPHA = 0.01
#: tail trials are drawn in fixed-size blocks, so memory stays bounded at any trial count
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
        _check_k(self.n, self.k)
        if self.ensemble not in ("gaussian", "bernoulli"):
            raise InvalidParameterError(f"unknown ensemble {self.ensemble!r}")
        if not 0 < self.delta < math.inf:
            raise InvalidParameterError(f"delta must be finite and positive, got {self.delta}")

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
    """Draw and measure every trial of ``cfg``, in trial order.

    ``measure(frame)`` returns the trial's value and the (reason, value,
    subsets) of each criterion the frame failed; a trial succeeds when it
    failed none. Trials run one after another on the calling thread; each
    trial's search splits its chunks over the workers. Returns the success
    count, the values and the failure witnesses.
    """
    successes = 0
    values: list[float] = []
    failures: list[FailureWitness] = []
    for t in range(cfg.trials):
        value, failed = measure(cfg.draw(t))
        values.append(value)
        if not failed:
            successes += 1
        seed = trial_seed(cfg.base_seed, t)
        failures.extend(FailureWitness(t, seed, *fail) for fail in failed)
    return successes, tuple(values), tuple(failures)


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
        search = fro_constant_search(frame, cfg.k)
        d1 = delta1(frame)
        failed = []
        if search.value > theta_thr:
            failed.append(("fro-constant", search.value, (search.witness_i, search.witness_j)))
        if d1 > d1_thr:
            col = int(np.argmax(np.abs(frame.column_norms_squared - 1.0)))
            failed.append(("delta1", d1, ((col,),)))
        return search.value, failed

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
    _check_q(cfg.q)
    # delta**2 underflows for tiny delta; an infinite threshold is unmet
    needed = 81.0 / cfg.delta / cfg.delta * cfg.k ** (1.0 + 1.0 / cfg.q) * math.log(
        math.e * cfg.n / cfg.k
    )

    def measure(frame):
        search = ric_power_search(frame, cfg.k, cfg.q)
        if search.value <= cfg.delta:
            return search.value, ()
        return search.value, (("power", search.value, (search.witness,)),)

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
    def ok(self) -> bool:
        """False when the count is too large for a tail probability at the bound.

        With p = count / trials above the bound b < 1, Chernoff's bound
        P(Bin(trials, b) >= count) <= exp(-trials KL(p || b)) is taken as the
        p-value, and the row is flagged when it is below the one-sided
        three-standard-error level erfc(3 / sqrt 2) / 2. Unlike a standard
        error, the test does not vanish at p = 0 or 1, so one trial beyond
        a threshold is not flagged at a bound above that level.
        """
        p, b = self.empirical, self.bound
        if p <= b or b >= 1.0:
            return True
        if b <= 0.0:
            return False
        kl = p * math.log(p / b)
        if p < 1.0:
            kl += (1.0 - p) * math.log((1.0 - p) / (1.0 - b))
        return math.exp(-self.trials * kl) >= math.erfc(3.0 / math.sqrt(2.0)) / 2.0

    @property
    def symmetric_ok(self) -> bool:
        """|p+ - p-| within ``sidak_z(family)`` standard errors.

        The standard error is the one under the null hypothesis p+ = p-:
        Var(p+ - p-) = (p+ + p-) / trials, so z = |c+ - c-| / sqrt(c+ + c-)
        in counts. It is never 0 where the counts differ, and z <= sqrt(trials),
        so no row of 13 or fewer trials is flagged at 11 rows.
        """
        diff = abs(self.pos_count - self.neg_count)
        return diff <= sidak_z(self.family) * math.sqrt(self.pos_count + self.neg_count) + 1e-12


@dataclass(frozen=True)
class TailTable:
    """Empirical two-sided tails of sums of Gaussian products, with bounds."""

    trials: int
    rows: tuple[TailRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def all_symmetric(self) -> bool:
        return all(r.symmetric_ok for r in self.rows)


def column_sum_tail(m: int, k1: int, k2: int, trials: int, seed: int) -> TailTable:
    """Simulate sums of m independent Gaussian products and tabulate tails.

    Each trial is the sum of X_i Y_i over m terms, X_i ~ N(0, k1/m) and
    Y_i ~ N(0, k2/m). Given x the sum is N(0, (k2/m) |x|^2), and
    |x|^2 = (k1/m) chi^2_m, so it is drawn exactly as
    sqrt(k1 k2) / m * sqrt(chi^2_m) * Z with Z ~ N(0, 1): two scalars per
    trial whatever m. For every theta_hat in 0, 0.1, ..., 1 the two-sided
    tail frequency at threshold theta_hat * sqrt(k1 k2) is compared with
    the exponential bound 2 exp(-m theta_hat^2 / 4). The bound is a
    theorem for theta_hat <= 1/2 and holds empirically well beyond.
    """
    if not all(1 <= x <= 2**53 for x in (m, k1, k2)):
        raise InvalidParameterError("need 1 <= m, k1, k2 <= 2**53, where floats are exact")
    if trials < 1:
        raise InvalidParameterError("need trials >= 1")
    thresholds = np.array([th * math.sqrt(k1 * k2) for th in _TAIL_GRID])
    pos = np.zeros(len(_TAIL_GRID), dtype=np.int64)
    neg = np.zeros(len(_TAIL_GRID), dtype=np.int64)
    rng = _generator(seed)
    scale = math.sqrt(k1 * k2) / m
    done = 0
    while done < trials:
        block = min(_TRIAL_BLOCK, trials - done)
        sums = scale * np.sqrt(rng.chisquare(m, block)) * rng.standard_normal(block)
        pos += (sums[:, None] >= thresholds[None, :]).sum(axis=0)
        neg += (sums[:, None] <= -thresholds[None, :]).sum(axis=0)
        done += block
    # s >= t and s <= -t are disjoint for t > 0, and make up |s| >= t; at t = 0 every s counts
    counts = np.where(thresholds > 0, pos + neg, trials)
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
    return TailTable(trials, rows)
