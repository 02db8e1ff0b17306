import math

import numpy as np
import pytest

from ripcert import (
    TrialConfig,
    column_sum_tail,
    run_fro_trials,
    run_power_trials,
    sweep_m,
    trial_seed,
    wilson_interval,
)
from ripcert.errors import InvalidParameterError
from ripcert.montecarlo import delta1_tail_bound, fro_failure_bound, observed_tail


class TestConfigAndSeeding:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TrialConfig(m=8, n=12, k=13, trials=5, base_seed=0)
        with pytest.raises(InvalidParameterError):
            TrialConfig(m=8, n=12, k=2, trials=0, base_seed=0)
        with pytest.raises(InvalidParameterError):
            TrialConfig(m=8, n=12, k=2, trials=5, base_seed=0, ensemble="uniform")

    def test_trial_seeds_are_distinct_streams(self):
        cfg = TrialConfig(m=4, n=6, k=2, trials=3, base_seed=9, delta=1.0)
        a = cfg.draw(0).matrix.data
        b = cfg.draw(1).matrix.data
        assert not np.array_equal(a, b)
        assert trial_seed(9, 1) == 10

    def test_wilson_interval_brackets_frequency(self):
        lo, hi = wilson_interval(7, 10)
        assert 0.0 <= lo <= 0.7 <= hi <= 1.0


class TestFroTrials:
    def cfg(self, **kw):
        base = dict(m=8, n=12, k=2, trials=8, base_seed=5, delta=0.5)
        base.update(kw)
        return TrialConfig(**base)

    def test_generous_threshold_always_succeeds(self):
        outcome = run_fro_trials(self.cfg(delta=None, theta_hat=10.0))
        assert outcome.successes == outcome.trials
        assert outcome.frequency == 1.0

    def test_deterministic(self):
        a = run_fro_trials(self.cfg())
        b = run_fro_trials(self.cfg())
        assert a == b

    def test_worker_count_does_not_change_outcome(self, monkeypatch):
        monkeypatch.setenv("RIPCERT_WORKERS", "1")
        serial = run_fro_trials(self.cfg())
        monkeypatch.setenv("RIPCERT_WORKERS", "4")
        parallel = run_fro_trials(self.cfg())
        assert serial == parallel

    def test_k1_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_fro_trials(self.cfg(k=1))

    def test_failure_witness_reproduces_value(self):
        cfg = self.cfg(trials=4)
        outcome = run_fro_trials(cfg)
        assert outcome.failures  # the theorem threshold is tiny at this scale
        for witness in outcome.failures:
            frame = cfg.draw(witness.trial)
            g = frame.gram_array
            if witness.reason == "fro-constant":
                wi, wj = witness.subsets
                value = abs(sum(g[i, j] for i in wi for j in wj)) / math.sqrt(
                    len(wi) * len(wj)
                )
            else:
                (col,) = witness.subsets[0]
                value = abs(frame.column_norms_squared[col] - 1.0)
            assert math.isclose(value, witness.value, rel_tol=1e-12)

    def test_failure_frequency_non_increasing_in_m(self):
        cfg = self.cfg(trials=12, n=24)
        results = sweep_m(cfg, (8, 16, 32, 64), run_fro_trials)
        failure_freqs = [1.0 - outcome.frequency for _, outcome in results]
        assert all(a >= b - 1e-12 for a, b in zip(failure_freqs, failure_freqs[1:]))

    def test_mean_fro_constant_shrinks_with_m(self):
        cfg = self.cfg(trials=12, n=24)
        results = sweep_m(cfg, (8, 64), run_fro_trials)
        means = [sum(o.values) / len(o.values) for _, o in results]
        assert means[1] < means[0]

    def test_observed_tail_within_union_bound_where_it_applies(self):
        cfg = self.cfg(trials=30, n=10, m=24)
        outcome = run_fro_trials(cfg)
        for theta in (0.3, 0.4, 0.5):
            emp = observed_tail(outcome.values, theta)
            bound = fro_failure_bound(cfg.m, cfg.n, cfg.k, theta)
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / cfg.trials)
            assert emp <= bound + 3 * se


class TestPowerTrials:
    def cfg(self, **kw):
        base = dict(m=8, n=20, k=2, q=1, trials=10, base_seed=3, delta=0.5)
        base.update(kw)
        return TrialConfig(**base)

    def test_k1_always_succeeds_for_bernoulli(self):
        outcome = run_power_trials(self.cfg(k=1, ensemble="bernoulli", delta=1e-6))
        assert outcome.frequency == 1.0

    def test_success_frequency_non_decreasing_in_m(self):
        results = sweep_m(self.cfg(trials=15), (8, 32, 128, 512), run_power_trials)
        freqs = [outcome.frequency for _, outcome in results]
        assert all(b >= a - 1e-12 for a, b in zip(freqs, freqs[1:]))
        assert freqs[-1] > freqs[0]  # the sweep actually moves

    def test_measurement_bound_flag(self):
        cfg = self.cfg(m=10_000)
        needed = 81 / 0.5**2 * 2 ** (1 + 1 / 1) * math.log(math.e * 20 / 2)
        assert run_power_trials(cfg).meets_measurement_bound == (10_000 >= needed)
        assert run_power_trials(self.cfg(m=8)).meets_measurement_bound is False

    def test_failure_witness_reproduces_value(self):
        from ripcert.certification import ric_power_search

        cfg = self.cfg(trials=6, m=8, delta=0.2)
        outcome = run_power_trials(cfg)
        assert outcome.failures
        witness = outcome.failures[0]
        frame = cfg.draw(witness.trial)
        assert math.isclose(
            ric_power_search(frame, cfg.k, cfg.q).value, witness.value, rel_tol=1e-12
        )

    def test_deterministic(self):
        assert run_power_trials(self.cfg()) == run_power_trials(self.cfg())


class TestColumnSumTail:
    def test_theta_zero_has_full_mass(self):
        table = column_sum_tail(16, 2, 2, 2000, 7)
        assert table.rows[0].theta_hat == 0.0
        assert table.rows[0].empirical == 1.0

    def test_bounds_and_symmetry_hold(self):
        for m in (16, 64):
            table = column_sum_tail(m, 2, 2, 20_000, 11)
            assert table.all_ok
            assert table.all_symmetric

    def test_far_tail_is_empty(self):
        table = column_sum_tail(64, 2, 2, 20_000, 3)
        assert table.rows[-1].theta_hat == 1.0
        assert table.rows[-1].count == 0

    def test_deterministic(self):
        a = column_sum_tail(16, 2, 2, 5000, 1)
        b = column_sum_tail(16, 2, 2, 5000, 1)
        assert a == b

    def test_custom_grid(self):
        table = column_sum_tail(16, 3, 2, 1000, 5, grid=(0.25, 0.5))
        assert [r.theta_hat for r in table.rows] == [0.25, 0.5]
        assert table.rows[0].threshold == 0.25 * math.sqrt(6)


class TestTailBounds:
    def test_delta1_bound_regime(self):
        with pytest.raises(InvalidParameterError):
            delta1_tail_bound(16, 10, 5.0)
        assert delta1_tail_bound(64, 24, 1.0) == 2 * 24 * math.exp(-4.0)

    def test_delta1_observed_within_bound(self):
        # empirical column-norm deviations against the chi-square union bound
        cfg = TrialConfig(m=64, n=24, k=2, trials=40, base_seed=17, delta=0.5)
        outcome = run_fro_trials(cfg)
        for d in (0.5, 0.75, 1.0):
            emp = observed_tail(outcome.delta1_values, d)
            bound = delta1_tail_bound(cfg.m, cfg.n, d)
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / cfg.trials)
            assert emp <= bound + 3 * se
