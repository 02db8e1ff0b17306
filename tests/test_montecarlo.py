import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ripcert import (
    TrialConfig,
    column_sum_tail,
    run_fro_trials,
    run_power_trials,
    trial_seed,
    wilson_interval,
)
from ripcert import cli, subsets
from ripcert.cli import main
from ripcert.errors import InvalidParameterError
from ripcert.montecarlo import (
    TailRow,
    delta1_tail_bound,
    fro_failure_bound,
    observed_tail,
    sidak_z,
)


class TestConfigAndSeeding:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TrialConfig(m=8, n=12, k=13, trials=5, base_seed=0, delta=0.5)
        with pytest.raises(InvalidParameterError):
            TrialConfig(m=8, n=12, k=2, trials=0, base_seed=0, delta=0.5)
        with pytest.raises(InvalidParameterError):
            TrialConfig(m=8, n=12, k=2, trials=5, base_seed=0, delta=0.5, ensemble="uniform")
        with pytest.raises(InvalidParameterError):
            TrialConfig(m=8, n=12, k=2, trials=5, base_seed=0, delta=0.0)

    def test_trial_seeds_are_distinct_streams(self):
        cfg = TrialConfig(m=4, n=6, k=2, trials=3, base_seed=9, delta=1.0)
        a = cfg.draw(0).matrix
        b = cfg.draw(1).matrix
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
        outcome = run_fro_trials(self.cfg(delta=1e4))
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
            g = frame.gram
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
        results = [(m, run_fro_trials(replace(cfg, m=m))) for m in (8, 16, 32, 64)]
        failure_freqs = [1.0 - outcome.frequency for _, outcome in results]
        assert all(a >= b - 1e-12 for a, b in zip(failure_freqs, failure_freqs[1:]))

    def test_mean_fro_constant_shrinks_with_m(self):
        cfg = self.cfg(trials=12, n=24)
        results = [(m, run_fro_trials(replace(cfg, m=m))) for m in (8, 64)]
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
        results = [(m, run_power_trials(self.cfg(trials=15, m=m))) for m in (8, 32, 128, 512)]
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

    def test_worker_count_does_not_change_outcome(self, monkeypatch):
        monkeypatch.setenv("RIPCERT_WORKERS", "1")
        serial = run_power_trials(self.cfg(delta=0.2))
        monkeypatch.setenv("RIPCERT_WORKERS", "2")
        parallel = run_power_trials(self.cfg(delta=0.2))
        assert serial.failures  # failure witnesses are compared too
        assert serial == parallel


class TestTrialPool:
    @pytest.mark.parametrize(
        "runner, cfg",
        [
            (run_fro_trials, TrialConfig(m=8, n=12, k=2, trials=8, base_seed=5, delta=0.5)),
            (run_power_trials, TrialConfig(m=8, n=20, k=2, q=1, trials=8, base_seed=3, delta=0.5)),
        ],
    )
    def test_one_pool_per_experiment(self, monkeypatch, runner, cfg):
        pools = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(subsets, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setenv("RIPCERT_WORKERS", "2")
        runner(cfg)
        assert pools == [2]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_refused_search_inside_a_trial_exits_three(
        self, tmp_path, monkeypatch, capsys, workers
    ):
        monkeypatch.setenv("RIPCERT_WORKERS", workers)
        out = tmp_path / "fro.txt"
        argv = ["mc", "fro", "--m", "8", "--n", "60", "--k", "4", "--delta", "0.5",
                "--trials", "50", "--seed", "1", "-o", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: flat orthogonality constant at K=4 requires 104406008830 subset "
            "evaluations, exceeding the budget of 5000000\n"
        )
        assert not out.exists()


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

    def test_fixed_grid_thresholds(self):
        table = column_sum_tail(16, 3, 2, 1000, 5)
        assert [r.theta_hat for r in table.rows] == [i / 10 for i in range(11)]
        assert table.rows[5].threshold == 0.5 * math.sqrt(6)


class TestTailSymmetry:
    def test_sidak_threshold(self):
        assert sidak_z(1) == pytest.approx(3.0, abs=1e-12)
        assert sidak_z(11) == pytest.approx(3.6667, abs=1e-4)
        assert sidak_z(22) > sidak_z(11)

    @pytest.mark.parametrize("seed", [14, 37, 52, 55])
    def test_former_false_alarms_pass(self, seed):
        # each of these seeds failed the per-row 3-SE test without the covariance
        for m in (16, 64):
            assert column_sum_tail(m, 2, 2, 200_000, seed).all_symmetric

    def test_covariance_enters_the_standard_error(self):
        # near theta = 0 the two tails are strongly anticorrelated: 100,500 vs
        # 99,500 of 200,000 is z = 2.24 with Var(p+ - p-) = (p+ + p- - (p+ - p-)^2) / T,
        # but z = 3.16 if the tails are treated as independent
        row = TailRow(0.0, 0.0, 200_000, 200_000, 2.0, 100_500, 99_500, family=1)
        assert row.symmetric_ok
        assert not replace(row, pos_count=100_800, neg_count=99_200).symmetric_ok

    def test_planted_asymmetry_is_flagged(self):
        row = TailRow(0.5, 1.0, 1000, 200_000, 1.0, 600, 400, family=11)
        assert not row.symmetric_ok
        assert replace(row, pos_count=500, neg_count=500).symmetric_ok

    def test_planted_asymmetry_exits_two(self, tmp_path, monkeypatch):
        real = cli.column_sum_tail

        def planted(*args, **kwargs):
            table = real(*args, **kwargs)
            rows = list(table.rows)
            rows[5] = replace(rows[5], count=1000, pos_count=600, neg_count=400)
            return replace(table, rows=tuple(rows))

        monkeypatch.setattr(cli, "column_sum_tail", planted)
        out = tmp_path / "tail.txt"
        argv = ["mc", "tail", "--m", "16", "--k1", "2", "--k2", "2", "--trials", "200000",
                "--seed", "1", "-o", str(out)]
        assert main(argv) == 2
        text = out.read_text()
        assert "symmetric=False" in text
        assert "m=16: tail asymmetry beyond 3.67 standard errors" in text


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
