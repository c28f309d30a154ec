import math

import numpy as np
import pytest

from gitest import simulate
from gitest.rng import derive_seed, splitmix64_mix
from gitest.simulate import (
    SETTING_IDS,
    SettingSpec,
    component_power,
    default_dimensions,
    estimate_power,
    generate,
    k_sweep,
    lognormal,
    power_csv,
    power_json,
    t10,
    tidy_csv,
    tidy_row,
)


class TestSeedDerivation:
    def test_mixer_is_bit_stable(self):
        # frozen values pin the documented splitmix64 construction
        assert splitmix64_mix(0) == 16294208416658607535
        assert derive_seed(0, 0) == splitmix64_mix(0x9E3779B97F4A7C15)

    def test_substreams_differ(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)


class TestSettingSpec:
    def test_unknown_id_lists_valid(self):
        with pytest.raises(ValueError, match="s5_1"):
            SettingSpec(id="nope", n=10, p=2)

    def test_all_ids_generate(self):
        for sid in SETTING_IDS:
            n, p = default_dimensions(sid)
            n, p = min(n, 20), min(p, 6)
            if sid.startswith("tune"):
                spec = SettingSpec(id=sid, n=n, p=p, seed=1, overrides={"b": 0.5})
            else:
                spec = SettingSpec(id=sid, n=n, p=p, seed=1)
            sample = generate(spec)
            assert sample.x.shape == (n, p)
            assert sample.y.shape == (n, p)
            assert np.all(np.isfinite(sample.x))
            assert np.all(np.isfinite(sample.y))

    def test_tune_refuses_off_table_n(self):
        # refused when the spec is built, so a grid fails before any cell runs
        with pytest.raises(ValueError, match="n=73"):
            SettingSpec(id="tune_i", n=73, p=4)
        generate(SettingSpec(id="tune_i", n=73, p=4, overrides={"b": 1.0}))


# every override key each recipe reads
OVERRIDE_KEYS = {
    "motivating": ["b"],
    "tune_i": ["a", "b"], "tune_ii": ["a", "b"], "tune_iii": ["a", "b"],
    "s1_1": ["noise_sd"], "s1_2": ["noise_scale"], "s1_3": ["noise_log_mean"],
    "s2_1": ["noise_sd"], "s2_2": ["noise_scale"], "s2_3": ["noise_scale"],
    "s3_1": ["noise_sd"], "s3_2": ["noise_scale"], "s3_3": ["noise_log_sd"],
    "s4_1": ["noise_sd"], "s4_2": ["noise_scale"], "s4_3": ["noise_log_sd"],
    "s5_1": [], "s5_2": [], "s5_3": [],
}


@pytest.mark.parametrize("sid", SETTING_IDS)
def test_overrides_are_read_or_refused(sid):
    n = 50 if sid.startswith("tune") else 12
    base = generate(SettingSpec(id=sid, n=n, p=3, seed=1))
    for key in OVERRIDE_KEYS[sid]:  # each key is accepted and changes the sample
        other = generate(SettingSpec(id=sid, n=n, p=3, seed=1, overrides={key: 0.7}))
        assert not np.array_equal(other.y, base.y), key
    # with every key the recipe reads, the error names the misspelled one alone
    every = dict.fromkeys(OVERRIDE_KEYS[sid], 0.7)
    with pytest.raises(ValueError, match="named 'noise_sdd'$"):
        generate(SettingSpec(id=sid, n=n, p=3, seed=1, overrides=dict(every, noise_sdd=0.7)))
    if sid.startswith("tune"):  # b stands in for the noise level of an untabulated n
        generate(SettingSpec(id=sid, n=73, p=3, seed=1, overrides={"b": 0.7}))


class TestGenerate:
    def test_shapes_and_near_zero_correlation_under_null(self):
        sample = generate(SettingSpec(id="s5_1", n=50, p=20, seed=3))
        assert sample.x.shape == sample.y.shape == (50, 20)
        corr = np.corrcoef(sample.x.ravel(), sample.y.ravel())[0, 1]
        assert abs(corr) < 0.1

    def test_motivating_noiseless_is_exact_log_abs(self):
        sample = generate(SettingSpec(id="motivating", n=30, p=8, seed=5))
        assert np.array_equal(sample.y, np.log(np.abs(sample.x)))

    def test_motivating_noise_override(self):
        noisy = generate(SettingSpec(id="motivating", n=30, p=8, seed=5, overrides={"b": 1.0}))
        assert not np.array_equal(noisy.y, np.log(np.abs(noisy.x)))

    def test_reproducible_and_seed_sensitive(self):
        a = generate(SettingSpec(id="s2_2", n=25, p=7, seed=9))
        b = generate(SettingSpec(id="s2_2", n=25, p=7, seed=9))
        c = generate(SettingSpec(id="s2_2", n=25, p=7, seed=10))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_s1_sign_flip_symmetry(self):
        # row-level sign flips force Y marginals symmetric about zero
        sample = generate(SettingSpec(id="s1_1", n=100_000, p=1, seed=11))
        mean = sample.y.mean()
        se = sample.y.std() / math.sqrt(sample.y.size)
        assert abs(mean) < 3 * se

    def test_s3_concatenates_two_regimes(self):
        spec = SettingSpec(id="s3_1", n=7, p=5, seed=2, overrides={"noise_sd": 0.0})
        sample = generate(spec)
        m = (7 + 1) // 2
        assert np.allclose(sample.y[:m], np.log(np.abs(sample.x[:m])))
        assert np.allclose(sample.y[m:], np.exp(0.6 * sample.x[m:]))

    def test_s4_noise_is_shared_within_rows(self):
        base = generate(SettingSpec(id="s4_1", n=10, p=6, seed=4, overrides={"noise_sd": 0.0}))
        noisy = generate(SettingSpec(id="s4_1", n=10, p=6, seed=4))
        diff = noisy.x - base.x
        assert np.allclose(diff, diff[:, :1])  # constant across each row
        assert np.any(diff[:, 0] != 0)

    def test_misspelled_override_rejected_before_any_test(self, monkeypatch):
        spec = SettingSpec(id="s1_1", n=10, p=3, seed=1, overrides={"noise_sdd": 0.0})
        with pytest.raises(ValueError, match="noise_sdd"):
            generate(spec)
        tests = []
        monkeypatch.setattr(simulate, "git_test", lambda *a, **kw: tests.append(a))
        with pytest.raises(ValueError, match="noise_sdd"):
            estimate_power(spec, reps=2)
        assert tests == []


class TestVariatePrimitives:
    def test_normal_moments(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(100_000)
        assert abs(z.mean()) < 4 / math.sqrt(100_000)
        assert abs(z.var() - 1.0) < 4 * math.sqrt(2.0 / 100_000)

    def test_t10_variance(self):
        rng = np.random.default_rng(1)
        v = t10(rng, 100_000)
        # fourth moment of t10 gives Var(s^2) ~ (mu4 - sigma^4)/N
        se = math.sqrt((6.25 - 1.25**2) / 100_000)
        assert abs(v.var() - 10.0 / 8.0) < 4 * se

    def test_lognormal_mean(self):
        rng = np.random.default_rng(2)
        v = lognormal(rng, 0.0, 1.0, 100_000)
        se = math.sqrt((math.e - 1) * math.e / 100_000)
        assert abs(v.mean() - math.exp(0.5)) < 4 * se


class TestEstimatePower:
    def test_reproducible(self):
        spec = SettingSpec(id="s5_1", n=20, p=4, seed=21)
        a = estimate_power(spec, reps=10)
        b = estimate_power(spec, reps=10)
        assert a.rejections == b.rejections
        assert a.power == b.power == a.rejections / 10

    def test_level_one_rejects_everything(self):
        spec = SettingSpec(id="s5_1", n=20, p=4, seed=22)
        est = estimate_power(spec, reps=5, level=1.0)
        assert est.power == 1.0

    @pytest.mark.parametrize("method", ["bogus", lambda x, y, seed: 0.001])
    def test_unknown_method_rejected_before_sampling(self, method, monkeypatch):
        draws = []
        monkeypatch.setattr(simulate, "generate", lambda spec: draws.append(spec))
        with pytest.raises(ValueError, match="unknown method"):
            estimate_power(SettingSpec(id="s5_1", n=12, p=3, seed=1), method=method, reps=2)
        assert draws == []

    def test_permutation_method(self):
        spec = SettingSpec(id="s5_1", n=16, p=3, seed=2)
        est = estimate_power(spec, method="permutation", reps=3, n_perm=19)
        assert 0.0 <= est.power <= 1.0
        assert est.method == "permutation"

    def test_bad_args(self):
        spec = SettingSpec(id="s5_1", n=10, p=2, seed=0)
        with pytest.raises(ValueError):
            estimate_power(spec, reps=0)
        with pytest.raises(ValueError):
            estimate_power(spec, reps=5, level=0.0)

    def test_runs_on_one_thread(self):
        with pytest.raises(TypeError, match="threads"):
            estimate_power(SettingSpec(id="s5_1", n=10, p=2), reps=1, threads=2)


class TestKSweep:
    def test_alpha_maps_to_k(self):
        spec = SettingSpec(id="tune_i", n=50, p=4, seed=3)
        rows = k_sweep(spec, alphas=[0.05, 0.5], reps=2)
        assert rows[0]["k"] == 1  # floor(50^0.05) = 1
        assert rows[1]["k"] == 7  # floor(sqrt(50)) = 7
        for row in rows:
            assert 0.0 <= row["power"] <= 1.0

    def test_rejects_non_tuning_setting(self):
        with pytest.raises(ValueError):
            k_sweep(SettingSpec(id="s5_1", n=20, p=4), alphas=[0.5], reps=1)

    def test_rejects_bad_alpha(self):
        spec = SettingSpec(id="tune_i", n=50, p=4)
        with pytest.raises(ValueError):
            k_sweep(spec, alphas=[1.5], reps=1)

    def test_checks_every_alpha_before_running(self, monkeypatch):
        runs = []
        real = simulate.estimate_power
        monkeypatch.setattr(simulate, "estimate_power",
                            lambda *a, **kw: runs.append(a) or real(*a, **kw))
        with pytest.raises(ValueError, match="1.5"):
            k_sweep(SettingSpec(id="tune_i", n=50, p=3, seed=1), [0.5, 1.5], reps=2)
        assert runs == []

    @pytest.mark.slow
    def test_mid_range_alpha_dominates_tiny_k(self):
        # k near sqrt(n) should not lose to k=1 by more than noise
        spec = SettingSpec(id="tune_i", n=50, p=100, seed=17)
        rows = k_sweep(spec, alphas=[0.05, 0.5], reps=50)
        assert rows[1]["power"] >= rows[0]["power"] - 0.1


class TestComponentPower:
    def test_returns_all_series(self):
        spec = SettingSpec(id="s5_1", n=20, p=4, seed=5)
        table = component_power(spec, reps=4)
        assert set(table) == {"RG1", "RG2", "RG3", "RG4", "GIT"}
        assert all(0.0 <= v <= 1.0 for v in table.values())

    @pytest.mark.parametrize("level", [0.0, 1.5])
    def test_rejects_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match="level"):
            component_power(SettingSpec(id="s5_1", n=10, p=2, seed=0), reps=1, level=level)


@pytest.mark.slow
class TestNullCalibration:
    """Size control for every reported statistic under the null settings."""

    @staticmethod
    def binom_band(reps, level=0.05, conf=0.99):
        from scipy.stats import binom

        lo = binom.ppf((1 - conf) / 2, reps, level) / reps
        hi = binom.ppf(1 - (1 - conf) / 2, reps, level) / reps
        return lo, hi

    @pytest.mark.parametrize("setting", ["s5_1", "s5_2", "s5_3"])
    def test_analytic_git_and_components(self, setting):
        from gitest.inference import git_test, quadruple_from_samples
        from gitest.rng import derive_seed

        reps, level = 200, 0.05
        counts = {name: 0 for name in ("GIT", "RG1", "RG2", "RG3", "RG4")}
        seed = 31337
        for r in range(reps):
            data = generate(SettingSpec(id=setting, n=50, p=20,
                                        seed=derive_seed(derive_seed(seed, r), 0)))
            res = git_test(quadruple_from_samples(data.x, data.y))
            counts["GIT"] += res.p_analytic < level
            for comp in res.components:
                counts[comp.name] += comp.p < level
        lo, hi = self.binom_band(reps, level)
        rates = {name: c / reps for name, c in counts.items()}
        assert all(lo <= rate <= hi for rate in rates.values()), (setting, rates, (lo, hi))

    def test_permutation_git(self):
        spec = SettingSpec(id="s5_1", n=50, p=20, seed=2718)
        reps = 100
        est = estimate_power(spec, method="permutation", reps=reps, n_perm=99)
        lo, hi = self.binom_band(reps)
        assert lo <= est.power <= hi, (est.power, (lo, hi))


class TestEmission:
    def test_power_csv_deterministic_without_timing(self):
        spec = SettingSpec(id="s5_1", n=16, p=3, seed=6)
        a = power_csv([estimate_power(spec, reps=3)])
        b = power_csv([estimate_power(spec, reps=3)])
        assert a == b
        header, row = a.strip().split("\n")
        assert header == "setting,n,p,reps,level,method,power,runtime_seconds"
        assert row.endswith(",")  # empty runtime cell

    def test_power_csv_with_timing(self):
        spec = SettingSpec(id="s5_1", n=16, p=3, seed=6)
        text = power_csv([estimate_power(spec, reps=3)], timing=True)
        assert not text.strip().split("\n")[1].endswith(",")

    def test_power_json_fields(self):
        spec = SettingSpec(id="s5_1", n=16, p=3, seed=6)
        [row] = power_json([estimate_power(spec, reps=3)])
        assert row["setting"] == "s5_1" and row["reps"] == 3
        assert row["runtime_seconds"] is None

    def test_tidy_csv(self):
        spec = SettingSpec(id="s5_1", n=16, p=3, seed=6)
        est = estimate_power(spec, reps=3)
        text = tidy_csv([tidy_row(est.setting, est.replications, est.level, est.method, "GIT",
                                  est.power)])
        assert text.startswith("setting,n,p,reps,level,method,series,param,power\n")
        assert ",GIT,," in text
