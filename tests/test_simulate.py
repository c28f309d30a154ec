import hashlib
import math
import pathlib
import re
from fnmatch import fnmatch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitest import cli, simulate
from gitest.rng import derive_seed, splitmix64_mix
from gitest.scores import ScoreConfig
from gitest.simulate import (
    SETTING_IDS,
    SettingSpec,
    default_dimensions,
    estimate_power,
    generate,
    lognormal,
    TIDY_COLUMNS,
    PowerEstimate,
    power_csv,
    power_json,
    t10,
    tidy_row,
    to_csv,
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
            # tune_* noise levels are tabulated at n = 50, 100 and 150 only
            n, p = (50 if sid.startswith("tune") else 20), min(p, 6)
            sample = generate(SettingSpec(id=sid, n=n, p=p, seed=1))
            assert sample.x.shape == (n, p)
            assert sample.y.shape == (n, p)
            assert np.all(np.isfinite(sample.x))
            assert np.all(np.isfinite(sample.y))

    def test_tune_refuses_off_table_n(self):
        # refused when the spec is built, so a grid fails before any cell runs
        for n in (73, 200):
            with pytest.raises(ValueError, match=f"n={n}; known n: \\[50, 100, 150\\]"):
                SettingSpec(id="tune_i", n=n, p=4)
        for n in (50, 100, 150):
            assert generate(SettingSpec(id="tune_i", n=n, p=4)).y.shape == (n, 4)

    def test_refuses_fewer_than_four_rows(self):
        # the test needs 4 paired observations, so a cell below that is refused
        # when the spec is built, not after the cells before it have run
        with pytest.raises(ValueError, match="need n >= 4"):
            SettingSpec(id="s5_1", n=3, p=2)
        assert generate(SettingSpec(id="s5_1", n=4, p=2)).x.shape == (4, 2)

    def test_refuses_a_non_integral_n(self):
        with pytest.raises(ValueError, match="both integers, got n=10.0, p=3"):
            SettingSpec("s5_1", 10.0, 3)

    def test_refuses_a_non_integral_p(self):
        with pytest.raises(ValueError, match="both integers, got n=10, p=3.0"):
            SettingSpec("s5_1", 10, 3.0)

    def test_refuses_a_bool_p(self):
        with pytest.raises(ValueError, match="both integers, got n=10, p=True"):
            SettingSpec("s5_1", 10, True)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be nonnegative, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ], ids=["negative", "float", "bool"])
    def test_refuses_a_bad_seed(self, seed, message):
        with pytest.raises(ValueError, match=message):
            SettingSpec("s5_1", 10, 3, seed=seed)

    def test_numpy_integer_seed_is_an_int(self):
        spec = SettingSpec("s5_1", 10, 3, seed=np.uint64(7))
        assert spec == SettingSpec("s5_1", 10, 3, seed=7) and type(spec.seed) is int

    def test_numpy_integer_dimensions_are_ints(self):
        spec = SettingSpec("s5_1", np.int64(10), np.int32(3))
        assert spec == SettingSpec("s5_1", 10, 3)
        assert type(spec.n) is int and type(spec.p) is int


#: sha256 over generate's x and y bytes for (n, p) in (50, 3), (100, 20),
#: (150, 100) and seeds 0 and 7, recorded while each recipe still took
#: its noise level as an overridable default
GENERATE_DIGESTS = {
    "motivating": "2d8bb3bf60039f24e336b87f2c576c88f46d35617ac6c148518f194c35e82af7",
    "s1_1": "6ce41a9d54dfcc56032069dfb394b3463201e63c5ea3a9355871f141a3f2f8df",
    "s1_2": "a7fd92fe5685ccd38068b95d1f7e7c1090c0f6362c17cc272026dc9fb232840e",
    "s1_3": "4d0ce2505d7a169d6a33ca1a4d07e437ccb1844199a8b0eb645f704f52f9d7f8",
    "s2_1": "0450e06b657b161d3480ea99e239265a791df44e1dc99f7a7d3793b91b1025c6",
    "s2_2": "06cdb3ab5f0dc51f6f815c87017bc668014d8c0dda29afd3b3f132c1b55fc4b5",
    "s2_3": "eb6dc063fb88e628847d10c04659cf5814b98ca81eba30f2422461d5b563a712",
    "s3_1": "5b9c1d4c9d9be6700412b0aa4743457aef27433374a7c98be7aa891fbe72a96e",
    "s3_2": "99810dcc81e4d6033804691213adb80feba8fb6c05e0f52af8744993fff1697f",
    "s3_3": "0fa710518cc7c278d49ffa8a4d782383d36188fad59407b9222ec531263cbe5b",
    "s4_1": "b6bac86f5487df5cab3924d4d6456e08ff0c48dc9419cc95000521f928e23193",
    "s4_2": "bfa8aa8e52d0ab5103d3d206b1e50aaea0ef39b047c938d14afeb6b23831e8a2",
    "s4_3": "7bd8250aad028f7c092cd84c23d2e6ba7398befb1469c03f82ed8f20f093b2cd",
    "s5_1": "4affc7340d4293fb054eb9033f3eb57edff81deaebaa3d7bd365099040e41ef6",
    "s5_2": "4cf31384ae6f64f1ccba782dcfed8d844f280efd37b6d0a9736838bbbfd458ed",
    "s5_3": "6d24888895a5fdd67d12934018dc7f1c425ff68b1fde73552258bbf34a00b6d4",
    "tune_i": "6b910fce04d548dd8a17d4bf515ab4a6c819b2682dbbe0ba4e98a8b82922eb07",
    "tune_ii": "7434a25206ccf154df706d82981c92aa06c023134a74e3f2778cae7a7c1a8735",
    "tune_iii": "32131a636cbd34a22b7c87c9f553c8aa838abbf812f66a15d79e0a4f364d060a",
}


@pytest.mark.parametrize("sid", SETTING_IDS)
def test_overrides_are_read_or_refused(sid):
    # a recipe's noise level is a constant: SettingSpec refuses an override,
    # so no knob can pass unread, and every sample is the one the recipe drew
    # when its noise level was an overridable default
    with pytest.raises(TypeError, match="overrides"):
        SettingSpec(id=sid, n=50, p=3, seed=1, overrides={"noise_sd": 0.7})
    digest = hashlib.sha256()
    for n, p in ((50, 3), (100, 20), (150, 100)):
        for seed in (0, 7):
            with np.errstate(over="ignore"):  # s2_3 overflows exp (ROADMAP item 10)
                sample = generate(SettingSpec(id=sid, n=n, p=p, seed=seed))
            digest.update(sample.x.tobytes())
            digest.update(sample.y.tobytes())
    assert digest.hexdigest() == GENERATE_DIGESTS[sid]


#: sha256 over generate's x and y bytes for (n, p) in (4, 400), (4, 1000) and
#: seeds 0 and 7: the noise steps GENERATE_DIGESTS' p < 400 cannot reach
#: (s3_3's sd 2.0 from p = 400, s2_3's scale 0.1 from p = 1000)
STEP_DIGESTS = {
    "s2_1": "807b87ad077368bd794580cfeb7071220ca70f86ae704319744a8709256d7fb0",
    "s2_2": "61c8d3294203095cc6144c446a85222f7833949154d65f393bb5ac703ff7b3c9",
    "s2_3": "791c57c39d8b5cf9655486bf3639fd9f4e10918dc0f789f0387ec41165167b1f",
    "s3_1": "4c408968047df1bbf6ea72fdc512d8942d2787660d54d9d7e9fb0abc17ad35dd",
    "s3_2": "3ad6244a8202bbd528786748f870d977027303ea64d987666dd8b7f158780271",
    "s3_3": "8e2f6b2dc83677c4f3f17c86b44bba934f948bfa18098936f2455034b19fcfd8",
}


@pytest.mark.parametrize("sid", sorted(STEP_DIGESTS))
def test_noise_steps_at_large_p(sid):
    digest = hashlib.sha256()
    for n, p in ((4, 400), (4, 1000)):
        for seed in (0, 7):
            with np.errstate(over="ignore"):  # s2_3 overflows exp (ROADMAP item 10)
                sample = generate(SettingSpec(id=sid, n=n, p=p, seed=seed))
            digest.update(sample.x.tobytes())
            digest.update(sample.y.tobytes())
    assert digest.hexdigest() == STEP_DIGESTS[sid]


def test_readme_states_every_setting_and_its_default_size():
    # a settings row added without its README line fails the ordinary suite
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Simulation settings\n")[1].split("\n## ")[0]
    named = []
    for head in re.findall(r"^- (.*?) —", section, re.M):
        for ref in re.findall(r"`([^`]+)`", head):
            m = re.fullmatch(r"(\w+)_(\d)\.\.\1_(\d)", ref)  # sK_1..sK_3
            named += [f"{m[1]}_{v}" for v in range(int(m[2]), int(m[3]) + 1)] if m else [ref]
    assert sorted(named) == sorted(SETTING_IDS)
    # "(150 × 50 for `motivating`, ..., 100 × 100 otherwise)": the first rule that matches
    sizes = re.search(r"each setting's own default\s*\((.*?)\)\.", readme, re.S).group(1)
    rules = re.findall(r"(\d+) × (\d+) (?:for `([^`]+)`|otherwise)", sizes)
    for sid in SETTING_IDS:
        n, p = next((int(n), int(p)) for n, p, pattern in rules
                    if not pattern or fnmatch(sid, pattern))
        assert (n, p) == default_dimensions(sid), sid


class TestGenerate:
    def test_shapes_and_near_zero_correlation_under_null(self):
        sample = generate(SettingSpec(id="s5_1", n=50, p=20, seed=3))
        assert sample.x.shape == sample.y.shape == (50, 20)
        corr = np.corrcoef(sample.x.ravel(), sample.y.ravel())[0, 1]
        assert abs(corr) < 0.1

    def test_motivating_noiseless_is_exact_log_abs(self):
        sample = generate(SettingSpec(id="motivating", n=30, p=8, seed=5))
        assert np.array_equal(sample.y, np.log(np.abs(sample.x)))

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
        # redraw the recipe's stream: x, then the noise, 1.2 N(0, 1)
        sample = generate(SettingSpec(id="s3_1", n=7, p=5, seed=2))
        rng = np.random.Generator(np.random.PCG64(2))
        x = rng.standard_normal((7, 5))
        eps = 1.2 * rng.standard_normal((7, 5))
        assert np.array_equal(sample.x, x)
        m = (7 + 1) // 2
        assert np.allclose(sample.y[:m] - eps[:m], np.log(np.abs(x[:m])))
        assert np.allclose(sample.y[m:] - eps[m:], np.exp(0.6 * x[m:]))

    def test_s4_noise_is_shared_within_rows(self):
        # redraw the recipe's stream: the noise, 8 N(0, 1) per row for x and
        # then for y, comes first, then L and one theta per row
        n, p = 10, 6
        sample = generate(SettingSpec(id="s4_1", n=n, p=p, seed=4))
        rng = np.random.Generator(np.random.PCG64(4))
        noise_x = 8.0 * rng.standard_normal(n)
        noise_y = 8.0 * rng.standard_normal(n)
        L = rng.standard_normal((n, p))
        thetas = [rng.standard_normal((p, p)) for _ in range(n)]
        base_x = np.array([L[i] @ np.sin(thetas[i]) for i in range(n)])
        base_y = np.array([L[i] @ np.cos(thetas[i]) for i in range(n)])
        for got, base, noise in ((sample.x, base_x, noise_x), (sample.y, base_y, noise_y)):
            diff = got - base
            assert np.allclose(diff, diff[:, :1])  # constant across each row
            assert np.allclose(diff[:, 0], noise)
            assert np.any(diff[:, 0] != 0)


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

    @pytest.mark.parametrize("reps", [2.5, True], ids=["float", "bool"])
    def test_non_integral_reps_rejected_before_sampling(self, reps, monkeypatch):
        draws = []
        monkeypatch.setattr(simulate, "generate", lambda spec: draws.append(spec))
        with pytest.raises(ValueError, match=f"reps must be an integer, got {reps}"):
            estimate_power(SettingSpec(id="s5_1", n=12, p=3, seed=1), reps=reps)
        assert draws == []

    def test_numpy_integer_reps_is_an_int(self):
        # a numpy count would reach power_json, which json cannot encode
        est = estimate_power(SettingSpec("s5_1", 10, 2), reps=np.int64(2))
        assert type(est.replications) is int

    def test_zero_n_perm_rejected_before_sampling(self, monkeypatch):
        draws = []
        monkeypatch.setattr(simulate, "generate", lambda spec: draws.append(spec))
        with pytest.raises(ValueError, match="n_perm must be positive"):
            estimate_power(SettingSpec(id="s5_1", n=12, p=3, seed=1), method="permutation",
                           reps=2, n_perm=0)
        assert draws == []

    def test_runs_on_one_thread(self):
        with pytest.raises(TypeError, match="threads"):
            estimate_power(SettingSpec(id="s5_1", n=10, p=2), reps=1, threads=2)


class TestKSweep:
    """``gitest simulate --sweep-alphas``: each grid cell becomes one cell per
    alpha, at k = floor(n^alpha), estimated by ``estimate_power``."""

    @staticmethod
    def run(argv, monkeypatch):
        """Exit code of ``gitest simulate --reps 2 argv``, and the
        ``(spec, cfg)`` of every ``estimate_power`` call and the spec of
        every ``generate`` call it made."""
        runs, draws = [], []

        def estimate(spec, cfg, _real=simulate.estimate_power, **kwargs):
            runs.append((spec, cfg))
            return _real(spec, cfg, **kwargs)

        def draw(spec, _real=simulate.generate):
            draws.append(spec)
            return _real(spec)

        monkeypatch.setattr(simulate, "estimate_power", estimate)
        monkeypatch.setattr(simulate, "generate", draw)
        try:
            code = cli.main(["simulate", "--reps", "2"] + argv)
        except SystemExit as exc:  # argparse rejects a bad flag value itself
            code = exc.code
        return code, runs, draws

    def test_alpha_maps_to_k(self, monkeypatch, capsys):
        code, runs, _ = self.run(["--setting", "tune_i", "--n", "50", "--p", "4", "--seed", "3",
                                  "--sweep-alphas", "0.05,0.5,0.99"], monkeypatch)
        assert code == 0
        # floor(50^0.05) = 1, floor(sqrt(50)) = 7, floor(50^0.99) = 48
        assert [cfg for _, cfg in runs] == [ScoreConfig(k=1), ScoreConfig(k=7),
                                            ScoreConfig(k=48)]
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[7] for row in rows] == ["alpha=0.05", "alpha=0.5", "alpha=0.99"]
        # each row is the plain estimate at its k
        for row, (spec, cfg) in zip(rows, runs):
            assert float(row[8]) == estimate_power(spec, cfg, reps=2).power

    def test_rejects_non_tuning_setting(self, monkeypatch, capsys):
        code, runs, draws = self.run(["--setting", "s5_1", "--n", "20", "--p", "4",
                                      "--sweep-alphas", "0.5"], monkeypatch)
        assert (code, runs, draws) == (64, [], [])
        assert "needs tune_* settings" in capsys.readouterr().err

    def test_rejects_bad_alpha(self, monkeypatch, capsys):
        for alphas in ("1.5", "0", "1", "-0.2", "nan", "0.5,abc"):
            code, runs, draws = self.run(["--setting", "tune_i", "--n", "50", "--p", "4",
                                          "--sweep-alphas", alphas], monkeypatch)
            assert (code, runs, draws) == (64, [], []), alphas
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("gitest: error: argument --sweep-alphas: ")

    def test_checks_every_alpha_before_running(self, monkeypatch, capsys):
        code, runs, draws = self.run(["--setting", "tune_i", "--n", "50", "--p", "3",
                                      "--sweep-alphas", "0.5,1.5"], monkeypatch)
        assert (code, runs, draws) == (64, [], [])
        out, err = capsys.readouterr()
        assert out == "" and "alpha must lie in (0, 1), got 1.5" in err

    @pytest.mark.slow
    def test_mid_range_alpha_dominates_tiny_k(self):
        # k near sqrt(n) (alpha = 0.5) should not lose to k=1 (alpha = 0.05)
        # by more than noise
        spec = SettingSpec(id="tune_i", n=50, p=100, seed=17)
        tiny, mid = (estimate_power(spec, ScoreConfig(k=k), reps=50).power for k in (1, 7))
        assert mid >= tiny - 0.1


class TestComponentPower:
    """RG1..RG4 rejection rates, counted by estimate_power in the same
    replications as the combined test."""

    def test_returns_all_series(self):
        spec = SettingSpec(id="s5_1", n=20, p=4, seed=5)
        est = estimate_power(spec, reps=4)
        assert list(est.components) == ["RG1", "RG2", "RG3", "RG4"]
        assert all(0.0 <= v <= 1.0 for v in est.components.values())

    @pytest.mark.parametrize("method", ["analytic", "permutation"])
    def test_one_test_per_replication(self, method, monkeypatch):
        # each replication calls git_test once, and its components and (for
        # the analytic method) p-value give the counts
        spec = SettingSpec(id="s5_1", n=16, p=3, seed=5)
        results = []

        def recorded(*args, _real=simulate.git_test, **kwargs):
            results.append(_real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(simulate, "git_test", recorded)
        est = estimate_power(spec, method=method, reps=6, level=0.5, n_perm=19)
        assert len(results) == 6
        for name, rate in est.components.items():
            hits = sum(c.p < 0.5 for r in results for c in r.components if c.name == name)
            assert rate == hits / 6, name
        if method == "analytic":
            assert est.rejections == sum(r.p_analytic < 0.5 for r in results)

    @pytest.mark.parametrize("level", [0.0, 1.5])
    def test_rejects_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match="level"):
            estimate_power(SettingSpec(id="s5_1", n=10, p=2, seed=0), reps=1, level=level)


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
        text = to_csv([tidy_row(est, "GIT", est.power, "")], TIDY_COLUMNS)
        assert text.startswith("setting,n,p,reps,level,method,series,param,power\n")
        assert ",GIT,," in text

    def test_to_csv_rules(self):
        rows = [{"level": 0.1234567, "runtime_seconds": 2.0, "power": 1 / 3, "n": 7,
                 "param": None, "series": "GIT"}]
        assert to_csv(rows, ("series", "n", "level", "power", "runtime_seconds", "param")) == (
            "series,n,level,power,runtime_seconds,param\nGIT,7,0.123457,0.3333333333,2.000,\n")
        assert to_csv([], ("a", "b")) == "a,b\n"


# -- the writers to_csv replaced, verbatim, as byte-identity oracles ----------

POWER_CSV_HEADER = "setting,n,p,reps,level,method,power,runtime_seconds"
TIDY_CSV_HEADER = "setting,n,p,reps,level,method,series,param,power"


def power_csv_reference(estimates, timing: bool = False) -> str:
    """Fixed-schema CSV; wall-clock column left empty unless ``timing``."""
    lines = [POWER_CSV_HEADER]
    for e in estimates:
        rt = f"{e.runtime_seconds:.3f}" if timing else ""
        lines.append(
            f"{e.setting.id},{e.setting.n},{e.setting.p},{e.replications},"
            f"{e.level:g},{e.method},{e.power:.10g},{rt}"
        )
    return "\n".join(lines) + "\n"


def tidy_csv_reference(rows) -> str:
    """Long-format CSV for plotting: one (series, param, power) per line."""
    lines = [TIDY_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['setting']},{r['n']},{r['p']},{r['reps']},{r['level']:g},"
            f"{r['method']},{r['series']},{r['param']},{r['power']:.10g}"
        )
    return "\n".join(lines) + "\n"


def result_csv_reference(d: dict) -> str:
    head = ["statistic", "df", "p_analytic", "p_permutation", "max_stat", "n", "k",
            "lambda", "scheme"]
    vals = [d[h] for h in head]
    for comp in d["components"]:
        head += [f"{comp['name']}_z", f"{comp['name']}_p"]
        vals += [comp["z"], comp["p"]]
    fmt = ["" if v is None else (f"{v:.10g}" if isinstance(v, float) else str(v)) for v in vals]
    return ",".join(head) + "\n" + ",".join(fmt) + "\n"


#: every float, 1e-300 to 1e300, subnormals, -0.0, infinities and nan included
FLOATS = st.floats() | st.sampled_from([1e-300, -1e-300, 1e300, -1e300, -0.0, 0.1234567891234])
INTS = st.integers(-(10**20), 10**20)
SETTINGS = [s for s in SETTING_IDS if not s.startswith("tune_")]


@st.composite
def power_estimates(draw):
    spec = SettingSpec(draw(st.sampled_from(SETTINGS)), draw(st.integers(4, 10**6)),
                       draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**64 - 1)))
    return PowerEstimate(spec, draw(st.integers(1, 10**9)), draw(FLOATS), draw(INTS),
                         draw(FLOATS), draw(FLOATS), draw(st.sampled_from(["analytic",
                                                                           "permutation"])))


class TestCsvWriterOracle:
    """``to_csv`` prints every table byte for byte as the writers it replaced."""

    @given(st.lists(power_estimates(), max_size=4), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_power_table(self, ests, timing):
        assert power_csv(ests, timing) == power_csv_reference(ests, timing)

    @given(st.lists(st.tuples(power_estimates(), st.text(), FLOATS, st.text()), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_long_format(self, cells):
        rows = [tidy_row(e, series, power, param) for e, series, power, param in cells]
        assert to_csv(rows, TIDY_COLUMNS) == tidy_csv_reference(rows)

    @given(st.fixed_dictionaries(
        {h: st.none() | INTS | FLOATS | st.text()
         for h in ("statistic", "df", "p_analytic", "p_permutation", "max_stat", "n", "k",
                   "lambda", "scheme")}),
        st.lists(st.fixed_dictionaries({"name": st.sampled_from(["RG1", "RG2", "RG3", "RG4"]),
                                        "z": st.none() | FLOATS, "p": st.none() | FLOATS}),
                 max_size=4, unique_by=lambda c: c["name"]))
    @settings(max_examples=300, deadline=None)
    def test_result_row(self, head, components):
        d = {**head, "components": components}
        assert cli._result_csv(d) == result_csv_reference(d)
