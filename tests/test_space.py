import numpy as np
import pytest

from tabcash.errors import ConfigurationError
from tabcash.space import (
    STAGES,
    Domain,
    PipelineSpec,
    SearchSpace,
    apply_overrides,
    default_space,
    get_sampler,
    sample_adaptive,
    sample_random,
    validate_spec,
)
from tabcash.tabular import BINARY, NUMERIC, REGRESSION, ColumnSchema, Dataset


class FakeTrial:
    def __init__(self, k, spec, loss, status="valid"):
        self.k = k
        self.spec = spec
        self.eval_loss = loss
        self.status = status


class TestDomain:
    def test_log_requires_positive_lo(self):
        with pytest.raises(ConfigurationError):
            Domain(kind="real", lo=0.0, hi=1.0, scale="log")

    def test_lo_above_hi_rejected(self):
        with pytest.raises(ConfigurationError):
            Domain(kind="int", lo=5, hi=2)

    def test_int_sampling_covers_range(self):
        d = Domain(kind="int", lo=1, hi=3)
        rng = np.random.default_rng(0)
        seen = {d.sample(rng) for _ in range(200)}
        assert seen == {1, 2, 3}

    def test_log_sampling_within_bounds(self):
        d = Domain(kind="real", lo=1e-4, hi=1e2, scale="log")
        rng = np.random.default_rng(1)
        for _ in range(500):
            v = d.sample(rng)
            assert 1e-4 <= v <= 1e2

    def test_perturb_clamps_at_hi(self):
        d = Domain(kind="real", lo=0.0, hi=1.0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert d.perturb(1.0, rng) <= 1.0

    def test_round_trip(self):
        for d in (
            Domain(kind="categorical", values=("a", "b")),
            Domain(kind="int", lo=1, hi=9),
            Domain(kind="real", lo=0.1, hi=2.0, scale="log"),
        ):
            assert Domain.from_dict(d.to_dict()) == d


class TestDefaultSpace:
    def test_regression_balance_menu_is_none_only(self):
        space = default_space(REGRESSION, y=np.array([0.5, 1.5, 2.0]))
        assert space.methods["balance"] == ("none",)

    def test_binary_model_menu_excludes_count_models(self):
        space = default_space(BINARY)
        assert "poisson_glm" not in space.methods["model"]
        assert "gbt" not in space.methods["model"]
        assert "logistic" in space.methods["model"]

    def test_poisson_glm_needs_nonneg_integer_response(self):
        counts = default_space(REGRESSION, y=np.array([0.0, 3.0, 1.0]))
        reals = default_space(REGRESSION, y=np.array([0.5, 3.0, 1.0]))
        assert "poisson_glm" in counts.methods["model"]
        assert "poisson_glm" not in reals.methods["model"]

    def test_unknown_task_rejected(self):
        # A table passed for its task would otherwise get the classification menu.
        table = Dataset(X=np.zeros((3, 1)), y=np.array([0.5, 1.5, 2.0]),
                        schema=(ColumnSchema("a", NUMERIC),), task=REGRESSION)
        for task in (table, "classification", None):
            with pytest.raises(ConfigurationError, match="unknown task"):
                default_space(task, y=table.y)

    def test_empty_menu_rejected(self):
        space = default_space(BINARY)
        with pytest.raises(ConfigurationError):
            space.replace_menu("impute", ())

    def test_space_round_trip(self):
        space = default_space(BINARY, n_features=7)
        again = SearchSpace.from_dict(space.to_dict())
        assert again.methods == space.methods
        assert again.domains == space.domains


class TestSampleRandom:
    def test_deterministic(self):
        space = default_space(BINARY, n_features=5)
        a = sample_random(space, seed=4, k=2)
        b = sample_random(space, seed=4, k=2)
        assert a == b

    def test_singleton_space_yields_unique_spec(self):
        space = default_space(REGRESSION, y=np.array([1.5, 2.5]))
        for stage in STAGES:
            space = space.replace_menu(stage, (space.methods[stage][0],))
        specs = {sample_random(space, 0, k).summary() for k in range(5)}
        assert len(specs) == 1

    def test_menu_frequencies_uniform(self):
        space = default_space(REGRESSION, y=np.array([1.5, 2.5]))
        space = space.replace_menu("scale", ("none", "standardize", "minmax"))
        counts = {"none": 0, "standardize": 0, "minmax": 0}
        n = 10_000
        for k in range(n):
            counts[sample_random(space, 7, k).method("scale")] += 1
        for method, c in counts.items():
            assert abs(c / n - 1 / 3) < 0.02, method

    def test_all_draws_validate(self):
        # 10,000 random draws across both task kinds
        for task, y in ((BINARY, None), (REGRESSION, np.array([1.0, 2.0, 3.0]))):
            space = default_space(task, y=y, n_features=6)
            for k in range(5000):
                validate_spec(sample_random(space, 11, k), space)


class TestSampleAdaptive:
    def test_empty_history_matches_random(self):
        space = default_space(BINARY, n_features=4)
        for k in range(20):
            assert sample_adaptive(space, [], 3, k) == sample_random(space, 3, k)

    def test_resamples_exactly_one_stage_when_forced(self):
        space = default_space(REGRESSION, y=np.array([1.5, 2.5, 3.5]), n_features=4)
        parent = sample_random(space, 0, 0)
        history = [FakeTrial(0, parent, 1.0)]
        child = sample_adaptive(
            space, history, 5, 40, epsilon=0.0, mutation_prob=0.0, forced_stage="scale"
        )
        for stage in STAGES:
            if stage == "scale":
                continue
            assert child.stages[stage] == parent.stages[stage]

    def test_clamping_keeps_values_in_domain(self):
        space = default_space(REGRESSION, y=np.array([1.0, 2.0]), n_features=4)
        parent = sample_random(space, 1, 0)
        history = [FakeTrial(0, parent, 1.0)]
        for k in range(100, 160):
            child = sample_adaptive(space, history, 1, k, epsilon=0.0, mutation_prob=1.0)
            validate_spec(child, space)

    def test_all_adaptive_draws_validate(self):
        space = default_space(BINARY, n_features=5)
        history = []
        rng = np.random.default_rng(8)
        for k in range(1000):
            spec = sample_adaptive(space, history, 2, k)
            validate_spec(spec, space)
            history.append(FakeTrial(k, spec, float(rng.uniform())))

    def test_reproducible_with_same_history(self):
        space = default_space(BINARY, n_features=5)
        parent = sample_random(space, 0, 0)
        history = [FakeTrial(0, parent, -0.9)]
        a = sample_adaptive(space, history, 9, 50)
        b = sample_adaptive(space, history, 9, 50)
        assert a == b


class TestOverridesAndSampler:
    def test_menu_override(self):
        space = default_space(BINARY, n_features=5)
        out = apply_overrides(space, {"balance": {"methods": ["none"]}})
        assert out.methods["balance"] == ("none",)

    def test_domain_override(self):
        space = default_space(REGRESSION, y=np.array([1.5, 2.5]))
        out = apply_overrides(
            space,
            {
                "model": {
                    "domains": {
                        "ridge": {"alpha": {"kind": "real", "lo": 0.5, "hi": 0.5}}
                    }
                }
            },
        )
        dom = out.method_domains("model", "ridge")["alpha"]
        assert dom.lo == dom.hi == 0.5

    def test_unknown_stage_rejected(self):
        space = default_space(BINARY)
        with pytest.raises(ConfigurationError):
            apply_overrides(space, {"warp": {"methods": ["x"]}})

    def test_unknown_method_rejected(self):
        space = default_space(BINARY)
        with pytest.raises(ConfigurationError):
            apply_overrides(space, {"balance": {"methods": ["undersample9000"]}})

    def test_emptied_menu_rejected(self):
        space = default_space(BINARY)
        with pytest.raises(ConfigurationError):
            apply_overrides(space, {"impute": {"methods": []}})

    def test_get_sampler_uniform_interface(self):
        space = default_space(BINARY, n_features=3)
        random_fn = get_sampler("random")
        adaptive_fn = get_sampler("adaptive")
        assert random_fn(space, [], 2, 1) == sample_random(space, 2, 1)
        assert adaptive_fn(space, [], 2, 1) == sample_random(space, 2, 1)
        with pytest.raises(ConfigurationError):
            get_sampler("hyperband")

    def test_spec_serialization_round_trip(self):
        space = default_space(BINARY, n_features=3)
        spec = sample_random(space, 6, 3)
        again = PipelineSpec.from_dict(spec.to_dict())
        assert again == spec
