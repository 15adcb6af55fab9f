"""Tests for the declarative experiment registry."""

import inspect

import pytest

from repro.experiments.registry import (
    ExperimentSpec,
    all_specs,
    experiment_names,
    get_spec,
    register,
)

EXPECTED_NAMES = {
    "fig7", "fig8", "fig9", "success-rate", "fig10", "fig11", "fig12",
    "fig13", "table1", "fig14", "bandwidth", "ablations", "icp",
    "tracking", "multi", "multi-grid", "dataset-stats", "submap",
    "noise-sweep", "robustness", "comms-grid",
}


class TestDiscovery:
    def test_all_experiments_registered(self):
        assert set(experiment_names()) == EXPECTED_NAMES

    def test_specs_are_complete(self):
        for spec in all_specs():
            assert callable(spec.runner), spec.name
            assert callable(spec.formatter), spec.name
            assert spec.description, spec.name
            assert spec.paper_artifact, spec.name

    def test_get_spec_unknown_name(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_spec("nonsense")

    def test_get_experiment_is_public_alias(self):
        from repro.experiments import get_experiment
        from repro.experiments.registry import get_experiment as from_reg
        assert get_experiment is from_reg
        assert get_experiment("fig7") is get_spec("fig7")
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("nonsense")

    def test_reregistration_is_idempotent(self):
        spec = get_spec("fig7")
        assert register(spec) is spec

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(ExperimentSpec(
                name="fig7", runner=lambda: None,
                formatter=str, description="impostor"))


class TestRunShim:
    def test_modern_runner_receives_workers(self):
        seen = {}

        def runner(num_pairs, seed, *, workers=1):
            seen.update(num_pairs=num_pairs, seed=seed, workers=workers)
            return "ok"

        spec = ExperimentSpec(name="_modern", runner=runner,
                              formatter=str, description="test")
        assert spec.run(5, 7, workers=3) == "ok"
        assert seen == {"num_pairs": 5, "seed": 7, "workers": 3}

    def test_every_registered_runner_accepts_workers(self):
        for spec in all_specs():
            parameters = inspect.signature(spec.runner).parameters
            assert "workers" in parameters or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values()), spec.name

    def test_format_delegates(self):
        spec = ExperimentSpec(name="_fmt", runner=lambda: None,
                              formatter=lambda r: f"<{r}>",
                              description="test")
        assert spec.format("x") == "<x>"

    def test_run_executes_real_experiment(self):
        result = get_spec("dataset-stats").run(2, 5, workers=1)
        text = get_spec("dataset-stats").format(result)
        assert "Dataset characterization" in text
