"""Declarative experiment registry.

Every paper figure/table and every extension study registers itself as
an :class:`ExperimentSpec` when its module is imported; the CLI, the
benchmarks and ``python -m repro`` resolve experiments exclusively
through this registry — no hand-maintained tuple tables, no
per-experiment imports at call sites.

Registering an experiment::

    from repro.experiments.registry import ExperimentSpec, register

    register(ExperimentSpec(
        name="fig7",
        runner=run_fig7,
        formatter=format_fig7,
        description="BB-Align vs VIPS error CDFs",
        paper_artifact="Fig. 7",
    ))

Runners follow the uniform calling convention
``run_*(num_pairs, seed, *, workers)``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["ExperimentSpec", "register", "get_spec", "get_experiment",
           "all_specs", "experiment_names"]

# Modules that register experiments on import, in the order the CLI
# lists (and `all` runs) them.  Adding an experiment = writing the
# module with its `register(...)` call and naming it here.
_EXPERIMENT_MODULES: tuple[str, ...] = (
    "repro.experiments.fig7_comparison",
    "repro.experiments.fig8_common_cars",
    "repro.experiments.fig9_inliers",
    "repro.experiments.success_rate",
    "repro.experiments.fig10_distance",
    "repro.experiments.fig11_bv_distance",
    "repro.experiments.fig12_box_common_cars",
    "repro.experiments.fig13_detector_model",
    "repro.experiments.table1_detection",
    "repro.experiments.fig14_ablation",
    "repro.experiments.bandwidth",
    "repro.experiments.ablations",
    "repro.experiments.icp_study",
    "repro.experiments.tracking_study",
    "repro.experiments.multi_study",
    "repro.simulation.statistics",
    "repro.experiments.submap_study",
    "repro.experiments.noise_sweep",
    "repro.experiments.robustness_sweep",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, declaratively.

    Attributes:
        name: CLI subcommand / registry key (kebab-case).
        runner: ``run_*`` callable; the uniform convention is
            ``runner(num_pairs, seed, *, workers)`` returning a result
            dataclass.
        formatter: renders the runner's result into paper-style text.
        description: one-line help shown by ``python -m repro list``.
        paper_artifact: the paper figure/table this reproduces, or
            ``"extension"`` for studies beyond the paper.
        parallelizable: whether ``workers`` actually shards work (the
            sweep-backed experiments); purely informational — every
            runner accepts the keyword.
        cli_options: optional hook called with this experiment's CLI
            subparser to register experiment-specific flags (e.g.
            ``repro bandwidth --tier``).
        cli_option_dests: the argparse dests those flags bind; the CLI
            forwards each (when present and not ``None``) as an extra
            keyword to the runner.
    """

    name: str
    runner: Callable[..., Any]
    formatter: Callable[[Any], str]
    description: str
    paper_artifact: str = ""
    parallelizable: bool = True
    cli_options: Callable[[Any], None] | None = None
    cli_option_dests: tuple[str, ...] = ()

    def run(self, num_pairs: int, seed: int, *,
            workers: int = 1, **extra: Any) -> Any:
        """Invoke the runner under the uniform calling convention.

        ``extra`` carries experiment-specific keywords collected from
        ``cli_option_dests``.
        """
        return self.runner(num_pairs=num_pairs, seed=seed,
                           workers=workers, **extra)

    def format(self, result: Any) -> str:
        return self.formatter(result)


_REGISTRY: dict[str, ExperimentSpec] = {}
_discovered = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (idempotent per name+runner).

    Re-registering the same runner under the same name is a no-op (it
    happens on module re-import); registering a *different* runner under
    an existing name raises, catching copy-paste name collisions early.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.runner is not spec.runner:
        raise ValueError(f"experiment name {spec.name!r} already "
                         f"registered by {existing.runner!r}")
    _REGISTRY[spec.name] = spec
    return spec


def _discover() -> None:
    """Import every experiment module once so each registers itself."""
    global _discovered
    if _discovered:
        return
    _discovered = True
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(module)


def get_spec(name: str) -> ExperimentSpec:
    """Look up one experiment; raises KeyError with the known names."""
    _discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") \
            from None


def get_experiment(name: str) -> ExperimentSpec:
    """Public alias of :func:`get_spec` — look up one experiment by name.

    External tooling kept reaching for ``get_experiment``; both names
    now resolve to the same lookup.
    """
    return get_spec(name)


def all_specs() -> tuple[ExperimentSpec, ...]:
    """Every registered spec, in registration (module) order."""
    _discover()
    return tuple(_REGISTRY.values())


def experiment_names() -> tuple[str, ...]:
    """Registered experiment names, in registration order."""
    return tuple(spec.name for spec in all_specs())
