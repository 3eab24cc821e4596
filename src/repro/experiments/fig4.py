"""Figure 4 reproduction: overall performance of the five methods.

Paper §4.3: five deep-learning tasks matched to three heterogeneous
clusters, three cluster combinations (settings A, B, C), metrics Regret /
Reliability / Cluster Utilization.  Expected shape: MFCP-AD ≈ MFCP-FG
lowest regret and highest utilization; TSM above them; UCB between TSM and
MFCP; TAM setting-dependent.

Run: ``python -m repro.experiments.fig4`` (REPRO_PROFILE=full for the
paper-sized run).
"""

from __future__ import annotations

from repro.clusters.catalog import SETTINGS, make_setting
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.runner import run_experiment
from repro.methods import MFCP, TAM, TSM, UCB, MFCPConfig
from repro.metrics.report import MethodReport, comparison_table
from repro.predictors.training import TrainConfig

__all__ = ["fig4_methods", "run_fig4", "main"]


def fig4_methods(config: ExperimentConfig):
    """Factory for the five compared methods of §4.1.2."""

    def factory():
        return [
            TAM(),
            TSM(train_config=config.supervised),
            UCB(ensemble_size=config.ucb_ensemble,
                train_config=TrainConfig(epochs=max(100, config.supervised.epochs // 2))),
            MFCP("analytic", config.mfcp),
            MFCP("forward", config.mfcp),
        ]

    return factory


def run_fig4(*, verbose: bool = False) -> dict[str, dict[str, MethodReport]]:
    """Run all settings; returns {setting: {method: report}}."""
    config = default_config()
    results: dict[str, dict[str, MethodReport]] = {}
    for setting in SETTINGS:
        if verbose:
            print(f"setting {setting}:")
        results[setting] = run_experiment(
            lambda s=setting: make_setting(s),
            fig4_methods(config),
            config,
            verbose=verbose,
            run_name=f"fig4_{setting}",
        )
    return results


def main() -> None:
    results = run_fig4(verbose=True)
    for setting, reports in results.items():
        print()
        print(comparison_table(reports, title=f"Fig. 4 — Setting {setting}").render())


if __name__ == "__main__":
    main()
