"""Extension experiment E6: hyperparameter sensitivity of MFCP.

Sweeps the three knobs the paper's design introduces — the reliability
threshold position γ (via the quantile rule), the smoothing sharpness β,
and the barrier weight λ — and reports how MFCP-AD's and TSM's metrics
move.  The interesting shapes:

- **γ**: a tighter threshold shrinks the feasible set; regret rises for
  every method, and the reliability metric tracks the threshold;
- **β**: too small blurs the makespan (utilization falls towards the
  linear-cost ablation's behaviour), too large makes gradients stiff;
- **λ**: too large biases decisions towards reliability at a makespan cost.

Run: ``python -m repro.experiments.sensitivity``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.clusters.catalog import make_setting
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.runner import run_experiment
from repro.methods import MFCP, TSM
from repro.metrics.report import MethodReport
from repro.utils.tables import Table

__all__ = ["run_gamma_sweep", "run_beta_sweep", "run_lambda_sweep", "main"]

SETTING = "A"

GAMMA_QUANTILES = (0.2, 0.5, 0.8)
BETAS = (1.0, 5.0, 20.0)
LAMBDAS = (0.001, 0.01, 0.1)


def _run_with_spec(
    config: ExperimentConfig, run_name: str = "sensitivity"
) -> dict[str, MethodReport]:
    def factory():
        return [TSM(train_config=config.supervised), MFCP("analytic", config.mfcp)]

    return run_experiment(
        lambda: make_setting(SETTING), factory, config, run_name=run_name
    )


def run_gamma_sweep(
    config: ExperimentConfig | None = None,
    quantiles: tuple[float, ...] = GAMMA_QUANTILES,
) -> dict[float, dict[str, MethodReport]]:
    config = config or default_config()
    return {
        q: _run_with_spec(
            replace(config, spec=replace(config.spec, gamma_quantile=q)),
            run_name=f"sensitivity_gamma{q:g}",
        )
        for q in quantiles
    }


def run_beta_sweep(
    config: ExperimentConfig | None = None,
) -> dict[float, dict[str, MethodReport]]:
    config = config or default_config()
    return {
        b: _run_with_spec(
            replace(config, spec=replace(config.spec, beta=b)),
            run_name=f"sensitivity_beta{b:g}",
        )
        for b in BETAS
    }


def run_lambda_sweep(
    config: ExperimentConfig | None = None,
) -> dict[float, dict[str, MethodReport]]:
    config = config or default_config()
    return {
        lam: _run_with_spec(
            replace(config, spec=replace(config.spec, lam=lam)),
            run_name=f"sensitivity_lambda{lam:g}",
        )
        for lam in LAMBDAS
    }


def _render(title: str, knob: str, results: dict[float, dict[str, MethodReport]]) -> str:
    table = Table([knob, "Method", "Regret", "Reliability", "Utilization"], title=title)
    for value, reports in results.items():
        for name, report in reports.items():
            table.add_row([
                f"{value:g}", name,
                f"{report.regret[0]:.4f}",
                f"{report.reliability[0]:.3f}",
                f"{report.utilization[0]:.3f}",
            ])
    return table.render()


def main() -> None:
    config = default_config()
    print(_render("E6a — γ-quantile sweep", "γ-quantile", run_gamma_sweep(config)))
    print()
    print(_render("E6b — smoothing β sweep", "β", run_beta_sweep(config)))
    print()
    print(_render("E6c — barrier λ sweep", "λ", run_lambda_sweep(config)))


if __name__ == "__main__":
    main()
