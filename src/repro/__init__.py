"""repro — reproduction of "Joint Prediction and Matching for Computing
Resource Exchange Platforms" (MFCP, ICPP '25).

Subpackages
-----------
``repro.nn``
    From-scratch NumPy MLP substrate for the predictors (layers, flat
    Adam) and the autograd tape their tests hold them to.
``repro.workloads``
    DL task specs, operator graphs, feature embedding, task pools.
``repro.clusters``
    Heterogeneous cluster ground-truth performance/reliability models.
``repro.sim``
    Execution simulator: per-cluster FIFO chains or parallel batches.
``repro.matching``
    Eq. (2) problem, smoothing/barrier objectives, Algorithm 1 solver,
    exact solvers, KKT differentiation (Eq. 15), zeroth-order gradients
    (Algorithm 2).
``repro.predictors``
    Per-cluster time/reliability MLP heads, training, ensembles.
``repro.methods``
    TAM / TSM / UCB / MFCP-AD / MFCP-FG and the Table 1 ablations.
``repro.metrics``
    Regret, reliability, utilization + mean±std reporting.
``repro.theory``
    Numerical verification of Theorems 1–5.
``repro.experiments``
    Harnesses regenerating Table 1, Fig. 4, Fig. 5, Table 2.

Quick start
-----------
>>> from repro.workloads import TaskPool
>>> from repro.clusters import make_setting
>>> from repro.methods import MFCP, MatchSpec, FitContext
>>> pool = TaskPool(60, rng=0)
>>> clusters = make_setting("A")
>>> train, test = pool.split(0.7, rng=1)
>>> ctx = FitContext.build(clusters, train, MatchSpec(), rng=2)
>>> method = MFCP("analytic").fit(ctx)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
