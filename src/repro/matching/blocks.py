"""Block-decomposed window solves: split one barrier program into
independent sub-programs and solve them as a batched instance.

Large dispatch windows (hundreds of tasks over hundreds of clusters) are
rarely *dense*: an exchange platform's fleet spans hardware classes, and a
task whose execution time on an off-class cluster is several times its
best time never receives meaningful mass in the relaxed optimum.  Dropping
those dominated edges leaves a sparse task–cluster *viability graph*
whose connected components are independent matching problems — the
granular-allocation decomposition of CvxCluster (PAPERS.md), specialized
to the barrier objective of Eq. (9):

- the smoothed makespan couples tasks only through per-cluster loads, so
  two tasks that share no viable cluster never interact through it;
- the global reliability constraint Σ x·a / (MN) ≥ γ is *split* across
  blocks in proportion to each block's attainable reliability mass
  (per-task best reliability, summed).  Block-level feasibility then
  implies global feasibility: the assembled slack is the block-size
  weighted sum of the (positive) block slacks.

Each block is a full dense sub-program over its clusters × tasks (the
viability mask only locates the components; dominated *within-block*
edges stay available to the solver), so the only restriction relative to
the dense solve is "no cross-block assignment" — exact for genuinely
disconnected instances, and a measured, benchmarked gap otherwise.

Blocks with the same cluster count are padded to the widest block's task
count and solved by one ragged
:func:`repro.matching.batch.solve_relaxed_batch` call (float32 by
default, per-instance freezing, step-memory trial cascade), so a
200-cluster window decomposing into four 50-cluster blocks costs one
vectorized descent instead of a single stiff 200-cluster one — each block
gets its own normalized step scale instead of inheriting the stiffest
block's, and the descent is as deep as the slowest block, not the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.matching.batch import (
    BatchProblem,
    _feasible_start_batch,
    batch_barrier_value,
    batchable,
    solve_relaxed_batch,
)
from repro.matching.objectives import barrier_value
from repro.matching.problem import MatchingProblem
from repro.matching.relaxed import RelaxedSolution, SolverConfig, solve_relaxed
from repro.telemetry import ITER_BUCKETS, SIZE_BUCKETS, get_recorder

__all__ = [
    "BlockConfig",
    "Block",
    "BlockStructure",
    "BlockSolution",
    "viability_mask",
    "analyze_blocks",
    "solve_relaxed_blocks",
]

#: Strictly positive floor for seeded columns (mirror updates need every
#: coordinate alive) — matches repro.serve.cache._COL_FLOOR.
_SEED_FLOOR = 1e-6
#: ``blocks/pad_frac`` boundaries (padding elements per real element).
_PAD_BUCKETS = (0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)
#: A cluster is viable for a task when its time is within this factor
#: of the task's best time.  Large values keep the graph dense (one
#: block = exact dense solve); small values split aggressively.
TIME_DOMINANCE = 4.0
#: Each task keeps its ``MIN_VIABLE`` fastest clusters viable, whatever
#: the dominance rule says — no task may end up isolated.
MIN_VIABLE = 2


@dataclass(frozen=True)
class BlockConfig:
    """Knob of the batched block driver."""

    #: Batch precision: "float32" halves memory traffic of large windows;
    #: "float64" for bit-level comparisons against the scalar path.
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")

    @property
    def np_dtype(self) -> np.dtype:
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass(frozen=True)
class Block:
    """One independent sub-program: row/column indices into the problem."""

    cluster_idx: np.ndarray  # sorted indices into rows of T/A
    task_idx: np.ndarray  # sorted indices into columns of T/A

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.cluster_idx), len(self.task_idx)


@dataclass(frozen=True)
class BlockStructure:
    """Decomposition of one :class:`MatchingProblem` into blocks."""

    viable: np.ndarray = field(repr=False)  # (M, N) bool viability mask
    blocks: tuple[Block, ...]
    #: Clusters viable for no task at all — they receive zero load.
    idle_clusters: np.ndarray = field(repr=False)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple(b.shape for b in self.blocks)


@dataclass(frozen=True)
class BlockSolution(RelaxedSolution):
    """A :class:`RelaxedSolution` assembled from per-block solves.

    Drop-in for serving consumers (warm-start cache, window stats):
    ``X`` is the full (M, N) assignment, ``objective`` the *dense*
    barrier value of the assembled iterate, ``iterations`` the parallel
    depth of the batched descent (the largest per-group iteration count —
    what bounds wall clock, and what ``serve/solve_iterations`` reports).
    """

    n_blocks: int = 1
    block_shapes: tuple[tuple[int, int], ...] = ()
    batched_groups: int = 0
    #: True when the problem fell back to the scalar path (parallel
    #: speedups / ablation objectives are not batchable).
    scalar_fallback: bool = False


def viability_mask(T: np.ndarray) -> np.ndarray:
    """Boolean (M, N) mask of non-dominated task–cluster edges.

    An edge survives when the cluster's time is within :data:`TIME_DOMINANCE`
    of the task's best time; each task additionally keeps its
    :data:`MIN_VIABLE` fastest clusters so no column can go empty.
    """
    T = np.asarray(T)
    M, N = T.shape
    viable = T <= TIME_DOMINANCE * T.min(axis=0, keepdims=True)
    keep = min(MIN_VIABLE, M)
    if keep > 0:
        fastest = np.argsort(T, axis=0, kind="stable")[:keep]
        viable[fastest, np.arange(N)[None, :]] = True
    return viable


def analyze_blocks(problem: MatchingProblem) -> BlockStructure:
    """Split a problem into the connected components of its viability graph.

    The per-block split of the reliability constraint (see
    :func:`solve_relaxed_blocks`) distributes γ in proportion to the
    viable best-reliability mass, so the mask must retain enough of that
    mass for every block's share to stay strictly attainable.  When the
    dominance pruning cut below the global requirement γ·M·N — only
    possible when γ sits near the *unrestricted* reliability optimum —
    every task's most reliable cluster is re-added; otherwise the mask is
    left alone, since the unconditional argmax edge would glue otherwise
    independent components (reliability does not track hardware class).
    """
    M, N = problem.M, problem.N
    viable = viability_mask(problem.T)
    mass = float(np.where(viable, problem.A, 0.0).max(axis=0).sum())
    if mass <= problem.gamma * M * N * (1.0 + 1e-9):
        viable[problem.A.argmax(axis=0), np.arange(N)] = True

    # Connected components, found on the cluster side: two clusters touch
    # when some task is viable on both, and squaring the boolean relation
    # until it stops growing closes it (at most log2(M) + 1 products).
    V = viable.astype(np.float32)
    reach = V @ V.T > 0
    while True:
        R = reach.astype(np.float32)
        wider = R @ R > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    used = viable.any(axis=1)
    # A component goes by its first cluster (a closed row's first True), an
    # idle cluster by -1; a task belongs where its first viable cluster does.
    root = np.where(used, reach.argmax(axis=1), -1)
    task_root = root[viable.argmax(axis=0)]
    blocks = tuple(
        Block(cluster_idx=np.flatnonzero(root == r),
              task_idx=np.flatnonzero(task_root == r))
        for r in np.unique(root[used])
    )
    return BlockStructure(
        viable=viable, blocks=blocks, idle_clusters=np.flatnonzero(~used)
    )


def _block_gammas(
    problem: MatchingProblem, structure: BlockStructure
) -> np.ndarray:
    """Per-block reliability thresholds whose joint satisfaction implies
    the global constraint.

    The global program requires Σ x·a ≥ γ·M·N reliability mass.  Each
    block is charged the share of that mass proportional to its viable
    attainable mass ``G_b = Σ_{j∈b} max_{i viable} a_ij``; since
    ``Σ_b G_b = G > γ·M·N`` whenever the global γ is strictly attainable,
    every block's charge is strictly below its own attainable mass and
    the block barrier keeps a non-empty interior.  Assembling strictly
    feasible block iterates yields global slack
    ``Σ_b m_b·k_b·slack_b / (M·N) > 0``.
    """
    best = np.where(structure.viable, problem.A, 0.0).max(axis=0)
    G = float(best.sum())
    R_total = problem.gamma * problem.M * problem.N
    gammas = np.empty(structure.n_blocks)
    for b, blk in enumerate(structure.blocks):
        G_b = float(best[blk.task_idx].sum())
        share = G_b / G if G > 0 else 1.0 / structure.n_blocks
        m_b, k_b = blk.shape
        gammas[b] = R_total * share / (m_b * k_b)
    return gammas


def solve_relaxed_blocks(
    problem: MatchingProblem,
    config: SolverConfig | None = None,
    *,
    block_config: BlockConfig | None = None,
    x0: np.ndarray | None = None,
) -> BlockSolution:
    """Decompose, batch-solve, and reassemble one window's relaxed program.

    Blocks with the same cluster count are padded to the widest block and
    stacked into one ragged :class:`~repro.matching.batch.BatchProblem`,
    solved by a single :func:`~repro.matching.batch.solve_relaxed_batch`
    call — one descent per window when all blocks have equally many
    clusters.  A
    warm start ``x0`` (full (M, N), e.g. from the serving cache) is
    sliced per block and *hedged* per
    instance against the cold interior start — the batch analogue of
    ``solve_relaxed``'s cold-start hedge, so a bad seed can never open
    the descent from a worse point than a cold solve would.

    Problems the batch machinery cannot express
    (:func:`~repro.matching.batch.batchable`: parallel speedups, linear-cost
    / hinge-penalty ablations, a non-mirror projection) fall back to the
    scalar path unchanged.
    """
    cfg = config or SolverConfig()
    bcfg = block_config or BlockConfig()
    rec = get_recorder()
    tele = rec.enabled

    if not batchable(problem, cfg):
        sol = solve_relaxed(problem, cfg, x0=x0)
        if tele:
            rec.counter_add("blocks/scalar_fallback")
        return BlockSolution(
            X=sol.X, objective=sol.objective, iterations=sol.iterations,
            converged=sol.converged, history=sol.history, halvings=sol.halvings,
            n_blocks=1, block_shapes=((problem.M, problem.N),),
            batched_groups=0, scalar_fallback=True,
        )

    structure = analyze_blocks(problem)
    gammas = _block_gammas(problem, structure)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (problem.M, problem.N):
            raise ValueError(
                f"x0 must have shape {(problem.M, problem.N)}, got {x0.shape}"
            )

    # Group blocks by cluster count: one ragged batched solve per group,
    # tasks padded to the group's widest block.  (Rows are not padded: a
    # zero-time padding cluster would need masking out of every softmax.)
    groups: dict[int, list[int]] = {}
    for b, blk in enumerate(structure.blocks):
        groups.setdefault(len(blk.cluster_idx), []).append(b)

    X_full = np.zeros((problem.M, problem.N))
    iterations = trials = padded = 0
    converged = True
    for m_g, members in groups.items():
        blks = [structure.blocks[b] for b in members]
        cells = [np.ix_(blk.cluster_idx, blk.task_idx) for blk in blks]
        widths = np.array([len(blk.task_idx) for blk in blks])
        k_max = int(widths.max())
        shape = (len(blks), m_g, k_max)
        padded += m_g * int((k_max - widths).sum())
        T_g, A_g = np.zeros(shape), np.zeros(shape)
        seed = None if x0 is None else np.full(shape, 1.0 / m_g)
        for g, ix in enumerate(cells):
            T_g[g, :, : widths[g]] = problem.T[ix]
            A_g[g, :, : widths[g]] = problem.A[ix]
            if seed is not None:
                seed[g, :, : widths[g]] = x0[ix]
        bp = BatchProblem(
            T=T_g, A=A_g, gamma=gammas[members], beta=problem.beta, lam=problem.lam,
            entropy=problem.entropy, dtype=bcfg.np_dtype, widths=widths,
        )
        if seed is not None:
            seed = np.maximum(seed.astype(bcfg.np_dtype), _SEED_FLOOR)
            seed /= seed.sum(axis=1, keepdims=True)
            # Cold-start hedge, per instance: an infeasible (+inf) or
            # simply worse seed is replaced by the interior blend start.
            cold = _feasible_start_batch(bp)
            f_seed = batch_barrier_value(seed, bp)
            f_cold = batch_barrier_value(cold, bp)
            worse = ~(f_seed < f_cold)
            seed = np.where(worse[:, None, None], cold, seed)
        sol = solve_relaxed_batch(
            bp, lr=cfg.lr, max_iters=cfg.max_iters, x0=seed,
            tol=cfg.tol, patience=cfg.patience, adaptive_trials=True,
        )
        iterations = max(iterations, sol.iterations)
        trials += sol.trials
        converged = converged and bool(np.all(sol.converged))
        for g, ix in enumerate(cells):
            X_full[ix] = sol.X[g, :, : widths[g]]

    objective = float(barrier_value(X_full, problem))
    if tele:
        rec.counter_add("blocks/solves")
        rec.observe("blocks/count", structure.n_blocks, bounds=SIZE_BUCKETS)
        rec.observe("blocks/groups", len(groups), bounds=SIZE_BUCKETS)
        rec.observe("blocks/pad_frac", padded / sum(m * k for m, k in structure.shapes),
                    bounds=_PAD_BUCKETS)
        rec.observe("blocks/iterations", iterations, bounds=ITER_BUCKETS)
        rec.observe("solve/trials", trials, bounds=ITER_BUCKETS)
        for m_b, k_b in structure.shapes:
            rec.observe("blocks/block_tasks", k_b, bounds=SIZE_BUCKETS)
    return BlockSolution(
        X=X_full, objective=objective, iterations=iterations,
        converged=converged, history=np.asarray([objective]), halvings=0,
        trials=trials, n_blocks=structure.n_blocks, block_shapes=structure.shapes,
        batched_groups=len(groups), scalar_fallback=False,
    )
