"""Block-decomposed window solves.

Covers the decomposition invariants the serving hot path relies on:

- the structure analyzer partitions tasks/clusters into genuine
  connected components (specialist fleets split by family, dense
  instances stay whole);
- the batched block solve matches the dense solve on single-block
  instances and stays within a measured gap — conservation-exact and
  strictly feasible — on decomposable ones, singleton and degenerate
  blocks included;
- a bad warm seed can never open the solve worse than cold (the batch
  hedge), matching the scalar solver's contract.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.clusters import make_specialist_pool
from repro.matching import (
    BlockConfig,
    MatchingProblem,
    SolverConfig,
    analyze_blocks,
    barrier_value,
    feasible_gamma,
    solve_relaxed,
    solve_relaxed_blocks,
    viability_mask,
)
from repro.matching.blocks import Block, BlockStructure, _block_gammas
from repro.workloads import TaskPool


def _dense_problem(seed: int, M: int = 4, N: int = 10) -> MatchingProblem:
    """A connected instance: time spread < dominance, so one block."""
    rng = np.random.default_rng(seed)
    T = rng.uniform(1.0, 2.2, (M, N))
    A = rng.uniform(0.55, 0.99, (M, N))
    return MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.35))


def _specialist_problem(n_tasks: int = 48, m_clusters: int = 12,
                        seed: int = 0) -> MatchingProblem:
    """A family-sharded instance whose viability graph splits 4 ways."""
    pool = TaskPool(n_tasks, rng=seed)
    clusters = make_specialist_pool(m_clusters)
    T = np.stack([c.true_times(pool.tasks) for c in clusters])
    A = np.stack([c.true_reliabilities(pool.tasks) for c in clusters])
    return MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.5))


def _union_find_blocks(problem, config=None) -> BlockStructure:
    """``analyze_blocks`` as it was: a Python union-find over the clusters,
    each task joining its viable rows.  Kept verbatim as the oracle for the
    array-op component search that replaced it."""
    cfg = config or BlockConfig()
    M, N = problem.M, problem.N
    viable = viability_mask(problem.T, min_viable=cfg.min_viable)
    mass = float(np.where(viable, problem.A, 0.0).max(axis=0).sum())
    if mass <= problem.gamma * M * N * (1.0 + 1e-9):
        viable[problem.A.argmax(axis=0), np.arange(N)] = True

    # Union-find over clusters; each task unions its viable rows.
    parent = np.arange(M)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows_per_task: list[np.ndarray] = []
    for j in range(N):
        rows = np.flatnonzero(viable[:, j])
        rows_per_task.append(rows)
        root = find(int(rows[0]))
        for i in rows[1:]:
            parent[find(int(i))] = root

    used = viable.any(axis=1)
    roots: dict[int, int] = {}
    cluster_groups: list[list[int]] = []
    task_groups: list[list[int]] = []
    for i in range(M):
        if not used[i]:
            continue
        r = find(i)
        if r not in roots:
            roots[r] = len(cluster_groups)
            cluster_groups.append([])
            task_groups.append([])
        cluster_groups[roots[r]].append(i)
    for j in range(N):
        task_groups[roots[find(int(rows_per_task[j][0]))]].append(j)

    blocks = tuple(
        Block(cluster_idx=np.asarray(ci, dtype=np.intp),
              task_idx=np.asarray(tj, dtype=np.intp))
        for ci, tj in zip(cluster_groups, task_groups)
    )
    return BlockStructure(
        viable=viable, blocks=blocks, idle_clusters=np.flatnonzero(~used)
    )


def _assert_same_structure(problem, config=None) -> BlockStructure:
    got, ref = analyze_blocks(problem, config), _union_find_blocks(problem, config)
    assert np.array_equal(got.viable, ref.viable)
    assert got.n_blocks == ref.n_blocks
    for g, r in zip(got.blocks, ref.blocks):
        assert g.cluster_idx.dtype == r.cluster_idx.dtype == np.intp
        assert np.array_equal(g.cluster_idx, r.cluster_idx)
        assert np.array_equal(g.task_idx, r.task_idx)
    assert np.array_equal(got.idle_clusters, ref.idle_clusters)
    return got


def _problem_from_times(T: np.ndarray, A=None, gamma: float = 0.01) -> MatchingProblem:
    # The default gamma is far below max(A) / M: no reliability re-add.
    return MatchingProblem(
        T=T, A=np.full(T.shape, 0.9) if A is None else A, gamma=gamma)


class TestComponentsAreTheUnionFind:
    """The closure-by-squaring search returns the union-find's blocks:
    ordered by first cluster, indices ascending, idle clusters apart."""

    def test_seeded_specialist_windows(self):
        clusters = make_specialist_pool(24)
        pool = TaskPool(256, rng=0).tasks
        T = np.stack([c.true_times(pool) for c in clusters])
        A = np.stack([c.true_reliabilities(pool) for c in clusters])
        sizes = set()
        for seed in range(44):  # the windows of tests/test_blocks_ragged.py
            rng = np.random.default_rng(seed)
            cols = rng.choice(len(pool), size=int(rng.integers(30, 65)), replace=False)
            Tw = T[:, cols] * rng.uniform(0.9, 1.1, (24, cols.size))
            Aw = np.clip(A[:, cols] + rng.normal(0, 0.01, (24, cols.size)), 0.05, 0.995)
            problem = MatchingProblem(
                T=Tw, A=Aw, gamma=feasible_gamma(Tw, Aw, quantile=0.5))
            sizes.add(_assert_same_structure(problem).n_blocks)
        assert max(sizes) >= 4
        for m in (8, 12):
            _assert_same_structure(_specialist_problem(m_clusters=m))

    def test_fully_connected(self):
        got = _assert_same_structure(_dense_problem(1))
        assert got.n_blocks == 1 and got.idle_clusters.size == 0

    def test_fully_disconnected(self):
        # Task j runs 100x faster on cluster j % M than anywhere else.
        M, N = 5, 11
        T = np.full((M, N), 100.0)
        T[np.arange(N) % M, np.arange(N)] = 1.0
        got = _assert_same_structure(
            _problem_from_times(T), BlockConfig(min_viable=1))
        assert got.n_blocks == M
        assert [b.cluster_idx.tolist() for b in got.blocks] == [[i] for i in range(M)]

    def test_all_idle_but_one(self):
        T = np.full((6, 9), 100.0)
        T[3] = 1.0
        got = _assert_same_structure(
            _problem_from_times(T), BlockConfig(min_viable=1))
        assert got.n_blocks == 1 and got.blocks[0].cluster_idx.tolist() == [3]
        assert got.idle_clusters.tolist() == [0, 1, 2, 4, 5]

    def test_long_chains_close(self):
        # Cluster i shares a task only with i + 1: one component of
        # diameter M - 1, so the squaring has to run to its fixed point;
        # the same chain cut in the middle gives two.
        M = 37
        T = np.full((M, M - 1), 100.0)
        j = np.arange(M - 1)
        T[j, j] = T[j + 1, j] = 1.0
        assert _assert_same_structure(_problem_from_times(T)).n_blocks == 1
        cut = np.delete(T, 17, axis=1)
        got = _assert_same_structure(_problem_from_times(cut))
        assert [b.shape[0] for b in got.blocks] == [18, 19]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sparse_masks(self, seed):
        rng = np.random.default_rng(seed)
        M, N = int(rng.integers(2, 30)), int(rng.integers(1, 40))
        T = np.where(rng.random((M, N)) < 0.12, 1.0, 100.0) * rng.uniform(1, 1.5, (M, N))
        # Odd seeds: gamma high enough that every task's most reliable
        # cluster is re-added to the mask before the components are read.
        problem = _problem_from_times(
            T, rng.uniform(0.5, 0.99, (M, N)), gamma=0.6 if seed % 2 else 0.01)
        _assert_same_structure(
            problem, BlockConfig(min_viable=int(rng.integers(1, 3))))


def test_fixed_block_options_hold_the_defaults_they_had():
    """``asdict(BlockConfig())`` as of 269f618, against the fields that
    stayed and the constants the others became."""
    from dataclasses import asdict

    from repro.matching import batch, blocks

    was = {"time_dominance": 4.0, "min_viable": 2, "halvings": 6,
           "adaptive_trials": True, "dtype": "float32"}
    assert asdict(BlockConfig()).items() <= was.items()
    assert blocks.TIME_DOMINANCE == was["time_dominance"]
    assert batch.HALVINGS == was["halvings"]  # and solve_relaxed_batch's own default


class TestStructureAnalyzer:
    def test_viability_mask_keeps_min_viable_fastest(self):
        T = np.array([[1.0, 9.0], [2.0, 1.0], [50.0, 50.0]])
        mask = viability_mask(T, time_dominance=3.0, min_viable=2)
        # Every task keeps at least its two fastest clusters.
        assert mask.sum(axis=0).min() >= 2
        # The uniformly dominated cluster is nowhere viable.
        assert not mask[2].any()
        # min_viable beyond M clamps instead of raising.
        assert viability_mask(T, min_viable=10).all()

    def test_dense_instance_is_one_block(self):
        problem = _dense_problem(0)
        structure = analyze_blocks(problem)
        assert structure.n_blocks == 1
        assert structure.shapes == ((problem.M, problem.N),)
        assert structure.idle_clusters.size == 0

    def test_specialist_instance_splits_by_family(self):
        problem = _specialist_problem()
        structure = analyze_blocks(problem)
        assert structure.n_blocks == 4  # one block per workload family
        # Blocks partition the tasks and the used clusters exactly.
        tasks = np.concatenate([b.task_idx for b in structure.blocks])
        assert sorted(tasks.tolist()) == list(range(problem.N))
        clusters = np.concatenate([b.cluster_idx for b in structure.blocks])
        assert len(set(clusters.tolist())) == len(clusters)
        assert set(clusters.tolist()) | set(
            structure.idle_clusters.tolist()) == set(range(problem.M))

    def test_block_gammas_are_attainable_and_account_for_gamma(self):
        problem = _specialist_problem()
        structure = analyze_blocks(problem)
        gammas = _block_gammas(problem, structure)
        best = np.where(structure.viable, problem.A, 0.0).max(axis=0)
        total = 0.0
        for blk, g in zip(structure.blocks, gammas):
            m_b, k_b = blk.shape
            # Strictly below the block's attainable mean reliability.
            assert g * m_b * k_b < best[blk.task_idx].sum()
            total += g * m_b * k_b
        # The split conserves the global reliability requirement.
        assert total == pytest.approx(problem.gamma * problem.M * problem.N)


class TestBlockSolveEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_block_matches_dense_solve(self, seed):
        problem = _dense_problem(seed)
        cfg = SolverConfig(lr=0.5, max_iters=600, tol=1e-7, patience=5)
        dense = solve_relaxed(problem, cfg)
        blocks = solve_relaxed_blocks(
            problem, cfg, block_config=BlockConfig(dtype="float64"))
        assert blocks.n_blocks == 1
        assert not blocks.scalar_fallback
        assert blocks.objective == pytest.approx(dense.objective, abs=1e-3)
        # The assembled iterate is a genuine iterate of the dense program.
        assert barrier_value(blocks.X, problem) == pytest.approx(
            blocks.objective, abs=1e-9)

    def test_specialist_instance_fewer_iterations_small_gap(self):
        problem = _specialist_problem()
        cfg = SolverConfig(max_iters=3000, tol=1e-4)
        dense = solve_relaxed(problem, cfg)
        blocks = solve_relaxed_blocks(problem, cfg)
        assert blocks.n_blocks == 4
        assert blocks.converged
        # The perf contract: a decomposed cold solve needs at most half
        # the dense iterations (measured ~5.6x at this size).
        assert blocks.iterations * 2 <= dense.iterations
        # Restriction gap within 5% of the dense barrier value (in
        # practice the per-block step scale lands *below* it).
        gap = (blocks.objective - dense.objective) / abs(dense.objective)
        assert gap < 0.05

    def test_conservation_and_feasibility(self):
        problem = _specialist_problem()
        sol = solve_relaxed_blocks(problem, SolverConfig(max_iters=800, tol=1e-4))
        np.testing.assert_allclose(sol.X.sum(axis=0), 1.0, atol=1e-5)
        assert (sol.X >= 0).all()
        assert problem.is_strictly_feasible(sol.X)

    def test_singleton_and_degenerate_blocks(self):
        # Cluster 0 alone serves tasks 0-2 (singleton-cluster block),
        # clusters 1+2 serve task 3 (single-task block), cluster 3 is
        # uniformly dominated (idle).
        T = np.full((4, 4), 100.0)
        T[0, :3] = 1.0
        T[1:3, 3] = 1.0
        A = np.full((4, 4), 0.9)
        problem = MatchingProblem(T=T, A=A,
                                  gamma=feasible_gamma(T, A, quantile=0.2))
        bcfg = BlockConfig(min_viable=1)
        structure = analyze_blocks(problem, bcfg)
        assert structure.shapes in (((1, 3), (2, 1)), ((2, 1), (1, 3)))
        assert structure.idle_clusters.tolist() == [3]
        sol = solve_relaxed_blocks(problem, SolverConfig(max_iters=400),
                                   block_config=bcfg, structure=structure)
        np.testing.assert_allclose(sol.X.sum(axis=0), 1.0, atol=1e-5)
        # Singleton block: its tasks land entirely on the lone cluster.
        np.testing.assert_allclose(sol.X[0, :3], 1.0, atol=1e-5)
        # Idle cluster receives zero load.
        np.testing.assert_allclose(sol.X[3], 0.0, atol=1e-12)
        assert problem.is_strictly_feasible(sol.X)

    def test_scalar_fallback_for_ablation_objectives(self):
        problem = _dense_problem(3)
        ablation = MatchingProblem(T=problem.T, A=problem.A,
                                   gamma=problem.gamma, cost="linear")
        cfg = SolverConfig(max_iters=300, tol=1e-6)
        # ... and for a projection the mirror-descent batch kernel is not.
        for p, c in ((ablation, cfg), (problem, replace(cfg, projection="euclidean"))):
            sol = solve_relaxed_blocks(p, c)
            assert sol.scalar_fallback
            assert sol.objective == pytest.approx(
                solve_relaxed(p, c).objective, abs=1e-9)


class TestSeedHedge:
    def test_bad_seed_never_worse_than_cold(self):
        problem = _specialist_problem(32, 8)
        cfg = SolverConfig(max_iters=600, tol=1e-4)
        cold = solve_relaxed_blocks(problem, cfg)
        # Adversarial seed: all mass on each task's *slowest* cluster.
        bad = np.zeros((problem.M, problem.N))
        bad[problem.T.argmax(axis=0), np.arange(problem.N)] = 1.0
        seeded = solve_relaxed_blocks(problem, cfg, x0=bad)
        # The hedge swaps the bad seed for the interior cold start, so
        # the descent is bit-identical to the cold run.
        np.testing.assert_array_equal(seeded.X, cold.X)
        assert seeded.iterations == cold.iterations

    def test_good_seed_cuts_iterations(self):
        problem = _specialist_problem(32, 8)
        cfg = SolverConfig(max_iters=600, tol=1e-4)
        cold = solve_relaxed_blocks(problem, cfg)
        seeded = solve_relaxed_blocks(problem, cfg, x0=cold.X)
        assert seeded.iterations <= cold.iterations
        assert seeded.objective <= cold.objective + 1e-6
