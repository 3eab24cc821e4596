"""Deterministic task routing for the sharded multi-dispatcher platform.

The fleet layer splits the admission stream across N per-shard
dispatchers; this module decides *which* shard each arriving task hits.
Two policies, both pure functions of (task identity, arrival hour,
up-shard set) so a routed fleet run is replayable from its seed:

- :class:`HashRouter` — consistent hashing on the task id over a
  virtual-node ring (:class:`HashRing`).  Stable under shard-count
  changes (adding a shard moves ~1/(n+1) of the keys) and gives each
  task a full *preference order* of shards, so failover under a
  full-shard outage is deterministic: the task goes to the first shard
  of its preference list that is up;
- :class:`LoadAwareRouter` — the same ring breaks ties, but the primary
  signal is an admission-side queue-depth proxy: the count of tasks
  routed to each shard within the trailing ``window_hours``.  The least
  loaded up shard wins (preference rank breaks ties), which levels
  bursty streams across shards at the cost of cache affinity.

Neither router sees wall clock or randomness; both are *stateful over a
single run* (the load-aware depth window), so callers construct a fresh
router per run — :func:`make_router` is the factory the fleet controller
and replay layer share.

:func:`full_down_intervals` reduces a shard's cluster outage schedule to
the intervals where *every* cluster of the shard is down — the only
condition under which the fleet re-routes around a shard, since a
partially degraded shard still serves (the dispatcher's own
dropout/requeue machinery handles it internally).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from collections import deque

from repro.serve.dispatcher import Outage

__all__ = [
    "HashRing",
    "HashRouter",
    "LoadAwareRouter",
    "make_router",
    "full_down_intervals",
]

ROUTING_POLICIES = ("hash", "load")


def _hash64(text: str) -> int:
    """Stable 64-bit hash (sha256 prefix) — never Python's salted hash()."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


#: Virtual nodes per shard on the consistent-hash ring.
REPLICAS = 64


class HashRing:
    """Consistent-hash ring over ``n_shards`` with virtual nodes.

    Each shard owns ``REPLICAS`` points on a 64-bit ring; a key routes to
    the owner of the first point at or after its own hash (wrapping).
    With enough replicas per shard the key space splits near-uniformly,
    and growing the fleet from n to n+1 shards remaps only the keys that
    fall into the new shard's arcs — ~1/(n+1) of them.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = n_shards
        points: "list[tuple[int, int]]" = []
        for shard in range(n_shards):
            for r in range(REPLICAS):
                points.append((_hash64(f"shard-{shard}#{r}"), shard))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    def owner(self, key: str) -> int:
        """The shard owning ``key`` (its ring home)."""
        i = bisect_right(self._hashes, _hash64(key)) % len(self._points)
        return self._points[i][1]

    def preference(self, key: str) -> "tuple[int, ...]":
        """All shards in ring-walk order from ``key`` (home first).

        The deterministic failover order: a task whose home shard is
        fully down goes to the next *distinct* shard along the ring.
        """
        start = bisect_right(self._hashes, _hash64(key))
        seen: "list[int]" = []
        member = set()
        n = len(self._points)
        for step in range(n):
            shard = self._points[(start + step) % n][1]
            if shard not in member:
                member.add(shard)
                seen.append(shard)
                if len(seen) == self.n_shards:
                    break
        return tuple(seen)


class HashRouter:
    """Pure consistent-hash routing with ring-order failover."""

    policy = "hash"

    def __init__(self, n_shards: int) -> None:
        self.ring = HashRing(n_shards)
        self.n_shards = n_shards
        self.rerouted = 0  # arrivals that missed their ring home

    def route(self, task_id: int, t: float, up: "frozenset[int] | set[int]",
              ) -> int:
        """Shard for ``task_id`` arriving at hour ``t`` given up shards.

        With every shard down the ring home is returned anyway — the
        shard's dispatcher queues the task until a cluster rejoins, so
        no arrival is ever dropped at the routing layer.
        """
        pref = self.ring.preference(str(task_id))
        if not up:
            return pref[0]
        for shard in pref:
            if shard in up:
                if shard != pref[0]:
                    self.rerouted += 1
                return shard
        return pref[0]


class LoadAwareRouter:
    """Least-loaded routing over a trailing admission window.

    The load signal is deterministic and admission-side: how many tasks
    this router sent to each shard within the last ``window_hours`` —
    a queue-depth proxy the routing tier of a real platform computes
    without waiting on dispatcher feedback.  The consistent-hash
    preference order breaks depth ties, so the policy degrades to hash
    routing under uniform load.
    """

    policy = "load"

    def __init__(self, n_shards: int, *, window_hours: float = 1.0) -> None:
        if window_hours <= 0:
            raise ValueError(f"window_hours must be positive, got {window_hours}")
        self.ring = HashRing(n_shards)
        self.n_shards = n_shards
        self.window_hours = window_hours
        self.rerouted = 0
        self._recent: "list[deque[float]]" = [deque() for _ in range(n_shards)]

    def _depth(self, shard: int, t: float) -> int:
        recent = self._recent[shard]
        horizon = t - self.window_hours
        while recent and recent[0] <= horizon:
            recent.popleft()
        return len(recent)

    def route(self, task_id: int, t: float, up: "frozenset[int] | set[int]",
              ) -> int:
        pref = self.ring.preference(str(task_id))
        rank = {shard: i for i, shard in enumerate(pref)}
        candidates = [s for s in range(self.n_shards) if s in up] or [pref[0]]
        best = min(candidates, key=lambda s: (self._depth(s, t), rank[s]))
        if best != pref[0]:
            self.rerouted += 1
        self._recent[best].append(t)
        return best


def make_router(policy: str, n_shards: int, *, window_hours: float = 1.0):
    """Fresh router for one run (routers carry per-run state)."""
    if policy == "hash":
        return HashRouter(n_shards)
    if policy == "load":
        return LoadAwareRouter(n_shards, window_hours=window_hours)
    raise ValueError(
        f"routing policy must be one of {ROUTING_POLICIES}, got {policy!r}")


def full_down_intervals(outages: "list[Outage]", n_clusters: int,
                        ) -> "list[tuple[float, float]]":
    """Intervals during which *every* one of ``n_clusters`` is down.

    Per-cluster outage intervals are unioned first (overlapping outages
    of one cluster count once), then a sweep line finds the stretches
    where the down-count reaches ``n_clusters``.  Returned intervals are
    half-open ``[start, end)``, disjoint, and sorted — the shard is
    "up" at hour ``t`` iff ``t`` falls in none of them.
    """
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    by_cluster: "dict[int, list[tuple[float, float]]]" = {}
    for o in outages:
        by_cluster.setdefault(o.cluster_id, []).append((o.start, o.end))
    if len(by_cluster) < n_clusters:
        return []
    events: "list[tuple[float, int]]" = []
    for intervals in by_cluster.values():
        intervals.sort()
        merged: "list[list[float]]" = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        for start, end in merged:
            # At equal times the -1 (end) sorts before the +1 (start):
            # half-open intervals that touch do not count as overlapping.
            insort(events, (end, -1))
            insort(events, (start, +1))
    down = 0
    full: "list[tuple[float, float]]" = []
    full_since: "float | None" = None
    for t, delta in events:
        down += delta
        if down == n_clusters and full_since is None:
            full_since = t
        elif down < n_clusters and full_since is not None:
            if t > full_since:
                full.append((full_since, t))
            full_since = None
    return full
