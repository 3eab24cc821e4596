"""What a retraining loop sees of a dispatcher.

:class:`WindowHarvester` turns the window stream into the three kinds of
evidence every retraining decision rests on — realized labels (into a
:class:`~repro.retrain.buffer.ReplayBuffer`), a cache of recent decision
windows for the canary's regret replay, and the served log-time MSE
series the post-swap guard compares.
:class:`~repro.retrain.loop.RetrainController` composes one harvester;
:class:`repro.fleet.FleetRetrainController` puts one on every shard over
a single pooled buffer (each shard canaries on its own traffic and
guards against its own baseline).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.retrain.buffer import ReplayBuffer
from repro.retrain.canary import CanaryWindow
from repro.serve.dispatcher import ServeCallback, WindowSnapshot

__all__ = ["WindowHarvester"]


class WindowHarvester(ServeCallback):
    """Labels, canary windows and served error of one dispatcher's windows."""

    def __init__(self, buffer: ReplayBuffer, pair_index: "dict[int, int]",
                 *, canary_windows: int) -> None:
        self.buffer = buffer
        #: Cluster id → row of the predictor-pair list serving it.
        self.pair_index = pair_index
        self.windows: "deque[CanaryWindow]" = deque(maxlen=canary_windows)
        #: ``(window, served log-time MSE)``, one tuple per window with
        #: completed tasks.
        self.window_mse: "list[tuple[int, float]]" = []
        #: Latest simulated hour at which a harvested label is observable.
        self.max_label_end = 0.0

    def on_requeue(self, task_id: int, arrival: float, t: float) -> None:
        self.buffer.discard(task_id, arrival)

    def on_window(self, snapshot: WindowSnapshot) -> None:
        self.buffer.harvest(snapshot)
        end = snapshot.end
        if end.size:
            self.max_label_end = max(self.max_label_end, float(end.max()))
        self.windows.append(CanaryWindow(
            window=snapshot.window,
            pair_rows=tuple(self.pair_index[cid]
                            for cid in snapshot.cluster_ids),
            T=snapshot.T, A=snapshot.A, gamma=snapshot.gamma,
            Z=snapshot.features,
        ))
        hours = snapshot.realized_hours
        ok = snapshot.success & (hours > 0)
        if not ok.any():
            return
        tasks = ok.nonzero()[0]
        t_hat = snapshot.T_hat[snapshot.X.argmax(axis=0)[tasks], tasks]
        err = np.log(np.maximum(t_hat, 1e-12)) - np.log(hours[tasks])
        self.window_mse.append((snapshot.window, float((err ** 2).mean())))
