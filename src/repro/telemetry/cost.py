"""The observation-cost model: what monitoring *itself* would cost.

cadvisor-style collectors pay per container they housekeep and per series
they scrape; at 24 nodes that cost is noise, at 1,000 nodes / 50k
containers the observer becomes the workload.  This module makes that
cost a first-class **simulated** quantity:

* the ``PER_*_SECONDS`` prices — fixed per-capture / per-node /
  per-container / per-series / per-skip costs, in simulated seconds of
  collector CPU.  They are cadvisor-shaped (tens of microseconds per
  container housekeeping pass), but the absolute scale matters less than
  the *ratios* the sampling policies change.
* :class:`MonitorBudget` — the running ledger a
  :class:`~repro.telemetry.sampling.SamplingController` charges on every
  sampling pass.  Plain attributes, no registry involvement, so the
  ledger exists (and is comparable across sampling policies) even when
  the cost families are not exported.

Everything here is arithmetic over values the caller supplies — no
clocks, no randomness — so charged budgets are byte-identical across
same-seed runs (the telemetry package contract, lint rule OBS001).
"""

from __future__ import annotations

#: Fixed cost of waking the collector for one capture.
PER_CAPTURE_SECONDS = 1e-3
#: Cost of visiting one node's stats endpoint.
PER_NODE_SECONDS = 5e-5
#: cadvisor-style housekeeping cost per active container touched.
PER_CONTAINER_SECONDS = 2e-5
#: Cost of writing one series point into retention.
PER_SERIES_SECONDS = 2e-6
#: Bookkeeping cost of consulting the controller for a node it then skips.
PER_SKIP_SECONDS = 1e-6


class MonitorBudget:
    """Running ledger of simulated observation cost for one run.

    Charged exclusively by the run's sampling controller (one ledger per
    controller, one controller per run), read by ``run --sampling`` and
    the ``top`` dashboard.  All quantities are cumulative.
    """

    __slots__ = (
        "collection_cost_seconds",
        "captures",
        "nodes_observed",
        "nodes_skipped",
        "containers_observed",
        "series_captured",
    )

    def __init__(self) -> None:
        self.collection_cost_seconds = 0.0
        self.captures = 0
        self.nodes_observed = 0
        self.nodes_skipped = 0
        self.containers_observed = 0
        self.series_captured = 0

    def charge_node(self, containers: int) -> None:
        """One freshly collected node with ``containers`` active containers."""
        self.nodes_observed += 1
        self.containers_observed += containers
        self.collection_cost_seconds += PER_NODE_SECONDS + containers * PER_CONTAINER_SECONDS

    def charge_skip(self) -> None:
        """One node the controller decided not to collect this pass."""
        self.nodes_skipped += 1
        self.collection_cost_seconds += PER_SKIP_SECONDS

    def charge_capture(self, series: int) -> None:
        """One registry capture writing ``series`` series points."""
        self.captures += 1
        self.series_captured += series
        self.collection_cost_seconds += PER_CAPTURE_SECONDS + series * PER_SERIES_SECONDS
