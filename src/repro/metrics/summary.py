"""Run summaries: the numbers the paper's figures plot.

:class:`RunSummary` freezes a finished run into exactly the quantities shown
in Figures 6-8 and 10 — average response time, percentage of requests
failed, and the removal/connection breakdown — plus distributional extras
(percentiles) that make regressions visible in tests.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any

import numpy as np

from repro.errors import ExperimentError
from repro.metrics.collector import MetricsCollector, TimelinePoint


@dataclass(frozen=True)
class ServiceSummary:
    """Per-service request statistics."""

    service: str
    completed: int
    removal_failures: int
    connection_failures: int
    avg_response_time: float
    p95_response_time: float
    # Appended after p95 with defaults so summaries archived before these
    # fields existed still load through from_dict().
    p50_response_time: float = 0.0
    p99_response_time: float = 0.0

    @property
    def total(self) -> int:
        """All finished requests for this service."""
        return self.completed + self.removal_failures + self.connection_failures

    @property
    def percent_failed(self) -> float:
        """Failed requests as a percentage of all finished requests."""
        if self.total == 0:
            return 0.0
        return 100.0 * (self.removal_failures + self.connection_failures) / self.total


@dataclass(frozen=True)
class AppSummary:
    """Ingress (user-traffic) statistics for an application-graph run.

    Per-tier :class:`ServiceSummary` rows count *all* traffic — including
    the internal calls the graph router fans out — which is the right
    capacity view but would double-count users.  This block counts only
    requests that entered at an ingress tier; their response times are
    end-to-end by construction (a tier settles only after its downstream
    subtree resolves).
    """

    app: str
    ingress_requests: int
    ingress_completed: int
    ingress_removal_failures: int
    ingress_connection_failures: int
    #: Finished internal tier-to-tier calls (the double-count avoided).
    internal_requests: int
    avg_response_time: float
    p50_response_time: float
    p95_response_time: float
    p99_response_time: float
    services: tuple[ServiceSummary, ...] = ()

    @property
    def ingress_failed(self) -> int:
        """Failed ingress requests, both failure classes."""
        return self.ingress_removal_failures + self.ingress_connection_failures

    @property
    def percent_failed(self) -> float:
        """Failed user requests as a percentage of all user requests."""
        if self.ingress_requests == 0:
            return 0.0
        return 100.0 * self.ingress_failed / self.ingress_requests

    @property
    def availability(self) -> float:
        """Fraction of user requests served."""
        if self.ingress_requests == 0:
            return 1.0
        return 1.0 - self.ingress_failed / self.ingress_requests


@dataclass(frozen=True)
class RunSummary:
    """Whole-run statistics for one (algorithm, workload) experiment."""

    algorithm: str
    workload: str
    duration: float

    total_requests: int
    completed: int
    removal_failures: int
    connection_failures: int

    avg_response_time: float
    p50_response_time: float
    p95_response_time: float
    p99_response_time: float

    vertical_scale_ops: int
    horizontal_scale_ups: int
    horizontal_scale_downs: int
    oom_kills: int

    services: tuple[ServiceSummary, ...] = ()
    timeline: tuple[TimelinePoint, ...] = field(default=(), repr=False)
    #: Ingress-only block for application-graph runs; ``None`` for plain
    #: single-service runs (and omitted from :meth:`to_dict`, keeping
    #: archived summaries byte-identical).
    app: AppSummary | None = None

    # ------------------------------------------------------------------
    # The figures' y-axes
    # ------------------------------------------------------------------
    @property
    def failed(self) -> int:
        """Total failed requests."""
        return self.removal_failures + self.connection_failures

    @property
    def percent_failed(self) -> float:
        """Figures 6a/7a/8a: percentage of requests failed."""
        if self.total_requests == 0:
            return 0.0
        return 100.0 * self.failed / self.total_requests

    @property
    def percent_removal_failures(self) -> float:
        """Removal-failure share of all requests, in percent."""
        if self.total_requests == 0:
            return 0.0
        return 100.0 * self.removal_failures / self.total_requests

    @property
    def percent_connection_failures(self) -> float:
        """Connection-failure share of all requests, in percent."""
        if self.total_requests == 0:
            return 0.0
        return 100.0 * self.connection_failures / self.total_requests

    @property
    def availability(self) -> float:
        """Fraction of requests served (the paper reports >= 99.8 % up-time)."""
        if self.total_requests == 0:
            return 1.0
        return 1.0 - self.failed / self.total_requests

    # ------------------------------------------------------------------
    # User-traffic view (what comparisons should rank on)
    # ------------------------------------------------------------------
    # For single-service runs these equal the run totals; for app runs
    # they read the ingress-only block so internal graph calls are never
    # double-counted as user traffic.
    @property
    def user_requests(self) -> int:
        """Finished user (ingress) requests."""
        return self.app.ingress_requests if self.app is not None else self.total_requests

    @property
    def user_failed(self) -> int:
        """Failed user requests."""
        return self.app.ingress_failed if self.app is not None else self.failed

    @property
    def user_percent_failed(self) -> float:
        """Failed user requests as a percentage of user traffic."""
        return self.app.percent_failed if self.app is not None else self.percent_failed

    @property
    def user_availability(self) -> float:
        """Fraction of user requests served."""
        return self.app.availability if self.app is not None else self.availability

    @property
    def user_avg_response_time(self) -> float:
        """Mean end-to-end response time of user requests."""
        return self.app.avg_response_time if self.app is not None else self.avg_response_time

    @property
    def user_p95_response_time(self) -> float:
        """p95 end-to-end response time of user requests."""
        return self.app.p95_response_time if self.app is not None else self.p95_response_time

    @property
    def user_p99_response_time(self) -> float:
        """p99 end-to-end response time of user requests."""
        return self.app.p99_response_time if self.app is not None else self.p99_response_time

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_collector(
        cls,
        collector: MetricsCollector,
        *,
        algorithm: str,
        workload: str,
        duration: float,
        app: str | None = None,
    ) -> "RunSummary":
        """Freeze a collector into an immutable summary.

        ``app`` names the application when the collector ran with graph
        accounting; the ingress-only :class:`AppSummary` block is built
        from the collector's ingress accumulators in that case.
        """
        times = collector.all_response_times()
        arr = np.asarray(times) if times else np.asarray([0.0])
        services = []
        for name in collector.service_names():
            acc = collector.service_stats(name)
            svc_arr = np.asarray(acc.response_times) if acc.response_times else np.asarray([0.0])
            services.append(
                ServiceSummary(
                    service=name,
                    completed=acc.completed,
                    removal_failures=acc.removal_failures,
                    connection_failures=acc.connection_failures,
                    avg_response_time=float(svc_arr.mean()),
                    p95_response_time=float(np.percentile(svc_arr, 95)),
                    p50_response_time=float(np.percentile(svc_arr, 50)),
                    p99_response_time=float(np.percentile(svc_arr, 99)),
                )
            )
        app_summary: AppSummary | None = None
        if collector.graph_enabled:
            ingress_times = collector.ingress_response_times()
            ingress_arr = np.asarray(ingress_times) if ingress_times else np.asarray([0.0])
            ingress_services = []
            for name in collector.ingress_service_names():
                acc = collector.ingress_stats(name)
                svc_arr = np.asarray(acc.response_times) if acc.response_times else np.asarray([0.0])
                ingress_services.append(
                    ServiceSummary(
                        service=name,
                        completed=acc.completed,
                        removal_failures=acc.removal_failures,
                        connection_failures=acc.connection_failures,
                        avg_response_time=float(svc_arr.mean()),
                        p95_response_time=float(np.percentile(svc_arr, 95)),
                        p50_response_time=float(np.percentile(svc_arr, 50)),
                        p99_response_time=float(np.percentile(svc_arr, 99)),
                    )
                )
            app_summary = AppSummary(
                app=app if app is not None else workload,
                ingress_requests=collector.ingress_requests,
                ingress_completed=collector.ingress_completed,
                ingress_removal_failures=sum(
                    collector.ingress_stats(n).removal_failures
                    for n in collector.ingress_service_names()
                ),
                ingress_connection_failures=sum(
                    collector.ingress_stats(n).connection_failures
                    for n in collector.ingress_service_names()
                ),
                internal_requests=collector.internal_requests,
                avg_response_time=float(ingress_arr.mean()),
                p50_response_time=float(np.percentile(ingress_arr, 50)),
                p95_response_time=float(np.percentile(ingress_arr, 95)),
                p99_response_time=float(np.percentile(ingress_arr, 99)),
                services=tuple(ingress_services),
            )
        return cls(
            algorithm=algorithm,
            workload=workload,
            duration=duration,
            total_requests=collector.total_requests,
            completed=collector.total_completed,
            removal_failures=collector.total_removal_failures,
            connection_failures=collector.total_connection_failures,
            avg_response_time=float(arr.mean()),
            p50_response_time=float(np.percentile(arr, 50)),
            p95_response_time=float(np.percentile(arr, 95)),
            p99_response_time=float(np.percentile(arr, 99)),
            vertical_scale_ops=collector.vertical_scale_ops,
            horizontal_scale_ups=collector.horizontal_scale_ups,
            horizontal_scale_downs=collector.horizontal_scale_downs,
            oom_kills=collector.oom_kills,
            services=tuple(services),
            timeline=tuple(collector.timeline),
            app=app_summary,
        )

    # ------------------------------------------------------------------
    # Serialization (archival / cross-run tooling)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict with every field, including the timeline."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["services"] = [asdict(s) for s in self.services]
        payload["timeline"] = [asdict(p) for p in self.timeline]
        if self.app is None:
            # Omit rather than emit null: summaries archived before app
            # graphs existed stay byte-identical, as do fresh
            # single-service runs.
            del payload["app"]
        return payload

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Any) -> "RunSummary":
        """Rebuild a summary saved with :meth:`to_dict`.

        Anything else raises :class:`~repro.errors.ExperimentError` naming
        the offending field: a payload that is not an object, a missing or
        unknown field, or a malformed ``services``/``timeline``/``app``
        entry.  Fields added with defaults (the percentile and cost fields)
        may be absent, so older dumps still load.
        """
        data = _fields_of(cls, payload, "run summary")
        data["services"] = _records(ServiceSummary, data.get("services", ()), "services")
        data["timeline"] = _records(TimelinePoint, data.get("timeline", ()), "timeline")
        if data.get("app") is not None:
            app = _fields_of(AppSummary, data["app"], "app")
            app["services"] = _records(ServiceSummary, app.get("services", ()), "app.services")
            data["app"] = AppSummary(**app)
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RunSummary":
        """Rebuild a summary saved with :meth:`to_json`."""
        import json

        return cls.from_dict(json.loads(text))

    def as_row(self) -> dict[str, float | int | str]:
        """One table row, in the shape the benchmark harness prints."""
        return {
            "algorithm": self.algorithm,
            "workload": self.workload,
            "requests": self.total_requests,
            "avg_response_s": round(self.avg_response_time, 3),
            "p95_response_s": round(self.p95_response_time, 3),
            "failed_pct": round(self.percent_failed, 3),
            "removal_pct": round(self.percent_removal_failures, 3),
            "connection_pct": round(self.percent_connection_failures, 3),
            "availability": round(self.availability, 5),
            "scale_ups": self.horizontal_scale_ups,
            "scale_downs": self.horizontal_scale_downs,
            "vertical_ops": self.vertical_scale_ops,
        }


def _fields_of(cls: type[Any], payload: Any, where: str) -> dict[str, Any]:
    """``payload`` as keyword arguments of dataclass ``cls``, or an error
    naming the first missing or unknown field."""
    if not isinstance(payload, dict):
        raise ExperimentError(f"{where} must be a JSON object, got {type(payload).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ExperimentError(f"{where} has unknown field {unknown[0]!r}")
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    missing = [name for name in required if name not in payload]
    if missing:
        raise ExperimentError(f"{where} is missing field {missing[0]!r}")
    return dict(payload)


def _records(cls: type[Any], payload: Any, where: str) -> tuple[Any, ...]:
    """A JSON list of ``cls`` records, each checked by :func:`_fields_of`."""
    if not isinstance(payload, (list, tuple)):
        raise ExperimentError(f"{where} must be a JSON list, got {type(payload).__name__}")
    return tuple(cls(**_fields_of(cls, item, f"{where}[{i}]")) for i, item in enumerate(payload))
