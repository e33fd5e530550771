"""The process-pool sweep executor.

Shards are independent by construction (each is a self-contained
``repro.sweep/1`` run document), so the executor's only real job is
discipline:

* **Dispatch** — cache probe first, then the missing shards either
  in-process (``jobs <= 1``) or on a
  :class:`concurrent.futures.ProcessPoolExecutor`, both through the same
  :func:`~repro.parallel.worker.run_shard_payload` entry point.
* **Deterministic merge** — results are slotted by shard *index* and
  assembled in spec order once all are in; completion order never leaks
  into the output, so ``jobs=N`` is byte-identical to ``jobs=1``.
* **Structured failure** — a shard that raises comes back as an error
  envelope and surfaces as :class:`ShardError` (which shard, which
  exception, full worker traceback); pending work is cancelled rather
  than left to hang the pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from repro.errors import ExperimentError
from repro.experiments.spec import RunSpec, SweepSpec
from repro.metrics.summary import RunSummary
from repro.parallel.cache import ShardCache
from repro.parallel.result import SweepResult
from repro.parallel.worker import run_shard_payload


class ShardError(ExperimentError):
    """One shard of a sweep failed; carries the worker-side diagnosis."""

    def __init__(
        self,
        *,
        key: str,
        index: int,
        error_type: str,
        message: str,
        traceback_text: str = "",
    ):
        self.key = key
        self.index = index
        self.error_type = error_type
        self.traceback_text = traceback_text
        super().__init__(f"shard {index} ({key}) failed: {error_type}: {message}")


class SweepExecutor:
    """Executes a :class:`~repro.experiments.spec.SweepSpec` shard by shard.

    ``jobs`` caps the worker-process count (``<= 1`` runs every shard
    in-process, through the identical worker function).  ``cache`` is an
    optional :class:`~repro.parallel.ShardCache` consulted before any
    dispatch and fed after every fresh run.  ``progress`` (if given) is called
    with ``(shard, status)`` where status is ``"cached"``, ``"running"``,
    or ``"done"``.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: ShardCache | None = None,
        progress: Callable[[RunSpec, str], None] | None = None,
    ):
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress

    def run(self, sweep: SweepSpec) -> SweepResult:
        """Execute every shard and merge in spec order."""
        shards = sweep.shards
        envelopes: list[dict | None] = [None] * len(shards)
        cached: list[bool] = [False] * len(shards)

        if self.cache is not None:
            for index, shard in enumerate(shards):
                hit = self.cache.load(shard)
                if hit is not None:
                    envelopes[index] = hit
                    cached[index] = True
                    self._report(shard, "cached")

        missing = [index for index, envelope in enumerate(envelopes) if envelope is None]
        if self.jobs <= 1 or len(missing) <= 1:
            for index in missing:
                self._report(shards[index], "running")
                envelopes[index] = run_shard_payload(shards[index].to_dict())
                self._finish(sweep, index, envelopes[index])
        else:
            self._run_pool(sweep, missing, envelopes)

        return self._merge(sweep, envelopes, cached)

    # -- internals -----------------------------------------------------
    def _run_pool(
        self, sweep: SweepSpec, missing: list[int], envelopes: list[dict | None]
    ) -> None:
        shards = sweep.shards
        workers = min(self.jobs, len(missing))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for index in missing:
                self._report(shards[index], "running")
                futures[index] = pool.submit(run_shard_payload, shards[index].to_dict())
            try:
                # Collect in spec order; completion order is irrelevant
                # because results land in their own slot.
                for index in missing:
                    try:
                        envelopes[index] = futures[index].result()
                    except BrokenProcessPool as exc:
                        raise ShardError(
                            key=shards[index].key,
                            index=index,
                            error_type=type(exc).__name__,
                            message=(
                                "worker process died before returning a result "
                                "(e.g. killed or crashed hard)"
                            ),
                        ) from exc
                    self._finish(sweep, index, envelopes[index])
            except ShardError:
                for future in futures.values():
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                raise

    def _finish(self, sweep: SweepSpec, index: int, envelope: dict | None) -> None:
        shard = sweep.shards[index]
        if envelope is None or not envelope.get("ok"):
            error = (envelope or {}).get("error", {})
            raise ShardError(
                key=shard.key,
                index=index,
                error_type=error.get("type", "UnknownError"),
                message=error.get("message", "worker returned no result"),
                traceback_text=error.get("traceback", ""),
            )
        if self.cache is not None:
            self.cache.store(shard, envelope)
        self._report(shard, "done")

    def _merge(
        self, sweep: SweepSpec, envelopes: list[dict | None], cached: list[bool]
    ) -> SweepResult:
        summaries = []
        for envelope in envelopes:
            assert envelope is not None  # every index was filled or raised
            summaries.append(RunSummary.from_dict(envelope["summary"]))
        return SweepResult(sweep=sweep, summaries=tuple(summaries), cached=tuple(cached))

    def _report(self, shard: RunSpec, status: str) -> None:
        if self.progress is not None:
            self.progress(shard, status)
