"""The picklable worker entry point every shard runs through.

``run_shard_payload`` is a plain top-level function over plain JSON types,
so :class:`concurrent.futures.ProcessPoolExecutor` can ship it to a child
process on any start method (fork *or* spawn).  The serial path of
:class:`~repro.parallel.SweepExecutor` calls the very same function
in-process — one code path, which is how "parallel is byte-identical to
serial" is a structural property rather than a test-enforced hope.

Worker exceptions are returned as a structured ``{"ok": False, "error":
...}`` envelope instead of being raised: a raised exception would have to
survive pickling back through the pool, and a type that cannot pickle
would hang diagnosis.  The executor turns the envelope into a
:class:`~repro.parallel.ShardError`.
"""

from __future__ import annotations

import traceback
from typing import Any, Mapping


def run_shard_payload(payload: Mapping[str, Any]) -> dict:
    """Execute one ``repro.sweep/1`` run document and envelope the result.

    Returns ``{"ok": True, "summary": <RunSummary dict>}`` on success and
    ``{"ok": False, "error": {"type", "message", "traceback"}}`` on any
    failure inside the shard.
    """
    try:
        # Imported inside the function: the module must stay importable in
        # a bare spawn child before the heavy experiment stack is needed.
        from repro.experiments.spec import RunSpec

        summary = RunSpec.from_dict(payload).run()
        return {"ok": True, "summary": summary.to_dict()}
    except Exception as exc:  # noqa: BLE001 - the envelope *is* the handler
        return {
            "ok": False,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        }
