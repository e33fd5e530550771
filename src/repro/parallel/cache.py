"""Content-addressed shard cache: what makes sweeps resumable.

A shard's cache key is ``sha256(canonical RunSpec JSON + "\\n" +
code-version tag)``.  The spec JSON captures everything that determines
the result (config, fleet, loads, policy name, seed, duration, routing);
the code-version tag invalidates every entry when the simulator's
behaviour changes.  Nothing else may enter the key — observation knobs
never affect results, so they never affect keys.

Entries are single JSON files named ``<key>.json`` under the cache root,
written atomically (temp file + ``os.replace``) so an interrupted sweep
never leaves a torn entry behind — re-running with the same ``--cache-dir``
skips every completed shard and executes only the missing ones.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.codec import canonical_json, parse_json, untag
from repro.errors import ExperimentError
from repro.metrics.summary import decode_summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunSpec

#: Behaviour tag mixed into every cache key.  Bump whenever a change could
#: alter any run's results (engine semantics, overhead model, policies,
#: codec shape) — stale entries then miss instead of lying.
CODE_VERSION = "hyscale-repro/1.0.0"

#: Schema tag of the cache-entry file format.
CACHE_SCHEMA = "repro.sweep-cache/1"


class ShardCache:
    """Filesystem cache of completed shard results.

    Purely advisory: a load miss (absent, torn, schema-mismatched, or
    written by another code version) simply means the shard runs again.
    """

    def __init__(self, root: str | Path, *, code_version: str = CODE_VERSION):
        self.root = Path(root)
        self.code_version = code_version
        self.hits = 0
        self.misses = 0

    def key_for(self, spec: "RunSpec") -> str:
        """The shard's content address (hex sha256)."""
        material = spec.canonical_json() + "\n" + self.code_version
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def path_for(self, spec: "RunSpec") -> Path:
        """Where the shard's entry lives (whether or not it exists yet)."""
        return self.root / f"{self.key_for(spec)}.json"

    def load(self, spec: "RunSpec") -> dict | None:
        """Return the cached worker envelope for ``spec``, or ``None``.

        An entry that is not valid JSON, has another schema or code
        version, was stored for another spec, or whose summary does not
        decode is a miss.  Fields other than the summary are ignored, so
        entries that carry the ``telemetry`` field older versions wrote
        still load.
        """
        try:
            text = self.path_for(spec).read_text(encoding="utf-8")
            entry = parse_json(text, ExperimentError, "entry")
            entry = untag(entry, ExperimentError, "entry", schema=CACHE_SCHEMA)
            decode_summary(entry.get("summary"), ExperimentError, "entry.summary")
            # Paranoia against sha collisions and hand-edited files: the
            # stored spec must match the requested one byte-for-byte.
            valid = entry.get("code_version") == self.code_version and (
                canonical_json(entry.get("spec")) == spec.canonical_json()
            )
        except (OSError, ValueError, ExperimentError):  # ValueError: not UTF-8
            valid = False
        if not valid:
            self.misses += 1
            return None
        self.hits += 1
        return {"ok": True, "summary": entry["summary"]}

    def store(self, spec: "RunSpec", result: dict) -> Path:
        """Persist a successful worker envelope for ``spec`` atomically."""
        entry = {
            "schema": CACHE_SCHEMA,
            "code_version": self.code_version,
            "key": self.key_for(spec),
            "spec": spec.to_dict(),
            "summary": result["summary"],
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(canonical_json(entry) + "\n", encoding="utf-8")
        os.replace(tmp, path)
        return path
