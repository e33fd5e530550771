"""Repo-specific static analysis: the one analyzer behind ``hyscale-repro lint``.

The simulator's headline guarantee — "a :class:`~repro.config.SimulationConfig`
fully determines a run" (see ``repro.sim.rng``) — is a *global* property: one
stray ``np.random.default_rng(...)`` or ``time.time()`` anywhere in the tree
silently breaks it.  This package makes the guarantee structural: one pass
over ``src`` and ``examples`` runs a catalogue of file rules (determinism,
unit hygiene, typed surface, telemetry and sanitizer discipline) and
call-graph rules (hot-path cost, worker safety, determinism taint into the
canonical codecs, registry contracts), silenced only by reasoned
``# lint: disable=RULE(reason)`` markers.

Run it as ``python -m repro.devtools`` or ``hyscale-repro lint``; both take
the options :func:`add_arguments` declares.  See ``docs/dev-tooling.md`` for
the rule table.  This module imports nothing but :mod:`argparse`, so the
main CLI can declare the ``lint`` options without loading the analyzer.
"""

from __future__ import annotations

import argparse
from typing import Sequence

#: Paths checked when none are given (repo-root relative).
DEFAULT_PATHS = ("src", "examples")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the analyzer's options on ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to check (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root", default=None, help="repository root used to derive rule-scoping paths (default: CWD)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="stdout format (default: text)"
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also write the repro.flow/3 JSON report, plus phase timings, to FILE",
    )
    parser.add_argument(
        "--max-wall",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail (exit 1) when the timed phases, parsing through the report, "
        "take longer than SECONDS",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.devtools`` entry point; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools",
        description="The static analyzer of the HyScale reproduction.",
    )
    add_arguments(parser)
    args = parser.parse_args(argv)
    from repro.devtools.analyzer import run

    return run(args)
