"""Repository hygiene: generated files must never be committed.

A tracked ``.pyc`` once shipped in ``examples/__pycache__`` — bytecode is
interpreter-specific, diffs as noise, and silently shadows edited sources
on version skew.  These meta-tests keep the tree clean: nothing compiled
or generated may be tracked, and ``.gitignore`` must keep it that way.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files() -> list[str]:
    git = shutil.which("git")
    if git is None:
        pytest.skip("git not available")
    result = subprocess.run(
        [git, "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if result.returncode != 0:
        pytest.skip(f"not a git checkout: {result.stderr.strip()}")
    return result.stdout.splitlines()


def test_no_bytecode_or_cache_dirs_tracked():
    offenders = [
        path
        for path in _tracked_files()
        if path.endswith((".pyc", ".pyo")) or "__pycache__" in path.split("/")
    ]
    assert offenders == [], f"generated bytecode is committed: {offenders}"


def test_no_generated_reports_tracked():
    offenders = [
        path for path in _tracked_files() if Path(path).name.startswith("BENCH_")
    ]
    assert offenders == [], f"generated reports are committed: {offenders}"


def test_no_egg_info_tracked():
    offenders = [
        path
        for path in _tracked_files()
        if any(part.endswith(".egg-info") for part in path.split("/"))
    ]
    assert offenders == [], f"packaging metadata is committed: {offenders}"


def test_gitignore_covers_bytecode():
    gitignore = (REPO_ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    for required in ("__pycache__/", "*.pyc"):
        assert required in gitignore, f".gitignore is missing {required!r}"
