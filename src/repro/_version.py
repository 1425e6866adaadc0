"""Single source of truth for the package version string.

Resolution order (:func:`package_version`):

1. the *installed* distribution metadata (``importlib.metadata``) —
   what a ``pip install``-ed deployment reports;
2. the ``version = "..."`` field of the source tree's
   ``pyproject.toml`` — what a ``PYTHONPATH=src`` checkout reports;
3. the hard-coded :data:`FALLBACK` (kept in sync with
   ``pyproject.toml`` by a test).

Kept dependency-free and import-light so the CLI's ``--version`` flag
never drags in the scientific stack.
"""

from __future__ import annotations

import re
from pathlib import Path

#: Last-resort version, asserted against pyproject.toml by the tests.
FALLBACK = "8.1.0"


def _pyproject_version() -> str | None:
    """The version pinned in the source tree's pyproject.toml, if found."""
    for root in Path(__file__).resolve().parents:
        pyproject = root / "pyproject.toml"
        if pyproject.is_file():
            match = re.search(
                r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.M
            )
            return match.group(1) if match else None
    return None


def package_version() -> str:
    """The repro package version (see module docstring for the order)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("repro")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover - importlib.metadata is 3.8+
        pass
    return _pyproject_version() or FALLBACK
