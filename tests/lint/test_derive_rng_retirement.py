"""The derive_rng retirement is finished: the helper is gone.

The pre-1.3 ``derive_rng`` helper (deprecated since 1.3) was removed in
2.0.  These tests pin the end state: no module under ``src/repro``
references it (by import or by name), it is not exported from the
``repro.instrument`` package or its ``rng`` module, and importing the
public facade emits no deprecation warning.
"""

import ast
import warnings
from pathlib import Path

import pytest

pytestmark = pytest.mark.fast

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def referenced_names(tree: ast.AST) -> set[str]:
    """Every identifier a module references: names, attributes, imports."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


class TestRetirement:
    def test_no_module_references_derive_rng(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if "derive_rng" in referenced_names(tree):
                offenders.append(str(path.relative_to(SRC)))
        assert offenders == [], (
            "derive_rng was removed; these modules still reference it: "
            f"{offenders}"
        )

    def test_not_reexported_from_instrument_package(self):
        import repro.instrument as instrument

        assert "derive_rng" not in instrument.__all__
        assert "derive_rng" not in vars(instrument)

    def test_shim_is_gone(self):
        with pytest.raises(ImportError):
            from repro.instrument.rng import derive_rng  # noqa: F401

    def test_internal_suite_emits_no_deprecation_warning(self):
        # Importing the whole public facade warns about nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro.api  # noqa: F401
            import repro.service  # noqa: F401
