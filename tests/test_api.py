"""Top-level API sanity: imports, __all__, and the quickstart example."""

import importlib

import pytest

import repro

pytestmark = pytest.mark.fast


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        # __version__ is derived (installed metadata or pyproject.toml),
        # never hardcoded; tests/test_version.py pins the mechanics.
        from repro._version import package_version

        assert repro.__version__ == package_version()

    def test_subpackages_importable(self):
        for mod in [
            "repro.core", "repro.graphs", "repro.matching",
            "repro.sequential", "repro.distributed", "repro.dynamic",
            "repro.streaming", "repro.mpc",
            "repro.experiments", "repro.instrument", "repro.cli",
        ]:
            importlib.import_module(mod)

    def test_quickstart_docstring_example(self):
        """The README/module quickstart must keep working verbatim."""
        from repro import build_sparsifier, delta_practical, mcm_exact
        from repro.graphs.generators import clique_union

        g = clique_union(10, 40)
        result = build_sparsifier(g, delta_practical(beta=1, epsilon=0.2),
                                  seed=0)
        assert mcm_exact(result.subgraph).size >= mcm_exact(g).size / 1.2


def test_doctest_module_examples():
    """Run the doctests embedded in key modules."""
    import doctest

    import repro.graphs.sparse_array
    import repro.instrument.counters
    import repro.instrument.timers

    for mod in (repro.graphs.sparse_array, repro.instrument.counters,
                repro.instrument.timers):
        failures, _ = doctest.testmod(mod)
        assert failures == 0


FACADES = ["repro", "repro.core", "repro.matching", "repro.graphs",
           "repro.dynamic", "repro.service", "repro.cluster",
           "repro.instrument"]


@pytest.mark.parametrize("package", FACADES)
class TestLazyFacades:
    """The facades export lazily (:mod:`repro._lazy`) but must behave
    exactly like the eager re-export blocks they replaced."""

    def test_all_is_the_sorted_export_map(self, package):
        facade = importlib.import_module(package)
        assert facade.__all__ == sorted(facade._EXPORTS)

    def test_every_name_is_its_defining_modules_object(self, package):
        facade = importlib.import_module(package)
        for name in facade.__all__:
            defining = importlib.import_module(facade._EXPORTS[name])
            assert getattr(facade, name) is getattr(defining, name), name

    def test_dir_lists_every_name(self, package):
        facade = importlib.import_module(package)
        assert set(facade.__all__) <= set(dir(facade))

    def test_star_import_binds_every_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        facade = importlib.import_module(package)
        for name in facade.__all__:
            assert namespace[name] is getattr(facade, name), name

    def test_unknown_name_raises_naming_the_package(self, package):
        facade = importlib.import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            facade.no_such_name

    def test_submodules_still_import_through_the_facade(self, package):
        facade = importlib.import_module(package)
        prefix = package + "."
        # A submodule named like one of its exports (``hopcroft_karp``)
        # resolves to the export, as under the eager re-export blocks.
        children = {module[len(prefix):].split(".")[0]
                    for module in facade._EXPORTS.values()
                    if module.startswith(prefix)} - set(facade._EXPORTS)
        for name in sorted(children):
            namespace: dict = {}
            exec(f"from {package} import {name} as bound", namespace)
            assert namespace["bound"] is importlib.import_module(
                prefix + name), name
