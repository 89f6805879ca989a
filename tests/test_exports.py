"""The package exports exactly the names its library modules list in
``__all__``, the public names and settings removed as redundant stay
removed, no module reads a setting from the environment, and no module
imports a thread or process pool."""

import ast
import importlib
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import assortmax
from assortmax.mips import EmbeddedCollection

# the command-line entry point; the package itself does not import it
_ENTRY_POINT = "cli"
_ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}
_CONCURRENCY_MODULES = {"concurrent", "threading", "multiprocessing"}
# read only by tests or by their own module, which import them from there
_MODULE_ONLY = {
    "mips": ("QueryVector", "simple_lsh_transform", "hash_key"),
    "solvers": ("SearchState", "compare_step_general", "compare_step_capacitated",
                "compare_step_partitioned"),
    "noisy_search": ("Posterior", "bz_sample_selection", "bz_posterior_update"),
    "bench": ("_aggregate_records",),
}


def _module_trees():
    for path in sorted(Path(assortmax.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _library_modules():
    return [importlib.import_module(f"assortmax.{info.name}")
            for info in pkgutil.iter_modules(assortmax.__path__)
            if info.name != _ENTRY_POINT]


def test_module_exports_are_package_exports():
    for mod in _library_modules():
        assert set(mod.__all__) - set(assortmax.__all__) == set(), mod.__name__


def test_package_exports_come_from_module_exports():
    listed = set().union(*(mod.__all__ for mod in _library_modules()))
    assert set(assortmax.__all__) - listed == set()


def test_redundant_names_and_settings_stay_removed():
    # each returned what its callers already held, or set a value no caller set
    assert not hasattr(assortmax, "EmbeddedPoint")
    # embed_collection is the one public way to embed
    assert "EmbeddedCollection" not in assortmax.__all__
    assert "EmbeddedCollection" not in assortmax.mips.__all__
    assert not hasattr(assortmax, "EmbeddedCollection")
    for name in ("scores", "max_norm", "margin_sums"):  # scores_at rescores
        assert not hasattr(EmbeddedCollection, name)
    assert not hasattr(assortmax.AssortmentCollection, "point_norms")  # see .norms
    assert not hasattr(assortmax.LshMips, "build")  # LshMips(build_lsh_index(...), ...)
    assert not hasattr(assortmax.Assortment, "as_tuple")
    assert "workers" not in {f.name for f in fields(assortmax.BenchConfig)}
    assert "weight_range" not in {f.name for f in fields(assortmax.GenSpec)}
    assert "price_scale" not in {f.name for f in fields(assortmax.Instance)}
    assert "price_scale" not in inspect.signature(assortmax.Instance.from_items).parameters
    assert list(inspect.signature(assortmax.default_lsh_params).parameters) == ["num_points"]
    assert len(assortmax.__all__) == 40
    every_all = set().union(*(mod.__all__ for mod in _library_modules()))
    for module, names in _MODULE_ONLY.items():
        mod = importlib.import_module(f"assortmax.{module}")
        for name in names:
            assert name not in every_all and not hasattr(assortmax, name), name
            assert callable(getattr(mod, name)), name
    assert not hasattr(assortmax, "aggregate_records")
    assert not hasattr(assortmax.bench, "aggregate_records")
    # v0 is a number: no sentinel draws one, and no other type reaches a compare
    with pytest.raises(ValueError, match="v0 must be a positive finite number"):
        assortmax.GenSpec(3, v0=None)
    for v0 in (None, "1"):
        with pytest.raises(ValueError, match="v0 must be a positive finite number"):
            assortmax.Instance([1.0], [1.0], v0)


def test_no_module_reads_the_environment():
    # every setting is an argument, so no environment knob can come back unseen
    for path, tree in _module_trees():
        for node in ast.walk(tree):
            names = ({a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else {node.attr} if isinstance(node, ast.Attribute) else set())
            assert not names & _ENVIRONMENT_READS, f"{path.name}:{node.lineno}"


def test_no_module_imports_a_thread_or_process_pool():
    # the library runs in its caller's thread, so no pool can come back unseen
    for path, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = {node.module}
            else:
                continue
            roots = {name.split(".")[0] for name in names}
            assert not roots & _CONCURRENCY_MODULES, f"{path.name}:{node.lineno}"
