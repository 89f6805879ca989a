"""The package exports exactly the names its library modules list in
``__all__``, the public names and settings removed as redundant stay
removed, and no module reads a setting from the environment."""

import ast
import importlib
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import assortmax

# the command-line entry point; the package itself does not import it
_ENTRY_POINT = "cli"
_ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


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
    assert not hasattr(assortmax.EmbeddedCollection, "scores")
    assert not hasattr(assortmax.EmbeddedCollection, "max_norm")
    assert not hasattr(assortmax.Assortment, "as_tuple")
    assert "workers" not in {f.name for f in fields(assortmax.BenchConfig)}
    assert "weight_range" not in {f.name for f in fields(assortmax.GenSpec)}
    assert list(inspect.signature(assortmax.default_lsh_params).parameters) == ["num_points"]


def test_no_module_reads_the_environment():
    # every setting is an argument, so no environment knob can come back unseen
    for path in sorted(Path(assortmax.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ({a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else {node.attr} if isinstance(node, ast.Attribute) else set())
            assert not names & _ENVIRONMENT_READS, f"{path.name}:{node.lineno}"
