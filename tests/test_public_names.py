"""Every exported name, and every name the benchmark's tracer wraps, resolves.

The tracer of ``bench/tracing.py`` rebinds the attributes in its ``SPANS``
(and ``DomainBox.grid``) by name, so a removed or renamed one would fail
only a traced benchmark run; ``SPANS`` is read from that file by path.
"""

import importlib
import importlib.util
import pathlib
import pkgutil

import manideg

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def resolve(holder, dotted):
    for name in dotted.split("."):
        holder = getattr(holder, name)
    return holder


def test_every_exported_name_resolves():
    modules = [manideg] + [importlib.import_module(f"manideg.{info.name}")
                           for info in pkgutil.iter_modules(manideg.__path__)]
    for mod in modules:
        names = getattr(mod, "__all__", ())
        assert len(names) == len(set(names)), mod.__name__
        for name in names:
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names the missing {name!r}"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, module, attributes in tracing.SPANS:
        mod = importlib.import_module(module)
        for attribute in attributes:
            assert callable(resolve(mod, attribute)), f"{span}: {module}.{attribute}"
    assert callable(manideg.DomainBox.grid)
    # dae.py's own reference to ForcedField is the one its velocity span wraps
    assert importlib.import_module("manideg.dae").ForcedField is manideg.ForcedField
