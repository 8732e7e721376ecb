"""Every exported name, and every name the benchmark's tracer wraps, resolves.

The tracer of ``bench/tracing.py`` rebinds the attributes in its ``SPANS``
(and ``DomainBox.grid``) by name, so a removed or renamed one would fail
only a traced benchmark run; ``SPANS`` is read from that file by path.
"""

import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import manideg

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def resolve(holder, dotted):
    for name in dotted.split("."):
        holder = getattr(holder, name)
    return holder


def public_modules():
    return [manideg] + [importlib.import_module(f"manideg.{info.name}")
                        for info in pkgutil.iter_modules(manideg.__path__)]


def test_every_exported_name_resolves():
    # 45 when this bound was set: a new public name must replace one
    assert len(manideg.__all__) <= 45, manideg.__all__
    for mod in public_modules():
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


def keyword_parameters():
    """(callable, its keyword parameters) by one rule.  The callables are those reachable
    through the ``__all__`` of ``manideg`` and of each of its modules, each object once:
    every function, and of every class defined in ``manideg`` its ``__init__`` (a
    dataclass's generated one too) and every public method (a function, classmethod or
    staticmethod in the class body whose name does not start with ``_``).  A keyword
    parameter is one that is keyword-only or has a default; ``self``, ``*args`` and
    ``**kwargs`` are not."""
    seen, counted = set(), []

    def keywords(fn):
        return [p.name for p in inspect.signature(fn).parameters.values()
                if p.kind is p.KEYWORD_ONLY
                or p.kind is p.POSITIONAL_OR_KEYWORD and p.default is not p.empty]

    for mod in public_modules():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if inspect.isfunction(obj):
                counted.append((f"{obj.__module__}.{obj.__qualname__}", keywords(obj)))
            elif inspect.isclass(obj) and obj.__module__.startswith("manideg"):
                for attr, value in vars(obj).items():
                    value = getattr(value, "__func__", value)  # a classmethod's, staticmethod's
                    public = attr == "__init__" or not attr.startswith("_")
                    if public and inspect.isfunction(value):
                        counted.append((f"{obj.__qualname__}.{attr}", keywords(value)))
    return counted


def test_public_keyword_parameters_do_not_grow():
    # 62 by keyword_parameters' rule when this bound was last set (correct, trace_branch,
    # degree_sign_sum 4 each, ...): a new keyword must replace one
    counted = keyword_parameters()
    assert len(counted) > 50  # the rule still reaches the package's callables
    assert sum(len(names) for _, names in counted) <= 62, counted
