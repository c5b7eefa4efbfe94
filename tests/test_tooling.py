"""Tooling that reaches into fedmmg by name still finds what it names."""

import importlib
import importlib.util
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, qualname: str) -> bool:
    """Whether the benchmark tracer can wrap fedmmg.<module>.<qualname>: a
    function defined in that module, or a function, classmethod or
    staticmethod in the named class's own namespace."""
    mod = importlib.import_module(f"fedmmg.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name, None)
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        return inspect.isfunction(raw)
    fn = getattr(mod, attr, None)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


def test_every_trace_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [f"{m}.{q}" for m, q in targets if not _resolves(m, q)]
    assert not missing, f"perfbench trace targets not found in fedmmg: {missing}"
