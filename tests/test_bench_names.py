"""The benchmark tracer (bench/tracing.py) wraps eyehead functions by name.

A rename or removal under src/ that drops one of those names would only
show when `bench/run.py --trace 1` dies; this check makes it fail here.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    names = [(m, a) for m, a in tracing.TIMED] + [(m, a) for m, a, _ in tracing.COUNTED]
    missing = []
    for module, attr in names:
        target = importlib.import_module(f"eyehead.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert not missing, f"names the benchmark tracer wraps are gone: {missing}"
