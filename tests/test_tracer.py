"""The benchmark's tracer binds library functions by name: a rename or a
deletion in `src/` that breaks it should fail here, not only under
`pytest bench`."""

import importlib.util
from pathlib import Path

import projlab  # noqa: F401  the tracer rebinds names in the modules already loaded

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("projlab_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = tracer.Tracer()._bindings  # _plan looks up every TARGETS entry
    assert len({id(wrapper) for *_, wrapper in bindings}) == len(tracer.TARGETS)
