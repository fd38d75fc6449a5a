import os
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

# pyproject.toml puts src/ on this process's path; the CLI and demo tests
# start subprocesses, which find projlab through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Property tests draw the same examples on every run, so the suite stays
# deterministic and its time stable.
settings.register_profile(
    "projlab", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("projlab")


@pytest.fixture
def traced_peak():
    """`traced_peak(fn, *args)` calls fn(*args) under tracemalloc and returns
    (its result, the peak of traced memory in bytes during the call)."""

    def run(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    return run
