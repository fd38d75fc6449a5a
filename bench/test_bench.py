"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile

import pytest

import run

run.import_projlab()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

N_ITEMS = 6
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as d:
        yield d


@pytest.fixture(scope="module", params=run.WORKLOADS)
def loaded(request, scratch):
    wl = workloads.make(request.param, scratch)
    return wl, wl.setup(run.REFERENCE_SEED)


def test_traced_and_untraced_runs_give_the_same_digest(loaded):
    wl, shared = loaded
    seed = run.REFERENCE_SEED
    reference = run.load_reference(wl.name, seed)
    plain = run.run_loop(wl, shared, seed, n_items=N_ITEMS, reference=reference)
    traced = run.run_loop(
        wl, shared, seed, n_items=N_ITEMS, tracer=Tracer(), reference=reference
    )
    assert plain.failures == [] and traced.failures == []
    assert plain.attempted == traced.attempted == N_ITEMS
    assert plain.digest() == traced.digest()


def test_two_traced_runs_give_identical_counts(loaded):
    wl, shared = loaded
    tracers = [Tracer(), Tracer()]
    for tracer in tracers:
        run.run_loop(wl, shared, 7, n_items=N_ITEMS, tracer=tracer)
    first, second = ({k: v for k, (v, unit) in t.metrics().items() if unit == "count"}
                     for t in tracers)
    assert first == second
    assert sum(first[k] for k in first if k.endswith(".calls")) > 0


def test_tracer_restores_every_binding(scratch):
    wl = workloads.make("cover", scratch)
    tracer = Tracer()
    before = [getattr(ns, attr) for ns, attr, _, _ in tracer._bindings]
    run.run_loop(wl, None, 1, n_items=2, tracer=tracer)
    assert [getattr(ns, attr) for ns, attr, _, _ in tracer._bindings] == before
    assert tracer.summary()["covering.greedy_cover"]["calls"] == 2


def test_loop_runs_past_its_time_until_min_items(scratch):
    wl = workloads.make("cover", scratch)
    res = run.run_loop(wl, None, 1, seconds=0.0, min_items=3)
    assert res.attempted == 3


def test_loop_times_the_calibration_kernel_before_the_first_item(scratch):
    wl = workloads.make("cover", scratch)
    calibration = run.Calibration()
    res = run.run_loop(wl, None, 1, n_items=2, calibration=calibration)
    assert len(res.cal_s) >= 1 and min(res.cal_s) > 0
    assert calibration.scale(res.cal_s) == run.CAL_REF_S / statistics.median(res.cal_s)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    r = _bench(run.ROOT, "--workload", "cover", "--seed", "3", "--seconds", "1",
               "--trace", trace)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # traced runs cover a fixed prefix; untraced ones run on to MIN_ITEMS
    cover = workloads.Cover
    want_items = cover.trace_cycles * cover.cycle_len if trace == "1" else run.MIN_ITEMS
    assert result["attempted"] >= want_items
    if trace == "1":
        assert result["attempted"] == want_items
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = _bench(tmp_path, "--workload", "cover", "--seed", "0", "--seconds", "1",
               "--trace", "0")
    assert r.returncode != 0
    assert r.stdout.strip() == ""
