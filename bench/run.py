"""projlab benchmark runner: one seeded workload, closed loop, one process.

Usage, from the repository root:

    python3 bench/run.py --workload incidence --seed 0 --seconds 20 --trace 0

Workloads: incidence, sweep, decouple, cover (see bench/README.md).  The
loop runs items one after another for --seconds, and on until at least
MIN_ITEMS are done; set-up is timed apart.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, with every
time rescaled to a reference machine speed measured by a calibration
kernel run between items (see Calibration).  With
--trace 1 the run covers a fixed prefix of the schedule (the workload's
trace_cycles whole cycles, whatever --seconds says), every item runs
twice, untraced and traced in alternating order, and the metrics are the
per-layer spans and counts of the traced executions plus the tracing
overhead.  The line before it holds the environment record.  Result and
span files go to .bench_out/.

projlab is imported from src/ next to this directory and nowhere else, so
the benchmark fails, without a result line, when src/projlab is missing.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().with_name("reference.json")
REFERENCE_SEED = 0
SETUP_REPEATS = 3  # this process's set-up plus SETUP_REPEATS - 1 fresh ones
SETUP_CALIBRATIONS = 5  # kernel timings right after each set-up
CAL_EVERY_S = 0.25  # item time between two kernel timings in the loop
CAL_REF_S = 1.65e-3  # kernel time at the reference speed: its median on the reference machine
MIN_ITEMS = 100  # so that at least ten items lie beyond p90
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("incidence", "sweep", "decouple", "cover")


def import_projlab():
    """Pin BLAS threads and import projlab from ROOT/src only; exit non-zero when it is not there."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "projlab" / "__init__.py").is_file():
        sys.exit(f"bench: no projlab sources under {src}")
    sys.path.insert(0, str(src))
    import projlab

    if Path(projlab.__file__).resolve().parent != (src / "projlab").resolve():
        sys.exit(f"bench: projlab was imported from {projlab.__file__}, not from {src}")
    return projlab


@dataclass
class LoopResult:
    item_s: list = field(default_factory=list)  # untraced wall time per item
    loop_s: float = 0.0
    failures: list = field(default_factory=list)  # (item, reason)
    records: list = field(default_factory=list)  # (digest, floats) per item
    traced_s: float = 0.0
    untraced_s: float = 0.0
    cal_s: list = field(default_factory=list)  # calibration kernel times

    @property
    def attempted(self) -> int:
        return len(self.item_s)

    @property
    def failed(self) -> int:
        return len({i for i, _ in self.failures})

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.records).encode()).hexdigest()


class Calibration:
    """A fixed kernel whose time measures the machine's current speed.

    The VM this benchmark was built on runs the same work at 1x to 2x its
    fastest time, in phases of seconds to minutes, so raw wall times of runs
    made minutes apart differ by more than any useful bound.  The kernel
    mixes the three kinds of work the workloads do: an interpreted loop, a
    numpy sort of 100,000 floats and two passes over an 8 MB array.  Its
    time is the geometric mean of the three parts.  A run multiplies its
    wall times by CAL_REF_S / (median kernel time), that is, reports them at
    the speed at which the kernel takes CAL_REF_S.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.random(100_000)
        self._big = rng.random(1_000_000)

    def __call__(self) -> float:
        np, clock = self._np, time.perf_counter
        t0 = clock()
        acc = 0
        for j in range(20_000):
            acc += j * j
        t1 = clock()
        np.sort(self._small)
        t2 = clock()
        np.multiply(self._big, -1.0, out=self._big)  # x -> 1 - x keeps values bounded
        np.add(self._big, 1.0, out=self._big)
        t3 = clock()
        return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1.0 / 3.0)

    def scale(self, times) -> float:
        """Factor that brings wall times measured alongside `times` to the reference speed."""
        return CAL_REF_S / statistics.median(times)


def _execute(wl, shared, spec):
    start = time.perf_counter()
    try:
        outcome, error = wl.run(shared, spec), None
    except Exception:  # an item that raises is a failed item, not a crash
        outcome, error = None, traceback.format_exc(limit=-3)
    return time.perf_counter() - start, outcome, error


def _floats_match(a, b, rtol) -> bool:
    return len(a) == len(b) and all(
        math.isclose(x, y, rel_tol=rtol, abs_tol=0.0) for x, y in zip(a, b)
    )


def run_loop(wl, shared, seed, *, seconds=None, min_items=0, n_items=None, tracer=None,
             reference=None, calibration=None):
    """Run items of `wl` until `seconds` pass (and `min_items` are done) or `n_items` are done.

    With a tracer, each item also runs traced, in alternating order, and
    both executions must give the same outputs.  `reference` is a list of
    (digest, floats) for the first items of this seed.  With a calibration,
    its kernel is timed before the first item and after every CAL_EVERY_S
    of item time.
    """
    from workloads import FLOAT_RTOL

    res = LoopResult()
    since_cal = CAL_EVERY_S
    start = time.perf_counter()
    for i, spec in enumerate(wl.schedule(seed)):
        if n_items is not None and i >= n_items:
            break
        if seconds is not None and i >= min_items and time.perf_counter() - start >= seconds:
            break
        if calibration is not None and since_cal >= CAL_EVERY_S:
            res.cal_s.append(calibration())
            since_cal = 0.0
        if tracer is None:
            dt, outcome, error = _execute(wl, shared, spec)
        else:
            runs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.item = i
                    tracer.install()
                try:
                    runs[traced] = _execute(wl, shared, spec)
                finally:
                    if traced:
                        tracer.uninstall()
            dt, outcome, error = runs[False]
            tdt, toutcome, _ = runs[True]
            res.untraced_s += dt
            res.traced_s += tdt
            if outcome is not None and toutcome != outcome:
                res.failures.append((i, "traced outputs differ from untraced outputs"))
        res.item_s.append(dt)
        since_cal += dt
        if error is not None:
            res.failures.append((i, error))
            res.records.append(None)
            continue
        res.records.append((outcome.digest, list(outcome.floats)))
        for check in outcome.failed_checks:
            res.failures.append((i, f"check failed: {check}"))
        if reference is not None and i < len(reference):
            ref_digest, ref_floats = reference[i]
            if outcome.digest != ref_digest:
                res.failures.append((i, "lattice/integer digest differs from reference"))
            if not _floats_match(outcome.floats, ref_floats, FLOAT_RTOL):
                res.failures.append((i, "float outputs differ from reference"))
    res.loop_s = time.perf_counter() - start
    return res


def load_reference(workload, seed):
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


def _git_commit():
    """HEAD of a git checkout rooted at ROOT; None elsewhere (git never looks above ROOT)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def fresh_setup_s(workload, seed):
    """(wall, calibrated) set-up time of a fresh process, as `--setup-only` prints them."""
    r = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120,
    )
    if r.returncode != 0:
        sys.exit(f"bench: fresh set-up of {workload} failed:\n{r.stderr}")
    return tuple(json.loads(r.stdout.strip().splitlines()[-1]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the shared inputs, print the wall and calibrated "
                             "set-up times and exit")
    args = parser.parse_args(argv)

    import_projlab()

    import numpy as np

    import workloads
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        wl = workloads.make(args.workload, scratch)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            shared = wl.setup(args.seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_wall = time.perf_counter() - T0
        calibration = Calibration()
        cal = [calibration() for _ in range(SETUP_CALIBRATIONS)]
        setups = [(setup_wall, setup_wall * calibration.scale(cal))]
        if args.setup_only:
            print(json.dumps(setups[0]))
            return
        if tracer is None:
            setups += [fresh_setup_s(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
            limits = {"seconds": args.seconds, "min_items": MIN_ITEMS,
                      "calibration": calibration}
        else:
            limits = {"n_items": wl.trace_cycles * wl.cycle_len}
        res = run_loop(
            wl,
            shared,
            args.seed,
            tracer=tracer,
            reference=load_reference(args.workload, args.seed),
            **limits,
        )

    wall = {"setup_s": [w for w, _ in setups]}
    if tracer is None:
        times_ms = np.asarray(res.item_s) * 1e3
        wall.update({
            "items_per_s": res.attempted / float(times_ms.sum() / 1e3),
            "item_p50_ms": float(np.percentile(times_ms, 50)),
            "item_p90_ms": float(np.percentile(times_ms, 90)),
            "calibration_ms": statistics.median(res.cal_s) * 1e3,
        })
        scale = calibration.scale(res.cal_s)
        metrics = {
            "items_per_s": _metric(wall["items_per_s"] / scale, "1/s"),
            "item_p50_ms": _metric(wall["item_p50_ms"] * scale, "ms"),
            "item_p90_ms": _metric(wall["item_p90_ms"] * scale, "ms"),
            "setup_s": _metric(statistics.median(c for _, c in setups), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
            ),
            "ok_rate": _metric((res.attempted - res.failed) / res.attempted, "fraction"),
        }
    else:
        metrics = {k: _metric(v, u) for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead"] = _metric(res.traced_s / res.untraced_s - 1.0, "fraction")

    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "wall": wall,
        "run_digest": res.digest(),
        "failures": res.failures[:20],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**info, "result": result, "item_s": res.item_s, "cal_s": res.cal_s}, indent=1)
    )
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps({
            "summary": tracer.summary(),
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
        }))
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
