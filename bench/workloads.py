"""The four benchmark workloads: seeded item schedules, item bodies and output checks.

Every workload is a closed loop of items.  `schedule(seed)` yields item
specs forever; the n-th spec depends only on (seed, n), so a run of any
length sees a prefix of the same sequence.  Each cycle of the schedule
holds every input class of the workload once (or a fixed number of times),
in a seeded order, so runs on different seeds execute the same mix.  A
traced run covers the first `trace_cycles` cycles (`cycle_len` items each),
so its per-layer counts do not depend on how fast the items run.

`run(shared, spec)` executes one item through projlab's public functions,
always looked up as module attributes so that the tracer's rebinding
reaches them.  It returns an `Outcome`: a digest of the lattice and integer
outputs (compared exactly), a tuple of float outputs (compared within
FLOAT_RTOL), and the names of the failed invariants.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from projlab import covering, curve, fourier, fractal, incidence, projection

#: relative tolerance for float outputs (Fourier sums may drift in the last bits)
FLOAT_RTOL = 1e-9

CURVE_NAME = "model"


@dataclass(frozen=True)
class Outcome:
    digest: str
    floats: tuple
    failed_checks: tuple


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        a = np.ascontiguousarray(part)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _failed(checks: dict) -> tuple:
    return tuple(name for name, ok in checks.items() if not ok)


def _cycles(seed: int, classes: list):
    """Yield (class, item seed) forever, each cycle a seeded permutation of classes."""
    rng = np.random.default_rng(seed)
    while True:
        for j in rng.permutation(len(classes)):
            yield classes[j], int(rng.integers(0, 2**31))


class Incidence:
    """Criterion 5's body on many tiny sets: the cost is per call."""

    name = "incidence"
    classes = [
        (s, t, k) for s in (0.3, 0.5, 0.7) for t in (0.3, 0.5, 0.7) for k in (4, 5, 6, 7)
    ]
    cycle_len = len(classes)
    trace_cycles = 4

    def setup(self, seed: int):
        return curve.named_curve(CURVE_NAME)

    def schedule(self, seed: int):
        return _cycles(seed, self.classes)

    def run(self, model, spec) -> Outcome:
        (s, t, k), item_seed = spec
        ispec = incidence.IncidenceSpec(delta=2.0**-k, s=s, t=t, seed=item_seed)
        cfg = incidence.random_admissible_config(ispec)
        m = incidence.incidence_count(cfg, model)
        rep = incidence.verify_incidence_bound(cfg, model, epsilon=0.1)
        rows, cols = m.row_counts(), m.col_counts()
        offsets = np.concatenate([f.offsets for f in cfg.families])
        return Outcome(
            digest=_digest(cfg.net.indices, cfg.balls.indices, offsets, rows, cols),
            floats=(rep.fitted_c,),
            failed_checks=_failed({
                "row_sum_equals_col_sum": int(rows.sum()) == int(cols.sum()),
                "fitted_C_below_ceiling": rep.fitted_c <= incidence.FITTED_C_CEILING,
            }),
        )


class Sweep:
    """One theta of criterion 4 on the 262,144-cell Cantor product: memory traffic."""

    name = "sweep"
    n_theta = 256
    cycle_len = n_theta
    trace_cycles = 1

    def setup(self, seed: int):
        c = fractal.cantor_1d(1 / 3, 6)  # delta = 2^-10 by the nearest-dyadic rule
        return curve.named_curve(CURVE_NAME), fractal.product_set(c, c, c)

    def schedule(self, seed: int):
        phase = float(np.random.default_rng(seed).random())
        thetas = [(i + phase) / self.n_theta for i in range(self.n_theta)]
        return _cycles(seed, thetas)

    def run(self, shared, spec) -> Outcome:
        model, a = shared
        theta, _ = spec
        p = projection.project_line(a, model, theta)
        fit = projection.box_dimension(p, 4 * a.delta, 2.0**-2)
        counts = fit.counts.astype(np.int64)
        return Outcome(
            digest=_digest(p.indices, counts),
            floats=(fit.slope, fit.r2),
            failed_checks=_failed({
                "box_counts_monotone": bool(np.all(np.diff(counts) >= 0)),
                "est_dim_finite": math.isfinite(fit.slope),
            }),
        )


class Decouple:
    """Small-cap decoupling and wave envelopes at M = 16, 32, 64: the only Fourier workload."""

    name = "decouple"
    t = 0.5
    # p50 falls inside the M = 32 class and p90 inside the M = 64 class, and a
    # 20 s run still holds well over 100 items
    classes = [16] * 3 + [32] * 4 + [64]
    cycle_len = len(classes)
    trace_cycles = 8

    def setup(self, seed: int):
        model = curve.named_curve(CURVE_NAME)
        return {M: fourier.build_geometry(model, 1.0 / M) for M in sorted(set(self.classes))}

    def schedule(self, seed: int):
        return _cycles(seed, self.classes)

    def run(self, geometries, spec) -> Outcome:
        M, item_seed = spec
        geo = geometries[M]
        caps = fourier.tspacing_subsample(geo, self.t, item_seed)
        g = fourier.random_cap_function(geo, caps, item_seed + 1)
        rep = fourier.decoupling_ratio(g, caps, geo)
        env = fourier.wave_envelope_rhs(g, geo)
        per_s = tuple(env.per_s[s] for s in sorted(env.per_s))
        return Outcome(
            digest=_digest(caps.directions),
            floats=(rep.lhs, rep.rhs, rep.ratio, env.total, env.l4) + per_s,
            failed_checks=_failed({
                "ratio_at_most_4": rep.ratio <= 4.0,
                "wave_envelope_quotient": env.l4 / env.total <= 2.0 * M**0.5,
            }),
        )


class Cover:
    """Coverings, exhaustive window scans and serialization of seeded sets."""

    name = "cover"
    # 27 covering classes (criterion 1's recipe) and 6 three-dimensional
    # window-scan classes, so p50 lies among the former and p90 among the latter
    classes = (
        [(1, k, s) for k in range(5, 11) for s in (0.3, 0.5, 0.8)]
        + [(2, k, s) for k in (4, 5, 6) for s in (0.3, 0.5, 0.8)]
        + [(3, 3, s) for s in (2.4, 2.6, 2.8)] * 2
    )
    cycle_len = len(classes)
    trace_cycles = 12

    def __init__(self, scratch_dir):
        self.csv_path = os.path.join(scratch_dir, "cover_roundtrip.csv")

    def setup(self, seed: int):
        return None

    def schedule(self, seed: int):
        return _cycles(seed, self.classes)

    def run(self, _, spec) -> Outcome:
        (dim, k, s), item_seed = spec
        rng = np.random.default_rng(item_seed)
        n = max(1, int(0.8 * 2 ** (k * s)))
        idx = np.unique(rng.integers(0, 2**k, size=(n, dim)), axis=0)
        p = fractal.PointSet(dim, 2.0**-k, idx, nominal_dim=float(s))
        cov = covering.greedy_cover(p, s, 1.0, min_level=0)
        rep = covering.validate_covering(cov)
        content = covering.dyadic_content(p, s, k)
        scan = fractal.validate_delta_s_set(p, s)
        fractal.save_csv(p, self.csv_path)
        reloaded = fractal.load_csv(self.csv_path)
        # a fresh file per item: truncating a reused one makes ext4 flush it on close
        os.remove(self.csv_path)
        cov_back = covering.covering_from_json(covering.covering_to_json(cov), dim)
        slack = covering.BUDGET_SLACK
        checks = {
            "cover": rep.cover_ok,
            "disjoint": rep.disjoint_ok,
            "budget_at_most_epsilon": rep.budget_value <= 1.0 + slack,
            "condition3_at_most_1": rep.worst_condition3_ratio <= 1.0 + slack,
            "content_at_most_budget": content <= rep.budget_value + slack,
            "csv_roundtrip": np.array_equal(reloaded.indices, p.indices),
            "json_roundtrip": sorted(cov_back.levels) == sorted(cov.levels)
            and all(np.array_equal(cov_back.levels[j], cov.levels[j]) for j in cov.levels),
        }
        levels = [np.asarray([j, len(cov.levels[j])]) for j in sorted(cov.levels)]
        cubes = [cov.levels[j] for j in sorted(cov.levels)]
        parts = [p.indices, *levels, *cubes]
        floats = (rep.budget_value, rep.worst_condition3_ratio, content, scan.worst_constant)
        if dim == 3:
            s_ext = s - 1.0
            extracted = fractal.extract_delta_s_set(p, s_ext, content)
            ext_scan = fractal.validate_delta_s_set(extracted, s_ext)
            checks["extracted_is_delta_s_set"] = ext_scan.valid
            parts.append(extracted.indices)
            floats += (ext_scan.worst_constant,)
        return Outcome(digest=_digest(*parts), floats=floats, failed_checks=_failed(checks))


def make(name: str, scratch_dir: str):
    if name == "cover":
        return Cover(scratch_dir)
    return {"incidence": Incidence, "sweep": Sweep, "decouple": Decouple}[name]()

