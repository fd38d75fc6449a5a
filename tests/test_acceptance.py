"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from projlab.covering import greedy_cover, validate_covering
from projlab.curve import model_curve
from projlab.fourier import (
    CapSubset,
    GridFunction,
    build_geometry,
    cap_restrict,
    decoupling_ratio,
    high_low_split,
    random_cap_function,
    synth_tube_function,
    tspacing_subsample,
    wave_envelope_rhs,
)
from projlab.fractal import (
    PointSet,
    cantor_1d,
    extract_delta_s_set,
    full_grid,
    product_set,
    validate_delta_s_set,
)
from projlab.incidence import (
    FITTED_C_CEILING,
    IncidenceSpec,
    incidence_count,
    make_family,
    random_admissible_config,
    verify_incidence_bound,
)
from projlab.projection import box_dimension, exceptional_sweep

CURVE = model_curve()


def verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_covering_engine():
    rng = np.random.default_rng(20240801)
    t0 = time.time()
    failures = 0
    cases = 0
    for i in range(200):
        s = (0.3, 0.5, 0.8)[i % 3]
        dim = 1 if i % 2 == 0 else 2
        k = 5 + i % 6 if dim == 1 else 4 + i % 2  # delta >= 2^-10
        n_max = max(1, int(0.8 * 2 ** (k * s)))
        lattice = 2**k
        idx = rng.integers(0, lattice, size=(n_max, dim))
        idx = np.unique(idx, axis=0)
        pset = PointSet(dim, 2.0**-k, idx, nominal_dim=float(s))
        cov = greedy_cover(pset, s, 1.0, min_level=0)
        rep = validate_covering(cov)
        cases += 1
        if not (
            rep.cover_ok
            and rep.disjoint_ok
            and rep.worst_condition3_ratio <= 1.0 + 1e-12
            and rep.budget_value <= 1.0 + 1e-12
        ):
            failures += 1
    elapsed = time.time() - t0
    verdict(
        1,
        failures == 0 and elapsed < 120.0,
        f"{cases} seeded coverings, {failures} failures, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_delta_s_machinery():
    delta = 2.0**-8
    grid = full_grid(8)
    extracted = extract_delta_s_set(grid, 0.5, 1.0)
    needed = 2.0**-6 * delta**-0.5
    rep_ok = validate_delta_s_set(extracted, 0.5)
    rep_grid = validate_delta_s_set(grid, 0.5)
    ok = (
        len(extracted) >= needed
        and rep_ok.valid
        and not rep_grid.valid
        and rep_grid.worst_constant == pytest.approx(delta**-0.5)
    )
    verdict(
        2,
        ok,
        f"extracted {len(extracted)} >= {needed:.2f} cells (valid scan); "
        f"full grid rejected with worst = {rep_grid.worst_constant} == 16 exactly",
    )


def test_criterion_3_dimension_estimator():
    t0 = time.time()
    cantor_fit = box_dimension(cantor_1d(1 / 3, 8), 4 * 2.0**-13, 2.0**-2)
    t1 = time.time()
    grid_fit = box_dimension(full_grid(10), 2.0**-8, 2.0**-2)
    t2 = time.time()
    single = PointSet(1, 2.0**-10, np.array([[513]]), nominal_dim=0.0)
    single_fit = box_dimension(single, 2.0**-8, 2.0**-2)
    t3 = time.time()
    ok = (
        abs(cantor_fit.slope - 0.631) <= 0.05
        and abs(grid_fit.slope - 1.0) <= 0.02
        and abs(single_fit.slope) <= 1e-9
        and (t1 - t0) < 5
        and (t2 - t1) < 5
        and (t3 - t2) < 5
    )
    verdict(
        3,
        ok,
        f"cantor {cantor_fit.slope:.3f} (0.631 +/- 0.05), grid {grid_fit.slope:.3f} "
        f"(1.00 +/- 0.02), single {single_fit.slope:.2e} (0 +/- 1e-9), each < 5s",
    )


def test_criterion_4_projection_sweep():
    t0 = time.time()
    c = cantor_1d(1 / 3, 6)  # delta = 2^-10 by the nearest-dyadic rule
    a = product_set(c, c, c)
    assert a.delta == 2.0**-10
    rows, summary = exceptional_sweep(a, CURVE, s=1.0, theta_grid=256)
    elapsed = time.time() - t0
    est = np.array([r.est_dim for r in rows])
    median = float(np.median(est))
    frac80 = float(np.mean(est >= 0.80))
    bound = summary["bound"]
    ok = (
        median >= 0.85
        and frac80 >= 0.90
        and abs(bound - 0.5535) <= 2e-4  # the instantiated formula value
        and abs(bound - (1 + (1 - a.nominal_dim) / 2)) < 1e-12
        and elapsed < 600.0
    )
    verdict(
        4,
        ok,
        f"median {median:.3f} >= 0.85, {100 * frac80:.1f}% >= 0.80, "
        f"bound {bound:.4f} (0.5535), {elapsed:.0f}s (< 600s)",
    )


def test_criterion_5_incidence_experiment():
    t0 = time.time()
    worst_cross_scale = 0.0
    max_c = 0.0
    identity_failures = 0
    runs = 0
    for s in (0.3, 0.5, 0.7):
        for t in (0.3, 0.5, 0.7):
            for seed in range(100):
                cs = []
                for k in (4, 5, 6, 7):
                    spec = IncidenceSpec(delta=2.0**-k, s=s, t=t, seed=seed)
                    cfg = random_admissible_config(spec)
                    m = incidence_count(cfg, CURVE)
                    if int(m.row_counts().sum()) != int(m.col_counts().sum()):
                        identity_failures += 1
                    rep = verify_incidence_bound(cfg, CURVE, epsilon=0.1)
                    cs.append(rep.fitted_c)
                    max_c = max(max_c, rep.fitted_c)
                    runs += 1
                worst_cross_scale = max(worst_cross_scale, max(cs) / min(cs))
    elapsed = time.time() - t0
    ok = (
        max_c <= FITTED_C_CEILING
        and worst_cross_scale <= 10.0
        and identity_failures == 0
    )
    verdict(
        5,
        ok,
        f"{runs} configs: max fitted_C {max_c:.3g} <= 2^16, cross-scale ratio "
        f"{worst_cross_scale:.2f} <= 10, double counting exact, {elapsed:.0f}s",
    )


def test_criterion_6_fourier_identities():
    worst = {"parseval": 0.0, "partition": 0.0, "highlow": 0.0, "single_cap": 0.0}
    for k in (4, 5, 6):
        M = 2**k
        geo = build_geometry(CURVE, 2.0**-k)
        rng = np.random.default_rng(k)
        coeffs = np.zeros(M**3, dtype=complex)
        on = geo.assignment >= 0
        coeffs[on] = rng.normal(size=int(on.sum())) + 1j * rng.normal(size=int(on.sum()))
        g = GridFunction.from_coeffs(coeffs.reshape((M,) * 3))
        worst["parseval"] = max(worst["parseval"], g.parseval_error())

        parts = sum(
            cap_restrict(g, cid, geo).samples for cid in range(geo.n_caps)
        )
        rel = np.max(np.abs(parts - g.samples)) / np.max(np.abs(g.samples))
        worst["partition"] = max(worst["partition"], float(rel))

        fam = make_family(0.1, [0.0, 0.25], delta=2.0**-k, s=0.5)
        f = synth_tube_function(fam, geo)
        fh, fl = high_low_split(f, 0.1, 4, geo)
        rel = np.max(np.abs(f.samples - fh.samples - fl.samples)) / np.max(
            np.abs(f.samples)
        )
        worst["highlow"] = max(worst["highlow"], float(rel))

        occupied = np.unique(geo.assignment[on]) % geo.n_caps
        sub = CapSubset(t=0.5, directions=np.array([int(occupied[0])]))
        gc = random_cap_function(geo, sub, seed=5)
        ratio = decoupling_ratio(gc, sub, geo).ratio
        rel = abs(ratio - (2.0**-k) ** 0.5) / (2.0**-k) ** 0.5
        worst["single_cap"] = max(worst["single_cap"], float(rel))
    ok = (
        worst["parseval"] < 1e-8
        and worst["partition"] < 1e-10
        and worst["highlow"] < 1e-10
        and worst["single_cap"] < 1e-6
    )
    verdict(
        6,
        ok,
        "worst errors at M in {16,32,64}: "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_criterion_7_decoupling_nonviolation():
    t0 = time.time()
    means = []
    max_ratio = 0.0
    for k in (4, 5, 6):
        geo = build_geometry(CURVE, 2.0**-k)
        ratios = []
        for seed in range(20):
            caps = tspacing_subsample(geo, 0.5, seed)
            g = random_cap_function(geo, caps, seed=seed + 1000)
            ratios.append(decoupling_ratio(g, caps, geo).ratio)
        means.append(np.mean(ratios))
        max_ratio = max(max_ratio, max(ratios))
    slope = float(np.polyfit([4, 5, 6], np.log2(means), 1)[0])
    elapsed = time.time() - t0
    ok = max_ratio <= 4.0 and slope <= 0.3 and elapsed < 900.0
    verdict(
        7,
        ok,
        f"60 runs: max ratio {max_ratio:.2f} <= 4, fitted exponent {slope:.3f} "
        f"<= 0.3, {elapsed:.0f}s (< 900s)",
    )


def test_criterion_8_wave_envelope_nonviolation():
    geo = build_geometry(CURVE, 2.0**-4)
    on = geo.assignment >= 0
    bound = 2.0 * (2.0**-4) ** -0.5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(16**3, dtype=complex)
        coeffs[on] = np.exp(2j * np.pi * rng.random(int(on.sum())))
        f = GridFunction.from_coeffs(coeffs.reshape((16,) * 3))
        rep = wave_envelope_rhs(f, geo)
        worst = max(worst, rep.l4 / rep.total)
    verdict(
        8,
        worst <= bound,
        f"20 random f at delta=2^-4: max ||f||_4^4 / total = {worst:.3f} <= {bound}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 4, "theta_grid": 64}))
    hashes = []
    for n in ("1", "4", "8"):
        out = tmp_path / f"threads{n}"
        env = dict(os.environ, PROJLAB_THREADS=n)
        r = subprocess.run(
            [
                sys.executable,
                "-m",
                "projlab",
                "sweep",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert r.returncode == 0, r.stderr
        hashes.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }
        )
    ok = hashes[0] == hashes[1] == hashes[2]
    verdict(9, ok, "sweep outputs byte-identical across PROJLAB_THREADS 1, 4, 8")
