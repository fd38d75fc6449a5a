"""Batch front door: config-driven experiments with CSV and JSON outputs.

Usage: projlab <command> --config path.json [--set key=value]... [--out dir]

Commands: gen, cover, sweep, incidence, decouple.  Each runner builds its
inputs, calls the library routine that does the job (`sweep` calls
`projection.exceptional_sweep`) and writes numbers only: `<command>.csv`
and `<command>_summary.json` (`cover` also writes the covering itself as
`cover.json`).  There are no plots.  All outputs are byte-identical across
reruns with the same resolved config and seed.  PROJLAB_THREADS (1 to 64,
default 1) sets the size of the one thread pool, which maps over the theta
grid of `sweep` and the (delta, seed) cells of `incidence` and `decouple`;
it never changes the output bytes.  Exit codes: 0 ok, 2 invalid config, 3
infeasible experiment.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import covering as covering_mod
from . import fourier, incidence, projection
from .curve import named_curve
from .dyadic import dyadic_level
from .errors import CapacityError, ConfigurationError, DomainError, InfeasibleError, ProjLabError
from .fractal import CELL_CAP, cantor_1d, full_grid, product_set, save_csv, write_csv

DEFAULTS = {
    "gen": {
        "generator": "cantor3d",
        "ratio": 1 / 3,
        "depth": 4,
    },
    "cover": {
        "generator": "cantor1d",
        "ratio": 1 / 3,
        "depth": 6,
        "s": 0.8,
        "epsilon": 1.0,
        "min_level": 0,
    },
    "sweep": {
        "curve": "model",
        "ratio": 1 / 3,
        "depth": 4,
        "s": 1.0,
        "theta_grid": 256,
        "margin": 0.1,
    },
    "incidence": {
        "curve": "model",
        "s": 0.5,
        "t": 0.5,
        "deltas": [2.0**-4, 2.0**-5, 2.0**-6],
        "epsilon": 0.1,
        "n_seeds": 1,
        "seed": 0,
    },
    "decouple": {
        "curve": "model",
        "t": 0.5,
        "deltas": [2.0**-4, 2.0**-5, 2.0**-6],
        "n_seeds": 5,
        "seed": 0,
    },
}

COMMANDS = tuple(DEFAULTS)


def _cantor3d(ratio: float, depth: int):
    # ratio <= 1/2 puts consecutive endpoints at least delta/sqrt(2) apart, so a
    # factor has at least 2^(depth-1) cells: refuse before building one
    if 3 * (depth - 1) >= CELL_CAP.bit_length():
        raise CapacityError(f"a depth-{depth} cantor3d set exceeds the cap {CELL_CAP}")
    return product_set(*[cantor_1d(ratio, depth)] * 3)


#: point-set generators of `gen` and `cover`: name -> builder(ratio, depth)
GENERATORS = {
    "cantor3d": _cantor3d,
    "cantor1d": cantor_1d,
    "grid1d": lambda ratio, depth: full_grid(depth),
}

#: integer-valued config keys and their smallest allowed value
INTEGER_KEYS = {"depth": 1, "min_level": 0, "theta_grid": 2, "n_seeds": 1, "seed": 0}

#: real-valued config keys; each must be a finite number
REAL_KEYS = ("s", "t", "margin", "ratio", "epsilon")

#: largest accepted PROJLAB_THREADS; a pool's map submits every item up front
MAX_THREADS = 64


def threads() -> int:
    """The PROJLAB_THREADS pool size: an integer from 1 to MAX_THREADS, 1 if unset."""
    raw = os.environ.get("PROJLAB_THREADS", "1")
    if not (raw.isdecimal() and 1 <= int(raw) <= MAX_THREADS):
        raise ConfigurationError(f"PROJLAB_THREADS must be 1 to {MAX_THREADS}, got {raw!r}")
    return int(raw)


def resolve_config(command: str, raw: dict) -> dict:
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}; choose from {COMMANDS}")
    cfg = dict(DEFAULTS[command])
    unknown = set(raw) - set(cfg) - {"command"}
    if unknown:
        raise ConfigurationError(f"unknown config keys for {command}: {sorted(unknown)}")
    cfg.update({k: v for k, v in raw.items() if k != "command"})
    cfg["command"] = command
    # shared validation; values are checked, never rewritten
    if "curve" in cfg:
        try:
            named_curve(cfg["curve"])
        except DomainError:
            raise ConfigurationError(f"unknown curve {cfg['curve']!r}") from None
    if "generator" in cfg and cfg["generator"] not in tuple(GENERATORS):
        raise ConfigurationError(f"unknown generator {cfg['generator']!r}")
    for key in REAL_KEYS:
        if key in cfg and not _is_real(cfg[key]):
            raise ConfigurationError(f"{key} must be a finite number, got {cfg[key]!r}")
    for key, lowest in INTEGER_KEYS.items():
        v = cfg.get(key)
        if key in cfg and not (_is_real(v) and v == int(v) and v >= lowest):
            raise ConfigurationError(f"{key} must be an integer >= {lowest}, got {v!r}")
    for key in ("s", "t"):
        if key in cfg and not (0.0 < cfg[key] <= 1.0):
            raise ConfigurationError(f"{key} must lie in (0, 1], got {cfg[key]}")
    if "deltas" in cfg:
        try:
            levels = [dyadic_level(float(d)) for d in cfg["deltas"]]
        except ProjLabError as exc:
            raise ConfigurationError(f"bad deltas: {exc}") from exc
        if not levels or min(levels) < 1:
            raise ConfigurationError(
                f"deltas must be a nonempty list below 1, got {cfg['deltas']}"
            )
        n_cells = len(levels) * int(cfg["n_seeds"])  # the (delta, seed) grid
        if n_cells > CELL_CAP:
            raise CapacityError(f"{n_cells} (delta, seed) cells exceed the cap {CELL_CAP}")
    return cfg


def _is_real(v) -> bool:
    """True for a finite real number; bools and strings are not numbers here."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    return isinstance(v, numbers.Integral) or math.isfinite(v)


def _write(path: Path, text: str) -> None:
    path.write_text(text, newline="\n")


def _summary_json(cfg: dict, results: dict) -> str:
    return json.dumps({"config": cfg, **results}, sort_keys=True, indent=2) + "\n"


def _build_set(cfg: dict):
    gen = GENERATORS[cfg.get("generator", "cantor3d")]
    return gen(float(cfg["ratio"]), int(cfg["depth"]))


def _per_cell(cfg: dict, one, map_fn) -> list:
    """[(delta, seed, one(delta, seed))] over the delta-major (delta, seed) grid."""
    cells = [
        (float(d), int(cfg["seed"]) + j)
        for d in cfg["deltas"]
        for j in range(int(cfg["n_seeds"]))
    ]
    reps = list(map_fn(lambda cell: one(*cell), cells))
    return [(delta, seed, rep) for (delta, seed), rep in zip(cells, reps)]


def _per_delta_means(results: list, value):
    """(xs, means): log2(1/delta) and the mean of value(rep), deltas increasing."""
    per_delta = {}
    for delta, _, rep in results:
        per_delta.setdefault(delta, []).append(value(rep))
    ds = sorted(per_delta)
    return [math.log2(1 / d) for d in ds], [float(np.mean(per_delta[d])) for d in ds]


def run_gen(cfg: dict, out: Path, map_fn) -> dict:
    pset = _build_set(cfg)
    save_csv(pset, out / "gen.csv")
    return {
        "cells": len(pset),
        "delta": pset.delta,
        "nominal_dim": pset.nominal_dim,
    }


def run_cover(cfg: dict, out: Path, map_fn) -> dict:
    pset = _build_set(cfg)
    cov = covering_mod.greedy_cover(
        pset, float(cfg["s"]), float(cfg["epsilon"]), int(cfg["min_level"])
    )
    rep = covering_mod.validate_covering(cov)
    _write(out / "cover.json", covering_mod.covering_to_json(cov) + "\n")
    rows = [(k, len(cov.levels[k])) for k in sorted(cov.levels)]
    write_csv(out / "cover.csv", "level,cubes", rows)
    return {
        "budget_value": rep.budget_value,
        "worst_condition3_ratio": rep.worst_condition3_ratio,
        "cover_ok": rep.cover_ok,
        "cube_count": cov.cube_count(),
    }


def run_sweep(cfg: dict, out: Path, map_fn) -> dict:
    rows, summary = projection.exceptional_sweep(
        _build_set(cfg),
        named_curve(cfg["curve"]),
        float(cfg["s"]),
        int(cfg["theta_grid"]),
        float(cfg["margin"]),
        map_fn=map_fn,
    )
    write_csv(
        out / "sweep.csv",
        "theta,est_dim,r2,below_s",
        [(r.theta, r.est_dim, r.r2, r.below_s) for r in rows],
    )
    return summary


def run_incidence(cfg: dict, out: Path, map_fn) -> dict:
    curve = named_curve(cfg["curve"])
    s, t, eps = float(cfg["s"]), float(cfg["t"]), float(cfg["epsilon"])

    def one(delta, seed):
        spec = incidence.IncidenceSpec(delta=delta, s=s, t=t, seed=seed, curve=cfg["curve"])
        c = incidence.random_admissible_config(spec)
        return incidence.verify_incidence_bound(c, curve, epsilon=eps)

    results = _per_cell(cfg, one, map_fn)
    write_csv(
        out / "incidence.csv",
        "delta,seed,lhs,rhs,fitted_C,heavy_count,theta_count",
        [
            (delta, seed, rep.lhs, rep.rhs, rep.fitted_c, rep.heavy_count, rep.theta_count)
            for delta, seed, rep in results
        ],
    )
    _, means = _per_delta_means(results, lambda rep: rep.fitted_c)
    all_c = [rep.fitted_c for _, _, rep in results]
    return {
        "max_fitted_C": max(all_c),
        "min_fitted_C": min(all_c),
        "cross_scale_ratio": max(means) / min(means),
        "ceiling_ok": all(rep.ceiling_ok for _, _, rep in results),
    }


def run_decouple(cfg: dict, out: Path, map_fn) -> dict:
    curve = named_curve(cfg["curve"])
    t = float(cfg["t"])
    deltas = sorted(set(map(float, cfg["deltas"])))
    geos = {d: fourier.build_geometry(curve, d) for d in deltas}

    def one(delta, seed):
        geo = geos[delta]
        caps = fourier.tspacing_subsample(geo, t, seed)
        g = fourier.random_cap_function(geo, caps, seed=seed + 10000)
        return fourier.decoupling_ratio(g, caps, geo)

    results = _per_cell(cfg, one, map_fn)
    write_csv(
        out / "decouple.csv",
        "delta,t,seed,lhs,rhs,ratio",
        [(delta, t, seed, rep.lhs, rep.rhs, rep.ratio) for delta, seed, rep in results],
    )
    xs, means = _per_delta_means(results, lambda rep: rep.ratio)
    slope = float(np.polyfit(xs, np.log2(means), 1)[0]) if len(xs) >= 2 else 0.0
    return {
        "max_ratio": max(r.ratio for _, _, r in results),
        "fitted_exponent": slope,
    }


#: command -> runner(cfg, out, map_fn), map_fn the pool's map (`gen`, `cover`: unused)
RUNNERS = {
    "gen": run_gen,
    "cover": run_cover,
    "sweep": run_sweep,
    "incidence": run_incidence,
    "decouple": run_decouple,
}


def _error(exc: Exception) -> int:
    """Print the error JSON; returns the exit code, 3 if infeasible, else 2."""
    infeasible = isinstance(exc, InfeasibleError)
    kind = "infeasible" if infeasible else "config"
    print(json.dumps({"error": {"kind": kind, "message": str(exc)}}))
    return 3 if infeasible else 2


def run(command: str, raw_config: dict, out_dir) -> int:
    """Execute one command; returns the process exit code."""
    try:
        workers = threads()
        cfg = resolve_config(command, raw_config)
    except (ProjLabError, ValueError, TypeError) as exc:
        return _error(exc)
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = RUNNERS[command](cfg, out, pool.map)
    except (ProjLabError, OSError) as exc:  # OSError: --out is a file, or a write failed
        for d in made:  # stops at the first one the runner left non-empty
            try:
                d.rmdir()
            except OSError:
                break
        return _error(exc)
    _write(out / f"{command}_summary.json", _summary_json(cfg, results))
    return 0


def _parse_set(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="projlab", description="fractal projection / incidence / decoupling lab"
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (JSON-parsed value)",
    )
    parser.add_argument("--out", default="projlab-out", help="output directory")
    args = parser.parse_args(argv)
    raw = {}
    try:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        if args.config:
            raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"config file must hold a JSON object, got {type(raw).__name__}"
            )
        raw.update(_parse_set(args.set))
    except (OSError, ValueError) as exc:
        return _error(exc)
    return run(args.command, raw, args.out)


if __name__ == "__main__":
    sys.exit(main())
