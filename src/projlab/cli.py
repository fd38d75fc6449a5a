"""Batch front door: config-driven experiments with CSV/JSON/SVG outputs.

Usage: projlab <command> --config path.json [--set key=value]... [--out dir]

Commands: gen, cover, sweep, incidence, decouple.  Each runner builds its
inputs, calls the library routine that does the job (`sweep` calls
`projection.exceptional_sweep`) and writes a CSV, an SVG and a summary
JSON.  All outputs are byte-identical across reruns with the same resolved
config and seed.  The PROJLAB_THREADS environment variable sets the size
of the one thread pool, which maps over the theta grid of `sweep` and the
(delta, seed) cells of `incidence` and `decouple`; it never changes the
output bytes.  Exit codes: 0 ok, 2 invalid config, 3 infeasible
experiment.
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
from .errors import InfeasibleError, ProjLabError
from .fractal import cantor_1d, full_grid, product_set, save_csv
from .svgplot import line_plot

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
        "seed": 0,
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

#: point-set generators of `gen` and `cover`: name -> builder(ratio, depth)
GENERATORS = {
    "cantor3d": lambda ratio, depth: product_set(*[cantor_1d(ratio, depth)] * 3),
    "cantor1d": cantor_1d,
    "grid1d": lambda ratio, depth: full_grid(depth),
}

#: integer-valued config keys and their smallest allowed value
INTEGER_KEYS = {"depth": 1, "min_level": 0, "theta_grid": 2, "n_seeds": 1, "seed": 0}

#: real-valued config keys; each must be a finite number
REAL_KEYS = ("s", "t", "margin", "ratio", "epsilon")


class ConfigError(ValueError):
    pass


def threads() -> int:
    try:
        return max(1, int(os.environ.get("PROJLAB_THREADS", "1")))
    except ValueError:
        return 1


def resolve_config(command: str, raw: dict) -> dict:
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    cfg = dict(DEFAULTS[command])
    unknown = set(raw) - set(cfg) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    cfg.update({k: v for k, v in raw.items() if k != "command"})
    cfg["command"] = command
    # shared validation; values are checked, never rewritten
    if "curve" in cfg and cfg["curve"] not in ("model", "helix", "greatcircle"):
        raise ConfigError(f"unknown curve {cfg['curve']!r}")
    if "generator" in cfg and cfg["generator"] not in tuple(GENERATORS):
        raise ConfigError(f"unknown generator {cfg['generator']!r}")
    for key in REAL_KEYS:
        if key in cfg and not _is_real(cfg[key]):
            raise ConfigError(f"{key} must be a finite number, got {cfg[key]!r}")
    for key, lowest in INTEGER_KEYS.items():
        v = cfg.get(key)
        if key in cfg and not (_is_real(v) and v == int(v) and v >= lowest):
            raise ConfigError(f"{key} must be an integer >= {lowest}, got {v!r}")
    for key in ("s", "t"):
        if key in cfg and not (0.0 < cfg[key] <= 1.0):
            raise ConfigError(f"{key} must lie in (0, 1], got {cfg[key]}")
    if "deltas" in cfg:
        try:
            levels = [dyadic_level(float(d)) for d in cfg["deltas"]]
        except ProjLabError as exc:
            raise ConfigError(f"bad deltas: {exc}") from exc
        if not levels or min(levels) < 1:
            raise ConfigError(f"deltas must be a nonempty list below 1, got {cfg['deltas']}")
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


def _pool_map(fn, items) -> list:
    """fn over items in a pool of PROJLAB_THREADS threads, results in order."""
    with ThreadPoolExecutor(max_workers=threads()) as pool:
        return list(pool.map(fn, items))


def _per_cell(cfg: dict, one) -> list:
    """[(delta, seed, one(delta, seed))] over the delta-major (delta, seed) grid."""
    cells = [
        (float(d), int(cfg["seed"]) + j)
        for d in cfg["deltas"]
        for j in range(int(cfg["n_seeds"]))
    ]
    reps = _pool_map(lambda cell: one(*cell), cells)
    return [(delta, seed, rep) for (delta, seed), rep in zip(cells, reps)]


def _scale_plot(path: Path, results: list, value, title: str, ylabel: str):
    """Plot the per-delta means of value(rep) against log2(1/delta).

    Returns (xs, means), deltas in increasing order.
    """
    per_delta = {}
    for delta, _, rep in results:
        per_delta.setdefault(delta, []).append(value(rep))
    ds = sorted(per_delta)
    xs = [math.log2(1 / d) for d in ds]
    means = [float(np.mean(per_delta[d])) for d in ds]
    _write(path, line_plot(xs, means, title, "log2(1/delta)", ylabel))
    return xs, means


def run_gen(cfg: dict, out: Path) -> dict:
    pset = _build_set(cfg)
    save_csv(pset, out / "gen.csv")
    vals = pset.values
    svg = line_plot(
        vals[:, 0][:4096],
        vals[:, 1][:4096] if pset.ambient_dim > 1 else np.zeros(min(len(pset), 4096)),
        title=f"{cfg['generator']} cells (first two coordinates)",
        xlabel="x",
        ylabel="y",
    ).replace('stroke="#1f77b4" stroke-width="1.5"', 'stroke="none"')
    _write(out / "gen.svg", svg)
    return {
        "cells": len(pset),
        "delta": pset.delta,
        "nominal_dim": pset.nominal_dim,
    }


def run_cover(cfg: dict, out: Path) -> dict:
    pset = _build_set(cfg)
    cov = covering_mod.greedy_cover(
        pset, float(cfg["s"]), float(cfg["epsilon"]), int(cfg["min_level"])
    )
    rep = covering_mod.validate_covering(cov)
    _write(out / "cover.json", covering_mod.covering_to_json(cov) + "\n")
    levels = sorted(cov.levels)
    counts = [len(cov.levels[k]) for k in levels]
    rows = ["level,cubes"] + [f"{k},{c}" for k, c in zip(levels, counts)]
    _write(out / "cover.csv", "\n".join(rows) + "\n")
    _write(
        out / "cover.svg",
        line_plot(levels, counts, "covering cubes per level", "level k", "#cubes"),
    )
    return {
        "budget_value": rep.budget_value,
        "worst_condition3_ratio": rep.worst_condition3_ratio,
        "cover_ok": rep.cover_ok,
        "cube_count": cov.cube_count(),
    }


def run_sweep(cfg: dict, out: Path) -> dict:
    s = float(cfg["s"])
    rows, summary = projection.exceptional_sweep(
        _build_set(cfg),
        named_curve(cfg["curve"]),
        s,
        int(cfg["theta_grid"]),
        float(cfg["margin"]),
        map_fn=_pool_map,
    )
    lines = ["theta,est_dim,r2,below_s"]
    for r in rows:
        lines.append(f"{r.theta!r},{r.est_dim!r},{r.r2!r},{str(r.below_s).lower()}")
    _write(out / "sweep.csv", "\n".join(lines) + "\n")
    _write(
        out / "sweep.svg",
        line_plot(
            [r.theta for r in rows],
            [r.est_dim for r in rows],
            f"projected dimension vs theta (s={s})",
            "theta",
            "est_dim",
            flags=[r.below_s for r in rows],
        ),
    )
    return summary


def run_incidence(cfg: dict, out: Path) -> dict:
    curve = named_curve(cfg["curve"])
    s, t, eps = float(cfg["s"]), float(cfg["t"]), float(cfg["epsilon"])

    def one(delta, seed):
        spec = incidence.IncidenceSpec(delta=delta, s=s, t=t, seed=seed, curve=cfg["curve"])
        c = incidence.random_admissible_config(spec)
        return incidence.verify_incidence_bound(c, curve, epsilon=eps)

    results = _per_cell(cfg, one)
    lines = ["delta,seed,lhs,rhs,fitted_C,heavy_count,theta_count"]
    for delta, seed, rep in results:
        lines.append(
            f"{delta!r},{seed},{rep.lhs!r},{rep.rhs!r},{rep.fitted_c!r},"
            f"{rep.heavy_count},{rep.theta_count}"
        )
    _write(out / "incidence.csv", "\n".join(lines) + "\n")
    _, means = _scale_plot(
        out / "incidence.svg",
        results,
        lambda rep: rep.fitted_c,
        f"fitted_C vs scale (s={s}, t={t})",
        "fitted_C",
    )
    all_c = [rep.fitted_c for _, _, rep in results]
    return {
        "max_fitted_C": max(all_c),
        "min_fitted_C": min(all_c),
        "cross_scale_ratio": max(means) / min(means),
        "ceiling_ok": all(rep.ceiling_ok for _, _, rep in results),
    }


def run_decouple(cfg: dict, out: Path) -> dict:
    curve = named_curve(cfg["curve"])
    t = float(cfg["t"])
    deltas = sorted(set(map(float, cfg["deltas"])))
    geos = {d: fourier.build_geometry(curve, d) for d in deltas}

    def one(delta, seed):
        geo = geos[delta]
        caps = fourier.tspacing_subsample(geo, t, seed)
        g = fourier.random_cap_function(geo, caps, seed=seed + 10000)
        return fourier.decoupling_ratio(g, caps, geo)

    results = _per_cell(cfg, one)
    lines = ["delta,t,seed,lhs,rhs,ratio"]
    for delta, seed, rep in results:
        lines.append(f"{delta!r},{t!r},{seed},{rep.lhs!r},{rep.rhs!r},{rep.ratio!r}")
    _write(out / "decouple.csv", "\n".join(lines) + "\n")
    xs, means = _scale_plot(
        out / "decouple.svg",
        results,
        lambda rep: rep.ratio,
        f"decoupling ratio vs scale (t={t})",
        "mean ratio",
    )
    slope = float(np.polyfit(xs, np.log2(means), 1)[0]) if len(xs) >= 2 else 0.0
    return {
        "max_ratio": max(r.ratio for _, _, r in results),
        "fitted_exponent": slope,
    }


RUNNERS = {
    "gen": run_gen,
    "cover": run_cover,
    "sweep": run_sweep,
    "incidence": run_incidence,
    "decouple": run_decouple,
}


def run(command: str, raw_config: dict, out_dir) -> int:
    """Execute one command; returns the process exit code."""
    try:
        cfg = resolve_config(command, raw_config)
    except (ConfigError, ProjLabError, ValueError, TypeError) as exc:
        print(json.dumps({"error": {"kind": "config", "message": str(exc)}}))
        return 2
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        results = RUNNERS[command](cfg, out)
    except InfeasibleError as exc:
        print(json.dumps({"error": {"kind": "infeasible", "message": str(exc)}}))
        return 3
    except ProjLabError as exc:
        print(json.dumps({"error": {"kind": "config", "message": str(exc)}}))
        return 2
    _write(out / f"{command}_summary.json", _summary_json(cfg, results))
    return 0


def _parse_set(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
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
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(json.dumps({"error": {"kind": "config", "message": str(exc)}}))
            return 2
    try:
        raw.update(_parse_set(args.set))
    except ConfigError as exc:
        print(json.dumps({"error": {"kind": "config", "message": str(exc)}}))
        return 2
    return run(args.command, raw, args.out)


if __name__ == "__main__":
    sys.exit(main())
