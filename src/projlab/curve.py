"""Direction curves on the sphere and delta-separated direction nets.

A direction curve is a map gamma: [0,1] -> S^2.  The library cares about
curves whose frame (gamma, gamma', gamma'') stays linearly independent;
the determinant margin of that frame is the quantitative non-degeneracy
measure everything downstream relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from .dyadic import dyadic_level, spacing_scan
from .errors import CapacityError, DomainError, InfeasibleError, NumericError
from .fractal import CELL_CAP

SQRT2 = math.sqrt(2.0)

#: default central-difference step; balances truncation against round-off
FD_STEP = 2.0 ** -20


@dataclass(frozen=True)
class Curve:
    """A parametrized direction curve with optional closed-form derivatives.

    `eval_fn` maps an array of parameters to unit vectors, shape (n, 3).
    When `d1`/`d2` are None, derivatives fall back to central finite
    differences with step `FD_STEP`.  Instances are immutable and safe to share.
    """

    label: str
    eval_fn: Callable[[np.ndarray], np.ndarray]
    d1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def points(self, thetas: np.ndarray) -> np.ndarray:
        return self.eval_fn(np.asarray(thetas, dtype=float))

    def deriv1(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if self.d1 is not None:
            return self.d1(thetas)
        return (self.eval_fn(thetas + FD_STEP) - self.eval_fn(thetas - FD_STEP)) / (2 * FD_STEP)

    def deriv2(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if self.d2 is not None:
            return self.d2(thetas)
        # second differences divide by h^2, so the step widens to sqrt(h)
        # to keep round-off at the same level as the first derivative
        h2 = math.sqrt(FD_STEP)
        return (
            self.eval_fn(thetas + h2)
            - 2 * self.eval_fn(thetas)
            + self.eval_fn(thetas - h2)
        ) / h2**2


@cache
def model_curve() -> Curve:
    """The model curve theta -> (cos theta, sin theta, 1) / sqrt(2)."""

    def ev(t):
        t = np.atleast_1d(t)
        return np.stack([np.cos(t), np.sin(t), np.ones_like(t)], axis=-1) / SQRT2

    def d1(t):
        t = np.atleast_1d(t)
        return np.stack([-np.sin(t), np.cos(t), np.zeros_like(t)], axis=-1) / SQRT2

    def d2(t):
        t = np.atleast_1d(t)
        return np.stack([-np.cos(t), -np.sin(t), np.zeros_like(t)], axis=-1) / SQRT2

    return Curve("model", ev, d1, d2)


@cache
def great_circle() -> Curve:
    """Planar curve theta -> (cos theta, sin theta, 0); degenerate on purpose."""

    def ev(t):
        t = np.atleast_1d(t)
        return np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)

    def d1(t):
        t = np.atleast_1d(t)
        return np.stack([-np.sin(t), np.cos(t), np.zeros_like(t)], axis=-1)

    def d2(t):
        t = np.atleast_1d(t)
        return np.stack([-np.cos(t), -np.sin(t), np.zeros_like(t)], axis=-1)

    return Curve("greatcircle", ev, d1, d2)


@cache
def helix_curve() -> Curve:
    """Perturbed helix theta -> normalize(cos theta, sin theta, 1 + 0.2 theta)."""

    def ev(t):
        t = np.atleast_1d(t)
        raw = np.stack([np.cos(t), np.sin(t), 1.0 + 0.2 * t], axis=-1)
        return raw / np.linalg.norm(raw, axis=-1, keepdims=True)

    return Curve("helix", ev)


#: one shared instance per name, built at import so that concurrent callers
#: (the CLI's threads) all see the same object; the builders are cached, so
#: model_curve() is named_curve("model") and hits the same count memo
_NAMED = {c.label: c for c in (model_curve(), helix_curve(), great_circle())}


def named_curve(name: str) -> Curve:
    try:
        return _NAMED[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise DomainError(f"unknown curve {name!r}; choose from {sorted(_NAMED)}") from None


def frame(curve: Curve, thetas):
    """Orthonormal frames (gamma, tangent, normal) at one theta or an array of them.

    tangent = gamma' / |gamma'|, normal = gamma x tangent.  A scalar theta
    gives three 3-vectors, an array of n thetas three (n, 3) arrays whose
    rows are bit for bit the scalar frames: |gamma'| is sqrt(vecdot), the
    dot product that `np.linalg.norm` takes of one vector.  Raises
    NumericError naming the first theta where gamma' vanishes (no frame
    exists there).
    """
    th = np.asarray(thetas, dtype=float)
    flat = th.reshape(-1)
    g = curve.points(flat)
    d = curve.deriv1(flat)
    n = np.sqrt(np.vecdot(d, d))
    bad = ~(np.isfinite(n) & (n >= 1e-12))
    if bad.any():
        theta = flat[np.argmax(bad)]
        raise NumericError(f"curve {curve.label!r} has no tangent frame at theta={theta}")
    t = d / n[:, None]
    out = (g, t, np.cross(g, t))
    return tuple(a[0] for a in out) if th.ndim == 0 else out


def nondegeneracy_margin(curve: Curve, n_samples: int) -> float:
    """Min of |det(gamma, gamma', gamma'')| over a uniform parameter grid.

    A margin of 0 flags a degenerate curve.
    """
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    thetas = np.linspace(0.0, 1.0, n_samples)
    g = curve.points(thetas)
    g1 = curve.deriv1(thetas)
    g2 = curve.deriv2(thetas)
    mats = np.stack([g, g1, g2], axis=-2)
    if not np.all(np.isfinite(mats)):
        raise NumericError("non-finite derivative values on the sample grid")
    return float(np.min(np.abs(np.linalg.det(mats))))


@dataclass(frozen=True)
class DirectionNet:
    """A delta-separated set of parameters meant to satisfy a (delta, t) law.

    The spacing constant C in #(net points in a window of length r) <=
    C (r/delta)^t is not stored: `validate_direction_net` scans for it on
    request.
    """

    delta: float
    t: float
    thetas: np.ndarray

    def __len__(self) -> int:
        return int(self.thetas.size)

    @property
    def indices(self) -> np.ndarray:
        return np.round(self.thetas / self.delta).astype(np.int64)


def validate_direction_net(net: DirectionNet):
    """Exhaustive spacing check: all dyadic r, all window starts on the grid.

    Returns (separated, worst_constant, witness).
    """
    k = dyadic_level(net.delta)
    idx = np.sort(net.indices)
    separated = bool(idx.size < 2 or np.min(np.diff(idx)) >= 1)
    worst, (r, corner) = spacing_scan(idx[:, None], k, net.t)
    return separated, worst, (r, corner[0])


def direction_net(curve: Curve, delta: float, t: float, seed: int) -> DirectionNet:
    """Build a (delta, t)-net of direction parameters in [0, 1].

    For t = 1 the full delta-grid (both endpoints included) is returned.
    For t < 1 a seeded greedy thinning of the grid is used: candidates are
    visited in a seeded random order and accepted while every enclosing
    aligned dyadic window of length 2^-l keeps at most ceil((2^-l/delta)^t)
    accepted points.  The per-window caps form a laminar matroid, so the
    achieved cardinality is the matroid rank regardless of seed.  The
    window counts hold 2^(k+1) entries, so nets with 2^(k+1) > CELL_CAP
    raise CapacityError before anything is allocated, and a net below the
    target cardinality raises InfeasibleError.  No spacing scan runs here.
    """
    k = dyadic_level(delta)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"spacing exponent t must lie in [0, 1], got {t}")
    if 2 ** (k + 1) > CELL_CAP:
        raise CapacityError(f"a direction net at delta=2^-{k} exceeds the cell cap {CELL_CAP}")
    n = 2**k
    if t == 1.0:
        thetas = np.arange(n + 1, dtype=np.int64) * delta
    else:
        caps = [math.ceil((2 ** (k - l)) ** t) for l in range(k + 1)]
        counts = [np.zeros(2**l, dtype=np.int64) for l in range(k + 1)]
        rng = np.random.default_rng(seed)
        chosen = []
        for i in rng.permutation(n):
            ok = True
            for l in range(k + 1):
                if counts[l][i >> (k - l)] >= caps[l]:
                    ok = False
                    break
            if ok:
                chosen.append(i)
                for l in range(k + 1):
                    counts[l][i >> (k - l)] += 1
        thetas = np.sort(np.array(chosen, dtype=np.int64)) * delta

    needed = (1.0 / k**2) * delta ** (-t) / 16.0 if k > 0 else 1.0
    if thetas.size < max(1.0, needed):
        raise InfeasibleError(
            f"net of {thetas.size} points misses the target cardinality "
            f"{needed:.3g} at delta=2^-{k}, t={t}"
        )
    return DirectionNet(delta=delta, t=t, thetas=thetas)
