"""Direction curves on the sphere and delta-separated direction nets.

A direction curve is a map gamma: [0,1] -> S^2.  The library cares about
curves whose frame (gamma, gamma', gamma'') stays linearly independent;
the determinant margin of that frame is the quantitative non-degeneracy
measure everything downstream relies on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .dyadic import _readonly, _Record, dot3, dyadic_level, spacing_scan
from .errors import CapacityError, DomainError, InfeasibleError, NumericError
from .fractal import CELL_CAP

#: parameters on the uniform grid that `nondegeneracy_margin` samples
MARGIN_SAMPLES = 1024


@dataclass(frozen=True)
class Curve:
    """A direction curve: its closed forms `points`, `deriv1` and `deriv2` map a float
    array of parameters to gamma, gamma' and gamma'', each (n, 3).  Immutable, shareable.
    """

    label: str
    points: Callable[[np.ndarray], np.ndarray]
    deriv1: Callable[[np.ndarray], np.ndarray]
    deriv2: Callable[[np.ndarray], np.ndarray]


def _cone(c: float, label: str) -> Curve:
    """theta -> (cos theta, sin theta, c) / sqrt(1 + c^2), with det c / (1 + c^2)^(3/2)."""
    norm = math.sqrt(1.0 + c * c)

    def ev(t):
        t = np.atleast_1d(t)
        return np.stack([np.cos(t), np.sin(t), np.full(t.shape, c)], axis=-1) / norm

    def d1(t):
        t = np.atleast_1d(t)
        return np.stack([-np.sin(t), np.cos(t), np.zeros(t.shape)], axis=-1) / norm

    def d2(t):
        t = np.atleast_1d(t)
        return np.stack([-np.cos(t), -np.sin(t), np.zeros(t.shape)], axis=-1) / norm

    return Curve(label, ev, d1, d2)


@cache
def model_curve() -> Curve:
    """The model curve theta -> (cos theta, sin theta, 1) / sqrt(2)."""
    return _cone(1.0, "model")


@cache
def great_circle() -> Curve:
    """Planar curve theta -> (cos theta, sin theta, 0); degenerate on purpose."""
    return _cone(0.0, "greatcircle")


@cache
def helix_curve() -> Curve:
    """Perturbed helix theta -> r / N, r = (cos theta, sin theta, h), h = 1 + 0.2 theta.

    N = sqrt(1 + h^2) and r . r' = 0.2 h, so gamma' = r'/N - r (0.2 h)/N^3 and
    gamma'' = r''/N - 0.4 h r'/N^3 - r (0.04/N^3 - 0.12 h^2/N^5).
    """

    def ev(t):
        t = np.atleast_1d(t)
        raw = np.stack([np.cos(t), np.sin(t), 1.0 + 0.2 * t], axis=-1)
        return raw / np.linalg.norm(raw, axis=-1, keepdims=True)

    def parts(t):
        t = np.atleast_1d(t)
        h = 1.0 + 0.2 * t
        n = np.sqrt(1.0 + h * h)[:, None]
        r = np.stack([np.cos(t), np.sin(t), h], axis=-1)
        r1 = np.stack([-np.sin(t), np.cos(t), np.full(t.shape, 0.2)], axis=-1)
        return h[:, None], n, r, r1

    def d1(t):
        h, n, r, r1 = parts(t)
        return r1 / n - r * (0.2 * h) / n**3

    def d2(t):
        h, n, r, r1 = parts(t)
        r2 = r * np.array([-1.0, -1.0, 0.0])
        return r2 / n - 0.4 * h * r1 / n**3 - r * (0.04 / n**3 - 0.12 * h * h / n**5)

    return Curve("helix", ev, d1, d2)


#: one shared instance per name, built at import so that concurrent callers
#: (the CLI's threads) all see the same object; the builders are cached, so
#: model_curve() is named_curve("model") and hits the same count memo
_NAMED = {c.label: c for c in (model_curve(), helix_curve(), great_circle())}


def named_curve(name: str) -> Curve:
    try:
        return _NAMED[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise DomainError(f"unknown curve {name!r}; choose from {sorted(_NAMED)}") from None


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of two (n, 3) arrays, as an (n, 3) array.

    The three differences a1 b2 - a2 b1, a2 b0 - a0 b2 and a0 b1 - a1 b0,
    each product rounded once, are np.cross's own, so the bits are its bits
    without its axis handling.
    """
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def frame(curve: Curve, thetas):
    """Orthonormal frames (gamma, tangent, normal) at one theta or an array of them.

    tangent = gamma' / |gamma'|, normal = gamma x tangent.  A scalar theta
    gives three 3-vectors, an array of n thetas three (n, 3) arrays whose
    rows are bit for bit the scalar frames: |gamma'| is the square root of
    `dot3` of gamma' with itself, which gives the same bits row by row and
    under every BLAS kernel.  Raises NumericError
    naming the first theta where gamma' vanishes (no frame exists there).
    """
    th = np.asarray(thetas, dtype=float)
    flat = th.reshape(-1)
    g = curve.points(flat)
    d = curve.deriv1(flat)
    n = np.sqrt(dot3(d.T, d.T))
    bad = ~(np.isfinite(n) & (n >= 1e-12))
    if bad.any():
        theta = flat[np.argmax(bad)]
        raise NumericError(f"curve {curve.label!r} has no tangent frame at theta={theta}")
    t = d / n[:, None]
    out = (g, t, _cross(g, t))
    return tuple(a[0] for a in out) if th.ndim == 0 else out


def nondegeneracy_margin(curve: Curve) -> float:
    """Min of |det(gamma, gamma', gamma'')| over MARGIN_SAMPLES uniform thetas in [0, 1].

    det is the triple product gamma . (gamma' x gamma''), summed by `dot3`.
    A margin of 0 flags a degenerate curve.
    """
    thetas = np.linspace(0.0, 1.0, MARGIN_SAMPLES)
    g = curve.points(thetas)
    c = _cross(curve.deriv1(thetas), curve.deriv2(thetas))
    det = dot3(g.T, c.T)
    if not np.all(np.isfinite(det)):
        raise NumericError("non-finite frame values on the sample grid")
    return float(np.min(np.abs(det)))


@dataclass(frozen=True, eq=False)
class DirectionNet(_Record):
    """A delta-separated set of parameters meant to satisfy a (delta, t) law.

    The spacing constant C in #(net points in a window of length r) <=
    C (r/delta)^t is not stored: `validate_direction_net` scans for it on
    request.
    """

    delta: float
    t: float
    thetas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thetas", _readonly(self.thetas))

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


def _check_seed(seed) -> None:
    """DomainError unless `seed` is an integer >= 0 (numpy's included, a bool not)."""
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")


def direction_net(delta: float, t: float, seed: int) -> DirectionNet:
    """Build a (delta, t)-net of direction parameters in [0, 1].

    For t = 1 the full delta-grid (both endpoints included) is returned.
    For t < 1 it is the seeded greedy thinning of the grid: candidates are
    visited in a seeded random order and accepted while every enclosing
    aligned dyadic window of length 2^-l keeps at most ceil((2^-l/delta)^t)
    accepted points.  The caps form a laminar matroid, so the cardinality is
    the matroid rank regardless of seed, and the greedy set is built
    bottom-up: level by level, each window keeps as many of its two halves'
    survivors as its cap allows, first visited first.  The permutation and its visiting
    ranks hold 2^(k+1) entries, so nets with 2^(k+1) > CELL_CAP raise
    CapacityError before anything is allocated; a net below the target
    cardinality raises InfeasibleError, a bad seed DomainError.  No spacing scan runs here.
    """
    _check_seed(seed)
    k = dyadic_level(delta)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"spacing exponent t must lie in [0, 1], got {t}")
    if 2 ** (k + 1) > CELL_CAP:
        raise CapacityError(f"a direction net at delta=2^-{k} exceeds the cell cap {CELL_CAP}")
    n = 2**k
    if t == 1.0:
        thetas = np.arange(n + 1, dtype=np.int64) * delta
    else:
        visit = np.empty(n, dtype=np.int64)
        visit[np.random.default_rng(seed).permutation(n)] = np.arange(n)
        keep = np.arange(n, dtype=np.int64)  # level k: one candidate per window, cap 1
        for l in range(k - 1, -1, -1):
            window = keep >> (k - l)
            order = np.lexsort((visit[keep], window))
            keep, window = keep[order], window[order]
            rank = np.arange(keep.size) - np.searchsorted(window, window)
            keep = keep[rank < math.ceil((2 ** (k - l)) ** t)]
        thetas = np.sort(keep) * delta

    needed = (1.0 / k**2) * delta ** (-t) / 16.0 if k > 0 else 1.0
    if thetas.size < max(1.0, needed):
        raise InfeasibleError(
            f"net of {thetas.size} points misses the target cardinality "
            f"{needed:.3g} at delta=2^-{k}, t={t}"
        )
    return DirectionNet(delta=delta, t=t, thetas=thetas)
