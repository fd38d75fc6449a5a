"""Multi-scale dyadic coverings with an s-dimensional counting condition.

A covering is a disjoint family of dyadic cubes, a few per level, that
covers a target point set while keeping sum r(D)^s below a budget and
never packing more than 2^((k-l)s) level-k cubes into any level-l cube.
The greedy merge below replaces the transfinite maximality argument: one
coarse-to-fine pass exchanges the cells inside each crowded cube for that
cube, which strictly shrinks both the budget and the cube count.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

import numpy as np

from .dyadic import _integer_level, _readonly, _Record, ancestor_tree, group_rows, rows_in
from .errors import (
    ConfigurationError, DomainError, InconsistencyError, InfeasibleError, RangeError
)
from .fractal import PointSet

#: slack for budget comparisons in double precision
BUDGET_SLACK = 1e-12

#: largest level a covering may name: cantor_1d's largest; validating a
#: level of 64 or more would shift int64 indices by 64 bits or more
MAX_LEVEL = 62


def _check_exponents(s: float, epsilon: float, ambient_dim: int) -> None:
    """Raise DomainError unless 0 <= s <= ambient_dim and epsilon is finite."""
    if not (0.0 <= s <= ambient_dim and math.isfinite(epsilon)):
        raise DomainError(f"need 0 <= s <= {ambient_dim} and finite epsilon, got {s}, {epsilon}")


@dataclass(frozen=True, eq=False)
class Covering(_Record):
    """Per-level lists of dyadic cube indices plus the (s, epsilon) contract.

    `levels` maps level k -> integer index array of shape (n_k, dim); the
    cube with index i at level k is prod_j [i_j 2^-k, (i_j+1) 2^-k).  Each
    key must be an integer (not a bool) in 0..MAX_LEVEL and each array's rows
    integers of ambient_dim >= 1 entries, and a target must have that dimension,
    else ConfigurationError; `levels` is kept as a read-only map of int keys
    to read-only int64 arrays, (0, dim) if empty.
    """

    ambient_dim: int
    s: float
    epsilon: float
    levels: MappingProxyType
    target: Optional[PointSet] = field(default=None, compare=False)
    _report: Optional[CoveringReport] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ConfigurationError(f"ambient_dim must be at least 1, got {self.ambient_dim}")
        if self.target is not None and self.target.ambient_dim != self.ambient_dim:
            raise ConfigurationError(
                f"a {self.ambient_dim}-D covering cannot cover a {self.target.ambient_dim}-D target"
            )
        _check_exponents(self.s, self.epsilon, self.ambient_dim)
        levels = {}
        for k, cubes in self.levels.items():
            rows = np.asarray(cubes)
            if rows.shape[:1] == (0,):
                rows = np.empty((0, self.ambient_dim), np.int64)
            integer_rows = rows.dtype.kind == "i" and rows.shape[1:] == (self.ambient_dim,)
            integer_key = isinstance(k, numbers.Integral) and not isinstance(k, bool)
            if not (integer_key and 0 <= k <= MAX_LEVEL and integer_rows):
                raise ConfigurationError(
                    f"level {k!r} needs 0 <= k <= {MAX_LEVEL} and rows of "
                    f"{self.ambient_dim} integers"
                )
            levels[int(k)] = _readonly(rows.astype(np.int64, copy=False))
        object.__setattr__(self, "levels", MappingProxyType(levels))

    def budget_value(self) -> float:
        return float(
            sum((2.0**-k) ** self.s * len(idx) for k, idx in self.levels.items())
        )

    def cube_count(self) -> int:
        return int(sum(len(idx) for idx in self.levels.values()))


@dataclass(frozen=True)
class CoveringReport:
    cover_ok: bool
    disjoint_ok: bool
    budget_value: float
    budget_ok: bool
    worst_condition3_ratio: float
    witness: Optional[tuple]


def greedy_cover(
    x: PointSet, s: float, epsilon: float, min_level: int = 1
) -> Covering:
    """Build a covering of x satisfying the s-dimensional condition.

    Starts from the finest-level cover (the cells of x themselves) and makes
    one coarse-to-fine pass over the permitted merge levels l = min_level+1,
    ..., k_max-1, where 2^-k_max = x.delta: every level-l cube D that holds
    more than 2^((k_max-l)s) of the remaining cells replaces them.  Each
    level's cubes come out in lexicographic order, so the result is
    deterministic.

    One pass makes the same exchanges, in the same order, as rescanning
    every coarser level after each exchange.  Only the scan of level l adds
    level-l cubes, so when level l is scanned every chosen cube finer than
    l is a cell.  If that scan adds m cubes inside a coarser cube A at level
    j, each of them holds more than 2^((k_max-l)s) of A's cells, while A
    holds at most 2^((k_max-j)s) cells: it passed its own scan, and cells
    only ever leave.  So m < 2^((l-j)s), A stays uncrowded, and a rescan of
    level j would exchange nothing.

    Raises DomainError unless 0 <= s <= x.ambient_dim and epsilon is
    finite, and RangeError unless min_level is an integer in 0..k_max - 1.
    Raises InfeasibleError when the finest cover already exceeds
    the budget (the set is at least s-dimensional at this resolution) or
    when a counting violation at a level at or below min_level cannot be
    fixed inside the permitted range.
    """
    _check_exponents(s, epsilon, x.ambient_dim)
    k_max, min_level = x.level, _integer_level("min_level", min_level)
    if min_level < 0:
        raise RangeError(f"min_level must be >= 0, got {min_level}")
    if min_level >= k_max:
        raise RangeError(f"min_level {min_level} >= finest level {k_max}")
    if len(x) == 0:
        raise ConfigurationError("cannot cover an empty set")
    finest_budget = len(x) * (2.0**-k_max) ** s
    if finest_budget > epsilon + BUDGET_SLACK:
        raise InfeasibleError(
            f"finest-level budget {finest_budget:.4g} exceeds epsilon={epsilon}; "
            f"the set looks at least {s}-dimensional at delta=2^-{k_max}"
        )
    alive, levels = np.ones(len(x), dtype=bool), {}
    for l in range(min_level + 1, k_max):  # merge targets, coarse to fine
        nodes, inverse = x.tree[l].nodes, x.tree[l].inverse
        counts = np.bincount(inverse[alive], minlength=len(nodes))
        over = counts > 2.0 ** ((k_max - l) * s) + BUDGET_SLACK
        if over.any():
            levels[l] = nodes[over]  # distinct, in lexicographic order
            alive &= ~over[inverse]
    if alive.any():
        levels[k_max] = x.indices[alive]  # in x's lexicographic order
    cov = Covering(x.ambient_dim, s, epsilon, levels, target=x)
    report = validate_covering(cov)
    if not report.cover_ok or not report.disjoint_ok:
        raise InconsistencyError(f"internal covering invariant broken: {report}")
    if report.budget_value > epsilon + BUDGET_SLACK:
        raise InfeasibleError(f"budget {report.budget_value:.4g} exceeds {epsilon}")
    if report.worst_condition3_ratio > 1.0 + BUDGET_SLACK:
        raise InfeasibleError(
            "counting condition cannot be satisfied above min_level="
            f"{min_level}: witness {report.witness}"
        )
    return cov


def validate_covering(c: Covering) -> CoveringReport:
    """Exhaustively verify cover, disjointness, budget and condition (3).

    worst_condition3_ratio maximizes count / 2^((k-l)s) over every pair of
    levels l < k and every level-l lattice cube D (including levels coarser
    than the covering's own range, down to l = 0).  One ascending pass over
    the non-empty levels k reads the target's tree for the cells inside a
    level-k cube and the `ancestor_tree` of the distinct level-k cubes for
    condition (3), duplicates counted, and for disjointness: whether a level
    lists a cube twice or a tree node is itself a chosen cube of its level.
    The report is made once per covering and kept in it (a `replace` copy has none).
    """
    if c._report is not None:
        return c._report
    ks = sorted(k for k, idx in c.levels.items() if len(idx))
    if c.target is not None and ks and ks[-1] > c.target.level:
        raise InconsistencyError("covering finer than the target lattice")
    covered = None if c.target is None else np.zeros(len(c.target), dtype=bool)
    worst, witness, disjoint = 0.0, None, True
    for k in ks:
        idx = c.levels[k]
        first, inverse = group_rows(idx)
        disjoint = disjoint and len(first) == len(idx)
        if covered is not None:
            covered |= rows_in(c.target.tree[k].nodes, idx)[c.target.tree[k].inverse]
        for l, level in enumerate(ancestor_tree(idx[first], k)[:k]):
            counts = np.bincount(level.inverse[inverse])
            ratio = counts.max() / 2.0 ** ((k - l) * c.s)
            if ratio > worst:
                worst = float(ratio)
                witness = (l, k, tuple(level.nodes[int(np.argmax(counts))].tolist()))
            # a nested pair adds no witness, as the ratio above set one at this k >= 1
            if disjoint and l in ks:
                disjoint = not rows_in(level.nodes, c.levels[l]).any()

    cover_ok = covered is None or bool(covered.all())
    if not cover_ok:
        witness = ("uncovered", tuple(c.target.indices[~covered][0].tolist()))
    budget = c.budget_value()
    object.__setattr__(c, "_report", CoveringReport(
        cover_ok=cover_ok,
        disjoint_ok=disjoint,
        budget_value=budget,
        budget_ok=bool(budget <= c.epsilon + BUDGET_SLACK),
        worst_condition3_ratio=worst,
        witness=witness,
    ))
    return c._report


def dyadic_content(x: PointSet, t: float, max_level: int) -> float:
    """Exact optimum of sum r(D)^t over dyadic coverings up to max_level.

    Bottom-up tree recursion content(node) = min(r^t, sum children); an
    upper bound for the t-dimensional Hausdorff content up to the usual
    lattice-versus-ball constant.  t must be finite and >= 0 (else
    DomainError), and max_level an integer in 0..x.level, as no cube finer
    than the lattice carries information (else RangeError).
    """
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"exponent t must be finite and >= 0, got {t}")
    k, max_level = x.level, _integer_level("max_level", max_level)
    if not 0 <= max_level <= k:
        raise RangeError(f"max_level must lie in [0, {k}], got {max_level}")
    tree = x.tree
    content = np.full(len(tree[max_level].nodes), (2.0**-max_level) ** t)
    for l in range(max_level - 1, -1, -1):
        sums = np.bincount(tree[l + 1].up, weights=content)
        content = np.minimum((2.0**-l) ** t, sums)
    return float(content.sum())


# ----------------------------------------------------------------------------
# serialization


def covering_to_json(c: Covering) -> str:
    payload = {
        "s": c.s,
        "epsilon": c.epsilon,
        "levels": [
            {"k": int(k), "cubes": c.levels[k].tolist()}
            for k in sorted(c.levels)
            if len(c.levels[k])
        ],
    }
    return json.dumps(payload, sort_keys=True)


def covering_from_json(text: str, ambient_dim: int) -> Covering:
    """Read a `covering_to_json` payload; a malformed one raises ConfigurationError,
    as do a repeated level and a level, cube row, s or epsilon that
    `Covering` refuses."""
    try:
        payload = json.loads(text)
        s, epsilon = float(payload["s"]), float(payload["epsilon"])
        levels = {}
        for entry in payload["levels"]:
            k = entry["k"]
            if k in levels:
                raise ValueError(f"level {k} is listed twice")
            levels[k] = entry["cubes"]
        return Covering(ambient_dim, s, epsilon, levels)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigurationError(f"malformed covering JSON: {exc!r}") from None
