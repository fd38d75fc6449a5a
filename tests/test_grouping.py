"""Property tests of the dyadic row grouping and of its array-based users.

The loop and set-based implementations that `dyadic.group_rows` replaced
live on here as oracles: `oracle_greedy_cover` (dicts and sets of index
tuples), `oracle_validate_covering` (sets of tuples) and
`oracle_extract_delta_s_set` (the per-child budget loop).  Each new
implementation must give exactly the oracle's result on small random sets
in 1-D, 2-D and 3-D, on cube and ball domains.

The two spacing scans that `dyadic.spacing_scan` merged live on here too:
`oracle_spacing_scan` (the 1-D scan of sorted indices that direction nets
and cap subsets ran) and `oracle_validate_delta_s_set` (the point-set
verdict's own loop over the window sides).  The cube scan under them has
two oracles of its own: `oracle_max_cube_count`, the recursion that
re-sorted every slab as tuples and needed rows in lexicographic order,
and `brute_max_cube_count`, which counts at every lattice anchor.
`max_cube_count` must match both on rows in any order, through both of its
branches: the dense count on the compressed grid and, above
`dyadic.CELL_BUDGET` grid cells, the axis-0 slab recursion.  The scan
tests run each input once at the real budget and once at a budget of one
cell, which sends every count with d >= 2 down the slab branch.

`PointSet.tree` must equal, at every level, `group_rows` of the shifted
indices, and a static check keeps every other grouping of right-shifted
rows out of `src/projlab`, except in the few functions it names.
"""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from projlab import dyadic, fractal
from projlab.covering import (
    BUDGET_SLACK,
    Covering,
    CoveringReport,
    dyadic_content,
    greedy_cover,
    validate_covering,
)
from projlab.curve import DirectionNet, validate_direction_net
from projlab.dyadic import (
    dyadic_level,
    group_rows,
    max_cube_count,
    max_window_count,
    rows_in,
    spacing_scan,
)
from projlab.errors import (
    ConfigurationError,
    DomainError,
    InconsistencyError,
    InfeasibleError,
    ProjLabError,
    RangeError,
)
from projlab.fractal import (
    DeltaSetReport,
    PointSet,
    cantor_1d,
    extract_delta_s_set,
    frostman_constant,
    product_set,
    validate_delta_s_set,
)

MAX_LEVEL = {1: 6, 2: 4, 3: 3}


def oracle_greedy_cover(x, s, epsilon, min_level=1):
    k_max = x.level
    if min_level >= k_max:
        raise RangeError(f"min_level {min_level} >= finest level {k_max}")
    if len(x) == 0:
        raise ConfigurationError("cannot cover an empty set")
    finest_budget = len(x) * (2.0**-k_max) ** s
    if finest_budget > epsilon + BUDGET_SLACK:
        raise InfeasibleError("finest-level budget exceeds epsilon")
    off = 2**x.level if x.domain == "ball" else 0
    # chosen[k] = set of index tuples at level k (shifted to be nonnegative)
    chosen = {k: set() for k in range(min_level + 1, k_max + 1)}
    chosen[k_max] = set(map(tuple, (x.indices + off).tolist()))

    changed = True
    while changed:
        changed = False
        for l in range(min_level + 1, k_max):  # coarse-to-fine merge targets
            cap_by_k = {
                k: 2.0 ** ((k - l) * s) for k in range(l + 1, k_max + 1)
            }
            # group chosen fine cubes by their level-l ancestor
            ancestors = {}
            for k in range(l + 1, k_max + 1):
                for c in chosen[k]:
                    D = tuple(v >> (k - l) for v in c)
                    ancestors.setdefault(D, {}).setdefault(k, 0)
                    ancestors[D][k] += 1
            for D in sorted(ancestors):
                if any(
                    ancestors[D][k] > cap_by_k[k] + BUDGET_SLACK for k in ancestors[D]
                ):
                    # exchange: D replaces every chosen cube inside it
                    for k in range(l + 1, k_max + 1):
                        chosen[k] = {
                            c
                            for c in chosen[k]
                            if tuple(v >> (k - l) for v in c) != D
                        }
                    chosen[l].add(D)
                    changed = True
            if changed:
                break  # restart coarse-to-fine after any exchange

    levels = {
        k: np.array(sorted(cubes), dtype=np.int64).reshape(len(cubes), x.ambient_dim) - (off >> (k_max - k) if off else 0)
        for k, cubes in chosen.items()
        if cubes
    }
    cov = Covering(x.ambient_dim, s, epsilon, levels, target=x)
    report = oracle_validate_covering(cov)
    if not report.cover_ok or not report.disjoint_ok:
        raise InconsistencyError(f"internal covering invariant broken: {report}")
    if report.budget_value > epsilon + BUDGET_SLACK:
        raise InfeasibleError(f"budget {report.budget_value:.4g} exceeds {epsilon}")
    if report.worst_condition3_ratio > 1.0 + BUDGET_SLACK:
        raise InfeasibleError("counting condition cannot be satisfied")
    return cov


def oracle_validate_covering(c):
    ks = sorted(k for k, idx in c.levels.items() if len(idx))
    budget = c.budget_value()

    # condition (3): for every pair l < k, group level-k cubes by level-l ancestor
    worst, witness = 0.0, None
    for k in ks:
        idx = c.levels[k]
        for l in range(0, k):
            anc = idx >> (k - l)
            u, counts = np.unique(anc, axis=0, return_counts=True)
            ratio = counts.max() / 2.0 ** ((k - l) * c.s)
            if ratio > worst:
                worst = float(ratio)
                witness = (l, k, tuple(u[int(np.argmax(counts))].tolist()))

    # disjointness: no level lists a cube twice, and no chosen cube lies
    # strictly inside another chosen cube
    chosen_sets = {k: set(map(tuple, c.levels[k].tolist())) for k in ks}
    disjoint = all(len(chosen_sets[k]) == len(c.levels[k]) for k in ks)
    for i, l in enumerate(ks):
        for k in ks[i + 1 :]:
            for cube in chosen_sets[k]:
                if tuple(v >> (k - l) for v in cube) in chosen_sets[l]:
                    disjoint = False
                    witness = witness or (l, k, cube)

    # cover check against the recorded target
    cover_ok = True
    if c.target is not None:
        cells = c.target.indices
        k_cell = c.target.level
        covered = np.zeros(len(cells), dtype=bool)
        for k in ks:
            anc = cells >> (k_cell - k) if k <= k_cell else None
            if anc is None:
                raise InconsistencyError("covering finer than the target lattice")
            cubes = chosen_sets[k]
            for i, row in enumerate(map(tuple, anc.tolist())):
                if row in cubes:
                    covered[i] = True
        cover_ok = bool(covered.all())
        if not cover_ok:
            missing = cells[~covered][0]
            witness = ("uncovered", tuple(missing.tolist()))

    return CoveringReport(
        cover_ok=cover_ok,
        disjoint_ok=disjoint,
        budget_value=budget,
        budget_ok=bool(budget <= c.epsilon + BUDGET_SLACK),
        worst_condition3_ratio=worst,
        witness=witness,
    )


def oracle_extract_delta_s_set(p, s, content_estimate):
    """Per-child top-down allocation loop; groups levels with np.unique.

    The grouping is np.unique(axis=0) of the shifted indices, not the
    packed codes of the original, which merged distinct ball-domain cubes.
    """
    k = p.level
    n = len(p)
    target = content_estimate * p.delta ** (-s) / 64.0

    w = p.weights if p.weights is not None else np.full(n, 1.0)
    shifted = p.indices + 2**k

    # Bottom-up: per-level group ids, subtree weights, and achievable ranks.
    caps = [math.ceil((2 ** (k - l)) ** s) for l in range(k + 1)]
    inv_by_level, rank_by_level, weight_by_level = [], [], []
    child_group_of_cell = np.arange(n)
    rank = np.ones(n, dtype=np.int64)
    weight = w.copy()
    # level k: each distinct cell is its own node
    inv_by_level.append(child_group_of_cell)
    rank_by_level.append(rank)
    weight_by_level.append(weight)
    for l in range(k - 1, -1, -1):
        _, inv = np.unique(shifted >> (k - l), axis=0, return_inverse=True)
        n_nodes = inv.max() + 1
        node_w = np.bincount(inv, weights=w, minlength=n_nodes)
        # children of this level's nodes are the level-(l+1) nodes
        child_inv = inv_by_level[-1]
        node_of_child = np.zeros(child_inv.max() + 1, dtype=np.int64)
        node_of_child[child_inv] = inv
        child_ranks = rank_by_level[-1]
        sum_child_rank = np.bincount(
            node_of_child, weights=child_ranks.astype(float), minlength=n_nodes
        ).astype(np.int64)
        node_rank = np.minimum(caps[l], sum_child_rank)
        inv_by_level.append(inv)
        rank_by_level.append(node_rank)
        weight_by_level.append(node_w)
    inv_by_level.reverse()  # now index 0 = level 0, ..., k = cells
    rank_by_level.reverse()
    weight_by_level.reverse()

    total_rank = int(rank_by_level[0].sum())  # roots are unit cubes, no super-cap
    if total_rank < max(1.0, target):
        raise InfeasibleError("achievable cardinality is below the target")

    # Top-down allocation preferring heaviest subtrees.
    budgets = rank_by_level[0].copy()
    for l in range(k):
        inv_parent = inv_by_level[l]
        inv_child = inv_by_level[l + 1]
        n_child = inv_child.max() + 1
        parent_of_child = np.zeros(n_child, dtype=np.int64)
        parent_of_child[inv_child] = inv_parent
        child_rank = rank_by_level[l + 1]
        child_weight = weight_by_level[l + 1]
        child_budget = np.zeros(n_child, dtype=np.int64)
        order = np.lexsort((np.arange(n_child), -child_weight))
        remaining = budgets.copy()
        for c in order:
            give = min(child_rank[c], remaining[parent_of_child[c]])
            child_budget[c] = give
            remaining[parent_of_child[c]] -= give
        budgets = child_budget
    keep = budgets[inv_by_level[k]] >= 1
    return p.indices[keep]


def oracle_spacing_scan(indices, k, exponent):
    """The 1-D scan of a sorted index array, witness (r, window start)."""
    worst = 0.0
    witness = (1.0, 0.0)
    delta = 2.0 ** (-k)
    for m in range(k + 1):
        length = 2 ** (k - m)
        count, start = max_window_count(indices, length)
        ratio = count / float(length) ** exponent
        if ratio > worst:
            worst = ratio
            witness = (2.0 ** (-m), start * delta)
    return worst, witness


def oracle_max_cube_count(rows, length):
    """The recursive cube scan of rows in lexicographic order, each slab re-sorted as tuples."""
    n, d = rows.shape
    if n == 0:
        return 0, (0,) * d
    if d == 1:
        c, start = max_window_count(rows[:, 0], length)
        return c, (start,)
    best, bwit = 0, (0,) * d
    xs = np.unique(rows[:, 0])
    order = np.argsort(rows[:, 0], kind="stable")
    sorted_rows = rows[order]
    col0 = sorted_rows[:, 0]
    for x in xs:
        lo = np.searchsorted(col0, x, side="left")
        hi = np.searchsorted(col0, x + length, side="right")
        sub = np.array(sorted(map(tuple, sorted_rows[lo:hi, 1:])), dtype=np.int64)
        c, wit = oracle_max_cube_count(sub, length)
        if c > best:
            best, bwit = c, (int(x),) + wit
    return best, bwit


def brute_max_cube_count(rows, length):
    """Point count of the closed cube at every lattice anchor of the bounding box.

    Returns the max count and, as witness, the lexicographically smallest
    anchored corner among the maxima: corner c is anchored when, on every
    axis j, some point p has p_j == c_j and lies in the cube on the axes
    before j.  Those are exactly the corners the recursive scan visits.
    """
    n, d = rows.shape
    if n == 0:
        return 0, (0,) * d
    spans = [np.arange(a, b + 1) for a, b in zip(rows.min(0), rows.max(0))]
    anchors = np.stack([a.ravel() for a in np.meshgrid(*spans, indexing="ij")], axis=1)
    # inside[a, i, j]: point i lies in anchor a's cube on axis j; anchors run in lexicographic order
    inside = (rows[None] >= anchors[:, None]) & (rows[None] <= anchors[:, None] + length)
    counts = inside.all(axis=2).sum(axis=1)
    inside_before = np.logical_and.accumulate(inside, axis=2)
    inside_before = np.concatenate([np.ones_like(inside[..., :1]), inside_before[..., :-1]], axis=2)
    anchored = ((rows[None] == anchors[:, None]) & inside_before).any(axis=1).all(axis=1)
    best = int(counts.max())
    first = np.flatnonzero(anchored & (counts == best))[0]
    return best, tuple(int(c) for c in anchors[first])


def oracle_validate_delta_s_set(p, s):
    k = p.level
    threshold = 4.0**p.ambient_dim
    worst, wit_r, wit_corner = 0.0, 1.0, (0,) * p.ambient_dim
    for m in range(k + 1):
        length = 2 ** (k - m)
        count, corner = oracle_max_cube_count(p.indices, length)
        ratio = count / float(length) ** s
        if ratio > worst:
            worst = ratio
            wit_r = 2.0**-m
            wit_corner = corner
    return DeltaSetReport(
        valid=bool(worst <= threshold),
        worst_constant=worst,
        witness_r=wit_r,
        witness_corner=tuple(c * p.delta for c in wit_corner),
        threshold=threshold,
    )


@st.composite
def point_sets(draw, weighted=False, allow_empty=False):
    """Random subsets of a box on the cube or the ball domain, in 1-D to 3-D.

    The box has a random dyadic side, so the clusters that force covering
    merges are common.  Weights, when asked for, are small integers, so
    ties are common too.  Empty subsets are drawn only when allowed.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(1, MAX_LEVEL[d]))
    domain = draw(st.sampled_from(["cube", "ball"]))
    span = 2 ** draw(st.integers(0, k))
    lo = draw(st.integers(0 if domain == "cube" else -(2**k), 2**k - span))
    axes = np.meshgrid(*[np.arange(lo, lo + span + 1)] * d, indexing="ij")
    box = np.stack([a.ravel() for a in axes], axis=1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = box[rng.random(len(box)) < draw(st.floats(0.05, 1.0))]
    if domain == "ball":
        idx = idx[(idx**2).sum(axis=1) <= 4**k]
    assume(allow_empty or len(idx) > 0)
    p = PointSet(d, 2.0**-k, idx, nominal_dim=float(d), domain=domain)
    if weighted:
        w = rng.integers(1, 4, size=len(p))
        p = replace(p, weights=w / w.sum())
    return p


int_rows = hnp.arrays(
    np.int64,
    st.tuples(st.integers(0, 40), st.integers(1, 3)),
    elements=st.integers(-5, 5),
)


@given(int_rows)
def test_group_rows_matches_np_unique(rows):
    first, inverse = group_rows(rows)
    _, u_first, u_inverse = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    assert np.array_equal(first, u_first)
    assert np.array_equal(inverse, u_inverse.ravel())


@given(int_rows)
def test_group_rows_matches_python_sets(rows):
    first, inverse = group_rows(rows)
    distinct = [tuple(r) for r in rows[first].tolist()]
    assert distinct == sorted(set(map(tuple, rows.tolist())))
    assert np.array_equal(rows[first][inverse], rows)
    assert first.tolist() == [int(np.flatnonzero(inverse == g)[0]) for g in range(len(first))]


@given(int_rows, st.integers(0, 12))
def test_rows_in_matches_python_sets(rows, n_table):
    # shares the even rows of the prefix; the odd ones, moved past the
    # element range, miss
    table = np.concatenate([rows[:n_table:2], rows[1:n_table:2] + 11])
    expected = [tuple(r) in set(map(tuple, table.tolist())) for r in rows.tolist()]
    assert rows_in(rows, table).tolist() == expected
    assert rows_in(table, rows).tolist() == [
        tuple(r) in set(map(tuple, rows.tolist())) for r in table.tolist()
    ]


def test_dyadic_level_is_exact_down_to_the_smallest_subnormal():
    # 1 / 2^-1074 overflows to inf, so the level used to be round(log2(inf))
    assert [dyadic_level(2.0**-k) for k in range(1075)] == list(range(1075))


@pytest.mark.parametrize("delta", [0.3, 0.0, math.nan, 3 * 2.0**-1074, 1.5, -0.5])
def test_dyadic_level_rejects_non_dyadic_deltas(delta):
    with pytest.raises(DomainError, match="delta"):
        dyadic_level(delta)


def _outcome(fn, *args, result=lambda out: out):
    """fn(*args) mapped by `result`, or the class of the ProjLabError it raises."""
    try:
        return result(fn(*args))
    except ProjLabError as exc:
        return type(exc)


def _levels(cov):
    return [(k, idx.tolist()) for k, idx in cov.levels.items()]


@given(point_sets(), st.floats(0.05, 1.0), st.sampled_from([1.0, 1.5, 4.0]), st.data())
def test_greedy_cover_matches_oracle(p, s_share, slack, data):
    s = s_share * p.ambient_dim
    epsilon = slack * len(p) * p.delta**s  # the finest cover always fits
    min_level = data.draw(st.integers(0, p.level - 1))
    args = (p, s, epsilon, min_level)
    assert _outcome(greedy_cover, *args, result=_levels) == _outcome(
        oracle_greedy_cover, *args, result=_levels
    )


#: finest level of `multiscale_sets` per dimension: at most 4,096 cells
MULTISCALE_LEVEL = {1: 10, 2: 6, 3: 4}


@st.composite
def multiscale_sets(draw):
    """Random recursive subdivisions, on the cube or the ball domain, in 1-D to 3-D.

    At each level every kept cube keeps all its children with a probability
    drawn for that level, and otherwise each child with probability 2^-d.
    Full and thin subtrees thus alternate from level to level and from
    place to place, so one covering run often crowds cubes at several
    levels; the uniform `point_sets` rarely do.  The ball domain starts
    from one of the 2^d level-0 cubes around the origin, drawn, and keeps
    the cells in the ball.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.sampled_from(range(1, MULTISCALE_LEVEL[d] + 1)))
    domain = draw(st.sampled_from(["cube", "ball"]))
    full = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    children = np.indices((2,) * d).reshape(d, -1).T
    cells = np.zeros((1, d), np.int64)
    if domain == "ball":
        cells = children[draw(st.sampled_from(range(len(children))))][None] - 1
    for p_full in full:
        keep = np.where(rng.random(len(cells)) < p_full, 1.0, 0.5**d)
        cells = (2 * cells[:, None, :] + children).reshape(-1, d)
        cells = cells[rng.random(len(cells)) < np.repeat(keep, len(children))]
    if domain == "ball":
        cells = cells[(cells**2).sum(axis=1) <= 4**k]
    assume(len(cells) > 0)
    return PointSet(d, 2.0**-k, cells, nominal_dim=float(d), domain=domain)


@given(multiscale_sets(), st.floats(0.8, 1.4), st.sampled_from([1.0, 1.5, 4.0]), st.data())
def test_greedy_cover_matches_oracle_on_multiscale_sets(p, dim_share, slack, data):
    # s near the set's own dimension log2(#cells) / k keeps the root cube
    # near its count cap, so many runs are feasible and merge at some levels;
    # s in quarters makes some caps 2^((k-l)s) whole numbers, so ties occur
    s = min(p.ambient_dim, max(0.25, round(4 * dim_share * math.log2(len(p)) / p.level) / 4))
    epsilon = slack * len(p) * p.delta**s
    min_level = data.draw(st.sampled_from(range(p.level)))
    args = (p, s, epsilon, min_level)
    assert _outcome(greedy_cover, *args, result=_levels) == _outcome(
        oracle_greedy_cover, *args, result=_levels
    )


@st.composite
def coverings(draw):
    """A target set plus random cube families at up to three levels."""
    p = draw(point_sets())
    k = p.level
    levels = {}
    for lev in draw(st.sets(st.integers(0, k + 1), max_size=3)):
        coord = st.integers(0 if p.domain == "cube" else -(2**lev), 2**lev)
        rows = draw(st.lists(st.tuples(*[coord] * p.ambient_dim), max_size=6))
        if draw(st.booleans()):  # add ancestors of some target cells
            rows += [tuple(r) for r in (p.indices[:3] >> max(k - lev, 0)).tolist()]
        levels[lev] = np.array(sorted(set(rows)), dtype=np.int64).reshape(-1, p.ambient_dim)
    s = draw(st.floats(0.1, float(p.ambient_dim)))
    return Covering(p.ambient_dim, s, 1.0, levels, target=p)


@given(coverings())
@example(Covering(1, 0.5, 10.0, {2: np.array([[1], [1]])}))
def test_validate_covering_matches_oracle(cov):
    assert _outcome(validate_covering, cov) == _outcome(oracle_validate_covering, cov)


@given(point_sets(weighted=True), st.floats(0.0, 1.0), st.sampled_from([1e-6, 0.5, 4.0]))
def test_extract_weighted_matches_oracle(p, s_share, content):
    s = s_share * p.ambient_dim
    got = _outcome(extract_delta_s_set, p, s, content, result=lambda q: q.indices.tolist())
    want = _outcome(oracle_extract_delta_s_set, p, s, content, result=np.ndarray.tolist)
    assert got == want


@given(point_sets(), st.floats(0.0, 1.0))
def test_extract_unweighted_matches_oracle(p, s_share):
    s = s_share * p.ambient_dim
    assert np.array_equal(
        extract_delta_s_set(p, s, 1e-6).indices, oracle_extract_delta_s_set(p, s, 1e-6)
    )


@given(point_sets(weighted=True))
def test_frostman_constant_matches_tuple_masses(p):
    k = p.level
    worst = 0.0
    for l in range(k + 1):
        mass = {}
        for row, w in zip((p.indices >> (k - l)).tolist(), p.weights):
            mass[tuple(row)] = mass.get(tuple(row), 0.0) + w
        worst = max(worst, max(mass.values()) / (2.0**-l) ** p.nominal_dim)
    assert frostman_constant(p) == worst


@given(point_sets(allow_empty=True))
@example(PointSet(2, 1.0, np.array([[0, 1], [1, 0]])))  # level 0: the tree is its leaves
@example(PointSet(3, 0.25, np.zeros((0, 3), dtype=np.int64), domain="ball"))
def test_tree_levels_are_the_groups_of_the_ancestors(p):
    k = p.level
    assert len(p.tree) == k + 1
    for l, (nodes, inverse, up) in enumerate(p.tree):
        anc = p.indices >> (k - l)
        first, want = group_rows(anc)
        assert np.array_equal(nodes, anc[first])
        assert np.array_equal(inverse, want)
        arrays = [nodes, inverse]
        if l == 0:
            assert up is None
        else:
            assert np.array_equal(up[inverse], p.tree[l - 1].inverse)
            arrays.append(up)
        assert not any(a.flags.writeable for a in arrays)


def test_tree_is_built_once_for_all_its_readers(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return group_rows(rows)

    c = cantor_1d(1 / 3, 3)
    p = product_set(c, c, c)
    monkeypatch.setattr(fractal, "group_rows", counted)
    cov = greedy_cover(p, 1.5, 4.0, min_level=0)
    assert sorted(cov.levels) == [2, 5]  # a merge, so greedy_cover read a coarse level
    content = dyadic_content(p, 1.5, p.level)
    sub = extract_delta_s_set(p, 1.0, content)
    frostman_constant(p)
    # one group_rows per coarse level, each over the nodes of the level below,
    # then the one in the constructor of the extracted set
    assert calls == [len(level.nodes) for level in p.tree[:0:-1]] + [len(sub)]
    assert calls == [512, 512, 125, 64, 8, 128]


SRC = Path(__file__).resolve().parents[1] / "src" / "projlab"

#: the functions that may still group right-shifted rows: the tree itself, the
#: covering check's grouping of covering cubes (which are no set's cells), and
#: box_counts of a set above 1-D, which groups one level only
SHIFTED_GROUPING_ALLOWED = {"PointSet.tree", "validate_covering", "box_counts"}


def shifted_groupings(source: str) -> list:
    """(function, line) of every `group_rows` call on a right-shifted array.

    An argument is right-shifted when it holds a `>>`, or is a name that the
    same function assigns from an expression holding one.
    """

    def shifts(node):
        return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.RShift) for n in ast.walk(node))

    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                shifted = {
                    t.id
                    for a in ast.walk(child)
                    if isinstance(a, ast.Assign) and shifts(a.value)
                    for target in a.targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Name)
                }
                for call in ast.walk(child):
                    callee = getattr(call, "func", None)
                    if getattr(callee, "id", getattr(callee, "attr", None)) != "group_rows":
                        continue
                    if any(shifts(a) or getattr(a, "id", None) in shifted for a in call.args):
                        found.append((name, call.lineno))

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize(
    "source,names",
    [
        ("def f(p, k, l):\n    return group_rows(p.indices >> (k - l))\n", ["f"]),
        ("def f(x):\n    anc = x >> 1\n    first, inv = group_rows(anc)\n", ["f"]),
        ("def f(x):\n    anc = (x >> 1)[:, :2]\n    return dyadic.group_rows(anc)\n", ["f"]),
        ("class P:\n    def tree(self):\n        return group_rows(self.i >> 1)\n", ["P.tree"]),
        ("def f(x):\n    y = x >> 1\n    return group_rows(x)  # x >> 1\n", []),
        ("def f(x):\n    return group_rows(x)\n\ndef g(x):\n    x = x >> 1\n", []),
    ],
)
def test_shifted_groupings_finds_groupings_of_ancestors(source, names):
    assert [name for name, _ in shifted_groupings(source)] == names


def test_ancestor_groupings_only_in_the_tree():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {(f.name, name, line) for f in files for name, line in shifted_groupings(f.read_text())}
    assert {site for site in found if site[1] not in SHIFTED_GROUPING_ALLOWED} == set()
    assert {name for _, name, _ in found} == SHIFTED_GROUPING_ALLOWED


SPACING_EXPONENTS = st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.7, 2.5])


#: the real cell budget, and one cell, which leaves the dense count to 1-cell grids only
BUDGETS = (dyadic.CELL_BUDGET, 1)


@given(point_sets(allow_empty=True), SPACING_EXPONENTS)
@example(PointSet(1, 0.25, np.zeros((0, 1), dtype=np.int64)), 0.5)
@example(PointSet(3, 0.5, np.zeros((0, 3), dtype=np.int64), domain="ball"), 0.0)
@example(PointSet(2, 0.125, np.array([[3, 5]])), 0.0)  # ties at every side
def test_spacing_scan_matches_both_old_scans(p, s):
    want = oracle_validate_delta_s_set(p, s)
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dyadic, "CELL_BUDGET", budget)
            assert validate_delta_s_set(p, s) == want
            worst, (r, corner) = spacing_scan(p.indices, p.level, s)
        assert (worst, r, corner) == (want.worst_constant, want.witness_r, want.witness_corner)
        if p.ambient_dim == 1:
            assert (worst, (r, corner[0])) == oracle_spacing_scan(p.indices[:, 0], p.level, s)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_spacing_exponent_must_be_finite_and_nonnegative(bad):
    # 1.0 ** nan == 1.0, so a NaN exponent used to pass every scan: only the
    # window of side 1 counted, and cantor_1d(1/3, 4) read valid=True with
    # worst constant 2.0
    with pytest.raises(DomainError, match="spacing exponent"):
        validate_delta_s_set(cantor_1d(1 / 3, 4), bad)
    with pytest.raises(DomainError, match="spacing exponent"):
        spacing_scan(np.array([[0, 0], [1, 2]]), 2, bad)
    with pytest.raises(DomainError, match="spacing exponent"):
        validate_direction_net(DirectionNet(0.25, bad, np.array([0.0, 0.5, 1.0])))


@st.composite
def small_row_sets(draw):
    """(rows, k): at most 12 distinct lattice points in 1-D to 3-D, either domain, any row order."""
    d = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(1, MAX_LEVEL[d]))
    lo = 0 if draw(st.sampled_from(["cube", "ball"])) == "cube" else -(2**k)
    points = st.tuples(*[st.integers(lo, 2**k)] * d)
    if lo < 0:
        points = points.filter(lambda q: sum(c * c for c in q) <= 4**k)
    rows = draw(st.lists(points, max_size=12, unique=True))
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=np.int64).reshape(len(rows), d), k


@given(small_row_sets())
@example((np.array([[0, 0], [1, 6], [1, 5]]), 3))  # the witness slab's x-anchor holds no counted point
@example((np.array([[2, 1, 0], [0, 1, 2], [1, 0, 2], [0, 2, 1]]), 2))  # ties at every side
# diagonals and lines along small integer directions: runs of slabs that end
# at the same row, which the slab branch skips after the first
@example((np.array([[i, i, i] for i in range(8, -1, -1)]), 3))
@example((np.array([[i, -i] for i in range(-4, 5)]), 3))
@example((np.array([[2 * i, i] for i in range(5)]), 3))
@example((np.array([[i, 2 * i, 3 * i] for i in range(-2, 3)]), 3))
@example((np.array([[i, i, 2 * i] for i in range(9)]), 4))
def test_max_cube_count_matches_brute_force_in_any_row_order(rows_k):
    rows, k = rows_k
    ordered = rows[np.lexsort(rows.T[::-1])]
    for m in range(k + 1):
        length = 2 ** (k - m)
        want = brute_max_cube_count(rows, length)
        assert want == oracle_max_cube_count(ordered, length)
        for budget in BUDGETS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dyadic, "CELL_BUDGET", budget)
                assert max_cube_count(rows, length) == want


@given(point_sets(allow_empty=True), SPACING_EXPONENTS, st.randoms(use_true_random=False))
def test_spacing_scan_ignores_row_order(p, s, rnd):
    shuffled = p.indices[rnd.sample(range(len(p)), len(p))]
    report = validate_delta_s_set(p, s)
    wants = [oracle_max_cube_count(p.indices, 2 ** (p.level - m)) for m in range(p.level + 1)]
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dyadic, "CELL_BUDGET", budget)
            for m, want in enumerate(wants):
                assert max_cube_count(shuffled, 2 ** (p.level - m)) == want
            assert spacing_scan(shuffled, p.level, s) == (
                report.worst_constant, (report.witness_r, report.witness_corner)
            )


def test_max_cube_count_above_the_cell_budget():
    # 150 spread cells at k = 8: about 110 distinct coordinates per axis, so
    # the 3-D grid is far above the budget and the scan cuts it into x-slabs,
    # whose 2-D grids fit and are counted densely
    rng = np.random.default_rng(22)
    k = 8
    rows = rng.integers(0, 2**k + 1, size=(150, 3))
    assert math.prod(np.unique(c).size for c in rows.T) > dyadic.CELL_BUDGET
    ordered = rows[np.lexsort(rows.T[::-1])]
    for m in range(k + 1):
        length = 2 ** (k - m)
        assert max_cube_count(rows, length) == oracle_max_cube_count(ordered, length)


def test_validate_delta_s_set_on_a_32768_cell_product():
    third = cantor_1d(0.25, 5)
    p = product_set(third, third, third)
    assert len(p) == 32768
    assert validate_delta_s_set(p, 1.0) == DeltaSetReport(
        valid=True,
        worst_constant=32.0,
        witness_r=1.0,
        witness_corner=(-0.5, -0.5, -0.5),
        threshold=64.0,
    )


def test_validate_delta_s_set_on_criterion_4s_product():
    # 64 distinct coordinates per axis: a 262,144-cell compressed grid
    third = cantor_1d(1 / 3, 6)
    p = product_set(third, third, third)
    assert len(p) == 262144
    assert validate_delta_s_set(p, p.nominal_dim) == DeltaSetReport(
        valid=True,
        worst_constant=2.154287413365126,
        witness_r=0.001953125,
        witness_corner=(-0.5, -0.5, -0.5),
        threshold=64.0,
    )


@given(
    st.integers(0, 6).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, 2**k), max_size=2**k + 2))
    ),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
@example((3, []), 0.5)
@example((2, [1, 1]), 0.0)
def test_validate_direction_net_matches_old_scan(k_cells, t):
    # duplicates allowed, so unseparated nets are drawn too
    k, cells = k_cells
    delta = 2.0**-k
    net = DirectionNet(delta, t, np.array(cells, dtype=np.int64) * delta)
    idx = np.sort(net.indices)
    separated = bool(idx.size < 2 or np.min(np.diff(idx)) >= 1)
    assert validate_direction_net(net) == (separated, *oracle_spacing_scan(idx, k, t))
