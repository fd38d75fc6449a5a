"""The one ownership rule of the records that hold arrays.

Each such record takes a caller's array through `dyadic._readonly`, so it
holds read-only data that no caller can write, and compares by content
through `dyadic._Record`: arrays by dtype, shape and content.
"""

import importlib
import pkgutil
from collections.abc import Mapping
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import projlab
from projlab.covering import Covering, greedy_cover
from projlab.curve import DirectionNet, helix_curve, model_curve
from projlab.dyadic import _Record
from projlab.fourier import CapSubset, ConeGeometry, GridFunction, build_geometry, tspacing_subsample
from projlab.fractal import PointSet, cantor_1d
from projlab.incidence import IncidenceMatrix, SlabFamily
from projlab.projection import DimensionFit, box_dimension

GEO = build_geometry(model_curve(), 2.0**-4)
SAMPLES = np.arange(16**3).reshape((16,) * 3) * (1 + 1j)

#: record -> (build, inputs, changed inputs); build takes the inputs in order,
#: every array or list among them as a fresh writable array
RECORDS = {
    "PointSet": (
        lambda i, w: PointSet(1, 0.25, i, weights=w),
        ([[3], [0]], [0.75, 0.25]),
        ([[3], [1]], [0.75, 0.25]),
    ),
    "DirectionNet": (lambda th: DirectionNet(0.25, 1.0, th), ([0.0, 0.5],), ([0.0, 0.75],)),
    "SlabFamily": (lambda o: SlabFamily(0.25, 0.5, o, 0.125), ([-0.5, 0.25],), ([-0.5, 0.5],)),
    "IncidenceMatrix": (
        IncidenceMatrix,
        ([[True, False], [False, True]],),
        ([[True, False], [True, True]],),
    ),
    "GridFunction": (lambda x: GridFunction(16, x), (SAMPLES,), (SAMPLES + 1,)),
    "CapSubset": (lambda d: CapSubset(0.5, d), ([3, 9],), ([3, 10],)),
    "DimensionFit": (lambda c: DimensionFit(c, 1.0, 1.0), ([1.0, 2.0, 4.0],), ([1.0, 2.0, 8.0],)),
    "Covering": (
        lambda a, b: Covering(1, 0.5, 1.0, {1: a, 3: b}),
        ([[0]], [[4], [5]]),
        ([[1]], [[4], [5]]),
    ),
    # a geometry's arrays follow from its curve and delta, which are all it compares
    "ConeGeometry": (
        lambda c, a, f: ConeGeometry(c, 2.0**-4, a, f),
        (model_curve(), GEO.assignment, GEO.frames),
        (helix_curve(), GEO.assignment, GEO.frames),
    ),
}


def _fresh(inputs):
    return [np.array(x) if isinstance(x, (list, np.ndarray)) else x for x in inputs]


def _arrays(record):
    """Every array in the record's fields, a mapping's values included."""
    held = []
    for f in fields(record):
        value = getattr(record, f.name)
        held += list(value.values()) if isinstance(value, Mapping) else [value]
    return [a for a in held if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("name", RECORDS)
def test_records_own_read_only_data_and_compare_by_content(name):
    build, inputs, changed = RECORDS[name]
    mine = _fresh(inputs)
    record = build(*mine)
    before = [a.copy() for a in _arrays(record)]
    for x in mine:
        if isinstance(x, np.ndarray):
            x.flat[0] = not x.flat[0] if x.dtype == bool else x.flat[0] + 1
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(record), before, strict=True))
    assert not any(a.flags.writeable for a in _arrays(record))
    assert build(*_fresh(inputs)) == build(*_fresh(inputs))
    assert build(*_fresh(inputs)) != build(*_fresh(changed))
    if name == "ConeGeometry":
        assert hash(record) == hash(build(*_fresh(inputs)))
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_equal_content_of_another_dtype_or_shape_is_unequal():
    assert DimensionFit([1.0, 2.0], 1.0, 1.0) != DimensionFit([1, 2], 1.0, 1.0)
    assert IncidenceMatrix([[True, False]]) != IncidenceMatrix([[True], [False]])
    assert PointSet(1, 0.25, [[0]]) != PointSet(1, 0.25, [[0]], weights=[1.0])


def test_library_made_records_hold_read_only_arrays():
    p = cantor_1d(1 / 3, 4)
    held = [
        box_dimension(p, p.delta, 0.5).counts,
        tspacing_subsample(GEO, 0.5, seed=0).directions,
        *greedy_cover(p, 0.7, 1.0).levels.values(),
    ]
    assert not any(a.flags.writeable for a in held)


def test_tree_levels_compare_by_content():
    # levels used to be tuples of arrays, whose == raised ValueError
    tree = cantor_1d(1 / 3, 3).tree
    assert tree == cantor_1d(1 / 3, 3).tree
    assert tree[2] == cantor_1d(1 / 3, 3).tree[2]
    moved = cantor_1d(1 / 3, 3).indices.copy()
    moved[0] += 1  # cell 0 -> 1: a sibling, so every coarser level stays the same
    changed = PointSet(1, 2.0**-5, moved).tree
    assert [a == b for a, b in zip(tree, changed, strict=True)] == [True] * 5 + [False]
    dropped = PointSet(1, 2.0**-5, moved[1:]).tree
    assert not any(a == b for a, b in zip(tree, dropped, strict=True))
    assert tree[0] != tree[1]  # up is None at level 0 only
    with pytest.raises(TypeError):
        hash(tree[2])


#: the annotations of a field that holds an array, or may
ARRAY_FIELD = {np.ndarray, "np.ndarray", "Optional[np.ndarray]", "np.ndarray | None"}


def _dataclasses():
    for info in pkgutil.iter_modules(projlab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"projlab.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_every_array_field_is_compared_by_content():
    # the generated __eq__ compares array fields as tuples, which raises
    # ValueError on arrays of two or more entries
    records = list(_dataclasses())
    assert {cls.__name__ for cls in records} >= set(RECORDS)
    unguarded = [
        f"{cls.__name__}.{f.name}"
        for cls in records
        for f in fields(cls)
        if f.type in ARRAY_FIELD and f.compare and cls.__eq__ is not _Record.__eq__
    ]
    assert unguarded == []
