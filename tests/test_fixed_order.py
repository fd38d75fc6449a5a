"""The one 3-term dot, `dyadic.dot3`, and a guard that no BLAS call comes back to src/."""

import io
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from projlab.dyadic import dot3

SRC = Path(__file__).resolve().parents[1] / "src" / "projlab"

#: numpy functions that may hand a product or a sum to BLAS or LAPACK
BANNED = {("np", "dot"), ("np", "matmul"), ("np", "einsum"), ("np", "vecdot"), ("np", "polyfit")}
BANNED |= {("np", "linalg", name) for name in ("det", "solve", "lstsq", "inv")}


def blas_sites(source: str) -> list:
    """(line, text) of every infix @ or @= and every BANNED name in Python source.

    Tokens, not text: comments and strings are skipped, and an @ that opens
    a logical line is a decorator.
    """
    skip = (tokenize.COMMENT, tokenize.NL)
    toks = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in skip]
    sites = []
    for i, tok in enumerate(toks):
        opens_line = i == 0 or toks[i - 1].type in (
            tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT
        )
        if tok.type == tokenize.OP and tok.string in ("@", "@=") and not opens_line:
            sites.append((tok.start[0], tok.line.strip()))
        for name in BANNED:
            words = [t.string for t in toks[i : i + 2 * len(name) - 1 : 2]]
            dots = [t.string for t in toks[i + 1 : i + 2 * len(name) - 1 : 2]]
            if tuple(words) == name and set(dots) <= {"."}:
                sites.append((tok.start[0], tok.line.strip()))
    return sites


@pytest.mark.parametrize(
    "source,count",
    [
        ("y = a @ b\n", 1),
        ("a @= b\n", 1),
        ("y = np.dot(a, b) + np.matmul(a, b)\n", 2),
        ("y = np.linalg.solve(a, b)\n", 1),
        ("@cache\ndef f():\n    @property\n    def g(self):\n        pass\n", 0),
        ("y = np.linalg.norm(a)  # a @ b, np.dot\n", 0),
        ('"""a @ b and np.einsum"""\n', 0),
    ],
)
def test_blas_sites_finds_infix_uses_only(source, count):
    assert len(blas_sites(source)) == count


def test_no_blas_call_in_src():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: blas_sites(f.read_text()) for f in files}
    assert {name: sites for name, sites in found.items() if sites} == {}


finite = st.floats(-1e6, 1e6, allow_nan=False)


@given(arrays(np.float64, (3, 7), elements=finite), arrays(np.float64, 3, elements=finite))
def test_dot3_sums_in_its_fixed_order(x, v):
    want = [(float(a) * v[0] + float(b) * v[1]) + float(c) * v[2] for a, b, c in x.T]
    assert dot3(x, v).tolist() == want
    out, tmp = np.empty(7), np.empty(7)
    assert dot3(x, v, out, tmp) is out
    assert out.tolist() == want


def test_dot3_broadcasts_rows_against_rows():
    rng = np.random.default_rng(0)
    x, y = rng.random((3, 5)), rng.random((3, 5))
    got = dot3(x, y)
    assert got.tolist() == [(a0 * b0 + a1 * b1) + a2 * b2 for (a0, a1, a2), (b0, b1, b2) in zip(x.T, y.T)]
