"""A guard that src/ runs its Fourier transforms at two sites only.

Every inverse transform goes through `fourier._synthesize` and every forward
one through `GridFunction._coeffs`, so each direction has one code path
whose bytes the tests pin.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "projlab"

#: the transforms of np.fft; fftfreq, rfftfreq, fftshift and ifftshift are not
TRANSFORM = re.compile(r"i?r?fft[2n]?|i?hfft")


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def fft_sites(source: str) -> list:
    """(enclosing def's qualified name, transform) of every np.fft transform in source.

    An attribute `fft.<transform>` counts, called or not and whatever names
    the fft module, and so does a transform imported from a module named fft.
    The syntax tree skips comments and strings.
    """
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Attribute):
                if TRANSFORM.fullmatch(child.attr) and _name(child.value) == "fft":
                    sites.append((".".join(scope), child.attr))
            elif isinstance(child, ast.ImportFrom) and (child.module or "").endswith("fft"):
                names = [a.name for a in child.names if TRANSFORM.fullmatch(a.name)]
                sites.extend((".".join(scope), name) for name in names)
            visit(child, inner)

    visit(ast.parse(source), ())
    return sites


@pytest.mark.parametrize(
    "source, sites",
    [
        ("y = np.fft.ifft(x)\n", [("", "ifft")]),
        ("def f():\n    return np.fft.fftn(x)\n", [("f", "fftn")]),
        ("class G:\n    def h(self):\n        return numpy.fft.rfft2(x)\n", [("G.h", "rfft2")]),
        ("from numpy import fft\ny = fft.irfftn(x)\n", [("", "irfftn")]),
        ("from numpy.fft import ihfft, fftfreq\n", [("", "ihfft")]),
        ("k = np.fft.fftfreq(8) + np.fft.rfftfreq(8) + np.fft.ifftshift(x)\n", []),
        ("# np.fft.ifft(x)\ns = 'np.fft.fft2(x)'\n", []),
    ],
)
def test_fft_sites_finds_transforms_only(source, sites):
    assert fft_sites(source) == sites


def test_src_transforms_run_at_two_sites():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {(f.name, *site) for f in files for site in fft_sites(f.read_text())}
    assert found == {
        ("fourier.py", "_synthesize", "ifft"),
        ("fourier.py", "GridFunction._coeffs", "fftn"),
    }
