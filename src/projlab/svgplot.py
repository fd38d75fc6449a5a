"""Minimal deterministic SVG plotting (polyline + axes), no dependencies.

Output bytes depend only on the data passed in: floats are rendered with a
fixed format and no timestamps or ids are embedded, so identical inputs
produce identical files.
"""

from __future__ import annotations

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 46


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_plot(
    xs,
    ys,
    title: str,
    xlabel: str,
    ylabel: str,
    marker: bool = True,
    flags=None,
) -> str:
    """Render one series as an SVG polyline with axes and tick labels.

    `flags`, when given, marks selected points with a filled square (used
    for below-threshold sweep rows).
    """
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_T - MARGIN_B
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    # axes
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" stroke="black"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{_fmt(px(tx))}" y1="{y0}" x2="{_fmt(px(tx))}" y2="{y0 + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(tx))}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(py(ty))}" x2="{x0}" y2="{_fmt(py(ty))}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(py(ty) + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">{ylabel}</text>'
    )
    pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    if marker:
        for i, (x, y) in enumerate(zip(xs, ys)):
            if flags is not None and flags[i]:
                parts.append(
                    f'<rect x="{_fmt(px(x) - 3)}" y="{_fmt(py(y) - 3)}" width="6" '
                    f'height="6" fill="#d62728"/>'
                )
            else:
                parts.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2" fill="#1f77b4"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
