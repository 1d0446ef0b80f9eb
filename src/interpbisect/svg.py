"""SVG rendering of a trace, imported by the ``plot`` subcommand only."""

from __future__ import annotations

import math

from .core import Trace
from .funcdsl import EvalError, FunctionExpr, eval_float, to_text
from .numerics import _to_float, scalar_text
from .record import Record

__all__ = ["MAX_SAMPLES", "PlotError", "PlotSpec", "render_trace_svg"]


class PlotError(ValueError):
    """The plot request cannot produce a well-formed figure."""


# Curve samples a figure may ask for: far past the plot's 626 pixel
# columns, while rendering time and memory grow linearly in the count.
MAX_SAMPLES = 65536


class PlotSpec(Record):
    """What to draw; the figure's size and style are fixed.

    Ranges are floats because rendering is presentation only: exact
    scalars convert at the last moment.  ``x_range``/``y_range`` of
    None means derive them from the trace interval and the sampled
    curve.
    """

    __slots__ = ("function", "trace", "x_range", "y_range", "samples")

    def __init__(self, function: FunctionExpr, trace: Trace, x_range: tuple[float, float] | None = None,
                 y_range: tuple[float, float] | None = None, samples: int = 512):
        self._init(function, trace, x_range, y_range, samples)


def _px(v: float) -> str:
    return f"{v:.3f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def render_trace_svg(spec: PlotSpec) -> str:
    """Render the function curve, midpoint dots, and the limit square.

    Dots are filled circles at (c_n, f(c_n)) from the trace records;
    the final estimate is an open square at (limit, f(limit)).  Every
    marker carries data-x / data-y attributes in the backend's text
    form, so the numbers can be read back from the file exactly.  A
    marker whose value or pixel coordinate passes the float range sits on
    the frame: at +inf on its right or top edge, at -inf or NaN on its
    left or bottom edge.  Non-finite values stay out of the derived y range.
    A dotted horizontal line marks the tolerance at +epsilon.  Output is
    deterministic byte for byte.

    Raises:
        PlotError: on fewer than 2 or more than MAX_SAMPLES samples, or
            an empty/degenerate range.
    """
    if spec.samples < 2:
        raise PlotError(f"need at least 2 curve samples, got {scalar_text(spec.samples)}")
    if spec.samples > MAX_SAMPLES:
        raise PlotError(f"at most {MAX_SAMPLES} curve samples, got {scalar_text(spec.samples)}")
    trace = spec.trace
    backend = trace.config.backend
    f = spec.function

    if spec.x_range is not None:
        x_lo, x_hi = (float(spec.x_range[0]), float(spec.x_range[1]))
    else:
        x_lo, x_hi = _to_float(trace.config.a), _to_float(trace.config.b)
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)) or x_lo >= x_hi:
        raise PlotError(f"degenerate x range [{x_lo}, {x_hi}]")

    xs = [x_lo + i * (x_hi - x_lo) / (spec.samples - 1) for i in range(spec.samples)]
    ys: list[float] = []
    for x in xs:
        try:
            ys.append(eval_float(f, x))
        except EvalError:
            ys.append(math.nan)

    dots = [(rec, _to_float(rec.c_n), _to_float(rec.f_c_n)) for rec in trace.steps]
    limit = trace.limit_estimate
    f_limit = backend.evaluate(f, limit)
    limit_x, limit_y = _to_float(limit), _to_float(f_limit)
    eps_f = _to_float(trace.config.epsilon)

    if spec.y_range is not None:
        y_lo, y_hi = (float(spec.y_range[0]), float(spec.y_range[1]))
    else:
        candidates = ys + [y for _, _, y in dots] + [limit_y, eps_f, 0.0]
        candidates = [y for y in candidates if math.isfinite(y)]
        lo, hi = min(candidates), max(candidates)
        pad = 0.08 * (hi - lo) if hi > lo else 1.0
        y_lo, y_hi = lo - pad, hi + pad
    if not (math.isfinite(y_lo) and math.isfinite(y_hi)) or y_lo >= y_hi:
        raise PlotError(f"degenerate y range [{y_lo}, {y_hi}]")

    width, height = 720, 480
    top, right, bottom, left = 28, 30, 46, 64
    plot_w = width - left - right
    plot_h = height - top - bottom

    def px(x: float) -> float:
        p = left + (x - x_lo) / (x_hi - x_lo) * plot_w
        return p if math.isfinite(p) else left + plot_w if x > 0 else left

    def py(y: float) -> float:
        p = top + (y_hi - y) / (y_hi - y_lo) * plot_h
        return p if math.isfinite(p) else top if y > 0 else top + plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    parts.append(f"<desc>{_escape(to_text(f))}</desc>")
    parts.append(
        '<defs><clipPath id="plot-area">'
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}"/>'
        "</clipPath></defs>"
    )
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="white" stroke="#999999" stroke-width="1"/>'
    )

    # Zero axes and unit ticks, drawn only where they fall inside the frame.
    tick = 4.0
    if y_lo < 0 < y_hi:
        y0 = py(0.0)
        parts.append(
            f'<line x1="{left}" y1="{_px(y0)}" x2="{left + plot_w}" y2="{_px(y0)}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
        for xv in (-1.0, 1.0):
            if x_lo < xv < x_hi:
                xp = px(xv)
                parts.append(
                    f'<line x1="{_px(xp)}" y1="{_px(y0 - tick)}" x2="{_px(xp)}" '
                    f'y2="{_px(y0 + tick)}" stroke="#555555" stroke-width="1"/>'
                )
                parts.append(
                    f'<text x="{_px(xp)}" y="{_px(y0 + 16)}" font-size="11" '
                    f'text-anchor="middle" fill="#555555">{int(xv)}</text>'
                )
    if x_lo < 0 < x_hi:
        x0 = px(0.0)
        parts.append(
            f'<line x1="{_px(x0)}" y1="{top}" x2="{_px(x0)}" y2="{top + plot_h}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
        for yv in (-1.0, 1.0):
            if y_lo < yv < y_hi:
                yp = py(yv)
                parts.append(
                    f'<line x1="{_px(x0 - tick)}" y1="{_px(yp)}" x2="{_px(x0 + tick)}" '
                    f'y2="{_px(yp)}" stroke="#555555" stroke-width="1"/>'
                )
                parts.append(
                    f'<text x="{_px(x0 - 7)}" y="{_px(yp + 4)}" font-size="11" '
                    f'text-anchor="end" fill="#555555">{int(yv)}</text>'
                )

    if y_lo < eps_f < y_hi:
        ye = py(eps_f)
        parts.append(
            f'<line x1="{left}" y1="{_px(ye)}" x2="{left + plot_w}" y2="{_px(ye)}" '
            'stroke="#666666" stroke-width="1" stroke-dasharray="2,4"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 6}" y="{_px(ye - 5)}" font-size="11" '
            'text-anchor="end" fill="#666666">'
            f"ε = {_escape(backend.format(trace.config.epsilon))}</text>"
        )

    # The curve breaks at each pole or non-finite sample and restarts with M.
    commands: list[str] = []
    cmd = "M"
    for x, y in zip(xs, ys):
        if math.isfinite(y):
            commands.append(f"{cmd}{_px(px(x))},{_px(py(y))}")
            cmd = "L"
        else:
            cmd = "M"
    if commands:
        parts.append(
            f'<path d="{" ".join(commands)}" fill="none" stroke="#153a6b" '
            'stroke-width="1.5" clip-path="url(#plot-area)"/>'
        )

    for rec, x, y in dots:
        parts.append(
            f'<circle class="midpoint-dot" cx="{_px(px(x))}" '
            f'cy="{_px(py(y))}" r="3.0" '
            f'fill="#1a1a1a" data-step="{rec.n}" '
            f'data-x="{_escape(backend.format(rec.c_n))}" '
            f'data-y="{_escape(backend.format(rec.f_c_n))}"/>'
        )

    half = 4.5
    parts.append(
        f'<rect class="limit-marker" x="{_px(px(limit_x) - half)}" '
        f'y="{_px(py(limit_y) - half)}" width="{2 * half}" height="{2 * half}" '
        'fill="none" stroke="#8a1f1f" stroke-width="1.5" '
        f'data-x="{_escape(backend.format(limit))}" '
        f'data-y="{_escape(backend.format(f_limit))}"/>'
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
