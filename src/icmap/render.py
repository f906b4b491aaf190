"""Deterministic SVG rendering of maps and sweep tables (no plot deps)."""
from __future__ import annotations

import numpy as np

from .curvefit import SweepTable
from .instance import BOUNDARY, DIVIDER, PED_CROSSING, GlobalMap

CLASS_COLORS = {
    DIVIDER: "#e08a1e",
    BOUNDARY: "#2e8b57",
    PED_CROSSING: "#4169e1",
}

_PX_PER_M = 6.0
_PAD_M = 5.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _bounds(maps: list[GlobalMap]):
    pts = [inst.points for m in maps for inst in m.instances.values()]
    if not pts:
        return (0.0, 0.0, 1.0, 1.0)
    allpts = np.vstack(pts)
    lo = allpts.min(axis=0) - _PAD_M
    hi = allpts.max(axis=0) + _PAD_M
    return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def _draw_map(parts: list[str], gmap: GlobalMap, to_px, dashed: bool, opacity: float):
    style_extra = ' stroke-dasharray="6,4"' if dashed else ""
    for inst_id in sorted(gmap.instances):
        inst = gmap.instances[inst_id]
        color = CLASS_COLORS[inst.cls]
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (to_px(p) for p in inst.points))
        tag = "polyline" if inst.is_polyline else "polygon"
        fill = "none" if inst.is_polyline else color
        fill_op = "" if inst.is_polyline else ' fill-opacity="0.25"'
        parts.append(
            f'  <{tag} points="{coords}" fill="{fill}"{fill_op} stroke="{color}" '
            f'stroke-width="1.5" opacity="{opacity}"{style_extra}/>'
        )


def render_svg(entries: list[tuple[str, GlobalMap]], gt: GlobalMap | None) -> str:
    """Render map files side by side, color-coded by class.

    `entries` is a list of (label, map); `gt`, unless None, is overlaid
    dashed in every panel. Ground truth with no map is drawn as one
    unlabelled panel with an empty map.
    """
    if not entries and gt is not None:
        entries = [("", GlobalMap(gt.scene_id))]
    maps = [m for _, m in entries] + ([gt] if gt is not None else [])
    x0, y0, x1, y1 = _bounds(maps)
    w_m, h_m = x1 - x0, y1 - y0
    panel_w = w_m * _PX_PER_M
    panel_h = h_m * _PX_PER_M
    label_h = 18.0
    n = max(1, len(entries))
    total_w = panel_w * n + 10.0 * (n - 1)
    total_h = panel_h + label_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(total_w)}" '
        f'height="{_fmt(total_h)}" viewBox="0 0 {_fmt(total_w)} {_fmt(total_h)}">',
        '  <rect width="100%" height="100%" fill="white"/>',
    ]
    for k, (label, gmap) in enumerate(entries):
        ox = k * (panel_w + 10.0)

        def to_px(p, ox=ox):
            return (ox + (p[0] - x0) * _PX_PER_M, label_h + (y1 - p[1]) * _PX_PER_M)

        parts.append(f'  <g id="panel-{k}">')
        parts.append(
            f'  <text x="{_fmt(ox + 4)}" y="13" font-family="monospace" '
            f'font-size="12" fill="#333">{label}</text>'
        )
        if gt is not None:
            parts.append(f'  <g id="gt-{k}">')
            _draw_map(parts, gt, to_px, dashed=True, opacity=0.45)
            parts.append("  </g>")
        parts.append(f'  <g id="map-{k}">')
        _draw_map(parts, gmap, to_px, dashed=False, opacity=1.0)
        parts.append("  </g>")
        parts.append("  </g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def sweep_chart_svg(table: SweepTable) -> str:
    """Line chart of fit error against the smoothing weight."""
    width, height = 560.0, 360.0
    ml, mr, mt, mb = 60.0, 20.0, 20.0, 45.0
    pw, ph = width - ml - mr, height - mt - mb
    svals = [s for s, _ in table.rows]
    errs = [e for _, row in table.rows for e in row.values() if np.isfinite(e)]
    if not svals or not errs:
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>\n'
        )
    smin, smax = min(svals), max(svals)
    emax = max(errs) * 1.08
    sspan = (smax - smin) or 1.0

    def px(s, e):
        return (ml + (s - smin) / sspan * pw, mt + (1.0 - e / emax) * ph)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '  <rect width="100%" height="100%" fill="white"/>',
        f'  <line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="#333"/>',
        f'  <line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="#333"/>',
    ]
    for i in range(5):
        s = smin + sspan * i / 4
        x = ml + pw * i / 4
        parts.append(
            f'  <text x="{_fmt(x)}" y="{_fmt(mt + ph + 16)}" font-size="11" '
            f'font-family="monospace" text-anchor="middle" fill="#333">{s:.2f}</text>'
        )
        e = emax * i / 4
        y = mt + ph * (1 - i / 4)
        parts.append(
            f'  <text x="{_fmt(ml - 6)}" y="{_fmt(y + 4)}" font-size="11" '
            f'font-family="monospace" text-anchor="end" fill="#333">{e:.3f}</text>'
        )
    parts.append(
        f'  <text x="{_fmt(ml + pw / 2)}" y="{_fmt(height - 10)}" font-size="12" '
        f'font-family="monospace" text-anchor="middle" fill="#333">smoothing weight s</text>'
    )
    for ci, cls in enumerate(table.classes):
        color = CLASS_COLORS.get(cls, "#888")
        pts = " ".join(
            f"{_fmt(x)},{_fmt(y)}"
            for x, y in (px(s, row[cls]) for s, row in table.rows if np.isfinite(row[cls]))
        )
        parts.append(f'  <polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'  <text x="{_fmt(ml + pw - 4)}" y="{_fmt(mt + 16 + 14 * ci)}" font-size="11" '
            f'font-family="monospace" text-anchor="end" fill="{color}">cd_{cls}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
