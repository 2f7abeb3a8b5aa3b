"""Point reflections, symmetric cones, and central-symmetry decisions.

Works on finite point sets (arrays of shape (m, d)) and closed loops of
directed segments; also recognizes zonogons constructively by strip peeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError
from .numkit import DEFAULT_TOL, as_vector

# Floats per stacked pairwise difference: bounds the temporaries of large point sets.
PAIR_FLOATS = 1 << 16


@dataclass(eq=False)
class SymmetryReport:
    symmetric: bool
    center: Optional[np.ndarray] = None
    witness_failure: Optional[tuple] = None
    reason: Optional[str] = None


@dataclass(eq=False)
class SegmentLoop:
    """Closed chain of directed segments; segment j ends where j+1 starts."""

    segments: np.ndarray  # (count, 2, dim)

    def __init__(self, segments, tol=DEFAULT_TOL):
        seg = np.array(segments, dtype=float)
        if seg.ndim != 3 or seg.shape[1] != 2:
            raise DimensionError("segments must have shape (count, 2, dim)")
        if not np.all(np.isfinite(seg)):
            raise ValueError("segment coordinates must be finite")
        cut = tol.threshold(np.abs(seg).max() if seg.size else 0.0)
        count = seg.shape[0]
        # gap j runs from the end of segment j to the start of segment j + 1
        gaps = np.concatenate([seg[1:, 0], seg[:1, 0]]) - seg[:, 1]
        open_at = np.abs(gaps).max(axis=1) > cut
        if open_at.any():
            j = int(open_at.argmax())
            raise ValueError(f"loop not closed between segments {j} and {(j + 1) % count}")
        self.segments = seg

    @classmethod
    def from_polygon(cls, vertices, tol=DEFAULT_TOL):
        """Loop of consecutive edges of a polygon given by its vertex cycle."""
        v = _points(vertices)
        return cls(np.stack([v, np.concatenate([v[1:], v[:1]])], axis=1), tol)

    def displacements(self):
        return self.segments[:, 1, :] - self.segments[:, 0, :]

    def __len__(self):
        return self.segments.shape[0]


def _points(x):
    a = np.array(x, dtype=float)
    if a.ndim != 2 or a.shape[0] == 0:
        raise DimensionError("expected a nonempty (m, d) array of points")
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite")
    return a


def reflect(points, center):
    """Point reflection of a set: x maps to 2c - x."""
    pts = _points(points)
    c = as_vector(center)
    if c.size != pts.shape[1]:
        raise DimensionError("center dimension does not match the points")
    return 2.0 * c - pts


def cone_section(points, center, t):
    """The slice t*c + (1-t)*X of the symmetric cone over X centered at c.

    t = 0 gives X, t = 1 collapses to {c}, t = 2 gives the reflection.
    """
    if not 0.0 <= t <= 2.0:
        raise ValueError(f"cone parameter must lie in [0, 2], got {t}")
    pts = _points(points)
    c = as_vector(center)
    if c.size != pts.shape[1]:
        raise DimensionError("center dimension does not match the points")
    return t * c + (1.0 - t) * pts


def _within(a, b, cut):
    """(len(a), len(b)) booleans: whether a_i - b_j is at most ``cut`` in every coordinate."""
    step = max(1, PAIR_FLOATS // max(b.size, 1))  # rows of ``a`` per stacked difference
    return np.concatenate([np.abs(a[i:i + step, None] - b).max(axis=2) <= cut for i in range(0, len(a), step)])


def _dedupe(pts, cut):
    """The rows of ``pts`` not within ``cut`` of an earlier kept row, in order."""
    close = _within(pts, pts, cut)
    keep = np.ones(len(pts), dtype=bool)
    # in order, each kept row with later rows close to it drops them
    for i in np.flatnonzero(np.triu(close, 1).any(axis=1)).tolist():
        if keep[i]:
            keep[i + 1:] &= ~close[i, i + 1:]
    return pts[keep]


def central_center(points, tol=DEFAULT_TOL):
    """Decide central symmetry of a finite point set.

    The centroid of the deduplicated set is the only possible center of a
    bounded symmetric set, so it is tested directly; a failure names the
    first point whose reflected image is missing.
    """
    pts = _points(points)
    cut = tol.threshold(np.abs(pts).max() if pts.size else 0.0)
    unique = _dedupe(pts, cut)
    c = np.mean(unique, axis=0)
    images = 2.0 * c - unique
    missing = ~_within(images, unique, cut).any(axis=1)
    if missing.any():
        i = int(missing.argmax())
        return SymmetryReport(False, None, (unique[i], images[i]), "missing reflected point")
    return SymmetryReport(True, c, None, None)


def loop_symmetric(loop, tol=DEFAULT_TOL):
    """Decide central symmetry of a closed segment loop.

    Symmetric iff segment t+j runs parallel, equal, and opposite to segment j
    for each j; the center is the midpoint between the two half-loop starts.
    """
    if not isinstance(loop, SegmentLoop):
        loop = SegmentLoop(loop, tol)
    count = len(loop)
    if count % 2 != 0:
        return SymmetryReport(False, None, None, f"odd segment count {count}")
    t = count // 2
    disp = loop.displacements()
    cut = tol.threshold(np.abs(disp).max() if disp.size else 0.0)
    unpaired = np.abs(disp[t:] + disp[:t]).max(axis=1) > cut
    if unpaired.any():
        j = int(unpaired.argmax())
        reason = f"segment {t + j} is not the reverse of segment {j}"
        return SymmetryReport(False, None, (disp[j], -disp[j]), reason)
    return SymmetryReport(True, (loop.segments[0, 0] + loop.segments[t, 0]) / 2.0, None, None)


def zonogon_recognize(vertices, tol=DEFAULT_TOL):
    """Recover segment generators of a convex polygon if it is a zonogon.

    Input vertices must be in strictly convex counterclockwise position.
    Returns the generator displacements found by peeling parallelogram
    strips (lowest-index edge first), or None when the polygon is not a
    zonogon (odd edge count or unpaired opposite edges).
    """
    pts = _points(vertices)
    if pts.shape[1] != 2:
        raise DimensionError("zonogon recognition works on planar polygons")
    m = pts.shape[0]
    if m < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    edges = np.concatenate([pts[1:], pts[:1]]) - pts
    # one norm per edge: a norm along an axis can round differently
    scale = max(float(np.linalg.norm(e)) for e in edges)
    nxt = np.concatenate([edges[1:], edges[:1]])
    turns = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    if (turns <= tol.threshold(scale * scale)).any():
        raise ValueError("vertices must be strictly convex and counterclockwise")
    if m % 2 != 0:
        return None
    t = m // 2
    if (np.abs(edges[:t] + edges[t:]).max(axis=1) > tol.threshold(scale)).any():
        return None
    poly = [p.copy() for p in pts]
    generators = []
    while len(poly) > 2:
        half = len(poly) // 2
        d = poly[1] - poly[0]
        generators.append(d)
        poly = (
            [poly[0]]
            + [poly[i] - d for i in range(2, half + 1)]
            + [poly[i] for i in range(half + 2, len(poly))]
        )
    generators.append(poly[1] - poly[0])
    return generators
