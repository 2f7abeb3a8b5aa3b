"""Command-line front end: matrix ingestion, analyses, persistence, mesh export.

Exit codes: 0 ok, 1 negative result, 2 capacity, 3 rank, 4 no-root,
5 mesh-rank, 10 parse/usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import congruence, rigidity, symmetry, tiling as tiling_mod
from .errors import (
    CapacityError,
    DegeneracyError,
    DimensionError,
    NoRealRootError,
    ZonokitError,
)
from .numkit import Tolerance, as_matrix
from .zonotope import Zonotope

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CAPACITY = 2
EXIT_RANK = 3
EXIT_NO_ROOT = 4
EXIT_MESH_RANK = 5
EXIT_PARSE = 10


class ParseFailure(ZonokitError):
    pass


@dataclass
class RunConfig:
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    seed: int = 0
    out: str | None = None

    @property
    def tol(self):
        return Tolerance(abs=self.tol_abs, rel=self.tol_rel)


def _parse_floats(tokens, where):
    """Finite floats of ``tokens``, or ParseFailure at the first bad one, located by ``where(index)`` only then."""
    try:
        values = [float(token) for token in tokens]
        if all(map(math.isfinite, values)):
            return values
    except (TypeError, ValueError):
        pass
    for i, token in enumerate(tokens):
        try:
            value = float(token)
        except (TypeError, ValueError) as exc:
            raise ParseFailure(f"{where(i)}: not a number: {token!r}") from exc
        if not math.isfinite(value):
            raise ParseFailure(f"{where(i)}: NaN/Inf not admitted: {token!r}")


def load_matrix(path):
    """Read a matrix from JSON {rows, cols, data} or whitespace text rows."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseFailure(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
        try:
            rows, cols, data = payload["rows"], payload["cols"], payload["data"]
        except (KeyError, TypeError) as exc:
            raise ParseFailure(f"{path}: JSON matrix needs rows, cols, data") from exc
        if not (_is_count(rows) and _is_count(cols) and isinstance(data, list)):
            raise ParseFailure(f"{path}: rows and cols must be positive integers and data a list")
        if len(data) != rows * cols:
            raise ParseFailure(f"{path}: data length {len(data)} != rows*cols = {rows * cols}")
        values = _parse_floats(data, lambda i: path)
        return np.asarray(values, dtype=float).reshape(rows, cols)
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        entries = _parse_floats(line.split(), lambda i: f"{path}:{lineno}:{i + 1}")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseFailure(f"{path}:{lineno}: expected {width} entries, got {len(entries)}")
        rows.append(entries)
    if not rows:
        raise ParseFailure(f"{path}: empty matrix")
    return np.asarray(rows, dtype=float)


def load_points(path):
    """Read points from JSON {points: [[...], ...]} or whitespace text rows."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseFailure(f"{path}: invalid JSON at line {exc.lineno}") from exc
        if "points" in payload:
            return _point_rows(payload["points"], f"{path}: points"), None
        if "segments" in payload:
            segs = payload["segments"]
            if not isinstance(segs, list) or not all(isinstance(s, list) and len(s) == 2 for s in segs):
                raise ParseFailure(f"{path}: segments must be a list of [start, end] pairs")
            ends = _point_rows([p for s in segs for p in s], f"{path}: segments")
            return None, ends.reshape(len(segs), 2, -1)
        raise ParseFailure(f"{path}: JSON needs a points or segments field")
    return load_matrix(path), None


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def _point_rows(rows, where):
    """Float array from a nonempty JSON list of equal-length coordinate lists."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseFailure(f"{where}: expected a nonempty list of coordinate lists")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseFailure(f"{where}: every point needs {width} coordinates")
    return np.asarray([_parse_floats(r, lambda i: where) for r in rows])


def matrix_to_dict(m):
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [float(x) for x in m.ravel()],
    }


def _write_json(payload, path):
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _fmt(x):
    return f"{x:.12g}"


def cmd_volume(args, cfg):
    if args.mc_samples < 0:
        raise ParseFailure(f"--mc-samples must be nonnegative, got {args.mc_samples}")
    matrix = load_matrix(args.matrix)
    z = Zonotope(matrix, cfg.tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vol = z.volume()
    total = math.comb(z.k, z.n) if z.k >= z.n else 0
    indep = 0
    if z.rank == z.n:
        det_cut = cfg.tol.threshold(float(np.abs(matrix).max()) ** z.n)
        indep = int(np.count_nonzero(np.abs(z.subset_measures(z.n)) > det_cut))
    if z.rank < z.n:
        print(f"warning: rank {z.rank} < dimension {z.n}; reporting the {z.rank}-volume", file=sys.stderr)
    print(f"rank {z.rank}, volume {_fmt(vol)}, {indep}/{total} subsets independent")
    if args.mc_samples:
        est = _mc_volume(z, args.mc_samples, cfg.seed)
        print(f"mc-volume {_fmt(est)} ({args.mc_samples} samples)")
    return EXIT_OK


def _mc_volume(z, samples, seed):
    """Monte Carlo membership estimate inside the axis-aligned bounding box."""
    lo = np.minimum(z.matrix, 0.0).sum(axis=1)
    hi = np.maximum(z.matrix, 0.0).sum(axis=1)
    box = float(np.prod(hi - lo))
    normals = np.array([bf.unit_normal for bf in z.bounding_facets()])
    offsets = np.array([bf.support for bf in z.bounding_facets()])
    slack = z.tol.threshold(float(np.abs(offsets).max()))
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 1_000_000)
        pts = rng.uniform(lo, hi, size=(chunk, z.n))
        inside = np.all(pts @ normals.T <= offsets + slack, axis=1)
        hits += int(inside.sum())
        remaining -= chunk
    return box * hits / samples


def cmd_congruent(args, cfg):
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    if a.shape[1] != b.shape[1]:
        raise ParseFailure("matrices must have equal column counts")
    witness = congruence.congruent_zonotopes(a, b, cfg.tol)
    if witness is None:
        print("not congruent")
        return EXIT_NEGATIVE
    residual = witness.residual(a, b)
    if residual > 1e-8 * max(1.0, float(np.linalg.norm(b))):
        print("witness failed re-verification", file=sys.stderr)
        return EXIT_NEGATIVE
    payload = {
        "format_version": 1,
        "sigma": [int(i) for i in witness.sigma],
        "signs": [int(s) for s in witness.signs],
        "q": matrix_to_dict(witness.q),
        "residual": residual,
    }
    print(json.dumps(payload, indent=2))
    if cfg.out:
        _write_json(payload, cfg.out)
    print(f"congruent, residual {_fmt(residual)}")
    return EXIT_OK


def cmd_tile(args, cfg):
    matrix = load_matrix(args.matrix)
    z = Zonotope(matrix, cfg.tol)
    if z.rank < z.n:
        print(f"rank deficiency: rank {z.rank} < dimension {z.n}", file=sys.stderr)
        return EXIT_RANK
    order = None
    if args.order:
        order = [int(tok) for tok in args.order.split(",")]
    til = tiling_mod.tile_zonotope(z, order)
    report = tiling_mod.validate_tiling(z, til, cfg.tol)
    payload = til.to_dict(z.matrix)
    payload["validation"] = {
        "ok": report.ok,
        "volume_ok": report.volume_ok,
        "census_ok": report.census_ok,
        "disjoint_ok": report.disjoint_ok,
        "containment_ok": report.containment_ok,
        "volume_sum": report.volume_sum,
        "expected_volume": report.expected_volume,
    }
    out = cfg.out or "tiling.json"
    _write_json(payload, out)
    print(f"{len(til.tiles)} tiles, volume {_fmt(report.volume_sum)}, validation {'pass' if report.ok else 'FAIL'}")
    if not report.ok:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_root(args, cfg):
    matrix = load_matrix(args.matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise ParseFailure("exterior root needs a square matrix")
    try:
        result = rigidity.exterior_root(matrix, cfg.tol)
    except DegeneracyError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except NoRealRootError as exc:
        print(f"no real root: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    payload = matrix_to_dict(result.root)
    out = cfg.out or "root.json"
    _write_json(payload, out)
    print(f"residual {_fmt(result.residual)}")
    return EXIT_OK


def cmd_mesh(args, cfg):
    matrix = load_matrix(args.matrix)
    z = Zonotope(matrix, cfg.tol)
    if z.rank != 3 or z.n != 3:
        print(f"mesh export needs rank 3 in R^3, got rank {z.rank} in R^{z.n}", file=sys.stderr)
        return EXIT_MESH_RANK
    try:
        text = off_mesh(z)
    except MeshSurfaceError as exc:
        print(f"mesh: {exc}; the faces are near the rank cut, try another --tol-rel", file=sys.stderr)
        return EXIT_MESH_RANK
    out = cfg.out or "mesh.off"
    with open(out, "w") as fh:
        fh.write(text)
    verts, faces = text.splitlines()[1].split()[:2]
    print(f"wrote {out}: {verts} vertices, {faces} faces")
    return EXIT_OK


class MeshSurfaceError(ZonokitError):
    """The facet polygons do not close into a sphere."""


def off_mesh(z):
    """OFF text for a rank-3 zonotope: vertices then facet polygons (CCW).

    Each facet's polygon is the vertex cycle of its closed 2-face
    (``Zonotope._cycles``) joined with the facet's translation set, reversed
    when the cycle's frame normal e1 x e2 opposes the outward normal. It
    starts at the vertex with the smallest angle atan2(. b2, . b1) about the
    centroid of its vertices, b1 being the coordinate axis least aligned
    with the normal u made orthogonal to u and b2 = u x b1. Raises
    :class:`MeshSurfaceError` unless every edge lies in exactly two
    polygons, once in each direction, and V - E + F = 2.
    """
    verts = np.array(z.vertices())
    index = {s: i for i, s in enumerate(z.vertex_sign_vectors())}
    facets = z.geometric_facets()
    polygons, frames = [], []
    for f in facets:
        (bf,) = f.constituents
        cycle, frame = z._cycles[bf.generating.columns]
        side = frozenset(bf.translation_set)
        polygons.append([index[side | v] for v in cycle])
        frames.append(frame)
    frames = np.array(frames)
    units = np.array([f.unit_normal for f in facets])
    reverse = np.sum(np.cross(frames[:, 0], frames[:, 1]) * units, axis=1) < 0.0
    polygons = [p[::-1] if r else p for p, r in zip(polygons, reverse.tolist())]
    _check_sphere(len(verts), polygons)
    # b1, b2 and each polygon's centroid over its vertices in ascending index
    # order, as one (.., 1, 3) @ (.., 3, 1) matmul stack: one dot per row, the
    # same values as one facet at a time
    seed_axis = np.argmin(np.abs(units), axis=1)
    b1 = np.zeros_like(units)
    b1[np.arange(len(units)), seed_axis] = 1.0
    b1 = b1 - units * _rowdot(units, b1)[:, None]
    b1 = b1 / np.sqrt(_rowdot(b1, b1))[:, None]
    b2 = np.cross(units, b1)
    sizes = np.array([len(p) for p in polygons])
    for size in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == size)
        ring = np.array([polygons[i] for i in rows.tolist()])
        centroids = verts[np.sort(ring, axis=1)].mean(axis=1)
        offsets = verts[ring] - centroids[:, None, :]
        ys = np.matmul(offsets[:, :, None, :], b2[rows, None, :, None]).ravel().tolist()
        xs = np.matmul(offsets[:, :, None, :], b1[rows, None, :, None]).ravel().tolist()
        keys = np.reshape(list(map(math.atan2, ys, xs)), ring.shape)
        # the smallest key, ties to the smallest vertex index
        lowest = keys == keys.min(axis=1, keepdims=True)
        starts = np.where(lowest, ring, len(verts)).argmin(axis=1)
        for i, start in zip(rows.tolist(), starts.tolist()):
            polygons[i] = polygons[i][start:] + polygons[i][:start]
    lines = ["OFF", f"{len(verts)} {len(facets)} 0"]
    lines.extend(" ".join(_fmt(x) for x in v) for v in verts)
    lines.extend(" ".join(map(str, [len(p)] + p)) for p in polygons)
    return "\n".join(lines) + "\n"


def _rowdot(a, b):
    """Row-wise dot products of two (m, n) arrays, one BLAS dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _check_sphere(vertices, polygons):
    """Raise MeshSurfaceError unless the polygons close into a sphere."""
    edges = [e for p in polygons for e in zip(p, p[1:] + p[:1])]
    undirected = {frozenset(e) for e in edges}
    euler = vertices - len(undirected) + len(polygons)
    # distinct directed edges, two per undirected edge: each edge once each way
    paired = len(set(edges)) == len(edges) == 2 * len(undirected)
    if not paired or euler != 2:
        unpaired = "" if paired else ", and not every edge lies in two polygons once each way"
        raise MeshSurfaceError(f"the facet polygons are not a sphere: V - E + F = {euler}{unpaired}")


def cmd_symmetry(args, cfg):
    points, segments = load_points(args.input)
    if segments is not None:
        report = symmetry.loop_symmetric(symmetry.SegmentLoop(segments, cfg.tol), cfg.tol)
        _print_symmetry(report, "loop")
        return EXIT_OK if report.symmetric else EXIT_NEGATIVE
    report = symmetry.central_center(points, cfg.tol)
    _print_symmetry(report, "point set")
    code = EXIT_OK if report.symmetric else EXIT_NEGATIVE
    if points.shape[1] == 2 and points.shape[0] >= 3:
        loop = symmetry.SegmentLoop.from_polygon(points, cfg.tol)
        loop_report = symmetry.loop_symmetric(loop, cfg.tol)
        _print_symmetry(loop_report, "polygon loop")
        try:
            gens = symmetry.zonogon_recognize(points, cfg.tol)
        except ValueError as exc:
            print(f"zonogon: not applicable ({exc})")
        else:
            if gens is None:
                print("zonogon: absent")
            else:
                printable = "; ".join(" ".join(_fmt(x) for x in g) for g in gens)
                print(f"zonogon generators: {printable}")
    return code


def _print_symmetry(report, label):
    if report.symmetric:
        center = " ".join(_fmt(x) for x in report.center)
        print(f"{label}: symmetric, center {center}")
    else:
        reason = report.reason or "no center found"
        print(f"{label}: not symmetric ({reason})")


def build_parser():
    """The argument parser, with the ``--tol-abs`` default read from ``ZONOKIT_TOL_ABS``."""
    return _make_parser(os.environ.get("ZONOKIT_TOL_ABS", "1e-9"))


def _make_parser(tol_abs_default):
    parser = argparse.ArgumentParser(prog="zonokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    # a string default goes through type=float, so a malformed variable is a usage error
    common.add_argument("--tol-abs", type=float, default=tol_abs_default)
    common.add_argument("--tol-rel", type=float, default=1e-9)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None)

    p = sub.add_parser("volume", help="rank, volume, and minor census", parents=[common])
    p.add_argument("matrix")
    p.add_argument("--mc-samples", type=int, default=0)

    p = sub.add_parser("congruent", help="congruence witness search", parents=[common])
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("tile", help="parallelotope tiling with validation", parents=[common])
    p.add_argument("matrix")
    p.add_argument("--order", default=None, help="comma list of generator indices")

    p = sub.add_parser("root", help="exterior root of a square matrix", parents=[common])
    p.add_argument("matrix")

    p = sub.add_parser("mesh", help="OFF mesh export for rank-3 zonotopes", parents=[common])
    p.add_argument("matrix")

    p = sub.add_parser("symmetry", help="central symmetry reports", parents=[common])
    p.add_argument("input")

    return parser


# Building the parser costs more than a small command. parse_args leaves it
# unchanged, so one parser per ZONOKIT_TOL_ABS value serves every call.
_cached_parser = functools.lru_cache(maxsize=8)(_make_parser)


COMMANDS = {
    "volume": cmd_volume,
    "congruent": cmd_congruent,
    "tile": cmd_tile,
    "root": cmd_root,
    "mesh": cmd_mesh,
    "symmetry": cmd_symmetry,
}


def main(argv=None):
    parser = _cached_parser(os.environ.get("ZONOKIT_TOL_ABS", "1e-9"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    cfg = RunConfig(
        tol_abs=args.tol_abs, tol_rel=args.tol_rel, seed=args.seed, out=args.out
    )
    try:
        return COMMANDS[args.command](args, cfg)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DimensionError, DegeneracyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
