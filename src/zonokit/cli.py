"""Command-line front end on the public zonokit API: parsing, analyses, persistence, OFF meshes.

Exit codes: 0 ok, 1 negative result, 2 capacity, 3 rank, 4 no-root,
5 mesh-rank, 10 parse/usage errors and values that overflow float64.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import congruence, rigidity, symmetry, tiling as tiling_mod
from .errors import (
    CapacityError,
    DegeneracyError,
    DimensionError,
    MeshSurfaceError,
    NoRealRootError,
    ReconstructionError,
    ZonokitError,
)
from .numkit import Tolerance, as_matrix
from .zonotope import RankDeficiencyWarning, Zonotope

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_CAPACITY = 2
EXIT_RANK = 3
EXIT_NO_ROOT = 4
EXIT_MESH_RANK = 5
EXIT_PARSE = 10


class ParseFailure(ZonokitError):
    pass


def _parse_floats(tokens, where):
    """Finite floats of ``tokens``, or ParseFailure at the first bad one, located by ``where(index)`` only then."""
    try:
        values = [float(token) for token in tokens]
        if all(map(math.isfinite, values)):
            return values
    except (TypeError, ValueError, OverflowError):
        pass
    for i, token in enumerate(tokens):
        try:
            value = float(token)
        except OverflowError:  # an integer beyond float64
            value = math.inf
        except (TypeError, ValueError) as exc:
            raise ParseFailure(f"{where(i)}: not a number: {token!r}") from exc
        if not math.isfinite(value):
            raise ParseFailure(f"{where(i)}: NaN/Inf not admitted: {token!r}")


def _json_floats(values, where):
    """Finite floats of the JSON ``values``, which must all be numbers (not booleans or strings), or ParseFailure."""
    bad = [value for value in values if type(value) not in (int, float)]
    if bad:
        raise ParseFailure(f"{where}: not a number: {bad[0]!r}")
    return _parse_floats(values, lambda i: where)


def _read(path):
    """The text of the file at ``path``, or ParseFailure naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def _decode_json(text, path):
    """The JSON value in ``text``, read from ``path``, or ParseFailure naming the line and column of a decode error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def load_matrix(path):
    """Read a matrix from JSON {rows, cols, data} or whitespace text rows."""
    return _parse_matrix(_read(path), path)


def _parse_matrix(text, path):
    """The matrix in ``text``, read from ``path``: JSON {rows, cols, data} or whitespace text rows."""
    if text.lstrip().startswith("{"):
        payload = _decode_json(text, path)
        try:
            rows, cols, data = payload["rows"], payload["cols"], payload["data"]
        except (KeyError, TypeError) as exc:
            raise ParseFailure(f"{path}: JSON matrix needs rows, cols, data") from exc
        if not (_is_count(rows) and _is_count(cols) and isinstance(data, list)):
            raise ParseFailure(f"{path}: rows and cols must be positive integers and data a list")
        if len(data) != rows * cols:
            raise ParseFailure(f"{path}: data length {len(data)} != rows*cols = {rows * cols}")
        return np.asarray(_json_floats(data, path), dtype=float).reshape(rows, cols)
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
    text = _read(path)
    if not text.lstrip().startswith("{"):
        return _parse_matrix(text, path), None
    payload = _decode_json(text, path)
    if "points" in payload:
        return _point_rows(payload["points"], f"{path}: points"), None
    if "segments" in payload:
        segs = payload["segments"]
        if not isinstance(segs, list) or not all(isinstance(s, list) and len(s) == 2 for s in segs):
            raise ParseFailure(f"{path}: segments must be a list of [start, end] pairs")
        ends = _point_rows([p for s in segs for p in s], f"{path}: segments")
        return None, ends.reshape(len(segs), 2, -1)
    raise ParseFailure(f"{path}: JSON needs a points or segments field")


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def _point_rows(rows, where):
    """Float array from a nonempty JSON list of equal-length coordinate lists."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseFailure(f"{where}: expected a nonempty list of coordinate lists")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseFailure(f"{where}: every point needs {width} coordinates")
    return np.asarray([_json_floats(r, where) for r in rows])


def matrix_to_dict(m):
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [float(x) for x in m.ravel()],
    }


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _tiling_json(payload):
    """``json.dumps(payload, indent=2)`` of a ``Tiling.to_dict`` payload with tiles, byte for byte.

    The indenting encoder is pure Python; the tiles, most of the payload, go
    through one compact C-encoded ``[[columns, translation], ...]`` string
    instead, indented by three replacements. That is safe because the only
    tokens in it are numbers, which never contain "[", "]" or ", ": every
    "]], [[" parts two tiles, every "], [" a tile's columns from its
    translation, and every ", " two numbers of one list.
    """
    compact = json.dumps([[t["columns"], t["translation"]] for t in payload["tiles"]])
    body = (
        compact[3:-3]
        .replace("]], [[", '\n      ]\n    },\n    {\n      "columns": [\n        ')
        .replace("], [", '\n      ],\n      "translation": [\n        ')
        .replace(", ", ",\n        ")
    )
    block = '[\n    {\n      "columns": [\n        ' + body + "\n      ]\n    }\n  ]"
    # the top-level key is the only one indented by two spaces
    text = json.dumps({**payload, "tiles": None}, indent=2)
    return text.replace('\n  "tiles": null', '\n  "tiles": ' + block, 1)


def _fmt(x):
    return f"{x:.12g}"


def _zonotope(matrix, tol):
    """``Zonotope(matrix, tol)``, its zero-generator warning printed in the CLI's style."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        z = Zonotope(matrix, tol)
    if z.stripped_columns:
        print(f"warning: stripped zero generators at columns {z.stripped_columns}", file=sys.stderr)
    return z


def cmd_volume(args, tol):
    if args.mc_samples < 0:
        raise ParseFailure(f"--mc-samples must be nonnegative, got {args.mc_samples}")
    z = _zonotope(load_matrix(args.matrix), tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vol = z.volume()
    total = math.comb(z.k, z.n) if z.k >= z.n else 0
    indep = 0
    if z.rank == z.n:
        # a subset is independent iff its unit directions are: |minor| over its column norms' product
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(z.matrix, axis=0)[z.subsets(z.n)].prod(axis=1)
        if not np.isfinite(norms).all():
            columns = tuple(z.subsets(z.n)[np.argmin(np.isfinite(norms))].tolist())
            raise ValueError(f"the product of the lengths of columns {columns} overflows float64")
        indep = int(np.count_nonzero(np.abs(z.subset_measures(z.n)) / norms > tol.threshold(1.0)))
    if z.rank < z.n:
        print(f"warning: rank {z.rank} < dimension {z.n}; reporting the {z.rank}-volume", file=sys.stderr)
    print(f"rank {z.rank}, volume {_fmt(vol)}, {indep}/{total} subsets independent")
    if args.mc_samples and z.rank < z.n:
        # a body of lower rank has n-volume 0; sampling would only count the slack around it
        print(f"mc-volume 0 (rank {z.rank} < dimension {z.n}, no samples drawn)")
    elif args.mc_samples:
        est = _mc_volume(z, args.mc_samples, args.seed)
        print(f"mc-volume {_fmt(est)} ({args.mc_samples} samples)")
    return EXIT_OK


def _mc_volume(z, samples, seed):
    """Monte Carlo membership estimate of a full-rank zonotope inside its axis-aligned bounding box."""
    lo = np.minimum(z.matrix, 0.0).sum(axis=1)
    hi = np.maximum(z.matrix, 0.0).sum(axis=1)
    box = float(np.prod(hi - lo))
    if z.n == 1:
        return box  # a segment is its own bounding box and has no facets
    facets = z.bounding_facets()
    normals = np.array([f.unit_normal for f in facets])
    offsets = np.array([f.support for f in facets])
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


def cmd_congruent(args, tol):
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    if a.shape[1] != b.shape[1]:
        raise ParseFailure("matrices must have equal column counts")
    witness = congruence.congruent_zonotopes(a, b, tol)
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
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        _write(args.out, text + "\n")
    print(f"congruent, residual {_fmt(residual)}")
    return EXIT_OK


def cmd_tile(args, tol):
    z = _zonotope(load_matrix(args.matrix), tol)
    if z.rank < z.n:
        print(f"rank deficiency: rank {z.rank} < dimension {z.n}", file=sys.stderr)
        return EXIT_RANK
    order = None
    if args.order:
        order = [int(tok) for tok in args.order.split(",")]
    til = tiling_mod.tile_zonotope(z, order)
    report = tiling_mod.validate_tiling(z, til)
    payload = til.to_dict(z.matrix)
    fields = ("ok", "volume_ok", "census_ok", "disjoint_ok", "containment_ok", "volume_sum", "expected_volume")
    payload["validation"] = {name: getattr(report, name) for name in fields}
    _write(args.out or "tiling.json", _tiling_json(payload) + "\n")
    print(f"{len(til.tiles)} tiles, volume {_fmt(report.volume_sum)}, validation {'pass' if report.ok else 'FAIL'}")
    if not report.ok:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_root(args, tol):
    matrix = load_matrix(args.matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise ParseFailure("exterior root needs a square matrix")
    try:
        result = rigidity.exterior_root(matrix, tol)
    except DegeneracyError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except NoRealRootError as exc:
        print(f"no real root: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except ReconstructionError as exc:
        print(f"no verified root: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    payload = matrix_to_dict(result.root)
    _write(args.out or "root.json", json.dumps(payload, indent=2) + "\n")
    print(f"residual {_fmt(result.residual)}")
    return EXIT_OK


def cmd_mesh(args, tol):
    z = _zonotope(load_matrix(args.matrix), tol)
    if z.rank != 3 or z.n != 3:
        print(f"mesh export needs rank 3 in R^3, got rank {z.rank} in R^{z.n}", file=sys.stderr)
        return EXIT_MESH_RANK
    try:
        text = off_mesh(z)
    except MeshSurfaceError as exc:
        print(f"mesh: {exc}; the faces are near the rank cut, try another --tol-rel", file=sys.stderr)
        return EXIT_MESH_RANK
    out = args.out or "mesh.off"
    _write(out, text)
    verts, faces = text.split("\n", 2)[1].split()[:2]
    print(f"wrote {out}: {verts} vertices, {faces} faces")
    return EXIT_OK


def off_mesh(z):
    """OFF text of ``z.surface()``: the vertices, then one polygon line per facet, counter-clockwise."""
    verts, polygons, sizes = z.surface()
    lines = {size: str(size) + " %d" * size + "\n" for size in np.unique(sizes).tolist()}
    return (
        f"OFF\n{len(verts)} {len(sizes)} 0\n"
        + "%.12g %.12g %.12g\n" * len(verts) % tuple(verts.ravel().tolist())
        + "".join(map(lines.__getitem__, sizes.tolist())) % tuple(polygons.tolist())
    )


def cmd_symmetry(args, tol):
    points, segments = load_points(args.input)
    if segments is not None:
        report = symmetry.loop_symmetric(symmetry.SegmentLoop(segments, tol), tol)
        _print_symmetry(report, "loop")
        return EXIT_OK if report.symmetric else EXIT_NEGATIVE
    report = symmetry.central_center(points, tol)
    _print_symmetry(report, "point set")
    code = EXIT_OK if report.symmetric else EXIT_NEGATIVE
    if points.shape[1] == 2 and points.shape[0] >= 3:
        loop = symmetry.SegmentLoop.from_polygon(points, tol)
        loop_report = symmetry.loop_symmetric(loop, tol)
        _print_symmetry(loop_report, "polygon loop")
        try:
            gens = symmetry.zonogon_recognize(points, tol)
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
    try:
        return COMMANDS[args.command](args, Tolerance(abs=args.tol_abs, rel=args.tol_rel))
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
