"""Seeded inputs, command decks and output checks for the zonokit benchmark.

A deck is one list of CLI commands with a fixed composition. The seed changes
the numbers in the generated matrices, never how many commands of each kind a
deck holds, so runs with different seeds measure the same mix and their
latency quantiles fall on the same kind of command. Every check compares a
command's output with a reference computed here from numpy and
scipy.spatial, never through zonokit's own code. Each deck function lists its
smallest input first for every subcommand; the set-up warms up on those.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull

# Relative agreement required between a command's numbers and the reference.
REL = 1e-8


@dataclass
class Command:
    """One CLI invocation with the check its output must pass."""

    kind: str
    argv: list
    check: Callable  # (exit code, stdout text) -> problem string or None
    inputs: list = field(default_factory=list)


class Files:
    """Writes generated inputs and names output files inside one directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def path(self, suffix):
        self.count += 1
        return os.path.join(self.root, f"f{self.count:05d}{suffix}")

    def matrix(self, a, as_json=False):
        if as_json:
            p = self.path(".json")
            payload = {"rows": a.shape[0], "cols": a.shape[1], "data": [float(x) for x in a.ravel()]}
            with open(p, "w") as fh:
                json.dump(payload, fh)
        else:
            p = self.path(".txt")
            np.savetxt(p, a, fmt="%.17g")
        return p

    def points(self, pts):
        p = self.path(".json")
        with open(p, "w") as fh:
            json.dump({"points": pts.tolist()}, fh)
        return p


# -- generators --------------------------------------------------------------


def gaussian(rng, n, k):
    return rng.normal(size=(n, k))


def integer(rng, n, k):
    """Full-rank matrix with entries in -2..2 and no zero column."""
    while True:
        a = rng.integers(-2, 3, size=(n, k)).astype(float)
        if np.all(np.abs(a).sum(axis=0) > 0) and np.linalg.matrix_rank(a) == n:
            return a


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


# -- references (numpy / qhull only) ------------------------------------------


def census(a):
    """Independent n-subsets of an n-row matrix and the volume they sum to."""
    n = a.shape[0]
    combos = list(itertools.combinations(range(a.shape[1]), n))
    dets = np.linalg.det(a[:, combos].transpose(1, 0, 2))
    cut = 1e-9 * max(1.0, float(np.abs(a).max())) ** n
    independent = [c for c, d in zip(combos, dets) if abs(d) > cut]
    return independent, float(np.abs(dets).sum())


def minors(a):
    """Unsigned (n-1)-minor matrix: entry (i, j) omits row i and column j."""
    n = a.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.linalg.det(np.delete(np.delete(a, i, 0), j, 1))
    return out


def hull_counts(a):
    """Vertex and facet counts of Z(a) from qhull on all cube images."""
    k = a.shape[1]
    selectors = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    pts = np.unique(selectors @ a.T, axis=0)
    hull = ConvexHull(pts)
    scale = float(np.abs(pts).max())
    planes = []
    for eq in hull.equations:
        if not any(
            np.abs(eq[:-1] - p[:-1]).max() <= 1e-7 and abs(eq[-1] - p[-1]) <= 1e-7 * scale for p in planes
        ):
            planes.append(eq)
    return len(hull.vertices), len(planes)


def _close(x, ref):
    return abs(x - ref) <= REL * max(1.0, abs(ref))


def _matrix_from(payload):
    return np.asarray(payload["data"], dtype=float).reshape(payload["rows"], payload["cols"])


def _expect_code(code, want):
    return None if code == want else f"exit {code}, expected {want}"


# -- workloads ----------------------------------------------------------------


def mesh_command(files, kind, a):
    vertices, facets = hull_counts(a)
    src = files.matrix(a)
    out = files.path(".off")

    def check(code, stdout):
        if code != 0:
            return _expect_code(code, 0)
        with open(out) as fh:
            lines = fh.read().splitlines()
        v, f = (int(x) for x in lines[1].split()[:2])
        if (v, f) != (vertices, facets):
            return f"OFF has {v} vertices, {f} faces; qhull has {vertices}, {facets}"
        edges = set()
        for line in lines[2 + v : 2 + v + f]:
            idx = [int(x) for x in line.split()[1:]]
            if len(idx) < 3:
                return f"face with {len(idx)} vertices"
            edges.update(frozenset(e) for e in zip(idx, idx[1:] + idx[:1]))
        if v - len(edges) + f != 2:
            return f"Euler characteristic V - E + F = {v - len(edges) + f}"
        return None

    return Command(kind, ["mesh", src, "--out", out], check, [src])


def tile_command(files, kind, a):
    want, volume = census(a)
    src = files.matrix(a)
    out = files.path(".json")

    def check(code, stdout):
        if code != 0:
            return _expect_code(code, 0)
        with open(out) as fh:
            payload = json.load(fh)
        got = sorted(tuple(t["columns"]) for t in payload["tiles"])
        if got != want:
            return f"{len(got)} tiles on {len(set(got))} subsets; expected the {len(want)} independent subsets"
        if not payload["validation"]["ok"] or not _close(payload["validation"]["volume_sum"], volume):
            return f"validation {payload['validation']}, reference volume {volume!r}"
        return None

    return Command(kind, ["tile", src, "--out", out], check, [src])


def congruent_command(files, kind, a, b, congruent):
    src_a, src_b = files.matrix(a), files.matrix(b)
    out = files.path(".json")

    def check(code, stdout):
        if not congruent:
            return _expect_code(code, 1)
        if code != 0:
            return _expect_code(code, 0)
        with open(out) as fh:
            w = json.load(fh)
        mapped = _matrix_from(w["q"]) @ (a[:, w["sigma"]] * np.asarray(w["signs"], dtype=float))
        residual = float(np.linalg.norm(mapped - b))
        if residual > 1e-8 * max(1.0, float(np.linalg.norm(b))):
            return f"witness residual {residual:.3e}"
        return None

    return Command(kind, ["congruent", src_a, src_b, "--out", out], check, [src_a, src_b])


def volume_command(files, kind, a):
    want, volume = census(a)
    n, k = a.shape
    src = files.matrix(a, as_json=True)

    def check(code, stdout):
        if code != 0:
            return _expect_code(code, 0)
        head = stdout.splitlines()[0]
        parts = head.replace(",", "").split()
        rank, vol, ratio = int(parts[1]), float(parts[3]), parts[4]
        if rank != n or ratio != f"{len(want)}/{math.comb(k, n)}" or not _close(vol, volume):
            return f"printed {head!r}; reference rank {n}, volume {volume!r}, {len(want)}/{math.comb(k, n)}"
        return None

    return Command(kind, ["volume", src], check, [src])


def root_command(files, kind, b, has_root):
    src = files.matrix(b)
    out = files.path(".json")

    def check(code, stdout):
        if not has_root:
            return _expect_code(code, 4)
        if code != 0:
            return _expect_code(code, 0)
        with open(out) as fh:
            root = _matrix_from(json.load(fh))
        residual = float(np.linalg.norm(minors(root) - b) / np.linalg.norm(b))
        return None if residual <= 1e-8 else f"minors(root) residual {residual:.3e}"

    return Command(kind, ["root", src, "--out", out], check, [src])


def symmetry_command(files, kind, pts, center):
    src = files.points(pts)

    def check(code, stdout):
        if center is None:
            return _expect_code(code, 1)
        if code != 0:
            return _expect_code(code, 0)
        head = stdout.splitlines()[0]
        got = np.array([float(x) for x in head.split("center")[1].split()])
        if np.abs(got - center).max() > REL * max(1.0, float(np.abs(pts).max())):
            return f"printed {head!r}; reference center {center.tolist()}"
        return None

    return Command(kind, ["symmetry", src], check, [src])


def zonogon(rng, m, parallel=False):
    """Counterclockwise vertex cycle of a zonogon with m generators, and its centre.

    With ``parallel`` two generators share a direction, which leaves a
    collinear vertex in the middle of one edge pair.
    """
    angles = np.sort(rng.uniform(0.1, np.pi - 0.1, size=m))
    if parallel:
        angles[1] = angles[0]
    lengths = rng.uniform(0.5, 2.0, size=m)
    gens = np.stack([lengths * np.cos(angles), lengths * np.sin(angles)], axis=1)
    start = rng.uniform(-1.0, 1.0, size=2)
    steps = np.concatenate([gens, -gens])[:-1]
    verts = start + np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    return verts, start + gens.sum(axis=0) / 2.0


def deck_mesh3d(rng, files):
    deck = []
    for kind, k, count in MESH3D_MIX:
        for _ in range(count):
            a = gaussian(rng, 3, k) if kind == "gauss" else integer(rng, 3, k)
            deck.append(mesh_command(files, f"{kind} k={k}", a))
    return deck


def deck_tile(rng, files):
    deck = []
    for n, k, copies in TILE_MIX:
        for _ in range(copies):
            deck.append(tile_command(files, f"n={n} gauss", gaussian(rng, n, k)))
            deck.append(tile_command(files, f"n={n} int", integer(rng, n, k)))
    return deck


def deck_congruence(rng, files):
    deck = []
    for n, k in CONGRUENCE_SHAPES:
        a = gaussian(rng, n, k)
        sigma = rng.permutation(k)
        signs = rng.choice([-1.0, 1.0], size=k)
        b = orthogonal(rng, n) @ (a[:, sigma] * signs)
        deck.append(congruent_command(files, "positive", a, b, True))
        near = b.copy()
        near[rng.integers(n), rng.integers(k)] += 1e-3
        deck.append(congruent_command(files, "near-miss", a, near, False))
    for k, count in ADVERSARIAL_MIX:
        for _ in range(count):
            # A signed permutation of the identity: its Gram is exactly I, so
            # the search effort depends on k alone. A frame from a random QR
            # has Gram I only up to rounding, and the rounding reorders the
            # search, which moves its time by 100x between seeds.
            frame = np.eye(k)[:, rng.permutation(k)] * rng.choice([-1.0, 1.0], size=k)
            bent = frame.copy()
            bent[:, 0] = math.cos(0.01) * frame[:, 0] + math.sin(0.01) * frame[:, 1]
            deck.append(congruent_command(files, f"adversarial k={k}", frame, bent, False))
    return deck


def deck_small_cli(rng, files):
    deck = []
    for n, k in VOLUME_SHAPES:
        deck.append(volume_command(files, "volume gauss", gaussian(rng, n, k)))
        deck.append(volume_command(files, "volume int", integer(rng, n, k)))
    for n in range(2, 6):
        deck.append(root_command(files, "root", minors(gaussian(rng, n, n)), True))
    for n in (3, 5):
        b = minors(gaussian(rng, n, n))
        b[:, 0] = -b[:, 0]  # det(b) < 0 with n odd: no real root
        deck.append(root_command(files, "root none", b, False))
    for m in (3, 4, 6, 8):
        verts, center = zonogon(rng, m)
        deck.append(symmetry_command(files, "symmetry", verts, center))
        bent = verts.copy()
        bent[1] += 1e-3 * (bent[1] - center)
        deck.append(symmetry_command(files, "symmetry perturbed", bent, None))
    for m in (4, 6):
        verts, center = zonogon(rng, m, parallel=True)
        deck.append(symmetry_command(files, "symmetry collinear", verts, center))
    return deck


# Deck compositions. Each puts the median and the 90th-percentile rank inside
# a cluster of equal-cost commands (for mesh3d: Gaussian k = 5 and k = 7, whose
# LP counts are fixed; for congruence: positives and k = 6 adversarial pairs);
# a quantile on the edge between two clusters would jump from seed to seed.
# The p90 rank sits in the upper part of its cluster, where the machine's
# slower periods, not its occasional faster ones, set the value.
MESH3D_MIX = [  # (kind, k, commands per deck)
    ("gauss", 5, 40),
    ("gauss", 6, 6),
    ("gauss", 7, 8),
    ("gauss", 8, 1),
    ("gauss", 9, 1),
    ("int", 6, 5),
    ("int", 7, 6),
    ("int", 8, 1),
    ("int", 9, 1),
    ("int", 10, 1),
]
TILE_MIX = [  # (n, k, Gaussian + integer pairs per deck)
    (3, 6, 2), (3, 7, 2), (3, 8, 1), (3, 9, 1),
    (4, 6, 2), (4, 7, 2), (4, 8, 1),
    (5, 7, 2), (5, 8, 1), (5, 9, 1),
]
CONGRUENCE_SHAPES = [(n, k) for n in (2, 3, 4, 5) for k in (4, 7, 10)]
ADVERSARIAL_MIX = [(5, 4), (6, 8), (7, 1)]  # (k, pairs per deck)
VOLUME_SHAPES = [(2, 6), (2, 12), (3, 7), (3, 12), (4, 8), (4, 12), (5, 9), (5, 12)]

WORKLOADS = {
    "mesh3d": deck_mesh3d,
    "tile": deck_tile,
    "congruence": deck_congruence,
    "small_cli": deck_small_cli,
}
