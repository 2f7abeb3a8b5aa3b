"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import itertools
import math
import time

import numpy as np
import pytest

from zonokit.congruence import (
    check_conditions,
    congruent_zonotopes,
    find_orthogonal,
    triangular_signs,
    verify_condition3,
)
from zonokit.numkit import compound, determinant, gram
from zonokit.rigidity import FacetDatum, exterior_root, parallelotope_from_facets
from zonokit.symmetry import SegmentLoop, loop_symmetric, reflect, zonogon_recognize
from zonokit.tiling import tile_zonotope, validate_tiling
from zonokit.zonotope import Zonotope

import oracles
from fixture_matrices import (
    comparison_counterexample,
    gram_equal_pairs,
    hex_facet_generators,
    perturbed_hex_generators,
)

PAIRS = gram_equal_pairs()
A0 = hex_facet_generators()


def report(number, name, started, detail=""):
    elapsed = time.perf_counter() - started
    tail = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s){tail}")


class cpu_budget:
    """Assert the block stays under its runtime budget.

    Takes min(wall, cpu): load contention inflates wall time and threaded
    BLAS inflates cpu time, but genuine slowness inflates both.
    """

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            used = min(
                time.perf_counter() - self.wall, time.process_time() - self.cpu
            )
            assert used < self.seconds, f"runtime {used:.2f}s over budget {self.seconds}s"


def random_full_rank(rng, n, k):
    m = rng.normal(size=(n, k))
    while np.linalg.matrix_rank(m) < min(n, k):
        m = rng.normal(size=(n, k))
    return m


def test_01_gram_identities_for_listed_pairs():
    started = time.perf_counter()
    with cpu_budget(1.0):
        for a, b in PAIRS:
            assert np.abs(gram(a) - gram(b)).max() <= 1e-9
            assert np.abs(a @ a.T - b @ b.T).max() <= 1e-9
    report(1, "gram-identities-four-pairs", started)


def test_02_third_pair_square_discrepancy():
    started = time.perf_counter()
    a, b = PAIRS[2]
    rep = check_conditions(a, b)
    assert rep.c1 and rep.c2
    assert np.abs(a @ a - b @ b).max() > 1e-3
    report(2, "third-pair-square-discrepancy", started)


def test_03_condition3_counterexample():
    started = time.perf_counter()
    a, b = comparison_counterexample()
    assert verify_condition3(a, b, np.eye(2), np.eye(2))
    rep = check_conditions(a, b)
    assert not rep.c1 and not rep.c2
    report(3, "condition3-without-1-and-2", started)


def test_04_degenerate_fixture_volume_census_tiling():
    started = time.perf_counter()
    # the oracle values come first, so the budget times zonokit alone
    exact = float(oracles.minor_sum_volume(A0, 3))
    assert exact == 10.0
    facets = oracles.support_facets(A0)
    mc = oracles.mc_volume_estimate(A0, facets, 10_000_000, seed=20240811)
    assert abs(mc - 10.0) <= 0.1
    subsets = [
        combo
        for combo in itertools.combinations(range(5), 3)
        if oracles.exact_rank(A0[:, combo]) == 3
    ]
    assert len(subsets) == 9
    with cpu_budget(5.0):
        z = Zonotope(A0)
        assert abs(z.volume() - 10.0) <= 1e-8
        til = tile_zonotope(z)
        assert len(til.tiles) == 9
        assert validate_tiling(z, til).ok
    report(4, "volume-census-tiling-degenerate-fixture", started, f"mc={mc:.4f}")


def test_05_perturbed_fixture_all_parallelotopes():
    started = time.perf_counter()
    a = perturbed_hex_generators(0.1)
    z = Zonotope(a)
    triples = [
        combo
        for combo in itertools.combinations(range(5), 3)
        if oracles.exact_rank(a[:, combo]) == 3
    ]
    assert len(triples) == 10
    til = tile_zonotope(z)
    assert len(til.tiles) == 10
    assert validate_tiling(z, til).ok
    exact = float(oracles.minor_sum_volume(a, 3))
    assert abs(z.volume() - exact) <= 1e-8
    report(5, "perturbed-fixture-ten-parallelotopes", started)


def test_06_congruence_search_positive_and_negative():
    started = time.perf_counter()
    budget = cpu_budget(60.0).__enter__()
    rng = np.random.default_rng(606)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(n, 9))
        a = random_full_rank(rng, n, k)
        sigma, signs = oracles.random_signed_permutation(rng, k)
        q0 = oracles.random_orthogonal(rng, n)
        b = q0 @ (a[:, sigma] * signs)
        w = congruent_zonotopes(a, b)
        assert w is not None
        assert w.residual(a, b) <= 1e-8 * np.linalg.norm(b)
    negatives = 0
    while negatives < 200:
        n = int(rng.integers(2, 5))
        k = int(rng.integers(n, 9))
        a = random_full_rank(rng, n, k)
        b = random_full_rank(rng, n, k)
        spec_a = np.sort(np.linalg.eigvalsh(gram(a)))
        spec_b = np.sort(np.linalg.eigvalsh(gram(b)))
        if np.abs(spec_a - spec_b).max() <= 1e-6:
            continue
        assert congruent_zonotopes(a, b) is None
        negatives += 1
    budget.__exit__(None, None, None)
    report(6, "congruence-search-200-positive-200-negative", started)


def test_07_orthogonal_witness_construction():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    for trial in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 7))
        k = int(rng.integers(1, 7))
        a = rng.normal(size=(m, k))
        if trial % 2 == 1 and k >= 2:
            a[:, -1] = a[:, : k - 1] @ rng.normal(size=k - 1)  # force Case 2
        q0 = oracles.random_orthogonal(rng, n)[:, :m]
        b = q0 @ a
        q = find_orthogonal(a, b)
        assert np.abs(q.T @ q - np.eye(m)).max() <= 1e-10
        assert np.linalg.norm(q @ a - b) <= 1e-8 * max(1.0, np.linalg.norm(a))
    report(7, "orthogonal-witness-1000-cases", started)


def test_08_triangular_sign_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(500):
        k = int(rng.integers(1, 8))
        r = np.triu(rng.normal(size=(k, k)))
        r[np.diag_indices(k)] = rng.uniform(0.3, 3.0, size=k) * rng.choice([-1, 1], size=k)
        j = rng.choice([-1.0, 1.0], size=k)
        assert np.array_equal(triangular_signs(r, j[:, None] * r), j)
    report(8, "triangular-sign-500-recoveries", started)


def test_09_exterior_root_roundtrips_and_box():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        while abs(np.linalg.det(a)) < 0.05:
            a = rng.normal(size=(n, n))
        b = compound(a)
        res = exterior_root(b)
        assert res.residual <= 1e-8
        assert determinant(res.root) ** (n - 1) == pytest.approx(
            determinant(b), rel=1e-8
        )
    data = [FacetDatum(np.eye(3)[:, i], float(i + 1)) for i in range(3)]
    box = parallelotope_from_facets(data)
    zb = Zonotope(box)
    areas = sorted(f.volume for f in zb.geometric_facets())
    assert np.abs(np.asarray(areas) - [1, 1, 2, 2, 3, 3]).max() <= 1e-7
    assert abs(zb.volume() - math.sqrt(6.0)) <= 1e-7
    report(9, "exterior-root-300-roundtrips-box-123", started)


def test_10_compound_gram_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        lhs = gram(compound(a))
        rhs = compound(gram(a))
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())
    report(10, "compound-gram-identity-200", started)


def test_11_tiling_suite_random():
    started = time.perf_counter()
    budget = cpu_budget(120.0).__enter__()
    rng = np.random.default_rng(1111)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(n, 8))
        m = rng.normal(size=(n, k))
        while np.linalg.matrix_rank(m) < n:
            m = rng.normal(size=(n, k))
        z = Zonotope(m)
        til = tile_zonotope(z)
        assert len(til.tiles) == math.comb(k, n)
        rep = validate_tiling(z, til)
        assert rep.volume_ok and rep.census_ok and rep.disjoint_ok and rep.containment_ok
    budget.__exit__(None, None, None)
    report(11, "tiling-200-random-zonotopes", started)


def test_12_symmetry_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1212)
    for _ in range(500):
        d = int(rng.integers(1, 5))
        x = rng.normal(size=(int(rng.integers(1, 7)), d))
        c1, c2, c3 = (rng.normal(size=d) for _ in range(3))
        assert np.abs(reflect(reflect(x, c1), c1) - x).max() <= 1e-10
        assert np.abs(reflect(reflect(x, c1), c2) - (x + 2 * (c2 - c1))).max() <= 1e-10
        lhs = reflect(reflect(reflect(x, c1), c2), c3)
        assert np.abs(lhs - reflect(x, c3 - c2 + c1)).max() <= 1e-10
    roundtrips = 0
    while roundtrips < 100:
        k = int(rng.integers(2, 7))
        gens = rng.normal(size=(2, k))
        unit = gens / np.linalg.norm(gens, axis=0)
        if any(
            abs(float(unit[:, i] @ unit[:, j])) > 0.999
            for i in range(k)
            for j in range(i + 1, k)
        ):
            continue
        z = Zonotope(gens)
        verts = z.vertices()
        c = np.mean(verts, axis=0)
        verts.sort(key=lambda p: math.atan2(p[1] - c[1], p[0] - c[0]))
        found = zonogon_recognize(np.asarray(verts))
        assert found is not None and len(found) == k
        used = [False] * k
        for g in found:
            hit = next(
                j
                for j in range(k)
                if not used[j]
                and (
                    np.allclose(g, gens[:, j], atol=1e-7)
                    or np.allclose(-g, gens[:, j], atol=1e-7)
                )
            )
            used[hit] = True
        roundtrips += 1
    for _ in range(50):
        k = int(rng.integers(2, 6))
        gens = [rng.normal(size=3) for _ in range(k)]
        pts = [np.zeros(3)]
        for d in gens + [-g for g in gens]:
            pts.append(pts[-1] + d)
        loop = SegmentLoop.from_polygon(np.asarray(pts[:-1]))
        assert loop_symmetric(loop).symmetric
        odd = SegmentLoop.from_polygon(np.asarray([[0, 0], [1, 0], [0.5, 1.0]]))
        assert not loop_symmetric(odd).symmetric
        segs = np.asarray(pts[:-1])
        segs = np.stack([segs, np.roll(segs, -1, axis=0)], axis=1)
        segs[0, 1] = segs[0, 1] + 0.05
        segs[1, 0] = segs[1, 0] + 0.05
        assert not loop_symmetric(SegmentLoop(segs)).symmetric
    report(12, "symmetry-composition-roundtrip-loops", started)


def test_13_zone_pairing_and_parallelogram_count():
    started = time.perf_counter()
    rng = np.random.default_rng(1313)
    for _ in range(100):
        k = int(rng.integers(4, 8))
        m = rng.normal(size=(3, k))
        while np.linalg.matrix_rank(m) < 3:
            m = rng.normal(size=(3, k))
        z = Zonotope(m)
        bfs = z.bounding_facets()
        for i in range(k):
            for j in range(i + 1, k):
                hits = [
                    bf
                    for bf in bfs
                    if i in bf.generating.columns and j in bf.generating.columns
                ]
                assert len(hits) == 2
        paras = [
            f
            for f in z.geometric_facets()
            if len(f.generating.columns) == 2
        ]
        assert len(paras) >= 6
    report(13, "zone-pairing-and-f4-bound", started)


def test_14_geometric_facet_count_oracle_authoritative():
    started = time.perf_counter()
    z = Zonotope(A0)
    got = len(z.geometric_facets())
    oracle = len(oracles.support_facets(A0))
    assert got == oracle
    # A naive tally that merges the six hexagon-constituent parallelograms
    # without re-adding the two merged hexagons lands on 14; the
    # support-function oracle counts 16 and is authoritative here.
    print(
        f"ACCEPTANCE-LOG geometric facets of the degenerate fixture: "
        f"oracle={oracle}, implementation={got}, documented legacy tally=14"
    )
    assert got == 16
    report(14, "geometric-facet-count-pinned-by-oracle", started)
