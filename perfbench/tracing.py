"""Span tracing of zonokit from outside the package.

``Tracer.install`` replaces the public functions of every zonokit module (and
every by-name import of them in other zonokit modules), the public methods and
cached derived structures of ``Zonotope``, and ``scipy.optimize.linprog`` with
recording wrappers; ``uninstall`` puts the originals back. Each wrapped call
records a span ``[name, start, end, parent, command]``; spans stay in memory
until the run computes its per-layer metrics from them.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "numkit", "zonotope", "tiling", "congruence", "rigidity", "symmetry")

# Validators called around every numpy operation; wrapping them would add a
# span per array and measure the tracer more than the code.
SKIP = {("numkit", "as_matrix"), ("numkit", "as_vector")}

# Spans whose inclusive time is reported together; load_points reads text
# files through load_matrix.
GROUPS = {"cli.load_matrix": "cli.load", "cli.load_points": "cli.load"}

# Per-layer metric -> (end-to-end metric it should move, workloads). Units and
# directions are in BENCHMARK.json; values are means per traced command.
LAYER_METRICS = {
    "cli.load_s": ("ops_per_s", "small_cli"),
    "numkit.rank.calls": ("ops_per_s", "tile, then mesh3d"),
    "numkit.rank.s": ("ops_per_s", "tile, then mesh3d"),
    "numkit.independent_columns.calls": ("ops_per_s", "tile, congruence"),
    "numkit.cross_product.calls": ("ops_per_s", "tile, congruence"),
    "numkit.qr_decompose.calls": ("ops_per_s", "tile, congruence"),
    "numkit.subset_determinants.subsets": ("ops_per_s", "small_cli, tile"),
    "numkit.subset_determinants.s": ("ops_per_s", "small_cli, tile"),
    "zonotope.generating_faces.s": ("ops_per_s, p50_ms", "tile, mesh3d"),
    "zonotope.bounding_facets.s": ("ops_per_s, p50_ms", "tile, mesh3d"),
    "zonotope.geometric_facets.s": ("p50_ms", "mesh3d"),
    "zonotope.objects": ("ops_per_s, p50_ms", "tile, mesh3d"),
    "zonotope.vertices.s": ("p50_ms, p90_ms, ops_per_s", "mesh3d (not tile, congruence)"),
    "zonotope.vertices.lp_solves": ("p50_ms, p90_ms, ops_per_s", "mesh3d (0 elsewhere)"),
    "zonotope.vertices.yield": ("p50_ms, p90_ms, ops_per_s", "mesh3d"),
    "tiling.tile_zonotope.s": ("ops_per_s", "tile"),
    "tiling.validate_tiling.s": ("ops_per_s", "tile"),
    "tiling.tiles": ("ops_per_s", "tile"),
    "tiling.perturbations": ("ops_per_s", "tile"),
    "congruence.congruent_zonotopes.s": ("p90_ms, p50_ms", "congruence"),
    "congruence.find_orthogonal.calls": ("p50_ms", "congruence"),
    "congruence.witness_yield": ("p90_ms, p50_ms", "congruence"),
    "rigidity.exterior_root.s": ("ops_per_s", "small_cli"),
    "symmetry.central_center.s": ("ops_per_s", "small_cli"),
    "symmetry.loop_symmetric.s": ("ops_per_s", "small_cli"),
    "symmetry.zonogon_recognize.s": ("ops_per_s", "small_cli"),
    **{f"{layer}.self_s": ("ops_per_s", "all") for layer in LAYERS},
    "trace.overhead": ("none (cost of tracing)", "all"),
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # command id -> counter name -> value
        self.command = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, count=None):
        """Record a span around ``fn``; ``count(result)`` adds named counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count:
                self.counts[self.command].update(count(result))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import scipy.optimize

        from zonokit import cli, congruence, numkit, rigidity, symmetry, tiling, zonotope

        modules = dict(zip(LAYERS, (cli, numkit, zonotope, tiling, congruence, rigidity, symmetry)))
        counts = {
            "numkit.subset_determinants": lambda r: {"subsets": len(r)},
            "tiling.tile_zonotope": lambda r: {
                "tiles": len(r.tiles),
                "perturbations": len(r.source.get("perturbations", [])),
            },
            "congruence.congruent_zonotopes": lambda r: {"witnesses": r is not None},
        }
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
                if not public or (layer, attr) in SKIP:
                    continue
                name = f"{layer}.{attr}"
                if name == "numkit.subset_determinants":
                    fn = _eager(fn)  # a generator: time the whole iteration
                original = mod.__dict__[attr]
                wrapped = self.wrap(name, fn, counts.get(name))
                for holder in modules.values():  # by-name imports, e.g. tiling.rank
                    if holder.__dict__.get(attr) is original:
                        self._patch(holder, attr, wrapped)

        z = zonotope.Zonotope
        self._patch(z, "__init__", self.wrap("zonotope.Zonotope", z.__init__))
        for attr in ("generating_faces", "zone", "volume", "m_volume", "facet_volume"):
            self._patch(z, attr, self.wrap(f"zonotope.{attr}", z.__dict__[attr]))
        cached = {
            "_bounding_facets": ("zonotope.bounding_facets", None),
            "_geometric_facets": ("zonotope.geometric_facets", None),
            "_vertices": ("zonotope.vertices", lambda r: {"vertices": len(r)}),
        }
        for attr, (name, count) in cached.items():
            prop = functools.cached_property(self.wrap(name, z.__dict__[attr].func, count))
            prop.__set_name__(z, attr)
            self._patch(z, attr, prop)

        linprog = scipy.optimize.linprog

        def counted_linprog(*args, **kwargs):
            self.counts[self.command]["lp_solves"] += 1
            return linprog(*args, **kwargs)

        self._patch(scipy.optimize, "linprog", counted_linprog)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_command(self):
        """Per command id: span calls, inclusive and self seconds, counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": Counter(), "s": Counter(), "self": Counter()})
        for i, (name, start, end, parent, cmd) in enumerate(self.spans):
            rec = out[cmd]
            rec["calls"][name] += 1
            group = GROUPS.get(name, name)
            if parent < 0 or GROUPS.get(self.spans[parent][0], self.spans[parent][0]) != group:
                rec["s"][group] += end - start  # time inside its own group counts once
            rec["self"][name.split(".")[0]] += end - start - child_time[i]
        for cmd, counts in self.counts.items():
            out[cmd]["counts"] = counts
        return out


def _eager(gen_fn):
    @functools.wraps(gen_fn)
    def eager(*args, **kwargs):
        return list(gen_fn(*args, **kwargs))

    return eager


def layer_metrics(records):
    """Per-layer metric values, averaged over the given per-command records."""
    m = max(len(records), 1)
    calls, incl, self_s, counts = Counter(), Counter(), Counter(), Counter()
    for rec in records:
        calls.update(rec["calls"])
        incl.update(rec["s"])
        self_s.update(rec["self"])
        counts.update(rec.get("counts", {}))

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "cli.load_s": incl["cli.load"],
        "numkit.rank.calls": calls["numkit.rank"],
        "numkit.rank.s": incl["numkit.rank"],
        "numkit.independent_columns.calls": calls["numkit.independent_columns"],
        "numkit.cross_product.calls": calls["numkit.cross_product"],
        "numkit.qr_decompose.calls": calls["numkit.qr_decompose"],
        "numkit.subset_determinants.subsets": counts["subsets"],
        "numkit.subset_determinants.s": incl["numkit.subset_determinants"],
        "zonotope.generating_faces.s": incl["zonotope.generating_faces"],
        "zonotope.bounding_facets.s": incl["zonotope.bounding_facets"],
        "zonotope.geometric_facets.s": incl["zonotope.geometric_facets"],
        "zonotope.objects": calls["zonotope.Zonotope"],
        "zonotope.vertices.s": incl["zonotope.vertices"],
        "zonotope.vertices.lp_solves": counts["lp_solves"],
        "tiling.tile_zonotope.s": incl["tiling.tile_zonotope"],
        "tiling.validate_tiling.s": incl["tiling.validate_tiling"],
        "tiling.tiles": counts["tiles"],
        "tiling.perturbations": counts["perturbations"],
        "congruence.congruent_zonotopes.s": incl["congruence.congruent_zonotopes"],
        "congruence.find_orthogonal.calls": calls["congruence.find_orthogonal"],
        "rigidity.exterior_root.s": incl["rigidity.exterior_root"],
        "symmetry.central_center.s": incl["symmetry.central_center"],
        "symmetry.loop_symmetric.s": incl["symmetry.loop_symmetric"],
        "symmetry.zonogon_recognize.s": incl["symmetry.zonogon_recognize"],
    }
    values = {k: v / m for k, v in values.items()}
    values["zonotope.vertices.yield"] = ratio(counts["vertices"], counts["lp_solves"])
    values["congruence.witness_yield"] = ratio(counts["witnesses"], calls["congruence.find_orthogonal"])
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer] / m
    return values

