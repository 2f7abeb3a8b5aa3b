"""Repeated runs, steadiness, comparison and layer tables for the zonokit benchmark.

    python3 perfbench/tools.py runs DIR [--workloads W ...] [--seeds 1-10] [--trace 0|1]
    python3 perfbench/tools.py steady DIR
    python3 perfbench/tools.py compare BASE_DIR NEW_DIR
    python3 perfbench/tools.py layers DIR

``runs`` calls run.py once per workload and seed, one run at a time, keeps
each run's stdout as DIR/<workload>/seed<N>.trace<T>.txt and prints every
end-to-end metric with its unit. The other subcommands only read such
directories. Bounds and run length come from BENCHMARK.json at the root of
the tree that holds this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WIN_SHARE = 0.9  # a gain needs at least this share of pairs won


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(directory, trace=0):
    """{workload: {seed: result}} from the last stdout line of each stored run."""
    out = {}
    for path in sorted(Path(directory).glob(f"*/seed*.trace{trace}.txt")):
        lines = path.read_text().strip().splitlines()
        seed = int(path.name.split(".")[0][4:])
        out.setdefault(path.parent.name, {})[seed] = json.loads(lines[-1])
    return out


def values(runs, metric):
    """Per-seed values of one metric; error_rate is derived from the counts."""
    if metric == "error_rate":
        return {s: r["failed"] / r["attempted"] for s, r in runs.items()}
    return {s: r["metrics"][metric]["value"] for s, r in runs.items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_runs(args):
    root = HERE.parent
    for workload in args.workloads:
        target = Path(args.dir) / workload
        target.mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            (target / f"seed{seed}.trace{args.trace}.txt").write_text(proc.stdout)
            print(f"{workload} seed {seed}: {proc.stdout.strip().splitlines()[-1][:120]}", flush=True)
    if args.trace == 0:
        table(load(args.dir))
    else:
        layer_table(load(args.dir, trace=1))


def table(data):
    print(f"{'workload':12} {'metric':12} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} runs")
    for workload, runs in sorted(data.items()):
        for metric in [*E2E, "error_rate"]:
            unit = E2E[metric]["unit"] if metric in E2E else "ratio"
            q1, q2, q3 = quartiles(sorted(values(runs, metric).values()))
            print(f"{workload:12} {metric:12} {unit:6} {q2:12.6g} {q1:12.6g} {q3:12.6g} {len(runs)}")


def cmd_steady(args):
    data = load(args.dir)
    table(data)
    print()
    print(f"{'workload':12} {'metric':12} {'spread':>8} {'bound':>6} verdict")
    worst = 0.0
    for workload, runs in sorted(data.items()):
        for metric, spec in E2E.items():
            s = spread(sorted(values(runs, metric).values()))
            bound = spec["bound"]
            if metric == "setup_s":
                verdict = "exempt from the spread check"
            else:
                worst = max(worst, s)
                verdict = "steady" if s < bound / 3 else "within bound" if s <= bound else "TOO WIDE"
            print(f"{workload:12} {metric:12} {s:8.4f} {bound:6.2f} {verdict}")
    print(f"widest spread of a bounded metric: {worst:.4f} ({'within' if worst <= 0.1 else 'above'} a tenth)")


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(base, new, spec):
    """Rule of choosing-metrics section 8 with this benchmark's bound."""
    direction, bound = spec["better"], spec["bound"]
    common = sorted(set(base) & set(new))
    wins = sum(better(new[s], base[s], direction) for s in common)
    share = wins / len(common) if common else 0.0
    bq1, bq2, bq3 = quartiles(sorted(base.values()))
    nq1, nq2, nq3 = quartiles(sorted(new.values()))
    worse_by = (nq2 - bq2) / bq2 if direction == "lower" else (bq2 - nq2) / bq2
    all_better = all(better(n, b, direction) for n in new.values() for b in base.values())
    if share >= WIN_SHARE and better(nq2, bq2, direction) and abs(nq2 - bq2) > bq3 - bq1:
        word = "improved"
    elif worse_by > bound:
        word = "worse"
    elif max(spread(sorted(base.values())), spread(sorted(new.values()))) > bound and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return (bq1, bq2, bq3), (nq1, nq2, nq3), share, len(common), word


def cmd_compare(args):
    base, new = load(args.base), load(args.new)
    print(f"{'workload':12} {'metric':12} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'won':>9} verdict")
    for workload in sorted(set(base) & set(new)):
        failed = [sum(r["failed"] for r in side[workload].values()) for side in (base, new)]
        print(f"{workload:12} failed commands: base {failed[0]}, new {failed[1]}"
              + ("  (a gain does not count: more commands fail)" if failed[1] > failed[0] else ""))
        for metric, spec in E2E.items():
            b, n, share, pairs, word = verdict(values(base[workload], metric), values(new[workload], metric), spec)
            print(f"{workload:12} {metric:12} "
                  f"{b[1]:12.6g} [{b[0]:9.6g}, {b[2]:9.6g}] {n[1]:12.6g} [{n[0]:9.6g}, {n[2]:9.6g}] "
                  f"{share:5.0%} of {pairs:<2} {word}")


def layer_table(data):
    sys.path.insert(0, str(HERE))
    from tracing import LAYER_METRICS

    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    names = sorted(data)
    print(f"{'metric (median over runs)':36} {'unit':10} " + " ".join(f"{w:>12}" for w in names)
          + "  moves")
    for metric, (moves, where) in LAYER_METRICS.items():
        row = [statistics.median(values(data[w], metric).values()) for w in names]
        print(f"{metric:36} {units[metric]:10} " + " ".join(f"{v:12.6g}" for v in row) + f"  {moves} on {where}")


def cmd_layers(args):
    layer_table(load(args.dir, trace=1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("runs", help="run the benchmark per workload and seed")
    r.add_argument("dir")
    r.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    r.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="inclusive range, e.g. 1-10")
    r.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.set_defaults(func=cmd_runs)
    s = sub.add_parser("steady", help="spread of each end-to-end metric against its bound")
    s.add_argument("dir")
    s.set_defaults(func=cmd_steady)
    c = sub.add_parser("compare", help="verdict per workload and end-to-end metric")
    c.add_argument("base")
    c.add_argument("new")
    c.set_defaults(func=cmd_compare)
    ly = sub.add_parser("layers", help="per-layer metrics by workload from traced runs")
    ly.add_argument("dir")
    ly.set_defaults(func=cmd_layers)
    args = p.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
