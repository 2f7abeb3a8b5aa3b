"""zonokit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mesh3d --seed 1 --seconds 25 --trace 0

Run from the root of a zonokit source tree. One client drives
``zonokit.cli.main`` in-process in a closed loop: each command starts when the
previous one has returned. Inputs are generated from the seed into a
temporary directory inside the tree, every ``--out`` points there, and each
command's output is checked against a reference computed without zonokit.

The timed run repeats whole decks (see workloads.py) until the command time
is nearest to ``--seconds``; only time inside ``cli.main`` is on the clock,
output checks run between commands. With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` each command runs untraced
and traced, and the last line holds the per-layer metrics. Readable detail
is printed above that line.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the benchmark is one client on
# one thread, and the reference hardware has only two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DECKS_IN_POOL = 2  # distinct input decks generated per run, cycled in order
MIN_COMMANDS = 110  # p90 needs at least ten samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="with --trace 1, write every span here as JSON lines")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Bench:
    """Generated inputs plus the loop that runs them through cli.main."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cli = None
        self.pool = []
        self.attempted = 0
        self.failures = []
        self.setup_s = None

    def setup(self):
        """Import zonokit, build inputs and references, warm up; times it all."""
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        from zonokit import cli

        self.cli = cli
        rng = np.random.default_rng([self.seed, sorted(workloads.WORKLOADS).index(self.workload)])
        files = workloads.Files(self.workdir)
        build = workloads.WORKLOADS[self.workload]
        self.pool = [build(rng, files) for _ in range(DECKS_IN_POOL)]
        # Warm-up: the first command of each CLI subcommand as built, which is
        # its smallest input; it pays lazy imports (scipy.optimize on the
        # first mesh) before timing starts.
        warm = {}
        for cmd in self.pool[0]:
            warm.setdefault(cmd.argv[0], cmd)
        for cmd in warm.values():
            self.execute(cmd)
        for deck in self.pool:
            rng.shuffle(deck)
        self.setup_s = time.perf_counter() - start

    def execute(self, cmd):
        """Run one command; returns its seconds inside cli.main."""
        out, err = io.StringIO(), io.StringIO()
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(cmd.argv))
            except Exception as exc:  # an uncaught error is a failed command, not a crash
                code = None
                problem = f"uncaught {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if problem is None:
            try:
                problem = cmd.check(code, out.getvalue())
            except Exception as exc:  # unreadable output
                problem = f"output not checkable ({type(exc).__name__}: {exc})"
        if problem:
            self.failures.append((cmd, problem))
        return elapsed

    def timed(self, seconds, min_commands):
        """Run whole decks until the command time is nearest to ``seconds``."""
        samples = []
        run = 0
        while True:
            samples += [(cmd.kind, self.execute(cmd)) for cmd in self.pool[run % len(self.pool)]]
            run += 1
            busy = sum(s for _, s in samples)
            if busy + busy / run / 2 >= seconds and len(samples) >= min_commands:
                return samples, run  # the next deck would end further from the target


def quantiles(values):
    """p50 and p90 as statistics.quantiles gives them."""
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def setup_in_child(args):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1])


def environment(seed):
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def by_kind(samples):
    groups = defaultdict(list)
    for i, (kind, _) in enumerate(samples):
        groups[kind].append(i)
    return dict(sorted(groups.items()))


def report_failures(bench):
    for cmd, problem in bench.failures[:5]:
        print(f"FAIL {cmd.kind}: {' '.join(cmd.argv[:1])}: {problem}")
        for path in cmd.inputs:
            with open(path) as fh:
                print(f"  input {os.path.basename(path)}: {fh.read().strip()}")
    if len(bench.failures) > 5:
        print(f"FAIL ... {len(bench.failures) - 5} more")


def declared(values, section):
    """Values with the units BENCHMARK.json declares; the names must match it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    if sorted(values) != sorted(m["name"] for m in spec):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json {section}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def end_to_end(bench, args):
    # Three set-ups: this process, and fresh interpreters before and after
    # the timed run, so that the median spans more than one machine state.
    setup_samples = [setup_in_child(args), bench.setup_s]
    samples, decks = bench.timed(args.seconds, MIN_COMMANDS)
    setup_samples.append(setup_in_child(args))
    lat = [s for _, s in samples]
    p50, p90 = quantiles(lat)
    beyond = sum(1 for s in lat if s > p90)
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "p50_ms": p50 * 1e3,
        "p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {args.workload}: {len(lat)} commands in {decks} decks, {sum(lat):.2f} s in cli.main")
    print(f"{'kind':24} {'cmds':>6} {'p50_ms':>10} {'max_ms':>10}")
    for kind, idx in by_kind(samples).items():
        ks = [lat[i] for i in idx]
        print(f"{kind:24} {len(ks):6d} {statistics.median(ks) * 1e3:10.3f} {max(ks) * 1e3:10.3f}")
    metrics = declared(values, "end_to_end")
    for name, m in metrics.items():
        print(f"{name:12} {m['value']:14.6f} {m['unit']}")
    print(f"p90 sample count: {len(lat)} commands, {beyond} beyond p90")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    return metrics


def per_layer(bench, args):
    # Each command runs twice in a row, untraced and traced, in alternating
    # order: both runs see the same input and nearly the same machine state.
    # The overhead is the median of their time ratios, which a few long
    # commands that happened to run warm on one side cannot move.
    tracer = tracing.Tracer()
    plain, traced = [], []
    decks = 0
    while True:
        for i, cmd in enumerate(bench.pool[decks % len(bench.pool)]):
            untraced_first = (i + decks) % 2 == 0
            if untraced_first:
                plain.append((cmd.kind, bench.execute(cmd)))
            tracer.command = len(traced)
            tracer.install()
            try:
                traced.append((cmd.kind, bench.execute(cmd)))
            finally:
                tracer.uninstall()
            if not untraced_first:
                plain.append((cmd.kind, bench.execute(cmd)))
        decks += 1
        busy = sum(s for _, s in plain + traced)
        if busy + busy / decks / 2 >= args.seconds:
            break
    if args.spans:
        tracer.dump(args.spans)
    overhead = statistics.median(t / p for (_, p), (_, t) in zip(plain, traced))
    records = tracer.per_command()
    values = tracing.layer_metrics([records[i] for i in range(len(traced))])
    values["trace.overhead"] = overhead
    print(f"workload {args.workload}: {len(traced)} traced commands in {decks} decks, {len(tracer.spans)} spans")
    print(f"tracing overhead: median traced/untraced time ratio {overhead:.4f} "
          f"(ops_per_s untraced {len(plain) / sum(s for _, s in plain):.3f}, "
          f"traced {len(traced) / sum(s for _, s in traced):.3f})")
    metrics = declared(values, "per_layer")
    for name, m in metrics.items():
        moves, where = tracing.LAYER_METRICS[name]
        print(f"{name:36} {m['value']:14.6g} {m['unit']:10} moves {moves} on {where}")
    print("per kind (traced): ms per command; self ms per layer; rank calls, LP solves, find_orthogonal calls")
    header = " ".join(f"{layer[:8]:>8}" for layer in tracing.LAYERS)
    print(f"{'kind':24} {'cmds':>5} {'ms':>9} {header} {'rank':>7} {'lp':>6} {'fo':>5}")
    for kind, idx in by_kind(traced).items():
        v = tracing.layer_metrics([records[i] for i in idx])
        ms = statistics.fmean(traced[i][1] for i in idx) * 1e3
        layers = " ".join(f"{v[f'{layer}.self_s'] * 1e3:8.3f}" for layer in tracing.LAYERS)
        print(f"{kind:24} {len(idx):5d} {ms:9.3f} {layers} {v['numkit.rank.calls']:7.1f} "
              f"{v['zonotope.vertices.lp_solves']:6.1f} {v['congruence.find_orthogonal.calls']:5.2f}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "zonokit" / "__init__.py").is_file():
        print(f"error: no zonokit sources under {SRC}; run from a zonokit source tree", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        bench.setup()
        if args.setup_only:
            print(f"{bench.setup_s:.6f}")
            return 0
        print("env " + json.dumps(environment(args.seed)))
        metrics = per_layer(bench, args) if args.trace else end_to_end(bench, args)
        report_failures(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(bench.failures)
    print(f"error_rate {failed / bench.attempted:.6f} ratio ({failed} of {bench.attempted} commands)")
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
