#!/usr/bin/env python3
"""Closed-loop benchmark of invsemi: one client thread, one op at a time.

    python3 perfbench/run.py --workload {spectral,exact,graded,structure,cli} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source tree; it imports invsemi from ./src. Each
op is one user query made through invsemi's public functions, timed from
outside and checked against an oracle that does not use the code under test
where one exists. Ops run in whole rounds (every op of the workload once, in
the same order on every seed) until --seconds have passed.

Times are scaled to a nominal host speed by a pure-Python reference loop
timed between ops and between set-up probes (host_ref), which cancels the
host's own speed drift; the record keeps the raw figures too.

With --trace 0 the metrics are the end-to-end ones named in BENCHMARK.json.
With --trace 1 the run alternates untraced and traced rounds: the traced
rounds give the per-layer metrics, and the two together give the tracing
overhead. The last stdout line is the result object; the line before it is
the full record: environment, every end-to-end figure with the tail
percentile and sample count, digests of every op's canonical report, ops
whose report changed between rounds, and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from common import digest
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# BENCHMARK.json lists spectral and exact; exact is graded + structure + cli,
# which can still be run on their own to look at one part
WORKLOADS = {"spectral": "spectral", "exact": "exact", "graded": "graded",
             "structure": "structure", "cli": "cli_mix"}
SETUP_PROBES = 5       # set-up is repeated in fresh processes; the median is reported
TAIL_BEYOND = 10       # the pooled tail is the highest percentile with this many samples beyond it
TAIL_SHARE = 4         # latency_tail_s is over the slowest quarter of a workload's ops
# Seconds one pass of host_ref takes at the nominal host speed (about its
# median on a 2-vCPU x86-64 VM). Times are scaled to that speed; see README.md.
REF_S = 0.002
REF_BLOCK = 25         # host_ref passes timed before, between and after the set-up probes
# OpenBLAS threads spin for a while after a solve and slow a host_ref pass
# by about a quarter; the first block waits this long
SETTLE_S = 0.3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up the workload and exit (used to time set-up)")
    return p.parse_args(argv)


def cap_blas_threads():
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def setup(workload, seed, workdir):
    """Import, input generation and one checked warm-up op of each kind."""
    module = importlib.import_module(WORKLOADS[workload])
    rng = random.Random(seed)
    ops, warmups = module.build(rng, workdir)
    for op in warmups:
        op.check(op.run())
    # the order is not seeded: which op runs after which decides how much
    # freed memory is still held, and with it the peak resident set
    return ops


def host_ref():
    """Seconds one pass of a fixed pure-Python loop takes: the host's speed now.

    The loop does the kind of work the interpreter does in invsemi (Fraction
    arithmetic, tuple keys, dict updates) and nothing from invsemi, so a
    change to the program cannot move it.
    """
    t0 = time.perf_counter()
    total, counts = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(1, i)
    for i in range(6000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def time_setup(args):
    """Median set-up wall time of fresh processes, raw and scaled to REF_S.

    The median wall time is scaled by the median of blocks of host_ref
    passes this process times before, between and after the probes. Passes
    timed inside a probe, when its interpreter has just started, tracked the
    host's speed worse than no scaling at all; scaling each probe by the
    blocks next to it added the noise of a short block to every probe.
    """
    time.sleep(SETTLE_S)
    walls, refs = [], [host_ref() for _ in range(REF_BLOCK)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
                       cwd=ROOT, check=True, timeout=150, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
        refs += [host_ref() for _ in range(REF_BLOCK)]
    wall = statistics.median(walls)
    return wall, wall * REF_S / statistics.median(refs)


class Stats:
    """Latency samples, failures and report digests of one run."""

    def __init__(self):
        self.attempted = 0
        self.latency = []        # untraced op latencies scaled to REF_S
        self.raw_latency = []    # the same, as measured
        self.plain_ok = 0        # untraced ops that did not fail
        self.refs = []
        self.by_op = defaultdict(list)
        self.raw_by_op = defaultdict(list)
        self.self_time = []
        self.failures = Counter()
        self.correct = True
        self.digests = defaultdict(list)

    def run_op(self, op, traced):
        """Run and check one op; return its wall time and whether it passed."""
        t_start = time.perf_counter()
        error, report = None, None
        try:
            out = op.run()
        except Exception as exc:   # an escaping exception is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        took = time.perf_counter() - t_start
        if error is None:
            try:
                report = op.check(out)
            except Exception as exc:   # CheckFailed, or a report missing fields
                error = f"check {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is None:
            d = digest(report)
            if d not in self.digests[op.id]:
                self.digests[op.id].append(d)
        else:
            known = op.known_defect is not None and error.startswith(f"raised {op.known_defect}")
            self.correct = self.correct and known
            self.failures[(op.id, error, known)] += 1
        if not traced:   # the benchmark's own time is taken untraced
            self.self_time.append(time.perf_counter() - t_start - took)
        return took, error is None

    def run_round(self, ops, traced=False):
        """Run every op once, with a host_ref pass between consecutive ops.

        Each op's latency is scaled by REF_S over the mean of the passes just
        before and just after it, which cancels the host's speed drift.
        Traced rounds take the same passes, so that the tracing overhead
        compares like with like, but record no latencies.
        """
        t0 = time.perf_counter()
        before = host_ref()
        for op in ops:
            took, ok = self.run_op(op, traced)
            after = host_ref()
            if not traced:
                self.refs.append(after)
                self.raw_latency.append(took)
                self.latency.append(took * REF_S / ((before + after) / 2))
                self.by_op[op.id].append(self.latency[-1])
                self.raw_by_op[op.id].append(took)
                self.plain_ok += ok
            before = after
        return time.perf_counter() - t0

    @property
    def failed(self):
        return sum(self.failures.values())


def pooled_tail(latency):
    ordered = sorted(latency)
    n = len(ordered)
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def gmean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def op_latency(by_op):
    """Typical and slow-op latency from each op's median over the run.

    A pooled median over ops of very different cost lands on whichever op
    holds the middle rank, and jumps when two ops swap ranks; the geometric
    mean of per-op medians moves smoothly with every op's cost instead.
    """
    medians = sorted(statistics.median(v) for v in by_op.values())
    slow = medians[-max(1, math.ceil(len(medians) / TAIL_SHARE)):]
    return gmean(medians), gmean(slow)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown: {exc}"
    return out.stdout.strip()


def source_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "invsemi").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed, nproc):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "blas_threads": nproc,
            "seed": seed, "commit": git_commit(), "src_sha256": source_hash()}


def layer_value(name, rounds, self_time, overhead):
    if name == "bench.op.self_s":
        return statistics.fmean(self_time)
    if name == "trace.overhead_ratio":
        return overhead
    if name.endswith(".busy_s"):
        return statistics.median(r["busy"].get(name[:-len(".busy_s")], 0.0) for r in rounds)
    return statistics.median(r["counts"].get(name, 0) for r in rounds)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "invsemi" / "__init__.py").is_file():
        sys.stderr.write(f"no invsemi source under {SRC}; run from a source tree\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    (HERE / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "results") as workdir:
        ops = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        stats, tracer = Stats(), Tracer()
        plain_walls, traced_walls, layer_rounds = [], [], []
        start = time.perf_counter()
        while True:
            plain_walls.append(stats.run_round(ops))
            if args.trace:
                tracer.install()
                try:
                    traced_walls.append(stats.run_round(ops, traced=True))
                finally:
                    tracer.uninstall()
                layer_rounds.append(tracer.take())
            elapsed = time.perf_counter() - start
            # stop at the round boundary nearest to --seconds
            if elapsed + elapsed / len(plain_walls) / 2 >= args.seconds:
                break
        wall = time.perf_counter() - start
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = stats.attempted
    ok_ops = attempted - stats.failed
    p50_s, tail_s = op_latency(stats.by_op)
    pooled_tail_s, pooled_tail_pct = pooled_tail(stats.latency)
    # ops per second of the program's own (scaled) time: the benchmark's
    # checks and host_ref passes are left out
    e2e = {"latency_p50_s": p50_s, "latency_tail_s": tail_s,
           "ops_per_s": stats.plain_ok / sum(stats.latency), "ok_ratio": ok_ops / attempted,
           "peak_rss_mib": peak_rss_mib}
    raw_p50_s, raw_tail_s = op_latency(stats.raw_by_op)
    raw = {"latency_p50_s": raw_p50_s, "latency_tail_s": raw_tail_s,
           "ops_per_s": stats.plain_ok / sum(stats.raw_latency),
           "pooled_p50_s": statistics.median(stats.raw_latency),
           "ops_per_wall_s": ok_ops / wall, "host_ref_p50_s": statistics.median(stats.refs)}
    if args.trace:
        overhead = (sum(traced_walls) - sum(plain_walls)) / sum(plain_walls)
        metrics = {m["name"]: {"value": layer_value(m["name"], layer_rounds, stats.self_time,
                                                    overhead), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        raw["setup_s"], e2e["setup_s"] = time_setup(args)
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    first = {op_id: ds[0] for op_id, ds in sorted(stats.digests.items())}
    record = {
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed, nproc),
        "rounds": len(plain_walls) + len(traced_walls), "measured_s": wall,
        "e2e": dict(e2e, failed_ratio=stats.failed / attempted, latency_samples=len(stats.latency),
                    pooled_p50_s=statistics.median(stats.latency),
                    pooled_tail_s=pooled_tail_s, pooled_tail_pct=pooled_tail_pct),
        # as measured, not scaled to REF_S; ops_per_wall_s is over the whole
        # wall time, the benchmark's checks and host_ref passes included
        "raw": raw,
        "outputs_sha256": digest(first),
        "op_digests": first,
        "op_p50_s": {k: statistics.median(v) for k, v in sorted(stats.by_op.items())},
        # ops whose canonical report differed between rounds of this run
        "nondeterministic_ops": sorted(k for k, ds in stats.digests.items() if len(ds) > 1),
        "failures": [{"op": op_id, "error": err, "known_defect": known, "count": n}
                     for (op_id, err, known), n in sorted(stats.failures.items())],
    }
    if args.trace:
        record["layers"] = layer_rounds[-1]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": stats.correct, "attempted": attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
