#!/usr/bin/env python3
"""repeaterlab benchmark: seeded streams of in-process CLI calls.

    python3 perfbench/run.py --workload {grid,horizon,walk,nested} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each op is one ``repeaterlab.cli.main(argv)``
call on inputs generated from the seed (see workloads.py); one client runs
the ops back to back (a closed loop). Every distinct op runs once untimed
first, and its output is checked against a reference. Each later run of the
op must reproduce that output byte for byte, and the digest of all outputs
must match any earlier run of the same source tree at the same seed.

--trace 0 measures for S seconds (and at least MIN_OPS ops) and reports the
end-to-end metrics, the timings as medians over windows of the run. --trace 1 runs the same ops untraced for S/2 seconds and
then traced for S/2 seconds, and reports the per-layer metrics of the traced
half (see tracer.py). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a readable summary,
the environment and the digest go to standard error. Spans and run records
are written under .perfbench-out/ in the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("grid", "horizon", "walk", "nested")
MIN_OPS = 100         # so at least 10 samples lie beyond p90
# setup_s is the median of the workload process's own import and
# SETUP_SAMPLES - 1 fresh-interpreter imports spread over the timed loop, so
# that they see the same drift in host speed as the ops do
SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import repeaterlab.cli; "
    "t1 = time.perf_counter(); print(t1 - t0); print(repeaterlab.cli.__file__)"
)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_seconds() -> float:
    """Wall time of ``import repeaterlab.cli`` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "REPEATERLAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        fail(f"importing repeaterlab failed:\n{done.stderr}")
    seconds, path = done.stdout.split("\n")[:2]
    if not Path(path).resolve().is_relative_to(SRC):
        fail(f"imported repeaterlab from {path}, not from {SRC}")
    return float(seconds)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; git is not run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Runner:
    """Runs ops through cli.main, times them and checks their outputs."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.hashes = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def error(self, message: str):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def run(self, i: int) -> float:
        """Runs op i once; returns its wall time in seconds."""
        op = self.ops[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code = self.cli.main(list(op.argv))
        except Exception:
            code = None
            trace = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.error(f"op {i} exit {code}: {op.argv}" + (f"\n{trace}" if code is None else ""))
            return elapsed
        blob = op.output.read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        if self.hashes[i] is None:
            try:
                op.check(blob)
            except Exception as exc:  # a failed check, or output it cannot parse
                self.error(f"op {i} check: {type(exc).__name__}: {exc}")
                digest = "failed-check"
            self.hashes[i] = digest
        elif digest != self.hashes[i]:
            self.error(f"op {i}: output differs from its first run")
        return elapsed

    def loop(self, seconds: float, min_ops: int = 0) -> tuple[list[float], int]:
        """Cycles through the ops for at least `seconds` and `min_ops` ops,
        ending on a whole cycle. Returns the op times and the work done."""
        times, work, i = [], 0, 0
        start = time.perf_counter()
        while (i % len(self.ops) or not times
               or time.perf_counter() - start < seconds or len(times) < min_ops):
            times.append(self.run(i % len(self.ops)))
            work += self.ops[i % len(self.ops)].work
            i += 1
        return times, work

    def digest(self) -> str:
        return hashlib.sha256("\n".join(map(str, self.hashes)).encode()).hexdigest()


def windowed(times: list[float], cycle_work: list[int]) -> dict:
    """Medians over consecutive windows of whole op cycles, each of at least
    MIN_OPS ops, of the window's work rate, p50 and p90; the last window also
    takes the cycles left over. A slow spell of the shared host then moves
    one window's figures instead of the whole run's tail."""
    cycle = len(cycle_work)
    size = cycle * -(-MIN_OPS // cycle)
    cuts = [*range(0, len(times) - size + 1, size), len(times)]
    rate, p50, p90 = [], [], []
    for lo, hi in zip(cuts, cuts[1:]):
        part = times[lo:hi]
        rate.append((hi - lo) // cycle * sum(cycle_work) / sum(part))
        p50.append(statistics.median(part))
        p90.append(statistics.quantiles(part, n=10, method="inclusive")[8])
    return {
        "work_per_s": (statistics.median(rate), "work/s"),
        "op_p50_ms": (statistics.median(p50) * 1e3, "ms"),
        "op_p90_ms": (statistics.median(p90) * 1e3, "ms"),
    }


def check_digest(workload: str, seed: int, src: str, digest: str) -> bool:
    """Records the digest; False if an earlier run of this tree and seed differs."""
    path = OUT / "digests.json"
    OUT.mkdir(exist_ok=True)
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    key = f"{workload}:{seed}:{src[:16]}"
    previous = seen.setdefault(key, digest)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return previous == digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repeaterlab" / "cli.py").is_file():
        fail(f"no repeaterlab sources under {SRC}; run from a checkout of the repository")
    os.environ.pop("REPEATERLAB_THREADS", None)  # measure the default CLI path
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import repeaterlab.cli as cli
    setup = [time.perf_counter() - t0]
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported repeaterlab from {cli.__file__}, not from {SRC}")

    import numpy
    import tracer
    import workloads

    src = source_digest()
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": src,
    }

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops = workloads.build(args.workload, args.seed, work_dir)
        runner = Runner(cli, ops)
        for i in range(len(ops)):   # untimed first pass: warm caches, check outputs
            runner.run(i)
        if args.trace == 0:
            times = []
            for _ in range(SETUP_SAMPLES - 1):
                times += runner.loop(args.seconds / (SETUP_SAMPLES - 1),
                                     MIN_OPS / (SETUP_SAMPLES - 1))[0]
                setup.append(import_seconds())
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                **windowed(times, [op.work for op in ops]),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            plain_times, plain_work = runner.loop(args.seconds / 2)
            spans = tracer.Tracer()
            spans.install()
            try:
                times, work = runner.loop(args.seconds / 2)
            finally:
                spans.uninstall()
            spans.write(OUT / f"spans-{args.workload}.tsv.gz")
            metrics = tracer.per_layer(spans.spans, sum(times), len(times),
                                       env["cpu_count"] or 1)
            metrics["trace.overhead_frac"] = (
                1.0 - (work / sum(times)) / (plain_work / sum(plain_times)), "ratio")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    digest = runner.digest()
    if not check_digest(args.workload, args.seed, src, digest):
        runner.error(f"digest {digest} differs from an earlier run at seed {args.seed}")

    summary = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "trace": args.trace, "env": env, "digest": digest,
        "ops_timed": len(times), "distinct_ops": len(ops),
        "failed_frac": runner.failed / runner.attempted,
        "errors": runner.errors,
        "absent": spans.absent if args.trace else [],
        "setup_samples_s": setup,
        "op_times_s": times,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1))
    print(json.dumps({k: summary[k] for k in ("workload", "why", "seed", "env", "digest")}),
          file=sys.stderr)
    for message in runner.errors:
        print(f"FAILED {message}", file=sys.stderr)
    if summary["absent"]:
        print(f"not traced (absent): {', '.join(summary['absent'])}", file=sys.stderr)
    print(f"{len(times)} timed ops ({len(ops)} distinct), "
          f"failed_frac {summary['failed_frac']:.4g} ({runner.failed}/{runner.attempted})",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.6g} {unit}", file=sys.stderr)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
