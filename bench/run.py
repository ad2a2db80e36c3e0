"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and ``README.md``) in this process,
on one thread. With ``--trace 0`` it times repetitions for about ``S``
seconds and reports the end-to-end metrics, which come only from untraced
repetitions. With ``--trace 1`` it spends half the time untraced and half
traced, and reports the per-layer metrics, including the tracing overhead.
The last line of standard output is the result as one JSON object. The full
record (every repetition's time, output digests, environment) and the spans
are written to ``bench/out/``. The exit code is 0 only if every operation
and every output check passed.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()
# set before NumPy is imported, so that two cores measure the program and
# not the scheduler
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("pipeline", "sweep-fine", "reconstruct-exhaustive")
# set-up runs in this process and in this many fresh ones; the median counts
SETUP_PROBES = 2
IMPORT_PROBES = 3
# untimed repetitions at the start of a process
WARMUP_REPS = 1
# glibc's ceiling for its dynamic mmap threshold (DEFAULT_MMAP_THRESHOLD_MAX)
MMAP_THRESHOLD = 32 * 1024 * 1024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def settle_malloc():
    """Fix glibc's mmap and trim thresholds at the values its dynamic
    adjustment reaches in a long-running process.

    By default glibc serves large blocks with fresh mmaps (page faults on
    every allocation) and raises the threshold only as large blocks are
    freed, so the first repetitions of the sweep ran up to 1.5 times slower
    than later ones, and by a different amount in every process. Returns
    whether the settings took effect (they do not on other C libraries).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, MMAP_THRESHOLD)
                and mallopt(m_trim_threshold, 2 * MMAP_THRESHOLD))


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe(args):
    """Set-up time of a fresh process running this script."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the program's source files, names included."""
    h = hashlib.sha256()
    for path in sorted((SRC / "aotomo").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def import_profile():
    """Wall time of a fresh interpreter importing ``aotomo.cli`` (median of
    a few), and the slowest modules by cumulative ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, stderr = [], ""
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import aotomo.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
            check=True)
        times.append(time.perf_counter() - t0)
        stderr = proc.stderr
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            rows.append((int(parts[1]), parts[2].strip()))
    top = [{"module": m, "cumulative_us": us}
           for us, m in sorted(rows, reverse=True)[:10]]
    return statistics.median(times), top


def timed_reps(workload, ops, workloads, seconds, work, warmup):
    """Run repetitions until the next one would end past ``seconds``, with
    at least one timed repetition.

    The first ``warmup`` repetitions are not timed, so that lazy set-up in
    the program and the allocator's first growth are not measured.

    Returns the times of the timed repetitions that passed, the outputs of
    every repetition (None where one failed), the peak RSS after the first
    repetition, and the warm-up times.
    """
    times, outputs, walls = [], [], []
    warmup_s = []
    begin = time.perf_counter()
    while True:
        rep_dir = work / f"rep{len(outputs)}"
        rep_dir.mkdir()
        ops.rep_time = 0.0
        cg_before = ops.audit.iterations
        t0 = time.perf_counter()
        try:
            out = workload.repetition(ops, str(rep_dir))
            out["cg_iterations"] = ops.audit.iterations - cg_before
        except workloads.RepAborted:
            out = None
        finally:
            shutil.rmtree(rep_dir)
        walls.append(time.perf_counter() - t0)
        outputs.append(out)
        if len(walls) == 1:
            first_rss = rss_mb()
        if len(walls) <= warmup:
            warmup_s.append(ops.rep_time)
            continue
        if out is not None:
            times.append(ops.rep_time)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > seconds:
            return times, outputs, first_rss, warmup_s


def environment():
    import numpy
    import scipy
    from aotomo import kernels

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "backend": kernels.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "aotomo" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    malloc_settled = settle_malloc()
    sys.path.insert(0, str(SRC))
    import layers
    import spans
    import workloads

    import_s = time.perf_counter() - PROCESS_START

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        cls = workloads.WORKLOADS[args.workload]
        workload = cls(args.seed, str(work))
        setups = [time.perf_counter() - PROCESS_START]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        setups += [setup_probe(args) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(setups)

        patcher = spans.Patcher()
        audit = layers.CgAudit()
        ops = workloads.Ops(audit)
        audit.install(patcher)
        try:
            if args.trace:
                times, outputs, _, warmup_s = timed_reps(
                    workload, ops, workloads, args.seconds / 2, work,
                    WARMUP_REPS)
                recorder = spans.Recorder()
                layers.install_tracer(patcher, recorder)
                cls(args.seed, str(work))
                setup_summary = recorder.summary()
                recorder.clear()
                ops.recorder = recorder
                traced, traced_outputs, _, _ = timed_reps(
                    workload, ops, workloads, args.seconds / 2, work, 0)
                outputs += traced_outputs
            else:
                times, outputs, peak_rss_mb, warmup_s = timed_reps(
                    workload, ops, workloads, args.seconds, work, WARMUP_REPS)
        finally:
            patcher.restore()
        done = [o for o in outputs if o is not None]
        l2, hausdorff = (workload.quality(done[-1]) if done
                         else (math.nan, math.nan))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall_s = statistics.median(times) if times else math.nan
    correct = (ops.failed == 0 and math.isfinite(l2)
               and math.isfinite(hausdorff))
    record.update(
        environment=dict(environment(), malloc_settled=malloc_settled),
        sizes=workload.sizes,
        attempted=ops.attempted,
        failed=ops.failed,
        error_rate=ops.error_rate,
        errors=ops.errors,
        warnings=ops.warnings,
        repetitions=len(times),
        warmup_s=warmup_s,
        repetition_s=times,
        operation_s=ops.op_times,
        import_s=import_s,
        setup_s=setups,
        peak_rss_mb_at_end=rss_mb(),
        cg={"calls": audit.calls, "iterations": audit.iterations,
            "worst_residual_over_tol": audit.worst_ratio},
        outputs=outputs,
        digests_repeat=all(o == done[0] for o in done),
    )
    if args.trace:
        import_wall, import_top = import_profile()
        summary = recorder.summary()
        extra = {
            "cli.import_s": import_wall,
            "trace.overhead_s": (statistics.median(traced) - wall_s
                                 if traced and times else math.nan),
            "helmholtz.ground_truth_psi.s": setup_summary.get(
                "helmholtz.ground_truth_psi", {"s": 0.0})["s"],
        }
        metrics = layers.layer_metrics(summary, recorder.counts,
                                       max(len(traced), 1), extra)
        units = dict(layers.PER_LAYER)
        spans_path = OUT / (f"spans-{args.workload}-seed{args.seed}.json.gz")
        recorder.dump(spans_path)
        record.update(traced_repetition_s=traced, import_top=import_top,
                      setup_spans=setup_summary, spans_file=spans_path.name)
    else:
        metrics = {"wall_s": wall_s, "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb, "l2_rel_error": l2,
                   "hausdorff": hausdorff}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "l2_rel_error": "1", "hausdorff": "1"}
    record["metrics"] = metrics
    path = OUT / (f"result-{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
