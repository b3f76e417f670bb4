"""Benchmark of treecount: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload embed --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from the seed (several times, to time the
set-up), runs one untimed warm-up operation, then runs whole passes over
the workload's operations until the next pass would end after --seconds,
checking every output outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics, which
are the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.  Results and traces are also written under bench/out/.
"""

from __future__ import annotations

import os

# one thread everywhere, fixed before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

try:
    import treecount
    from treecount.errors import ProcedureError
except ImportError as exc:
    sys.exit(f"error: cannot import treecount from {HERE.parent / 'src'}: {exc}")
if Path(treecount.__file__).resolve().parent != HERE.parent / "src" / "treecount":
    sys.exit(f"error: treecount was imported from {treecount.__file__}, not from this checkout")

import tracing
import workloads

SETUP_REPEATS = 3
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_s_p50", "s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MiB"),
)


def measure(cases, seconds: float, tracer) -> dict:
    """Whole passes until the next one would end after ``seconds``."""
    walls, cpus, op_times = [], [], []  # op_times[p][i]: case i in pass p
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        gc.collect()
        results, times = [], []
        if tracer:
            tracer.phase = "pass"
        w0, c0 = time.perf_counter(), time.process_time()
        for case in cases:
            t0 = time.perf_counter()
            try:
                results.append((case, True, case.run()))
            except (ProcedureError, workloads.OpFailed) as exc:
                results.append((case, False, exc))
            times.append(time.perf_counter() - t0)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        op_times.append(times)
        if tracer:
            tracer.phase = None
        for case, ok, out in results:
            attempted += 1
            if not ok:
                failed += 1
                continue
            try:
                case.check(out)
            except Exception:
                correct = False
                print(f"check failed on {case.label}:", file=sys.stderr)
                traceback.print_exc()
        del results
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    return dict(walls=walls, cpus=cpus, op_times=op_times,
                attempted=attempted, failed=failed, correct=correct)


def run(workload: str, seed: int, seconds: float, traced: bool,
        workdir: Path) -> tuple[dict, dict]:
    setup = workloads.SETUPS[workload]
    tracer = tracing.install() if traced else None
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            cases = None
            gc.collect()
            if tracer and i == SETUP_REPEATS - 1:
                tracer.phase = "setup"
            t0 = time.perf_counter()
            cases = setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.phase = None
        try:  # warm-up, untimed; the same case is checked in every pass
            cases[0].run()
        except (ProcedureError, workloads.OpFailed):
            pass
        m = measure(cases, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    if traced:
        metrics = tracing.per_layer(tracer, len(m["walls"]))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        tracer.write(OUT / f"trace-{workload}-{seed}.json")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(m["walls"]),
            "op_s_p50": statistics.median(t for p in m["op_times"] for t in p),
            "cpu_s": statistics.median(m["cpus"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    print(f"{workload} seed {seed}: {len(m['walls'])} passes of {len(cases)} "
          f"operations, pass wall {['%.3f' % w for w in m['walls']]}", file=sys.stderr)
    result = {
        "correct": m["correct"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {"labels": [c.label for c in cases], "setup_s": setup_times,
              "pass_wall_s": m["walls"], "pass_cpu_s": m["cpus"], "op_s": m["op_times"]}
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
