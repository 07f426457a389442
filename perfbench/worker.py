"""One benchmark process: set up a workload, time it, check its outputs.

Started by run.py, which times several set-ups and reports their median.
The timed loop runs whole blocks of operations until ``--seconds`` have
passed.  On calibrated workloads it times the loop of calib.py between
operations and scales each operation's time by it.  Prints one JSON object
as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 40             # so that the 75th percentile has ten operations beyond it
TAIL_PERCENTILE = 75
SAME_AS_FIRST = object()


def _tail(times):
    """Nearest-rank 75th percentile: with n >= 40 at least ten values lie beyond it."""
    ordered = sorted(times)
    return ordered[math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for the workload's scratch files")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir)


def run(args, workdir: Path) -> int:
    import calib
    import layers
    import workloads

    if args.workload == "cli_calls":
        wl = workloads.build_cli_calls(args.seed, ROOT, workdir)
    else:
        wl = workloads.BUILDERS[args.workload](args.seed)

    probe = layers.Tracer() if args.trace else layers.Counts()
    probe.install()
    wl.warmup.call()
    if args.trace and wl.warmup.replay:
        wl.warmup.replay()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probe.reset()
    records = []          # (op, wall seconds, scaled seconds, output or exception)
    first = {}            # id(op) -> output of its first call
    counts = []           # counts of each block
    replay_s = 0.0        # traced cli_calls: one operation's calls as subprocesses
    cal_before = calib.measure() if wl.calibrated else calib.REF_S
    loops = [cal_before]
    start = time.perf_counter()
    while True:
        before = probe.counts()
        for op in wl.block(len(counts)):
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            dt = time.perf_counter() - t0
            if wl.calibrated:
                cal_after = calib.measure()
                scaled = dt * 2 * calib.REF_S / (cal_before + cal_after)
                cal_before = cal_after
                loops.append(cal_after)
            else:
                scaled = dt
            # A repeated operation whose output equals its first output keeps
            # no copy, so memory does not grow with the number of blocks.
            if id(op) not in first:
                first[id(op)] = out
            elif not isinstance(out, Exception) and out == first[id(op)]:
                out = SAME_AS_FIRST
            records.append((op, dt, scaled, out))
            if args.trace and op.replay and not replay_s:
                t0 = time.perf_counter()
                op.replay()
                replay_s += time.perf_counter() - t0
        after = probe.counts()
        counts.append({k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)})
        if len(counts) == 1:
            # every kind of operation has run once; later blocks add only kept outputs
            peak_rss = _peak_rss_mb()
        window = time.perf_counter() - start
        if window >= args.seconds and len(records) >= MIN_OPS:
            break
    walls = [dt for _, dt, _, _ in records]
    times = [scaled for _, _, scaled, _ in records]
    # one factor for the whole run turns the traced wall times into scaled ones
    run_scale = calib.REF_S / statistics.median(loops)
    if args.trace:
        main_s = sum(walls) if replay_s else 0.0
        startup_s = len(records) * replay_s - main_s if replay_s else 0.0
        per_layer = probe.metrics(len(records), main_s, startup_s)
        per_layer = layers.scaled(per_layer, run_scale)

    # checks, after the timed window
    failed, wrong, messages, outputs, verdicts = 0, 0, [], [], {}
    for op, _, _, out in records:
        if isinstance(out, Exception):
            problems = [f"raised {out!r}"]
        elif out is SAME_AS_FIRST:
            problems = verdicts[id(op)]
            wrong += bool(problems)
        else:
            try:
                problems = op.check(out)
            except Exception:
                problems = [f"check crashed: {traceback.format_exc(limit=3)}"]
            verdicts.setdefault(id(op), problems)
            wrong += bool(problems)
            outputs.append((op, out))
        if problems:
            failed += 1
            messages.append(f"{op.kind}: " + "; ".join(problems))
    run_problems = wl.extra_check(outputs)
    messages += run_problems

    work = sum(op.work for op, _, _, out in records if not isinstance(out, Exception))
    result = {
        "correct": wrong == 0 and not run_problems,
        "attempted": len(records),
        "failed": failed,
        "setup_s": setup_s,
        "metrics": {
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * _tail(times),
            "work_per_s": work / sum(times),
            "peak_rss_mb": peak_rss,
        },
        "wall": {
            "op_p50_ms": 1e3 * statistics.median(walls),
            "op_tail_ms": 1e3 * _tail(walls),
            "work_per_s": work / sum(walls),
        },
        "op_ms": [round(1e3 * t, 3) for t in times],
        "calibrated": wl.calibrated,
        "run_scale": run_scale,
        "window_s": window,
        "blocks": len(counts),
        "threads": wl.threads,
        "counts_per_block": counts,
        "messages": messages[:20],
    }
    if args.trace:
        result["per_layer"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
