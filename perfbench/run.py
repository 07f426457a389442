#!/usr/bin/env python3
"""Run one workload of the admlab benchmark and print its metrics.

    python3 perfbench/run.py --workload verdict_sweep --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record of the run (counts per block, every operation's time, wall
figures next to scaled ones, check messages, thread count) goes to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.

Set-up is timed in fresh worker processes, three times with ``--trace 0``,
and ``setup_s`` is their median.  See README.md for the workloads, the
host-speed calibration of the exact workloads and the meaning of every
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verdict_sweep", "wide_lp", "gd_study", "cli_calls")
SETUPS = 3
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _worker(args, out_dir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADMLAB_")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker passed the run's deadline") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _layer_units():
    sys.path.insert(0, str(HERE))
    import layers
    return {name: unit for name, unit, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="admlab end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "admlab" / "__init__.py").is_file():
        print(f"error: no admlab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            _worker(args, out_dir, deadline, True)["setup_s"] for _ in range(SETUPS - 1)]
        res = _worker(args, out_dir, deadline, False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        units = _layer_units()
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = dict(res, workload=args.workload, seed=args.seed, setups_s=setups)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} blocks={res['blocks']} "
          f"window={res['window_s']:.2f}s threads={res['threads']} "
          f"host speed={res['run_scale']:.3f}")
    print(f"# counts of the first block: {json.dumps(res['counts_per_block'][0])}")
    for msg in res["messages"]:
        print(f"# check: {msg}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
