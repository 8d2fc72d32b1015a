"""Benchmark for raneycf: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  The workloads and metrics are listed in
BENCHMARK.json and explained in perfbench/README.md.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics (--trace 0) or the per-layer ones
(--trace 1).  The line before it carries the machine, the source and the
details of the run; the same record is written to .perfbench_out/.

Every set-up and the measured run happen in fresh processes, one at a time.
The set-up time reported is the median over SETUPS of them.  End-to-end
times are CPU times in reference time (measure.REF_S), which takes out the
host's changing speed; CPU and wall figures are in the record.  Exit code 0
means every operation and every check passed.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "raneycf"
SETUPS = 5
DEADLINE_S = 170.0


def machine():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def child(args, extra, deadline):
    """Run worker.py in a fresh process and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="raneycf benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "__init__.py").is_file():
        print(f"error: no raneycf sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        setups = [child(worker_args, ["--setup-only"], deadline) for _ in range(SETUPS - 1)]
        res = child(worker_args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append({"setup_s": res["values"]["setup_s"], "setup_cpu_s": res["details"].pop("setup_cpu_s")})
    values = dict(res["values"], setup_s=statistics.median(s["setup_s"] for s in setups))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: run did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "details": dict(res["details"], setup_runs=setups, failed_frac=res["failed"] / res["attempted"]),
        "values": values,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, result=result), indent=2)
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
