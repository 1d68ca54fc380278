"""omlkit benchmark: three CLI workloads with exact-verdict checking.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ladder|corpus|keller|all \\
        --seed N --seconds S --trace 0|1

Every run happens in fresh worker processes (perfbench/worker.py) that import
omlkit from ./src, so peak RSS and import cost belong to one workload and an
untraced run never carries wrappers.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  wall_rel     median wall time of one pass of timed commands, divided by the
               median time of a fixed reference loop timed between the passes
               in the same process (worker.reference_seconds).  The host's
               speed drifts by up to half with other tenants' load; the ratio
               cancels most of that drift, which the seconds do not.
  setup_s      process start through imports and input generation; the
               median of SETUP_SAMPLES fresh processes
  peak_rss_mb  peak RSS of the worker process that ran the passes
The summary line also prints wall_s, the median pass time in seconds, which
is recorded in the result file but not gated.
--trace 1 runs one untraced and one traced worker for half the time each and
reports the per-layer metrics of perfbench/spans.py, including
trace_overhead_s.

Every command's output is checked against perfbench/verdicts.py.  The share
of failed commands, failed / attempted, is printed as failed_share and sets
the "correct" field.  The last stdout line is the JSON result; the full
result, with the environment it was measured in, is also written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
from contextlib import closing
from time import perf_counter

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
OUT_DIR = ".perfbench_out"
UNITS = {"wall_rel": "x-ref", "setup_s": "s", "peak_rss_mb": "MB",
         **{name: spec[0] for name, spec in spans.LAYER_METRICS.items()}}
CHILD_TIMEOUT = 120.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(root, seed):
    return {
        "commit": _commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


class Worker:
    """One worker process; stopped and waited for by close()."""

    def __init__(self, root, scratch, workload, seed, seconds=0.0, trace=0,
                 setup_only=False):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", scratch]
        if setup_only:
            cmd.append("--setup-only")
        # a fixed hash seed keeps set and dict orders, and so the work done,
        # the same from run to run
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   PYTHONHASHSEED="0")
        self.deadline = perf_counter() + CHILD_TIMEOUT + seconds
        self.start = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdout=subprocess.PIPE)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)

    def readline(self):
        """The worker's next stdout line; BenchError on exit or timeout."""
        left = self.deadline - perf_counter()
        if left <= 0 or not self.sel.select(timeout=left):
            raise BenchError("worker timed out")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return line.strip()

    def ready_seconds(self):
        """Seconds from process start until the worker finished set-up."""
        if self.readline() != "ready":
            raise BenchError("worker did not report ready")
        return perf_counter() - self.start

    def finish(self):
        """Wait for the worker to exit; BenchError unless it exits with 0."""
        try:
            code = self.proc.wait(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker timed out") from None
        if code:
            raise BenchError(f"worker exited with code {code}")

    def result(self):
        result = json.loads(self.readline())
        self.finish()
        return result

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.sel.close()
        self.proc.stdout.close()


def measure(root, scratch, workload, seed, seconds, trace):
    """(metrics, attempted, failed, details) of one workload run."""
    if trace:
        with closing(Worker(root, scratch, workload, seed, seconds / 2)) as w:
            w.ready_seconds()
            plain = w.result()
        with closing(Worker(root, scratch, workload, seed, seconds / 2, 1)) as w:
            w.ready_seconds()
            traced = w.result()
        metrics = dict(traced["layers"])
        metrics["trace_overhead_s"] = (
            statistics.median(traced["pass_seconds"])
            - statistics.median(plain["pass_seconds"])
        )
        runs = [plain, traced]
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            with closing(Worker(root, scratch, workload, seed,
                                setup_only=True)) as w:
                setups.append(w.ready_seconds())
                w.finish()
        with closing(Worker(root, scratch, workload, seed, seconds)) as w:
            setups.append(w.ready_seconds())
            plain = w.result()
        metrics = {
            "wall_rel": statistics.median(plain["pass_seconds"])
            / statistics.median(plain["reference_seconds"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        runs = [plain]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return metrics, attempted, failed, runs


def _stop(signum, frame):
    # unwinds through the workers' close(), which kills and waits for them
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    p = argparse.ArgumentParser(
        description="omlkit benchmark (run from the root of a checkout)")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "omlkit", "cli.py")):
        print("error: run from the root of an omlkit checkout (no src/omlkit)",
              file=sys.stderr)
        return 2
    scratch = os.path.join(root, OUT_DIR)
    os.makedirs(scratch, exist_ok=True)
    env = environment(root, args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    total_attempted = total_failed = 0
    out_metrics = {}
    for name in names:
        try:
            metrics, attempted, failed, runs = measure(
                root, scratch, name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        total_attempted += attempted
        total_failed += failed
        for r in runs:
            for problem in r["problems"]:
                print(f"wrong: {name}: {problem}", file=sys.stderr)
        shown = " ".join(f"{k}={v:.6g} {UNITS[k]}" for k, v in metrics.items())
        wall_s = statistics.median(runs[0]["pass_seconds"])
        print(f"{name} seed={args.seed} trace={args.trace}: {shown} "
              f"failed_share={failed / attempted:.6g} ({failed}/{attempted}) "
              f"wall_s={wall_s:.6g} s")
        with open(os.path.join(
                scratch, f"result-{name}-s{args.seed}-t{args.trace}.json"),
                "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seconds": args.seconds,
                       "trace": args.trace, "environment": env,
                       "metrics": metrics, "attempted": attempted,
                       "failed": failed, "runs": runs}, fh, indent=1)
        prefix = f"{name}." if args.workload == "all" else ""
        for k, v in metrics.items():
            out_metrics[prefix + k] = {"value": v, "unit": UNITS[k]}
    print("environment: " + json.dumps(env))
    correct = total_failed == 0
    print(json.dumps({"correct": correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
