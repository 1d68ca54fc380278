"""One workload run in a fresh process; started by run.py.

Imports omlkit, generates the workload's inputs, prints ``ready``, and then
(unless ``--setup-only``) runs passes through ``omlkit.cli.main`` until the
time is up, checks every output against the expected verdicts, and prints
one JSON result line.  With ``--trace 1`` it wraps omlkit's public functions
in spans first; untraced runs never import the tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

MIN_PASSES = 3


def run_command(cli, argv):
    """(exit code, stdout text, error text or None, seconds) of one command."""
    buf = io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:       # argparse rejects the arguments
        rc = exc.code
    except Exception:               # a crash is a failed command, not a stop
        rc, error = None, traceback.format_exc(limit=4)
    return rc, buf.getvalue(), error, perf_counter() - start


def reference_seconds():
    """Seconds of ten runs of a fixed pure-Python loop.

    Other tenants of the host slow this machine by up to half, in states
    that switch within a second and drift over minutes.  Timing this loop
    between passes gives the machine's current speed, and wall_rel divides
    a run's pass time by it.  Ten short runs span enough of those states to
    match what a pass of several seconds sees.
    """
    start = perf_counter()
    for _ in range(10):
        table, acc = {}, 0
        for i in range(60_000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
            acc += (i * i) % 7
    return perf_counter() - start


def run_passes(cli, next_pass, seconds, tracer=None, label="run"):
    """Run passes until the next one would end after ``seconds``.

    Returns a dict with each pass's wall seconds by run id (``walls``), the
    reference loop's seconds before the first pass and after each pass
    (``reference``), and the commands attempted, failed and why.
    """
    walls, reference, problems = [], [], []
    attempted = failed = 0
    start = perf_counter()
    reference.append(reference_seconds())
    while True:
        run_id = f"{label}-p{len(walls)}"
        if tracer is not None:
            tracer.begin_pass(run_id)
        wall = 0.0
        for name, argv, check in next_pass(len(walls)):
            rc, text, error, dt = run_command(cli, argv)
            wall += dt
            try:
                found = [error] if error else check(rc, text)
            except Exception as exc:    # output the checker cannot read
                found = [f"unreadable output ({exc!r})"]
            attempted += 1
            if found:
                failed += 1
                problems.append(f"{name}: {'; '.join(found)}")
        walls.append(wall)
        reference.append(reference_seconds())
        elapsed = perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return {
                "walls": {f"{label}-p{i}": w for i, w in enumerate(walls)},
                "reference": reference,
                "attempted": attempted,
                "failed": failed,
                "problems": problems,
            }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--scratch", required=True,
                   help="directory for generated inputs and span files")
    args = p.parse_args(argv)

    import omlkit.cli as cli
    import workloads

    with tempfile.TemporaryDirectory(dir=args.scratch) as tmpdir:
        next_pass = workloads.prepare(args.workload, args.seed, tmpdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        label = f"{args.workload}-s{args.seed}-t{args.trace}"
        passes = run_passes(cli, next_pass, args.seconds, tracer, label)

    result = {
        "pass_seconds": list(passes["walls"].values()),
        "reference_seconds": passes["reference"],
        "attempted": passes["attempted"],
        "failed": passes["failed"],
        "problems": passes["problems"][:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, passes["walls"])
        path = os.path.join(args.scratch, f"spans-{label}.csv.gz")
        tracer.save(path)
        result["spans_file"] = path
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
