"""One benchmark interpreter: set up a workload, then run its operations.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It imports hhbound,
builds the workload's inputs and prints a ``ready`` line, which ends the
set-up that ``run.py`` times from outside. Then, by ``--mode``:

* ``setup``: exit.
* ``measure``: run operations until ``--seconds`` have passed (at least two).
* ``once``: run operation 0.
* ``trace``: run operation 0 with the tracer installed.

Each operation of a forking workload runs in a child forked from this
process, so it starts with the memo caches as empty as after import, without
naming them, and the child's peak RSS comes back from ``wait4``. The result
is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

# workloads imports hhbound before numpy, so -X importtime charges numpy and
# scipy to hhbound's import
import workloads


def _in_child(fn):
    """Run ``fn`` in a forked child; return its JSON-able result with the
    child's peak RSS. The child is waited for before returning."""
    if threading.active_count() != 1:
        raise RuntimeError("refusing to fork a process that has threads")
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(read_fd)
        try:
            payload = json.dumps(fn())
        except BaseException:  # the child must report and exit, whatever failed
            payload = json.dumps({"error": traceback.format_exc()})
        with os.fdopen(write_fd, "w") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if not data or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"operation child ended with status {status}")
    result = json.loads(data)
    if "error" in result:
        raise RuntimeError("operation failed in child:\n" + result["error"])
    result.setdefault("maxrss_kb", usage.ru_maxrss)
    return result


def _operation(workload, rep: int, work_dir: Path, in_process: bool,
               traced: bool):
    out_dir = work_dir / f"op-{rep}"
    out_dir.mkdir(parents=True, exist_ok=True)

    def op():
        tracer = None
        if traced:
            import tracer as tracing
            tracer = tracing.install()
        result = workload.run(rep, out_dir, in_process)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["span_total_s"] = tracer.span_total_s()
        return result

    try:
        if workload.forks or in_process:
            return _in_child(op)
        return op()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "once", "trace"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--work-dir", required=True)
    args = p.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"event": "ready"}), flush=True)
    if args.mode == "setup":
        return 0

    work_dir = Path(args.work_dir)
    samples = []
    if args.mode == "measure":
        t0 = time.perf_counter()
        while len(samples) < 2 or time.perf_counter() - t0 < args.seconds:
            samples.append(_operation(workload, len(samples), work_dir,
                                      in_process=False, traced=False))
    else:
        in_process = True  # the traced form of every operation runs in-process
        samples.append(_operation(workload, 0, work_dir, in_process,
                                  traced=args.mode == "trace"))
    print(json.dumps({"event": "result", "samples": samples}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
