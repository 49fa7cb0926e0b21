"""One benchmark round in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json`` with the program's ``src`` on
PYTHONPATH. The job names the ``mrb`` argument lists to run and whether to
trace. The worker imports ``maskbench.cli``, writes ``ready`` on stdout (the
parent times set-up up to that line), runs each argument list through
``maskbench.cli.main`` in order, and writes one JSON line with each command's
exit code, wall time and NMS kept counts, the process's peak RSS, the speed
probe timed just before and just after the commands and, when tracing, the
per-layer figures.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _capture_nms(cli) -> list:
    """Record (masked, unmasked) kept per call of the CLI's NMS, in call order.

    The det_crowd check needs the per-image kept counts, which no report
    shows. The capture costs one extra Python call per image.
    """
    kept: list = []
    inner = cli.nms

    def nms(dets, *args, **kwargs):
        out = inner(dets, *args, **kwargs)
        masked = sum(1 for d in out if d.label.value == "masked")
        kept.append((masked, len(out) - masked))
        return out

    cli.nms = nms
    return kept


def reference_s() -> float:
    """Best of three timings of a fixed pure-Python loop: a probe of the machine's speed now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def main(job_path: str) -> int:
    import maskbench.cli as cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)

    nms_kept = _capture_nms(cli)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    commands = []
    before = reference_s()
    try:
        for argv in job["commands"]:
            first = len(nms_kept)
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
            commands.append({"command": argv[0], "code": code, "seconds": seconds,
                             "nms_kept": nms_kept[first:]})
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "module": cli.__file__,
        "commands": commands,
        "reference_s": [before, reference_s()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.report(commands)
        result["unmeasured"] = sorted(tracer.unmeasured)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
