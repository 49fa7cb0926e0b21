"""Benchmark of the detection and density routes of ``mrb``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload det_crowd --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's inputs from the seed (cached under
``perfbench/.cache``), then runs rounds until ``--seconds`` have passed. A
round is one fresh interpreter (``worker.py``) that imports ``maskbench.cli``
from ``src/`` and runs the workload's commands through ``maskbench.cli.main``
with the default single thread, stderr going to a file. Every round's reports
are checked against the generator's truth record. The first round only warms
the file cache and the bytecode cache and is left out of the figures.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (commands), and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end figures; with ``--trace 1`` the rounds run with the per-layer
tracer installed and the metrics are the per-layer figures of the fastest
timed round. ``images_per_s`` is the median over the timed rounds of the
round's throughput scaled to the reference speed (see REFERENCE_S):
this shared machine's speed swings by up to 2x for seconds to minutes, and the
scaling takes most of that out (see README.md). ``setup_s`` is the quickest
set-up of the run and ``peak_rss_mb`` the median over the timed rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from tracer import metric_units

HERE = Path(__file__).resolve().parent
CACHE_KEEP = 6  # input sets kept in the cache, newest first
ROUND_TIMEOUT_S = 120.0
# The worker times a fixed pure-Python loop (worker.reference_s) just before
# and just after the commands. A round's command time is scaled by
# REFERENCE_S / (mean probe time), that is, to a machine that runs the probe in
# REFERENCE_S, about this machine's speed when nothing else loads it.
REFERENCE_S = 0.005


def _report(name: str) -> list[str]:
    return ["--format", "json", "--out", name]


# workload -> (frames, [(argv with {in}/{out} placeholders, checker)])
WORKLOADS = {
    "det_crowd": (6, [
        (["eval-det", "--annotations", "{in}/annotations.jsonl",
          "--detections", "{in}/detections.jsonl", "--nms-iou", "0.4",
          *_report("{out}/eval_det.json")], checks.check_eval_det),
        (["eval-ratio", "--annotations", "{in}/annotations.jsonl",
          "--detections", "{in}/detections.jsonl", "--nms-iou", "0.4", "--by-condition",
          *_report("{out}/eval_ratio.json")], checks.check_crowd_ratio),
    ]),
    "det_ratio": (250, [
        (["eval-ratio", "--annotations", "{in}/annotations.jsonl",
          "--detections", "{in}/detections.jsonl", "--by-condition",
          "--scatter", "{out}/scatter.csv", *_report("{out}/eval_ratio.json")],
         checks.check_sparse_ratio),
        (["report-video", "--annotations", "{in}/annotations.jsonl",
          "--detections", "{in}/detections.jsonl", *_report("{out}/report_video.json")],
         checks.check_report_video),
    ]),
    "density_route": (8, [
        (["gen-density", "--annotations", "{in}/annotations.jsonl",
          "--out", "{out}/gt_maps", "--downscale", "8"], checks.check_gen_density),
        (["eval-count", "--annotations", "{in}/annotations.jsonl",
          "--density-dir", "{in}/pred", *_report("{out}/eval_count.json")],
         checks.check_eval_count),
        (["eval-ratio", "--annotations", "{in}/annotations.jsonl",
          "--density-dir", "{in}/pred", *_report("{out}/eval_ratio.json")],
         checks.check_density_ratio),
    ]),
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed command)."""


def prepare_inputs(cache: Path, workload: str, seed: int, frames: int) -> tuple[Path, dict]:
    """The workload's inputs and truth record, generated once per seed and size."""
    version = hashlib.sha256(Path(inputs.__file__).read_bytes()).hexdigest()[:12]
    key = cache / f"{workload}-s{seed}-n{frames}-{version}"
    truth_path = key / "truth.json"
    if truth_path.exists():
        os.utime(key)
        return key, json.loads(truth_path.read_text(encoding="utf-8"))
    shutil.rmtree(key, ignore_errors=True)
    truth = inputs.generate(workload, key, seed, frames)
    # the truth record is written last: its presence marks a complete entry
    truth_path.write_text(json.dumps(truth), encoding="utf-8")
    entries = sorted((p for p in cache.iterdir() if p.is_dir()), key=lambda p: p.stat().st_mtime)
    for old in entries[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
    return key, truth


def command_lines(workload: str, in_dir: Path, out: Path) -> list[list[str]]:
    """The workload's mrb argument lists for inputs in in_dir and reports in out."""
    return [[a.replace("{in}", str(in_dir)).replace("{out}", str(out)) for a in argv]
            for argv, _ in WORKLOADS[workload][1]]


def run_round(root: Path, work: Path, argvs: list[list[str]], trace: bool) -> dict:
    """One fresh worker process; returns its result plus the parent-measured set-up time."""
    job = work / "job.json"
    job.write_text(json.dumps({"commands": argvs, "trace": trace}), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p)
    with open(work / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job)],
            stdout=subprocess.PIPE, stderr=err, cwd=root, env=env)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a round took longer than {ROUND_TIMEOUT_S:g} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"worker exited with {proc.returncode} before finishing:\n{tail}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    if Path(result["module"]).resolve().parent != (root / "src" / "maskbench").resolve():
        raise BenchError(f"imported maskbench from {result['module']}, not from {root / 'src'}")
    result["setup_s"] = setup_s
    return result


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the benchmark's result object."""
    frames, plan = WORKLOADS[workload]
    cache = HERE / ".cache"
    cache.mkdir(exist_ok=True)
    in_dir, truth = prepare_inputs(cache, workload, seed, frames)
    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    argvs = command_lines(workload, in_dir, out)
    attempted = failed = 0
    errors: list[str] = []
    rounds = []
    try:
        start = None
        while not rounds or time.perf_counter() - start < seconds:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            result = run_round(root, work, argvs, trace)
            for cmd, (_, check) in zip(result["commands"], plan):
                attempted += 1
                if cmd["code"] != 0:
                    failed += 1
                    continue
                try:
                    errors.extend(check(truth, out, cmd))
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    errors.append(f"{cmd['command']}: unreadable output: {exc!r}")
            if start is None:  # warm-up round
                start = time.perf_counter()
            else:
                rounds.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    command_s = [sum(c["seconds"] for c in r["commands"]) for r in rounds]
    scaled_s = [s * REFERENCE_S / statistics.fmean(r["reference_s"])
                for s, r in zip(command_s, rounds)]
    fastest = rounds[command_s.index(min(command_s))]
    print(f"{workload}: seed {seed}, {frames} frames, {len(rounds)} timed rounds; command "
          f"seconds per round min {min(command_s):.4f} median {statistics.median(command_s):.4f}, "
          f"scaled to the reference speed median {statistics.median(scaled_s):.4f}",
          file=sys.stderr)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if trace:
        if fastest["unmeasured"]:
            print(f"unmeasured (name not found, reported as 0): {fastest['unmeasured']}",
                  file=sys.stderr)
        metrics = {m: {"value": fastest["trace"][m], "unit": u} for m, u in metric_units().items()}
    else:
        metrics = {
            "images_per_s": {"value": frames / statistics.median(scaled_s), "unit": "images/s"},
            "setup_s": {"value": min(r["setup_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MiB"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "maskbench" / "cli.py").is_file():
        print(f"error: no program source at {root / 'src' / 'maskbench'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
