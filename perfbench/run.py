"""Benchmark of the strokesurf surfacing CLI on generated drawings.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The drawing for the workload is
generated and written first (outside every timed region), then:

- with --trace 0, `setup_s` is timed as `import strokesurf` in fresh
  processes, and one fresh worker process surfaces the drawing with the
  in-process CLI (`strokesurf --input ... --output ... --report ...`)
  and scores it with `strokesurf eval`, repeating for --seconds. These
  timings are reported in reference seconds (speed.py): wall seconds
  corrected for the shared host's drifting speed by a fixed probe
  computation timed around and during each call. Wall-clock medians
  are printed beside them and kept in the run record;
- with --trace 1, the worker does one plain iteration and one with
  timing wrappers on every module's public functions (see tracer.py),
  and reports per-layer self times and counts.

Every iteration is checked: both CLI calls exit 0, the report and the
re-loaded OBJ are manifold, and the OBJ bytes are the same for every run
of one seed on one source tree. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; metric names and
units come from BENCHMARK.json. Run records and spans are written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 7

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402

IMPORT_PROBE = ("import sys, time\n"
                "t0 = time.perf_counter()\n"
                "import strokesurf\n"
                "t1 = time.perf_counter()\n"
                "assert strokesurf.__file__.startswith(sys.argv[1])\n"
                "print(repr(t1 - t0))\n")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, deadline, what):
    """Run a Python child to completion; on timeout it is killed and
    reaped before BenchError is raised."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{what} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(deadline):
    """Wall and reference times of `import strokesurf` in fresh
    processes, after one unmeasured import that fills the bytecode
    cache. The speed probes run here, around each child: in the child
    they would import numpy ahead of strokesurf."""
    probe = ["-c", IMPORT_PROBE, str(ROOT / "src")]
    run_child(probe, deadline, "import probe")
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.bracket()
        wall = float(run_child(probe, deadline, "import probe"))
        samples.append({"seconds": wall, "ref_seconds":
                        speed.reference_seconds(wall,
                                                before + speed.bracket())})
    return samples


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check_sample(sample, expected_sha):
    """Reasons this CLI call's output is wrong (empty when it is right)."""
    problems = []
    if sample["exit"] != 0:
        problems.append(f"{sample['kind']} exit code {sample['exit']}")
    for key in ("nonmanifold_edges", "nonmanifold_vertices"):
        if sample.get(key) != 0:
            problems.append(f"{sample['kind']} {key} = {sample.get(key)}")
    if sample["kind"] == "surface":
        if sample["obj_sha256"] is None:
            problems.append("no OBJ written")
        elif sample["obj_sha256"] != expected_sha:
            problems.append("OBJ differs from another run of this seed")
    elif sample.get("hausdorff") is None:
        problems.append("no Hausdorff distance reported")
    return problems


def tail_percentile(values):
    """Highest nearest-rank percentile above the median with at least ten
    samples beyond it, as (percent, value); None for fewer than 21."""
    n = len(values)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def main(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "strokesurf" / "__init__.py").is_file():
        raise BenchError(f"no strokesurf sources under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one CPU for this process and every child: the speed probes run here
    # around each import child, and must see the CPU the child runs on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wanted = bench["per_layer"] if ns.trace else bench["end_to_end"]

    work_dir = OUT / ns.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    run_child([str(HERE / "worker.py"), "gen", "--workload", ns.workload,
               "--seed", str(ns.seed), "--dir", str(work_dir)],
              deadline, "input generation")
    inputs = json.loads((work_dir / "gen.json").read_text())

    setup = [] if ns.trace else setup_seconds(deadline)
    run_child([str(HERE / "worker.py"), "run", "--workload", ns.workload,
               "--dir", str(work_dir), "--seconds", str(ns.seconds),
               "--trace", str(ns.trace)], deadline, "workload run")
    result = json.loads((work_dir / "run.json").read_text())
    samples = result["samples"]

    # the same seed on the same sources must give the same OBJ bytes
    digest = source_digest()
    ledger_path = OUT / "obj_sha256.json"
    ledger = (json.loads(ledger_path.read_text())
              if ledger_path.exists() else {})
    ledger_key = f"{digest}:{ns.workload}:{ns.seed}"
    expected = ledger.get(ledger_key, samples[0]["obj_sha256"])
    failures = []
    for sample in samples:
        sample["problems"] = check_sample(sample, expected)
        if sample["problems"]:
            failures.append(sample)
    if expected is not None and ledger_key not in ledger and not failures:
        ledger[ledger_key] = expected
        ledger_path.write_text(json.dumps(ledger, indent=1))

    def plain(kind, key):
        return [s[key] for s in samples
                if s["kind"] == kind and not s.get("traced") and key in s]

    # timings are in reference seconds; trace runs only have wall ones
    clock = "seconds" if ns.trace else "ref_seconds"
    surface = plain("surface", clock)
    plain_values = {
        "surface_s": statistics.median(surface),
        "eval_s": statistics.median(plain("eval", clock)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if setup:
        plain_values["setup_s"] = statistics.median(
            s["ref_seconds"] for s in setup)
    for name, kind, key in (("hausdorff", "eval", "hausdorff"),
                            ("interp_edge_frac", "surface",
                             "interp_edge_frac")):
        if plain(kind, key):
            plain_values[name] = statistics.median(plain(kind, key))
    values = result["layer_metrics"] if ns.trace else plain_values
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
        "trace": ns.trace, "git_sha": git_sha(), "source_sha256": digest,
        "nproc": os.cpu_count(), "versions": result["versions"],
        "spec": workloads.WORKLOADS[ns.workload], "inputs": inputs,
        "layer_moves": workloads.LAYER_MOVES,
        "setup_samples": setup, "samples": samples,
        "surface_tail": tail_percentile(surface),
        "missing_targets": result.get("missing_targets", []),
        "metrics": metrics,
    }
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    tail = record["surface_tail"]
    print(f"{ns.workload} seed {ns.seed}: {inputs['vertices']} input "
          f"vertices; surface_s median {statistics.median(surface):.4f} "
          f"{'wall' if ns.trace else 'reference'} s over {len(surface)} "
          f"sample(s); "
          + (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail else
             "too few samples for a tail percentile"))
    if not ns.trace:
        walls = {"surface": plain("surface", "seconds"),
                 "eval": plain("eval", "seconds"),
                 "setup": [s["seconds"] for s in setup]}
        print("wall-clock medians: " + ", ".join(
            f"{k} {statistics.median(v):.4f} s" for k, v in walls.items()))
    for sample in failures:
        print(f"FAILED {sample['kind']} call: {'; '.join(sample['problems'])}")
    print(json.dumps({"correct": not failures, "attempted": len(samples),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
