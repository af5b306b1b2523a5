"""nozzleflow benchmark: one workload, fresh child processes, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Workloads: ``ladder``, ``small_steps``, ``monitors`` (see DESIGN.md).  This
parent process starts one child at a time.  With ``--trace 0`` it runs as
many pass children as fit in ``--seconds`` (at least one pass), then
set-up-only children until it has enough set-up samples, and reports the
end-to-end metrics; a pass's wall time is rescaled to a reference host
speed by calibration loops run during the pass (see speed.py).  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object: correct,
attempted, failed, metrics.
A results file with the run record goes to ``perfbench/out/``.

Extra options: ``--size smoke`` (tiny inputs, for the self-test),
``--corrupt-reference`` (shift one stored reference value, so the gate must
fail) and ``--write-reference`` (store the default seed's outputs).
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
from datetime import datetime, timezone
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0             # the whole run, children included
SETUP_SAMPLES = {"full": 8, "smoke": 2}  # set-up samples per untraced run
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--corrupt-reference", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


class Children:
    """Starts child processes one at a time, each in its own pass directory."""

    def __init__(self, args, inputs, run_dir: Path, deadline: float):
        self.args = args
        self.inputs = inputs
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)

    def spawn(self, mode: str, trace: int) -> dict:
        wl = workloads.WORKLOADS[self.args.workload]
        pass_dir = self.run_dir / f"{self.count:03d}-{mode}-t{trace}"
        self.count += 1
        pass_dir.mkdir(parents=True)
        wl.write_inputs(self.inputs, pass_dir)
        spec = {"root": str(ROOT), "workload": self.args.workload,
                "size": self.args.size, "seed": self.args.seed,
                "inputs": self.inputs,
                "write_reference": self.args.write_reference,
                "corrupt_reference": self.args.corrupt_reference}
        (pass_dir / "inputs.json").write_text(json.dumps(spec))
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            return {"error": "no time left before the run's deadline"}
        t_spawn = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), str(pass_dir), mode,
               str(trace), repr(t_spawn)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} child passed the run's deadline"}
        result_file = pass_dir / "result.json"
        if proc.returncode != 0 or not result_file.is_file():
            tail = (proc.stderr or "").strip().splitlines()[-3:]
            return {"error": f"{mode} child exited {proc.returncode}: "
                             + " | ".join(tail)}
        result = json.loads(result_file.read_text())
        shutil.rmtree(pass_dir, ignore_errors=True)
        return result


def summarize(samples: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    out = {"median": statistics.median(samples), "n": len(samples),
           "samples": samples}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1.0 - p / 100.0) >= 10.0:
            rank = max(1, -(-len(ordered) * p // 100))
            out[f"p{p:g}"] = ordered[int(rank) - 1]
            break
    return out


def git_rev(root: Path):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nozzleflow" / "__init__.py").is_file():
        print(f"error: no nozzleflow package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        print("error: references are stored for the default seed only",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed, args.size)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{tag}-{os.getpid()}"
    load_start = os.getloadavg()
    t_start = time.monotonic()
    kids = Children(args, inputs, run_dir, t_start + DEADLINE_S)
    setups, passes, traced = [], [], []
    try:
        t_passes = time.monotonic()
        while True:
            t_iter = time.monotonic()
            passes.append(kids.spawn("pass", 0))
            if args.trace:
                traced.append(kids.spawn("pass", 1))
            now = time.monotonic()
            # stop before a pass that, as long as the last one, would end
            # past --seconds or near the deadline
            if args.write_reference \
                    or now - t_passes + (now - t_iter) > args.seconds \
                    or now + 1.2 * (now - t_iter) >= kids.deadline:
                break
        # every pass child also sets up; top up to the set-up sample count
        if not args.trace and not args.write_reference:
            while len(setups) + len(passes) < SETUP_SAMPLES[args.size]:
                setups.append(kids.spawn("setup", 0))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    good = [r for r in passes if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    errors = [r["error"] for r in setups + passes + traced if "error" in r]
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if not good or (args.trace and not good_traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    op_names = wl.op_names(inputs)
    attempted = failed = 0
    failures = []
    for res in passes + traced:
        attempted += len(op_names)
        if "error" in res:
            failed += len(op_names)
            continue
        for name, op in res["ops"].items():
            if not op["ok"]:
                failed += 1
                failures.append(f"{name}: {'; '.join(op['why'])}")

    if args.write_reference:
        if failed:
            print("error: outputs failed their checks; reference not stored:\n  "
                  + "\n  ".join(failures), file=sys.stderr)
            return 1
        gate.store_reference(args.size, args.workload, good[0]["values"])

    wall = summarize([r["wall_s"] for r in good])
    wall_ref = summarize([r["wall_ref_s"] for r in good])
    calibration = summarize([c for r in good for c in r["calibration_s"]])
    set_ups = [r for r in setups + passes if "error" not in r]
    setup = summarize([r["setup_s"] for r in set_ups])
    setup_plain = summarize([r["setup_plain_s"] for r in set_ups])
    rss = summarize([r["peak_rss_mb"] for r in good])
    lines = [f"perfbench {args.workload} size={args.size} seed={args.seed} "
             f"trace={args.trace}: {len(good)} untraced pass(es)"]
    if args.trace:
        metrics, extra = _layer_report(good, good_traced, wall, lines)
    else:
        metrics = {"wall_ref_s": wall_ref["median"],
                   "setup_s": setup["median"], "peak_rss_mb": rss["median"]}
        extra = {}
        for name, summ, unit in (
                ("wall_ref_s", wall_ref, "s"), ("wall_s", wall, "s"),
                ("setup_s", setup, "s"), ("setup_plain_s", setup_plain, "s"),
                ("peak_rss_mb", rss, "MiB"), ("calibration", calibration, "s")):
            pct = [f"{k} {v:.6g}" for k, v in summ.items() if k[0] == "p"]
            lines.append(f"  {name:<13} {summ['median']:.6g} {unit}"
                         f"  (median of {summ['n']}; "
                         + (", ".join(pct) if pct else
                            "no percentile has 10 samples beyond it") + ")")
    lines.append(f"  failed_frac   {failed / attempted:.6g} 1  "
                 f"({failed} of {attempted} operations failed)")
    for msg in failures[:10]:
        lines.append(f"    FAILED {msg}")

    record = {
        "git_rev": git_rev(ROOT), "source_sha256": source_digest(ROOT),
        **good[0]["versions"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_ENV,
        "cpu": "unpinned; the benchmark changes no machine setting",
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "run_s": time.monotonic() - t_start,
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
        "samples": {"setup": setup["n"], "passes": len(good),
                    "traced_passes": len(good_traced)},
    }
    results = {"record": record, "metrics": metrics,
               "end_to_end": {"wall_ref_s": wall_ref, "wall_s": wall,
                              "calibration_s": calibration,
                              "setup_s": setup, "setup_plain_s": setup_plain,
                              "peak_rss_mb": rss,
                              "failed_frac": failed / attempted},
               "attempted": attempted, "failed": failed, "failures": failures,
               "errors": errors, **extra}
    OUT.mkdir(exist_ok=True)
    results_file = OUT / f"results-{tag}.json"
    results_file.write_text(json.dumps(results, indent=1) + "\n")
    lines.append(f"  results: {results_file.relative_to(ROOT)}")
    print("\n".join(lines))
    units = {**END_TO_END, **{k: v[0] for k, v in spans.LAYER_METRICS.items()},
             "trace.overhead_s": "s"}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def _layer_report(good, good_traced, wall, lines):
    """Per-layer medians over traced passes, with absences and overhead."""
    metrics, absent = {}, []
    for name in spans.LAYER_METRICS:
        vals = [r["layers"][name] for r in good_traced]
        if any(v is None for v in vals):
            absent.append(name)
            metrics[name] = 0.0
        else:
            metrics[name] = statistics.median(vals)
    traced_wall = statistics.median(r["wall_s"] for r in good_traced)
    metrics["trace.overhead_s"] = traced_wall - wall["median"]
    lines.append(f"  per-layer metrics, median of {len(good_traced)} traced "
                 "pass(es):")
    for name, val in metrics.items():
        unit = spans.LAYER_METRICS.get(name, ("s",))[0]
        shown = "absent" if name in absent else f"{val:.6g} {unit}"
        lines.append(f"    {name:<32} {shown}")
    lines.append(f"  traced wall_s {traced_wall:.6g} s, untraced "
                 f"{wall['median']:.6g} s: overhead "
                 f"{metrics['trace.overhead_s']:.4g} s")
    lines.append(f"  top-level spans cover {100 * metrics['trace.coverage']:.2f} % "
                 f"of traced wall_s; uncovered remainder "
                 f"{metrics['trace.uncovered_s']:.4g} s")
    table = good_traced[0]["self_times"]
    lines.append("  self time by span (first traced pass):")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"    {name:<32} {row['self_s']:9.4f} s self, "
                     f"{row['total_s']:9.4f} s total, {row['calls']} calls")
    return metrics, {"absent": absent, "self_times": table,
                     "traced_wall_s": traced_wall,
                     "untraced_wall_s": wall["median"]}


if __name__ == "__main__":
    raise SystemExit(main())
