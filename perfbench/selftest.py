"""Self-test of the benchmark at tiny sizes; exits 0 when every check holds.

    python3 perfbench/selftest.py

For every workload it checks that an untraced smoke run prints every
end-to-end metric of BENCHMARK.json with its unit and passes the gate; that
a traced run prints every per-layer metric, and that its top-level spans
cover nearly all of the traced wall time; that a run on another seed passes;
and that a deliberately corrupted reference value makes the gate fail.  It
also checks that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_COVERAGE = 0.95


def run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--size", "smoke",
           "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for w in (wl["name"] for wl in bench["workloads"]):
        for label, trace, units in (("untraced", "0", e2e),
                                    ("traced", "1", layers)):
            proc, res = run("--workload", w, "--trace", trace)
            expect(res is not None, f"{w} {label}: exit 0 with a result line "
                   f"{proc.stderr.strip()[-200:]}")
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} {label}: result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units, f"{w} {label}: every metric with its unit")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{w} {label}: gate passes")
            if label == "traced":
                cov = res["metrics"]["trace.coverage"]["value"]
                expect(cov >= MIN_COVERAGE,
                       f"{w}: top-level spans cover {cov:.3f} of traced wall_s")
        _, res = run("--workload", w, "--seed", "7")
        expect(res is not None and res["correct"], f"{w}: seed 7 passes")
        _, res = run("--workload", w, "--corrupt-reference")
        expect(res is not None and not res["correct"] and res["failed"] > 0,
               f"{w}: corrupted reference drives failed_frac above 0")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, _ = run("--workload", "small_steps", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package sources: non-zero exit and no result")

    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
