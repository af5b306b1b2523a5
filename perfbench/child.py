"""One fresh benchmark process: set up, optionally run one pass, report.

Usage (started by run.py, one at a time):

    python3 child.py <pass_dir> <setup|pass> <trace 0|1> <spawn time>

``spawn time`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is system-wide on Linux, so set-up time counts
the interpreter start and every import.  It is rescaled to the reference
host speed like a pass (speed.py).  The result goes to
``<pass_dir>/result.json``.
"""

from __future__ import annotations

import contextlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

import gate
import spans
import speed
import workloads


def main(argv) -> int:
    pass_dir, mode, trace, t_spawn = Path(argv[0]), argv[1], argv[2] == "1", \
        float(argv[3])
    cal_start = speed.calibrate()   # numpy came in with speed
    spec = json.loads((pass_dir / "inputs.json").read_text())
    root = Path(spec["root"])
    nf = workloads.Modules()
    nf_file = Path(nf.package.__file__).resolve()
    if root / "src" not in nf_file.parents:
        raise SystemExit(f"nozzleflow imported from {nf_file}, not {root / 'src'}")
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[spec["workload"]]
    inputs = spec["inputs"]
    state = wl.setup(nf, inputs, pass_dir)
    setup_plain_s = time.monotonic() - t_spawn - cal_start
    result = {"setup_plain_s": setup_plain_s,
              "setup_s": speed.rescale(setup_plain_s, cal_start,
                                       speed.calibrate())}
    if mode == "pass":
        result.update(_one_pass(wl, state, inputs, spec, tracer))
        if tracer is not None:
            tracer.dump(pass_dir / "spans.jsonl")
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0 - speed.RESIDENT_MIB
        result["versions"] = _versions(nf)
    (pass_dir / "result.json").write_text(json.dumps(result))
    return 0


def _one_pass(wl, state, inputs, spec, tracer) -> dict:
    if tracer is not None:
        tracer.clear()

    def check():
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.block("bench.check")

    # untraced passes are timed in calibrated segments (speed.py); traced
    # passes are not, so that no span holds calibration time
    clock = speed.SpeedClock() if tracer is None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with clock:
        values, problems = wl.run_pass(state, check)
        with check():
            ops = _gate(wl, inputs, spec, values, problems)
    elapsed = time.perf_counter() - t0
    out = {"ops": ops, "values": values}
    if tracer is None:
        out.update(wall_s=clock.wall_s, wall_ref_s=clock.wall_ref_s,
                   calibration_s=clock.cals)
    else:
        out.update(wall_s=elapsed,
                   layers=spans.layer_metrics(tracer, elapsed),
                   self_times=spans.self_time_table(tracer),
                   absent=sorted(tracer.absent))
    return out


def _gate(wl, inputs, spec, values, problems) -> dict:
    """Per operation: ok flag and the reasons it failed."""
    ref = {} if spec["write_reference"] else gate.load_reference(
        spec["size"], spec["workload"])
    if spec["corrupt_reference"]:
        ref = gate.corrupt(ref)
    compare = wl.op_names(inputs) if spec["seed"] == workloads.DEFAULT_SEED \
        else wl.seed_free(inputs)
    ops = {}
    for name in wl.op_names(inputs):
        why = list(problems.get(name, ["not run"]))
        if name not in values and not why:
            why.append("no outputs")
        if name in compare and not spec["write_reference"] and name in values:
            if name not in ref:
                why.append("no stored reference")
            else:
                why += gate.mismatches(values[name], ref[name], name)
        ops[name] = {"ok": not why, "why": why[:5]}
    return ops


def _versions(nf) -> dict:
    import scipy

    np = nf.np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
