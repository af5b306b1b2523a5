"""Command-line entry points: run, sweep, check, entropy-table."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .entropy import GENERATOR_FACTORIES, get_kernel
from .errors import ConfigError, NozzleflowError
from .harness import (RunConfig, single_run, sweep, write_outputs,
                      write_sweep_outputs)
from .schedule import certificate_summary
from .thermo import GasLaw

CHECK_LINE = "  check {name}: {check}"
# the most (rho, u) states an entropy table may hold: n^2 rows of about 60
# bytes, as many as a rung's final CSV may have (harness.MAX_NODES)
MAX_TABLE_STATES = 1 << 23


def _cmd_run(args) -> int:
    cfg = RunConfig.from_file(args.config)
    result = single_run(cfg, label="run")
    text = "\n".join([f"run finished at t={result.field.t:g} "
                      f"(eps={result.eps:g}, delta={result.g.delta:g})"]
                     + result.report.check_lines(CHECK_LINE))
    write_outputs(cfg, {"": result}, text)
    print(text)
    return 0 if result.report.passed else 1


def _cmd_sweep(args) -> int:
    cfg = RunConfig.from_file(args.config)
    result = sweep(cfg)
    out = write_sweep_outputs(result, cfg)
    print(result.summary())
    print(f"outputs in {out}")
    return 0 if result.passed else 1


def _cmd_check(args) -> int:
    cfg = RunConfig.from_file(args.config)
    cert = cfg.certify_ladder(cfg.build_profile())
    print(certificate_summary(cert))
    ok = cert.passed
    if args.with_run:
        result = single_run(cfg, label="check", collect_snapshots=False)
        print("\n".join(result.report.check_lines(CHECK_LINE)))
        ok = ok and result.report.passed
    return 0 if ok else 1


def _cmd_entropy_table(args) -> int:
    if not (args.n >= 1 and 0.0 < args.rho_max < math.inf
            and 0.0 <= args.u_max < math.inf):
        raise ConfigError("entropy-table needs --n >= 1, a finite --rho-max > 0 "
                          f"and a finite --u-max >= 0, got --n {args.n}, "
                          f"--rho-max {args.rho_max}, --u-max {args.u_max}")
    if args.n ** 2 > MAX_TABLE_STATES:
        raise ConfigError(f"entropy-table --n {args.n} gives {args.n ** 2} "
                          f"states, above the limit of {MAX_TABLE_STATES}")
    g = GasLaw(args.gamma)
    factory = GENERATOR_FACTORIES.get(args.generator)
    if factory is None:
        raise ConfigError(f"unknown generator {args.generator!r}; choose from "
                          f"{sorted(GENERATOR_FACTORIES)}")
    gen = factory()
    kern = get_kernel(g)
    rho = np.linspace(args.rho_max / args.n, args.rho_max, args.n)
    u = np.linspace(-args.u_max, args.u_max, args.n)
    rr, uu = np.meshgrid(rho, u, indexing="ij")
    eta, q = kern.pair(gen, rr, rr * uu)
    np.savetxt(args.out or sys.stdout,
               np.column_stack([a.ravel() for a in (rr, uu, eta, q)]),
               fmt=["%.10g", "%.10g", "%.12g", "%.12g"], delimiter=",",
               header=f"# gamma={args.gamma:g} generator={args.generator}\n"
                      "rho,u,eta,q", comments="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nozzleflow",
        description="viscous quasi-1D compressible flow laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single solver run from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="viscosity-ladder sweep")
    p_sweep.add_argument("config")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="certify the ladder (and optionally "
                                           "run the inequality checks)")
    p_check.add_argument("config")
    p_check.add_argument("--with-run", action="store_true",
                         help="also run the solver and evaluate its checks")
    p_check.set_defaults(func=_cmd_check)

    p_tab = sub.add_parser("entropy-table",
                           help="CSV table of (rho, u, eta, q) for a generator")
    p_tab.add_argument("--gamma", type=float, required=True)
    p_tab.add_argument("--generator", default="half_square")
    p_tab.add_argument("--rho-max", type=float, default=2.0)
    p_tab.add_argument("--u-max", type=float, default=2.0)
    p_tab.add_argument("--n", type=int, default=16)
    p_tab.add_argument("--out", default=None)
    p_tab.set_defaults(func=_cmd_entropy_table)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NozzleflowError, OSError) as err:  # OSError: a file it cannot use
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
