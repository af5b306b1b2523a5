"""The lockstep sweep against the rung-by-rung march of ``plain_step.py``.

A sweep steps all its rungs through one ``march``:
each lockstep step lays every rung's window end to end on one ragged row
and solves every rung's implicit systems in one tridiagonal call.  The
oracle marches the rungs one after another, each step on that rung alone
with one solve per row, as the package did before.  Both must give the
same sweep bit for bit: fields, snapshots, every series and check, the
distances and verdicts, and the step counters.  A rung that fails in the
middle of the march must fail alone, with the text a lone run gives, and
leave the others as the oracle has them.
"""

import numpy as np
import pytest

import plain_step
from nozzleflow import diagnostics, harness, solver
from nozzleflow.errors import (CavitationError, ConfigError, NonFiniteError,
                               SolverError)
from nozzleflow.geometry import ConstantProfile
from nozzleflow.harness import RunConfig, sweep, write_sweep_outputs
from nozzleflow.solver import (BoundarySpec, FluidField, Grid, Rung,
                               SolverContext, advance, march, run)
from nozzleflow.thermo import GasLaw


def _acceptance(gamma: float, **over) -> dict:
    # the acceptance sweeps' configuration; weak residuals read only the
    # snapshots, which are compared
    return dict(gamma=gamma, profile="constant", bc="dirichlet_nozzle",
                rho_minus=1.0, rho_plus=0.125, u_minus=0.75, u_plus=0.0,
                init="riemann", blend_width=1.0, t_end=0.5, dx=1.0 / 128.0,
                eps0=0.1, n_eps=6, snapshots=97, window_lo=-1.0,
                window_hi=1.0, workers=1, check_riemann=False, **over)


LADDERS = {
    "acceptance[gamma=2]": _acceptance(2.0),
    "acceptance[gamma=5]": _acceptance(5.0),
    # no far state at the axis end: every window reaches the mirrored
    # ghosts and the axis slope
    "neumann_spherical": dict(
        gamma=2.0, profile="spherical", profile_n=3, bc="neumann_spherical",
        init="bump", init_amp=1.0, init_center=2.0, init_width=1.0,
        mollify_width=0.0, blend_width=0.5, t_end=0.25, dx=1.0 / 32.0,
        eps0=0.1, n_eps=3, snapshots=17, window_lo=0.5, window_hi=4.0,
        check_quartic=True, workers=1),
    # inflow on a bump: no far state at the left end, so each window is
    # the grid up to the flow, of another size on every rung
    "gaussian_bump_inflow": dict(
        gamma=2.0, profile="gaussian_bump", bc="dirichlet_nozzle",
        rho_minus=1.0, rho_plus=0.125, u_minus=0.75, u_plus=0.0,
        init="riemann", blend_width=1.0, t_end=0.25, dx=1.0 / 32.0,
        eps0=0.1, n_eps=3, snapshots=17, window_lo=-1.0, window_hi=1.0,
        workers=1, check_riemann=True),
}

# a small ladder for the failure cases
TINY = dict(gamma=2.0, profile="constant", bc="dirichlet_nozzle",
            rho_minus=1.0, rho_plus=0.125, u_minus=0.75, u_plus=0.0,
            init="riemann", blend_width=1.0, t_end=0.25, dx=1.0 / 32.0,
            eps0=0.1, n_eps=4, snapshots=17, window_lo=-1.0, window_hi=1.0,
            workers=1, check_riemann=False)


def _oracle(mp):
    """Sweep rung by rung from here on."""
    mp.setattr(harness, "march", plain_step.march)


def _assert_same_run(a, b):
    assert a.label == b.label
    fa, fb = a.field.whole(), b.field.whole()
    assert fa.t == fb.t
    assert fa.rho.tobytes() == fb.rho.tobytes()
    assert fa.m.tobytes() == fb.m.tobytes()
    ra, rb = a.report, b.report
    assert sorted(ra.series) == sorted(rb.series)
    for name, series in ra.series.items():
        assert series.tobytes() == rb.series[name].tobytes(), name
    assert {k: (c.value, c.bound) for k, c in ra.checks.items()} == \
        {k: (c.value, c.bound) for k, c in rb.checks.items()}
    for name in ("t", "rho", "m"):
        assert getattr(ra.snapshots, name).tobytes() == \
            getattr(rb.snapshots, name).tobytes(), name
    for name in ("cells_advanced", "undershoots", "hull"):
        assert getattr(ra, name) == getattr(rb, name), name


def _assert_same_sweep(a, b):
    assert a.failures == b.failures
    assert len(a.runs) == len(b.runs)
    for ra, rb in zip(a.runs, b.runs):
        _assert_same_run(ra, rb)
    assert sorted(a.series) == sorted(b.series)
    for name, series in a.series.items():
        assert series.tobytes() == b.series[name].tobytes(), name
    assert {k: (c.value, c.bound) for k, c in a.checks.items()} == \
        {k: (c.value, c.bound) for k, c in b.checks.items()}
    assert a.notes == b.notes and a.passed == b.passed
    assert a.summary() == b.summary()


def _counted(mp) -> dict:
    """Count from here on the ``advance`` calls, the merged solves and the
    rows that hold more than one block."""
    calls = {"advance": 0, "solve": 0, "shared": 0}
    step, solve, row = solver.advance, solver._tridiag_solve, solver._step_row

    def counted_step(*args, **kwargs):
        calls["advance"] += 1
        return step(*args, **kwargs)

    def counted_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    def counted_row(blocks, *args):
        calls["shared"] += len(blocks) > 1
        return row(blocks, *args)

    mp.setattr(solver, "advance", counted_step)
    mp.setattr(solver, "_tridiag_solve", counted_solve)
    mp.setattr(solver, "_step_row", counted_row)
    return calls


@pytest.mark.parametrize("case", sorted(LADDERS))
def test_lockstep_sweep_matches_the_rung_by_rung_march(case, monkeypatch,
                                                       tmp_path):
    cfg = RunConfig.from_mapping(dict(LADDERS[case],
                                      output_dir=str(tmp_path / "lockstep")))
    with monkeypatch.context() as mp:
        calls = _counted(mp)
        lockstep = sweep(cfg)
    # one merged solve per lockstep step; on the gamma = 2 ladder every
    # rung takes 96 sample intervals of 3 steps, so the six rungs step
    # together 288 times, where rung by rung they solved 2 x 6 x 288 times
    assert calls["solve"] == calls["advance"]
    if case == "acceptance[gamma=2]":
        assert calls["advance"] == 288
    assert len(lockstep.runs) == cfg.n_eps and not lockstep.failures
    with monkeypatch.context() as mp:
        _oracle(mp)
        plain = sweep(cfg)
    _assert_same_sweep(lockstep, plain)
    if case == "acceptance[gamma=2]":  # and the files the sweep writes
        other = RunConfig.from_mapping(dict(LADDERS[case],
                                            output_dir=str(tmp_path / "plain")))
        out = [write_sweep_outputs(res, c) for res, c in ((lockstep, cfg),
                                                          (plain, other))]
        names = sorted(p.name for p in out[0].iterdir())
        assert names == sorted(p.name for p in out[1].iterdir())
        for name in names:
            assert (out[0] / name).read_bytes() == (out[1] / name).read_bytes()


def test_a_ladder_split_over_several_rows_matches_the_rung_by_rung_march(
        monkeypatch):
    # rows of at most 1500 columns: the bump ladder's windows, on grids of
    # 641, 1281 and 2561 nodes, take two rows a step, one of them shared
    cfg = RunConfig.from_mapping(LADDERS["gaussian_bump_inflow"])
    with monkeypatch.context() as mp:
        mp.setattr(solver, "ROW_NODES", 1500)
        calls = _counted(mp)
        split = sweep(cfg)
    assert calls["solve"] > calls["advance"] and calls["shared"] > 0
    assert len(split.runs) == cfg.n_eps and not split.failures
    with monkeypatch.context() as mp:
        _oracle(mp)
        plain = sweep(cfg)
    _assert_same_sweep(split, plain)


@pytest.mark.parametrize("key,value", [("gamma", 3.0), ("kappa", 2.0)])
def test_a_mixed_march_is_refused_before_any_rung_starts(key, value):
    # the rungs of one row share the gas law's gamma and kappa: a march of
    # rungs that do not is refused before any Recorder takes its t = 0 sample
    rungs = [harness.prepare_rung(RunConfig.from_mapping(over), 0.1, label)
             for over, label in ((TINY, "a"), (dict(TINY, **{key: value}), "b"))]
    assert getattr(rungs[0].g, key) != getattr(rungs[1].g, key)
    with pytest.raises(ConfigError, match="must share gamma and kappa"):
        march(rungs, TINY["t_end"])
    assert [r.hooks._taken for r in rungs] == [0, 0]


@pytest.mark.parametrize("how", ["raise", "poison"])
def test_a_rung_that_fails_mid_march_fails_alone(how, monkeypatch):
    # at its 5th sample the eps = 0.05 rung raises a package error, or has
    # its next stencil's first ghost set to NaN, so that its next explicit
    # stage is not finite and it must leave the merged solve
    cfg = RunConfig.from_mapping(TINY)
    sample, extend = diagnostics.Recorder.sample, solver._extend

    def run_with_fault():
        counts, poisoned = {}, set()

        def faulty_sample(rec, field, ctx):
            sample(rec, field, ctx)
            counts[ctx] = counts.get(ctx, 0) + 1
            if ctx.eps == 0.05 and counts[ctx] == 5:
                if how == "raise":
                    raise CavitationError("injected at the 5th sample")
                poisoned.add(ctx)

        def poisoned_extend(state, ctx, t, lo, hi, first, ve):
            extend(state, ctx, t, lo, hi, first, ve)
            if ctx in poisoned:
                ve[0] = np.nan

        with monkeypatch.context() as mp:
            mp.setattr(diagnostics.Recorder, "sample", faulty_sample)
            mp.setattr(solver, "_extend", poisoned_extend)
            return sweep(cfg)

    lockstep = run_with_fault()
    with monkeypatch.context() as mp:
        _oracle(mp)
        plain = run_with_fault()
    assert [eps for eps, _ in lockstep.failures] == [0.05]
    text = lockstep.failures[0][1]
    if how == "raise":
        assert text == "CavitationError: injected at the 5th sample"
    else:
        assert text.startswith("NonFiniteError: non-finite values after the "
                               "explicit stage [at t=")
    _assert_same_sweep(lockstep, plain)
    # the other rungs are the rungs of a sweep without the fault
    with monkeypatch.context() as mp:
        _oracle(mp)
        clean = sweep(cfg)
    for run in lockstep.runs:
        _assert_same_run(run, next(r for r in clean.runs if r.eps == run.eps))


def _context(eps: float, g: GasLaw = GasLaw(2.0, delta=1e-3)) -> SolverContext:
    grid = Grid(-1.0, 1.0, 16)
    x = grid.x
    rho = 1.0 - 0.25 * np.tanh(4.0 * x)
    field = FluidField(grid, rho, 0.1 * rho)
    bc = BoundarySpec.dirichlet_nozzle(rho[0], 0.1 * rho[0], rho[-1],
                                       0.1 * rho[-1])
    ctx = SolverContext(grid, g, ConstantProfile(), eps, bc)
    ctx.start(field)
    return ctx


def test_a_singular_implicit_system_fails_its_rung_alone():
    # eps dt = 2^-11 and a mass diagonal of 2^11 with no off-diagonal make
    # every interior pivot of that rung's mass system exactly 0
    dt = 2.0 ** -10

    def singular():
        ctx = _context(0.5)
        ctx.bands[:, 0] = np.array([[0.0], [2.0 ** 11], [0.0]])
        return ctx

    sound, bad = _context(0.25), singular()
    out = advance([sound, bad], [0.0, 0.0], [dt, dt])
    assert isinstance(out[1], SolverError)
    with pytest.raises(SolverError) as alone:
        plain_step.advance_window(singular(), 0.0, dt)
    assert str(out[1]) == str(alone.value)
    lone = _context(0.25)
    assert advance([lone], [0.0], [dt]) == [out[0]]
    assert sound.state.tobytes() == lone.state.tobytes()


@pytest.mark.parametrize("g", [GasLaw(3.0, delta=1e-3),
                               GasLaw(2.0, kappa=2.0, delta=1e-3)])
def test_advance_refuses_contexts_of_another_gas_law(g):
    # one row steps with the first context's gamma and kappa: contexts that
    # do not share them are refused before any state moves
    ctxs = [_context(0.25), _context(0.25, g)]
    held = [c.state.tobytes() for c in ctxs]
    with pytest.raises(ConfigError, match="must share gamma and kappa"):
        advance(ctxs, [0.0, 0.0], [2.0 ** -10] * 2)
    assert [c.state.tobytes() for c in ctxs] == held


def _rung(eps: float) -> Rung:
    ctx = _context(eps)
    return Rung(ctx.field(0.0), ctx.g, ctx.profile, eps, ctx.bc)


def test_a_rung_whose_implicit_stage_is_not_finite_fails_alone(monkeypatch):
    # the 3rd merged solve returns NaN on the first column of the row, the
    # first rung's: that rung ends with the step's error, the other is its
    # lone run
    solve, calls = solver._tridiag_solve, []

    def nan_first(*args):
        x = solve(*args)
        calls.append(len(x))
        if len(calls) == 3:
            x[0] = np.nan
        return x

    monkeypatch.setattr(solver, "_tridiag_solve", nan_first)
    bad, sound = march([_rung(0.5), _rung(0.25)], 0.25)
    assert len(calls) > 3 and calls[2] > calls[-1]  # both rungs in that row
    assert isinstance(bad, NonFiniteError)
    assert str(bad).startswith("non-finite values after the implicit stage "
                               "[at t=")
    monkeypatch.undo()
    r = _rung(0.25)
    field, report = run(r.field, r.g, r.profile, r.eps, r.bc, 0.25)
    assert (sound[0].t, sound[0].lo, sound[0].ends) == \
        (field.t, field.lo, field.ends)
    assert sound[0].rho.tobytes() == field.rho.tobytes()
    assert sound[0].m.tobytes() == field.m.tobytes()
    for name in ("cells_advanced", "undershoots", "hull"):
        assert getattr(sound[1], name) == getattr(report, name), name


def test_every_rung_past_the_step_limit_ends_and_the_march_returns(
        monkeypatch):
    monkeypatch.setattr(solver, "MAX_STEPS", 3)
    out = march([_rung(0.5), _rung(0.25)], 0.25)
    assert [type(r) for r in out] == [SolverError, SolverError]
    assert [str(r) for r in out] == ["exceeded 3 steps before t_end"] * 2
