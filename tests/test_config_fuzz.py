"""Generated config texts through ``RunConfig`` and ``nozzleflow check``.

Every bad input must end as a ConfigError (or another package error) and
exit code 2, never as a traceback (ROADMAP aim 3), and no input may make
numpy warn: the test runs with RuntimeWarning as an error.  The texts mix
known and unknown keys with non-finite, extreme and huge values; ``check``
parses and validates the config and certifies its ladder, and runs
nothing.  The explicit examples are configs that once ended in a traceback
or a numpy warning.
"""

import contextlib
import dataclasses
import io

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nozzleflow import cli
from nozzleflow.errors import NozzleflowError
from nozzleflow.geometry import PROFILES
from nozzleflow.harness import RunConfig

KEYS = sorted(f.name for f in dataclasses.fields(RunConfig)
              if f.name not in ("output_dir", "profile_file"))
WORDS = (["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e-300", "0",
          "-0", "-1", "1", "2", "0.5", "1e-7", "1e9", "99999999999999999999",
          "-99999999999999999999", "true", "no", "", "none", "x"]
         + sorted(PROFILES) + ["dirichlet_nozzle", "dirichlet_spherical",
                               "neumann_spherical", "riemann", "bump"])
VALUES = st.one_of(st.sampled_from(WORDS),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.integers(-2 ** 70, 2 ** 70).map(str))
LINES = st.lists(st.tuples(
    st.one_of(st.sampled_from(KEYS), st.sampled_from(KEYS),
              st.from_regex(r"[a-z_0]{1,6}", fullmatch=True)), VALUES),
    max_size=4)


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=LINES)
@example(lines=[("n_eps", "100000000")])
@example(lines=[("profile", "spherical"), ("bc", "neumann_spherical"),
                ("profile_n", "1000000")])
@example(lines=[("dx", "5e-324")])
@example(lines=[("gamma", "1e308")])
@example(lines=[("profile", "exponential"), ("profile_rate", "1e308")])
@example(lines=[("profile", "gaussian_bump"), ("profile_amp", "1e308")])
@example(lines=[("profile", "power_law_closing"), ("profile_alpha", "1e308")])
@example(lines=[("profile", "exponential"), ("profile_rate", "700")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_config_texts_end_in_an_exit_code_not_a_traceback(tmp_path, lines):
    path = tmp_path / "fuzz.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in lines)
                    + f"output_dir = {tmp_path / 'out'}\n")
    try:
        RunConfig.from_file(path)
    except NozzleflowError:
        pass
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not (tmp_path / "out").exists()
