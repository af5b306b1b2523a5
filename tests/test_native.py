"""The package's LAPACK routines come from scipy's compiled ``_flapack``
module without ``scipy.linalg``'s package init, and give what scipy's own
calls give; importing the package keeps freed heap pages resident."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from nozzleflow import _native, entropy, solver
from nozzleflow.entropy import gauss_jacobi
from nozzleflow.errors import DomainError, SolverError

SRC = os.path.dirname(os.path.dirname(_native.__file__))


def _python(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter that imports the package
    from this source tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


# a = b takes the eigenvalues of half of T^2; 99.5 and 199.5 are the kernel
# exponents near gamma 1 (gamma 1.01 and 1.005)
@pytest.mark.parametrize("a,b", [(0.5, 0.5), (-1 / 3, -1 / 3), (0.5, -0.3),
                                 (2.0, -0.7), (99.5, 99.5), (199.5, 199.5)])
@pytest.mark.parametrize("n", [1, 2, 3, 20, 64, 4096])
def test_gauss_jacobi_eigenvalues_are_scipys_bit_for_bit(monkeypatch, n, a, b):
    calls = []
    real = entropy._tridiagonal_eigvals

    def spy(d, e):
        calls.append((d.copy(), e.copy(), real(d, e)))
        return calls[-1][2]
    monkeypatch.setattr(entropy, "_tridiagonal_eigvals", spy)
    gauss_jacobi(n, a, b)
    (d, e, w), = calls
    ref = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="stevd")
    assert w.dtype == ref.dtype and np.array_equal(w, ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tridiagonal_eigvals_refuse_a_non_finite_matrix(bad):
    with pytest.raises(DomainError):
        entropy._tridiagonal_eigvals(np.array([1.0, bad, 2.0]), np.ones(2))
    with pytest.raises(DomainError):
        entropy._tridiagonal_eigvals(np.ones(3), np.array([bad, 1.0]))


@pytest.mark.parametrize("n", [2, 9, 1000])
def test_tridiag_solve_is_scipys_dgtsv(n):
    rng = np.random.default_rng(n)
    dl, du = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1)
    d, b = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    *_, ref, info = scipy.linalg.lapack.dgtsv(dl, d, du, b)
    assert info == 0
    x = solver._tridiag_solve(dl, d, du, b)
    assert np.array_equal(x, ref)
    with pytest.raises(SolverError):
        solver._tridiag_solve(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1), b)


def test_scipy_linalg_imported_later_shares_the_module():
    out = _python(
        "import sys, nozzleflow; from nozzleflow import _native\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg.lapack as lapack\n"
        "print(_native.flapack_from_file, lapack._flapack is _native.flapack,\n"
        "      lapack.dgtsv is _native.flapack.dgtsv,\n"
        "      lapack.dstevd is _native.flapack.dstevd)")
    assert out.split() == ["True"] * 4


def test_a_directory_without_the_extension_takes_the_fallback(tmp_path):
    module, from_file = _native.load_flapack(str(tmp_path))
    assert not from_file
    assert module is _native.flapack
    assert module.dgtsv is scipy.linalg.lapack.dgtsv
    assert module.dstevd is scipy.linalg.lapack.dstevd


# a small lockstep sweep, four rungs to eps = 0.0125 on 1/256 cells, whose
# rows pass 128 KiB: with glibc's own dynamic thresholds its first run takes
# about as many faults as at the fixed defaults
_SWEEP = """
import ctypes, resource
from nozzleflow import _native
from nozzleflow.harness import RunConfig, sweep
cfg = RunConfig.from_mapping(dict(
    gamma=2.0, profile="constant", bc="dirichlet_nozzle", rho_minus=1.0,
    u_minus=0.75, rho_plus=0.125, u_plus=0.0, init="riemann", blend_width=1.0,
    t_end=0.5, dx=1 / 256, eps0=0.1, n_eps=4, snapshots=9, window_lo=-1.0,
    window_hi=1.0, workers=1, check_riemann=False))

def faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep(cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallopt"):
    raise SystemExit(print("no mallopt"))
kept = faults()
mallopt = libc.mallopt
# glibc's defaults, 128 KiB each
mallopt(_native.M_TRIM_THRESHOLD, 128 << 10)
mallopt(_native.M_MMAP_THRESHOLD, 128 << 10)
print(_native.heap_thresholds_set, kept, faults())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc mallopt")
def test_freed_rows_are_not_faulted_in_again():
    out = _python(_SWEEP)
    if out == "no mallopt\n":
        pytest.skip("the C library has no mallopt")
    set_, kept, trimmed = out.split()
    assert set_ == "True"
    assert 4 * int(kept) < int(trimmed), (kept, trimmed)
