import os
import subprocess
import sys

import numpy as np
import pytest

import dereverb
from dereverb.errors import ArgumentError, SingularBandError
from dereverb.numerics import solve_hpd
from helpers import (NormalEquations, accumulate_batch,
                     accumulate_normal_equations)


def _random_terms(rng, count, dim):
    terms = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        t = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w = float(rng.uniform(0.1, 2.0))
        terms.append((v, t, w))
    return terms


def _gaussian_elimination(A, b):
    """Independent complex solver: partial-pivot elimination."""
    A = np.array(A, dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    n = len(b)
    for col in range(n):
        pivot = col + np.argmax(np.abs(A[col:, col]))
        A[[col, pivot]] = A[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n, dtype=np.complex128)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def test_single_term_expansion():
    ne = accumulate_normal_equations([(np.array([1.0, 1j]), 2.0, 1.0)])
    assert np.allclose(ne.Z, [[1.0, -1j], [1j, 1.0]])
    # q_m = v_m * conj(target): the second entry is i * 2 = 2i
    assert np.allclose(ne.q, [2.0, 2j])


def test_empty_sequence():
    ne = accumulate_normal_equations([], size=3)
    assert np.all(ne.Z == 0) and np.all(ne.q == 0)


def test_accumulate_matches_extended_precision_sum():
    rng = np.random.default_rng(0)
    dim = 4
    terms = _random_terms(rng, 100, dim)
    ne = accumulate_normal_equations(terms)
    Z = np.zeros((dim, dim), dtype=np.complex256)
    q = np.zeros(dim, dtype=np.complex256)
    for v, t, w in terms:
        v = v.astype(np.complex256)
        Z += np.outer(v, v.conj()) / w
        q += v * np.conj(t) / w
    assert np.max(np.abs(ne.Z - Z.astype(np.complex128))) < 1e-12 * np.max(np.abs(Z))
    assert np.max(np.abs(ne.q - q.astype(np.complex128))) < 1e-12 * np.max(np.abs(q))


def test_batch_matches_sequence_path():
    rng = np.random.default_rng(1)
    terms = _random_terms(rng, 30, 5)
    seq = accumulate_normal_equations(terms)
    vectors = np.stack([t[0] for t in terms])
    targets = np.array([t[1] for t in terms])
    weights = np.array([t[2] for t in terms])
    batch = accumulate_batch(vectors, targets, weights)
    assert np.allclose(seq.Z, batch.Z, rtol=1e-12, atol=1e-12)
    assert np.allclose(seq.q, batch.q, rtol=1e-12, atol=1e-12)


def test_zero_weight_rejected():
    with pytest.raises(ArgumentError):
        accumulate_normal_equations([(np.array([1.0]), 1.0, 0.0)])
    with pytest.raises(ArgumentError):
        accumulate_normal_equations([(np.array([1.0]), 1.0, -1.0)])


def test_solve_identity_system():
    ne = NormalEquations(np.eye(2), np.array([3.0, 4j]))
    w = solve_hpd(ne.Z, ne.q, loading=0.0)
    assert np.allclose(w, [3.0, 4j])


def test_solve_diagonal_system():
    ne = NormalEquations(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    w = solve_hpd(ne.Z, ne.q, loading=0.0)
    assert np.allclose(w, [1.0, 1.0])


def test_solve_random_hpd_vs_elimination_oracle():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    Z = A @ A.conj().T + 8 * np.eye(8)
    Z = 0.5 * (Z + Z.conj().T)
    q = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w = solve_hpd(Z, q, loading=0.0)
    assert np.linalg.norm(Z @ w - q) / np.linalg.norm(q) < 1e-10
    oracle = _gaussian_elimination(Z, q)
    assert np.allclose(w, oracle, rtol=1e-8, atol=1e-10)


def test_solve_reads_only_the_lower_triangle():
    rng = np.random.default_rng(6)
    ne = accumulate_normal_equations(_random_terms(rng, 30, 6))
    lower_only = ne.Z.copy()
    lower_only[np.triu_indices(6, 1)] = np.nan
    assert np.array_equal(solve_hpd(lower_only, ne.q),
                          solve_hpd(ne.Z, ne.q))


def test_zero_system_returns_zero():
    ne = accumulate_normal_equations([], size=4)
    assert np.all(solve_hpd(ne.Z, ne.q) == 0)


def test_zero_matrix_nonzero_rhs_raises():
    ne = NormalEquations(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(SingularBandError):
        solve_hpd(ne.Z, ne.q)


def test_indefinite_matrix_raises():
    with pytest.raises(SingularBandError, match="Cholesky"):
        solve_hpd(np.diag([2.0, -1.0]).astype(complex), np.ones(2, complex))


def test_minimizer_property():
    rng = np.random.default_rng(3)
    terms = _random_terms(rng, 40, 3)
    ne = accumulate_normal_equations(terms)
    w_star = solve_hpd(ne.Z, ne.q, loading=0.0)

    def cost(w):
        return sum(abs(t - np.vdot(w, v)) ** 2 / lam for v, t, lam in terms)

    base = cost(w_star)
    for _ in range(20):
        dw = 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert cost(w_star + dw) >= base - 1e-10


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    terms = _random_terms(rng, 25, 4)
    ne1 = accumulate_normal_equations(terms)
    rng.shuffle(terms)
    ne2 = accumulate_normal_equations(terms)
    w1 = solve_hpd(ne1.Z, ne1.q)
    w2 = solve_hpd(ne2.Z, ne2.q)
    assert np.allclose(w1, w2, rtol=1e-10, atol=1e-12)


def test_hermitian_enforced():
    rng = np.random.default_rng(5)
    terms = _random_terms(rng, 50, 6)
    ne = accumulate_normal_equations(terms)
    assert np.max(np.abs(ne.Z - ne.Z.conj().T)) == 0.0


# Run in a fresh interpreter with src/ first on the path (argv[1]): solve()
# runs WPE on seeded two-channel noise and returns a digest of the estimate
# and filters; scipy_modules() lists the scipy modules loaded so far.
_SOLVE = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from dereverb.signals import MultichannelTimeSignal, TimeSignal
from dereverb.stft import analyze_multichannel
from dereverb.wpe import WpeParams, run_wpe
noise = np.random.default_rng(0).standard_normal((2, 8000))
observed = analyze_multichannel(
    MultichannelTimeSignal(tuple(TimeSignal(x, 16000) for x in noise)))
def solve():
    estimate, bank, _ = run_wpe(observed, WpeParams(filter_order=3,
                                                    iterations=2))
    return hashlib.sha256(estimate.values.tobytes()
                          + bank.weights.tobytes()).hexdigest()
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def _run_fresh(code, *args):
    src = os.path.dirname(os.path.dirname(dereverb.__file__))
    return subprocess.run(
        [sys.executable, "-c", _SOLVE + code, src, *args], check=True,
        capture_output=True, text=True, timeout=60).stdout.splitlines()


def test_scipy_linalg_imported_after_a_solve_reuses_the_loaded_modules():
    lines = _run_fresh("""
solve()
print(scipy_modules())
from dereverb.numerics import scipy_linalg_module
import scipy.linalg
fblas = scipy_linalg_module("_fblas")
flapack = scipy_linalg_module("_flapack")
print(scipy.linalg.blas.zherk is fblas.zherk,
      scipy.linalg.blas.zgemv is fblas.zgemv,
      scipy.linalg.lapack.zpotrf is flapack.zpotrf,
      scipy.linalg.lapack.zpotrs is flapack.zpotrs,
      scipy.linalg.get_blas_funcs("herk", dtype=complex) is fblas.zherk)
""")
    assert lines == ["['scipy.linalg._fblas', 'scipy.linalg._flapack']",
                     "True True True True True"]


def test_scipy_linalg_module_falls_back_to_the_normal_import(tmp_path):
    direct = _run_fresh("print(solve(), 'scipy.linalg' in sys.modules)")
    # scipy's package directory pointed at an empty one: no extension file.
    fallback = _run_fresh("""
import importlib.util, types
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *args: (
    types.SimpleNamespace(submodule_search_locations=[sys.argv[2]])
    if name == "scipy" else find_spec(name, *args))
print(solve(), 'scipy.linalg' in sys.modules)
""", str(tmp_path))
    digest, loaded = direct[0].split()
    assert loaded == "False"
    assert fallback == [f"{digest} True"]
