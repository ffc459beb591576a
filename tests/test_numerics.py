import numpy as np
import pytest
from scipy.linalg import blas, lapack

from dereverb import numerics
from dereverb.errors import ArgumentError, SingularBandError
from dereverb.numerics import herk_lower, solve_hpd
from dereverb.stft import analyze_multichannel
from dereverb.wpe import WpeParams, run_wpe
from helpers import (NormalEquations, accumulate_batch,
                     accumulate_normal_equations, augmented_gram, make_scene)


def each_path(monkeypatch):
    """Runs the caller's loop body once on numpy's OpenBLAS, through ctypes,
    and once with numerics.openblas() patched to None, on matmul and
    np.linalg (the numpy path); yields the path's library or None."""
    for library in (numerics.openblas(), None):
        monkeypatch.setattr(numerics, "openblas",
                            lambda library=library: library)
        yield library


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


def test_solve_identity_system(monkeypatch):
    monkeypatch.setattr(numerics, "LOADING", 0.0)
    ne = NormalEquations(np.eye(2), np.array([3.0, 4j]))
    for _ in each_path(monkeypatch):
        w = solve_hpd(augmented_gram(ne.Z, ne.q))
        assert np.allclose(w, [3.0, 4j])


def test_solve_diagonal_system(monkeypatch):
    monkeypatch.setattr(numerics, "LOADING", 0.0)
    ne = NormalEquations(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    for _ in each_path(monkeypatch):
        w = solve_hpd(augmented_gram(ne.Z, ne.q))
        assert np.allclose(w, [1.0, 1.0])


def test_solve_random_hpd_vs_elimination_oracle(monkeypatch):
    monkeypatch.setattr(numerics, "LOADING", 0.0)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    Z = A @ A.conj().T + 8 * np.eye(8)
    Z = 0.5 * (Z + Z.conj().T)
    q = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    oracle = _gaussian_elimination(Z, q)
    for _ in each_path(monkeypatch):
        w = solve_hpd(augmented_gram(Z, q))
        assert np.linalg.norm(Z @ w - q) / np.linalg.norm(q) < 1e-10
        assert np.allclose(w, oracle, rtol=1e-8, atol=1e-10)


def test_solve_reads_only_the_lower_triangle(monkeypatch):
    rng = np.random.default_rng(6)
    ne = accumulate_normal_equations(_random_terms(rng, 30, 6))
    for _ in each_path(monkeypatch):
        lower_only = augmented_gram(ne.Z, ne.q)
        lower_only[np.triu_indices(7, 1)] = np.nan
        assert np.array_equal(solve_hpd(lower_only),
                              solve_hpd(augmented_gram(ne.Z, ne.q)))


def test_zero_system_returns_zero(monkeypatch):
    ne = accumulate_normal_equations([], size=4)
    for _ in each_path(monkeypatch):
        assert np.all(solve_hpd(augmented_gram(ne.Z, ne.q)) == 0)


def test_zero_matrix_nonzero_rhs_raises(monkeypatch):
    ne = NormalEquations(np.zeros((2, 2)), np.array([1.0, 0.0]))
    for _ in each_path(monkeypatch):
        with pytest.raises(SingularBandError, match="zero matrix"):
            solve_hpd(augmented_gram(ne.Z, ne.q))


def test_indefinite_matrix_raises(monkeypatch):
    for _ in each_path(monkeypatch):
        with pytest.raises(SingularBandError, match="Cholesky"):
            solve_hpd(augmented_gram(np.diag([2.0, -1.0]), np.ones(2)))


def test_solve_rejects_shapes_that_do_not_match():
    for shape in [(3, 2), (2, 3), (3,), (2, 2, 2)]:
        with pytest.raises(ArgumentError):
            solve_hpd(np.ones(shape, dtype=np.complex128, order="F"))


def test_solve_rejects_a_gram_of_the_wrong_dtype_or_order():
    gram = augmented_gram(np.eye(2), np.ones(2))
    for bad in [gram.real.copy("F"), gram.astype(np.complex64),
                np.ascontiguousarray(gram), gram[::2, ::2]]:
        with pytest.raises(ArgumentError):
            solve_hpd(bad)
    assert np.allclose(solve_hpd(gram), np.ones(2), rtol=1e-8)


def test_solve_a_target_that_its_regressors_predict_exactly(monkeypatch):
    """rows [x; t] with t = a^H x, no loading, and every step exact in
    floating point: Z = diag(4, 9, 16), and the augmented Gram's last
    pivot, c - q^H Z^-1 q, is exactly 0. Both paths still return w = a,
    as w does not depend on that entry, which solve_hpd raises by
    c + trace(Z) before the factorization."""
    monkeypatch.setattr(numerics, "LOADING", 0.0)
    x = np.zeros((3, 5), dtype=np.complex128)
    x[[0, 1, 2], [0, 1, 2]] = 2.0, 3.0, 4.0
    a = np.array([1 + 2j, -1j, 3.0])
    rows = np.vstack([x, a.conj() @ x])
    for _ in each_path(monkeypatch):
        gram = np.zeros((4, 4), dtype=np.complex128, order="F")
        herk_lower(rows, gram)
        assert gram[3, 3] == np.vdot(a, np.diag([4, 9, 16]) @ a)
        np.testing.assert_allclose(solve_hpd(gram), a, rtol=1e-15)


def test_minimizer_property(monkeypatch):
    monkeypatch.setattr(numerics, "LOADING", 0.0)
    rng = np.random.default_rng(3)
    terms = _random_terms(rng, 40, 3)
    ne = accumulate_normal_equations(terms)

    def cost(w):
        return sum(abs(t - np.vdot(w, v)) ** 2 / lam for v, t, lam in terms)

    for _ in each_path(monkeypatch):
        w_star = solve_hpd(augmented_gram(ne.Z, ne.q))
        base = cost(w_star)
        for _ in range(20):
            dw = 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            assert cost(w_star + dw) >= base - 1e-10


def test_permutation_invariance(monkeypatch):
    rng = np.random.default_rng(4)
    terms = _random_terms(rng, 25, 4)
    ne1 = accumulate_normal_equations(terms)
    rng.shuffle(terms)
    ne2 = accumulate_normal_equations(terms)
    for _ in each_path(monkeypatch):
        w1 = solve_hpd(augmented_gram(ne1.Z, ne1.q))
        w2 = solve_hpd(augmented_gram(ne2.Z, ne2.q))
        assert np.allclose(w1, w2, rtol=1e-10, atol=1e-12)


def test_hermitian_enforced():
    rng = np.random.default_rng(5)
    terms = _random_terms(rng, 50, 6)
    ne = accumulate_normal_equations(terms)
    assert np.max(np.abs(ne.Z - ne.Z.conj().T)) == 0.0


def test_solve_hpd_is_the_f2py_zpotrf_and_zpotrs(monkeypatch):
    """On both paths, solve_hpd from the augmented Gram is LAPACK's
    Cholesky solve of the loaded lower triangle of Z, as scipy's f2py
    zpotrf and zpotrs compute it."""
    rng = np.random.default_rng(31)
    ne = accumulate_normal_equations(_random_terms(rng, 60, 9))
    loaded = ne.Z + numerics.LOADING * np.trace(ne.Z).real / 9 * np.eye(9)
    factor, info = lapack.zpotrf(loaded, lower=1)
    expected, info_solve = lapack.zpotrs(factor, ne.q, lower=1)
    assert info == info_solve == 0
    for library in each_path(monkeypatch):
        np.testing.assert_allclose(solve_hpd(augmented_gram(ne.Z, ne.q)),
                                   expected,
                                   rtol=1e-13 if library else 1e-10)


def test_herk_lower_is_the_f2py_zherk_with_and_without_scipy_openblas(
        monkeypatch):
    rng = np.random.default_rng(30)
    rows = rng.standard_normal((7, 40)) + 1j * rng.standard_normal((7, 40))
    expected = blas.zherk(1.0, rows.T, trans=2, lower=1)
    upper = np.triu_indices(7, 1)
    for _ in each_path(monkeypatch):
        gram = np.full((7, 7), 5.0 + 0j, order="F")
        herk_lower(rows, gram)
        np.testing.assert_allclose(np.tril(gram), np.tril(expected),
                                   rtol=1e-13)
        assert np.all(gram[upper] == 5.0)
        for bad_rows, bad_gram in [(np.asfortranarray(rows), gram),
                                   (rows, np.ascontiguousarray(gram)),
                                   (rows, gram[:6, :6]),
                                   (rows.real.copy(), gram.real.copy("F"))]:
            with pytest.raises(ArgumentError):
                herk_lower(bad_rows, bad_gram)


def test_one_blas_thread_restores_the_thread_count_when_its_block_raises():
    library = numerics.openblas()
    if library is None:
        pytest.skip("no OpenBLAS to hold")
    before = library.openblas_get_num_threads()
    with pytest.raises(RuntimeError):
        with numerics.one_blas_thread() as count:
            assert count == before
            assert library.openblas_get_num_threads() == 1
            raise RuntimeError("raised inside the block")
    assert library.openblas_get_num_threads() == before


def test_without_scipy_openblas_wpe_runs_on_the_numpy_path(monkeypatch):
    """Where openblas() finds no library (a numpy build without its bundled
    libscipy_openblas64_), one_blas_thread yields 1 and leaves the BLAS
    thread count alone, and run_wpe, on one worker, matmul and
    np.linalg, gives the library path's estimate to rounding: BLAS then
    runs at the environment's thread count, so sums may be taken in another
    order, and np.linalg solves by LU where zpotrs uses the factor."""
    scene = make_scene("A", seed=0, duration=2.0)
    observed = analyze_multichannel(scene.observed)
    params = WpeParams(filter_order=10, iterations=2)
    with_library = run_wpe(observed, params)[0].values
    library = numerics.openblas()
    monkeypatch.setattr(numerics, "openblas", lambda: None)
    threads = library.openblas_get_num_threads() if library else None
    with numerics.one_blas_thread() as count:
        assert count == 1
        if library is not None:
            assert library.openblas_get_num_threads() == threads
    without = run_wpe(observed, params)[0].values
    assert (np.linalg.norm(without - with_library)
            <= 1e-6 * np.linalg.norm(with_library))
