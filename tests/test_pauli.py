"""Packed Pauli algebra against a dense matrix oracle.

The oracle builds every operator from literal 2x2 matrices with np.kron,
sharing no code with the packed implementation.  Qubit 0 is the least
significant index bit, so it is the rightmost kron factor.
"""

import math

import numpy as np
import pytest

from conftest import I2, X2, Y2, Z2, dense_poly, dense_string, is_hermitian, poly_close, random_string

from toricqet.pauli import PRUNE_TOL, PauliPolynomial, PauliString


def random_poly(rng, n: int, max_terms: int = 6) -> PauliPolynomial:
    k = int(rng.integers(1, max_terms + 1))
    weighted = []
    for _ in range(k):
        c = complex(rng.standard_normal(), rng.standard_normal())
        weighted.append((random_string(rng, n), c))
    return PauliPolynomial.from_strings(n, weighted)


def string_poly(p: PauliString) -> PauliPolynomial:
    return PauliPolynomial.from_string(p)


class TestPauliString:
    def test_single_qubit_matrices(self):
        assert np.array_equal(dense_string(PauliString.single(1, 0, "x")), X2)
        assert np.array_equal(dense_string(PauliString.single(1, 0, "y")), Y2)
        assert np.array_equal(dense_string(PauliString.single(1, 0, "z")), Z2)

    def test_x_times_x_is_identity(self):
        x = string_poly(PauliString.single(1, 0, "x"))
        assert x.mul(x) == PauliPolynomial.identity(1)

    def test_x_times_z_convention(self):
        # XZ = -iY in the fixed convention: the bare key (1, 1) with coefficient 1.
        x = string_poly(PauliString.single(1, 0, "x"))
        z = string_poly(PauliString.single(1, 0, "z"))
        prod = x.mul(z)
        assert prod.terms == {(1, 1): 1.0}
        assert prod == string_poly(PauliString.single(1, 0, "y")).scale(-1j)
        assert np.array_equal(dense_poly(prod), -1j * Y2)

    def test_two_qubit_example(self):
        xx = PauliString.from_support(2, [0, 1], "x")
        zz = PauliString.from_support(2, [0, 1], "z")
        yy = PauliString.from_support(2, [0, 1], "y")
        prod = string_poly(xx).mul(string_poly(zz))
        assert np.array_equal(dense_poly(prod), -dense_string(yy))
        assert prod == PauliPolynomial.from_string(yy, -1.0)

    def test_commutes_matches_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(2_000):
            n = int(rng.integers(1, 5))
            p = random_string(rng, n)
            q = random_string(rng, n)
            pq = string_poly(p).mul(string_poly(q))
            qp = string_poly(q).mul(string_poly(p))
            assert pq.terms.keys() == qp.terms.keys()
            mp, mq = dense_string(p), dense_string(q)
            zero_comm = np.array_equal(mp @ mq, mq @ mp)
            assert p.commutes(q) == zero_comm == (pq == qp)
            assert zero_comm or pq == qp.scale(-1.0)

    def test_adjoint_matches_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(2_000):
            p = random_string(rng, int(rng.integers(1, 5)))
            dense = dense_string(p)
            assert is_hermitian(p) == np.array_equal(dense, dense.conj().T)

    def test_single_is_a_one_qubit_support(self):
        for n in range(1, 8):
            for q in range(n):
                for axis in "xyz":
                    assert PauliString.single(n, q, axis) == PauliString.from_support(n, (q,), axis)
        for n, q, axis in ((3, 3, "x"), (3, -1, "z"), (3, 0, "w")):
            with pytest.raises(ValueError) as single:
                PauliString.single(n, q, axis)
            with pytest.raises(ValueError) as support:
                PauliString.from_support(n, (q,), axis)
            assert str(single.value) == str(support.value)

    def test_from_support_y_phase(self):
        p = PauliString.from_support(3, [0, 2], "y")
        oracle = np.kron(Y2, np.kron(I2, Y2))
        assert np.array_equal(dense_string(p), oracle)
        assert is_hermitian(p)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliString.single(2, 0, "x").commutes(PauliString.single(3, 0, "x"))

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            PauliString(2, 1 << 2, 0)
        with pytest.raises(ValueError):
            PauliString.single(2, 0, "w")
        with pytest.raises(ValueError):
            PauliString.from_support(4, [1, 1], "x")
        with pytest.raises(ValueError):
            PauliString.from_support(4, [9], "z")


class TestPauliPolynomial:
    def test_from_string_folds_phase(self):
        y = PauliString.single(1, 0, "y")
        poly = PauliPolynomial.from_string(y)
        # Stored bare as XZ with the i folded into the coefficient.
        assert poly.terms == {(1, 1): 1j}
        assert np.allclose(dense_poly(poly), Y2)

    def test_from_strings_merges_duplicates(self):
        x = PauliString.single(2, 0, "x")
        poly = PauliPolynomial.from_strings(2, [(x, 0.25), (x, 0.75)])
        assert poly.n_terms() == 1
        assert poly.terms == {(1, 0): 1.0}

    def test_projector_pair_sums_to_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            s = random_string(rng, n)
            if not is_hermitian(s):
                s = PauliString(n, s.x_bits, s.z_bits, s.phase_exp + 1)
            sp = PauliPolynomial.from_string(s, 0.5)
            plus = PauliPolynomial.identity(n, 0.5) + sp
            minus = PauliPolynomial.identity(n, 0.5) - sp
            assert poly_close(plus + minus, PauliPolynomial.identity(n))
            # Hermitian strings square to identity, so these are projectors.
            assert poly_close(plus.mul(plus), plus)
            assert plus.mul(minus).max_abs_coeff() <= PRUNE_TOL

    def test_mul_against_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            a = random_poly(rng, n)
            b = random_poly(rng, n)
            assert np.allclose(dense_poly(a.mul(b)), dense_poly(a) @ dense_poly(b), atol=1e-12)

    def test_ring_identities(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            a, b, c = (random_poly(rng, n) for _ in range(3))
            assert poly_close(a.mul(b.mul(c)), a.mul(b).mul(c), tol=1e-10)
            assert poly_close(a.mul(b + c), a.mul(b) + a.mul(c), tol=1e-10)
            assert poly_close(a.mul(b).adjoint(), b.adjoint().mul(a.adjoint()), tol=1e-10)

    def test_commutator_matches_dense(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            a = random_poly(rng, n)
            b = random_poly(rng, n)
            oracle = dense_poly(a) @ dense_poly(b) - dense_poly(b) @ dense_poly(a)
            assert np.allclose(dense_poly(a.commutator(b)), oracle, atol=1e-12)

    def test_adjoint_matches_dense(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = random_poly(rng, int(rng.integers(1, 4)))
            assert np.allclose(dense_poly(a.adjoint()), dense_poly(a).conj().T, atol=1e-14)

    def test_exact_cancellation_prunes(self):
        x = PauliPolynomial.from_string(PauliString.single(2, 0, "x"))
        assert (x - x).n_terms() == 0
        assert (x - x).max_abs_coeff() <= PRUNE_TOL

    def test_nan_coefficient_kept(self):
        # a NaN is not below PRUNE_TOL: pruning it would read it as zero
        nan = PauliPolynomial.identity(2, float("nan"))
        assert list(nan.terms) == [(0, 0)]
        assert math.isnan(nan.max_abs_coeff())
        tiny = PauliPolynomial.from_string(PauliString.single(2, 1, "z"), PRUNE_TOL / 2)
        assert tiny.n_terms() == 0
        # NaN in any place of the max, not only the first
        x = PauliPolynomial.from_string(PauliString.single(2, 0, "x"), 3.0)
        assert math.isnan((x + nan).max_abs_coeff()) and math.isnan((nan + x).max_abs_coeff())
        assert (x + PauliPolynomial.identity(2, 2.0)).max_abs_coeff() == 3.0

    def test_scale(self):
        x = PauliPolynomial.from_string(PauliString.single(1, 0, "x"))
        assert x.scale(2.0).terms == {(1, 0): 2.0}
        assert x.scale(0.5).terms == {(1, 0): 0.5}
        assert x.scale(3).terms == {(1, 0): 3.0}

    def test_strings_roundtrip(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            a = random_poly(rng, 3)
            again = PauliPolynomial.from_strings(3, list(a.strings()))
            assert poly_close(again, a, tol=0.0)

    def test_size_mismatch_rejected(self):
        a = PauliPolynomial.identity(2)
        b = PauliPolynomial.identity(3)
        with pytest.raises(ValueError):
            a.add(b)
        with pytest.raises(ValueError):
            a.mul(b)
