import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdyn.checks import dense_oracle, occupation_to_tensor_isometry, symmetrizer
from mfdyn.errors import ConfigError
from mfdyn.fock import (
    ManyBodyState,
    annihilate_all,
    build_HN,
    enumerate_basis,
    interaction_diagonal,
    product_state,
    second_quantize_onebody,
)
from mfdyn.lattice import Grid, LatticeField, sample_interaction
from mfdyn.onebody import Orbital, build_h, condensate_projectors

from conftest import random_orbital


def test_basis_enumeration_order_and_size():
    b = enumerate_basis(2, 2)
    assert [tuple(r) for r in b.states] == [(2, 0), (1, 1), (0, 2)]
    assert b.dim == 3
    b2 = enumerate_basis(4, 3)
    assert b2.dim == math.comb(3 + 4 - 1, 3)
    for row in b2.states:
        assert int(row.sum()) == 3
    for M, N in ((1, 3), (5, 0), (2, 30), (4, 3), (8, 6)):
        b = enumerate_basis(M, N)
        assert b.dim == math.comb(N + M - 1, N)
        assert np.array_equal(b.rank(b.states), np.arange(b.dim))
        # consecutive rows strictly descending in lexicographic order
        d = b.states[:-1] - b.states[1:]
        first = (d != 0).argmax(axis=1)
        assert np.all(d[np.arange(len(d)), first] > 0)


def test_basis_cap_and_validation():
    with pytest.raises(ConfigError):
        enumerate_basis(30, 30)  # far above the state cap
    with pytest.raises(ConfigError):
        enumerate_basis(0, 2)


def test_number_operator_is_N(rng):
    basis = enumerate_basis(3, 4)
    Nop = second_quantize_onebody(np.eye(3), basis)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    assert np.allclose(Nop @ v, 4 * v, atol=1e-12)


def test_second_quantize_hermiticity(rng):
    basis = enumerate_basis(4, 3)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = 0.5 * (A + A.conj().T)
    dG = second_quantize_onebody(A, basis).toarray()
    assert np.allclose(dG, dG.conj().T, atol=1e-12)


def test_second_quantize_additivity(rng):
    basis = enumerate_basis(3, 3)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    lhs = second_quantize_onebody(A + B, basis).toarray()
    rhs = (second_quantize_onebody(A, basis) + second_quantize_onebody(B, basis)).toarray()
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_second_quantize_commutator_homomorphism(rng):
    # dGamma([A, B]) = [dGamma(A), dGamma(B)]
    basis = enumerate_basis(3, 2)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    dA = second_quantize_onebody(A, basis).toarray()
    dB = second_quantize_onebody(B, basis).toarray()
    dC = second_quantize_onebody(A @ B - B @ A, basis).toarray()
    assert np.allclose(dA @ dB - dB @ dA, dC, atol=1e-10)


def sparse_sum_route(A, basis, pair=None):
    """dGamma(A) [+ pair/N] as the sum of a COO hop matrix and sparse
    diagonals: the reference that the pattern fill must equal bit for bit."""
    M, N = basis.sites, basis.particles
    t = enumerate_basis(M, N - 1).states
    i, j = np.nonzero(~np.eye(M, dtype=bool))
    e = np.eye(M, dtype=np.int64)
    rows = basis.rank(t[None] + e[i][:, None]).ravel()
    cols = basis.rank(t[None] + e[j][:, None]).ravel()
    hops = (A[i, j][:, None] * np.sqrt((t.T[i] + 1) * (t.T[j] + 1))).ravel()
    H = sp.coo_matrix((hops.astype(complex), (rows, cols)), shape=(basis.dim,) * 2).tocsr()
    H = H + sp.diags(basis.states.astype(complex) @ np.diag(A).astype(complex))
    if pair is not None:
        H = H + sp.diags(pair.astype(complex)).tocsr() / N
    return H.tocsr()


def assert_same_csr(got, want, rng):
    assert got.has_canonical_format
    assert np.all(got.data != 0)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    v = rng.normal(size=got.shape[1]) + 1j * rng.normal(size=got.shape[1])
    assert (got @ v).tobytes() == (want @ v).tobytes()


@pytest.mark.parametrize("M,N", [(2, 5), (4, 3), (8, 4), (8, 6), (12, 6), (3, 40)])
def test_csr_fill_is_bit_identical_to_sparse_sum(rng, M, N):
    grid = Grid(M, 0.7)
    basis = enumerate_basis(M, N)
    n_entries = basis.dim + M * (M - 1) * enumerate_basis(M, N - 1).dim
    vals = rng.normal(size=M) + 1j * rng.normal(size=M)
    vals[::2] = 0.0  # exact zeros in the orbital give zero entries of q
    real_q = condensate_projectors(Orbital.normalized(grid, rng.normal(size=M)))[1]
    projectors = [
        condensate_projectors(random_orbital(rng, grid))[1],
        condensate_projectors(Orbital.normalized(grid, vals))[1],
        real_q.conj(),  # imaginary parts -0.0, stored as +0.0
    ]
    for q in projectors:
        assert_same_csr(second_quantize_onebody(q, basis), sparse_sum_route(q, basis), rng)
    w = sample_interaction(grid, "random", seed=M * N)
    pair = interaction_diagonal(w, basis)
    for v in (None, LatticeField(grid, rng.normal(size=M))):
        h = build_h(grid, v)
        dh = second_quantize_onebody(h, basis)
        assert_same_csr(dh, sparse_sum_route(h, basis), rng)
        assert_same_csr(build_HN(h, w, basis), sparse_sum_route(h, basis, pair), rng)
        if M >= 4:  # hops between non-neighbours are zero and dropped
            assert dh.nnz < n_entries


def test_interaction_diagonal_two_particles_one_site():
    g = Grid(2, 1.0)
    w = sample_interaction(g, "constant", c=3.0)
    basis = enumerate_basis(2, 2)
    diag = interaction_diagonal(w, basis).real
    # states (2,0), (1,1), (0,2): one pair each, w = 3 everywhere
    assert np.allclose(diag, [3.0, 3.0, 3.0], atol=1e-12)


def test_product_state_normalized_and_condensed(rng, grid6):
    phi = random_orbital(rng, grid6)
    basis = enumerate_basis(6, 3)
    psi = product_state(phi, basis)
    assert psi.norm == pytest.approx(1.0, abs=1e-12)
    # dGamma(q) annihilates the fully condensed state
    _, q = condensate_projectors(phi)
    dq = second_quantize_onebody(q, basis)
    assert np.linalg.norm(dq @ psi.amps) < 1e-10


def test_annihilate_lowers_sector_and_counts(rng, grid6):
    phi = random_orbital(rng, grid6)
    basis = enumerate_basis(6, 3)
    psi = product_state(phi, basis)
    A, sub = annihilate_all(psi.amps, basis)
    assert sub.particles == 2
    assert A.shape == (6, sub.dim)
    # sum_x ||a_x psi||^2 = <psi, N psi> = N
    total = sum(np.vdot(A[x], A[x]).real for x in range(6))
    assert total == pytest.approx(3.0, abs=1e-10)
    with pytest.raises(ConfigError):
        annihilate_all(np.ones(1), enumerate_basis(6, 0))


def test_annihilate_product_state_factorizes(rng, grid6):
    # a_x phi^{(x)N} = sqrt(N) u(x) phi^{(x)(N-1)}
    phi = random_orbital(rng, grid6)
    basis = enumerate_basis(6, 3)
    sub = enumerate_basis(6, 2)
    psi = product_state(phi, basis)
    psi2 = product_state(phi, sub)
    u = phi.mode
    A, _ = annihilate_all(psi.amps, basis)
    for x in range(6):
        assert np.allclose(A[x], math.sqrt(3) * u[x] * psi2.amps, atol=1e-12)


def test_annihilate_all_stacks_and_commutes(rng):
    basis = enumerate_basis(4, 3)
    v = rng.normal(size=(2, basis.dim)) + 1j * rng.normal(size=(2, basis.dim))
    A, sub = annihilate_all(v, basis)
    assert A.shape == (2, 4, sub.dim)
    for k in range(2):
        assert np.array_equal(A[k], annihilate_all(v[k], basis)[0])
    # B[k, y, x] = a_x a_y v_k; annihilators commute
    B, sub2 = annihilate_all(A, sub)
    assert B.shape == (2, 4, 4, sub2.dim)
    assert np.allclose(B, B.transpose(0, 2, 1, 3), atol=1e-12)


def test_symmetrizer_is_projector():
    S = symmetrizer(3, 2)
    assert np.allclose(S @ S, S, atol=1e-12)
    assert np.allclose(S, S.T, atol=1e-12)
    # rank = dim of the symmetric subspace
    assert np.trace(S) == pytest.approx(math.comb(2 + 3 - 1, 2), abs=1e-10)


def test_isometry_properties(rng, grid6):
    basis = enumerate_basis(3, 3)
    g = Grid(3, 0.8)
    phi = random_orbital(rng, g)
    U = occupation_to_tensor_isometry(basis)
    assert np.allclose(U.T @ U, np.eye(basis.dim), atol=1e-12)
    S = symmetrizer(3, 3)
    assert np.allclose(S @ U, U, atol=1e-12)  # range lies in the symmetric subspace
    # product state maps to the literal tensor power of the mode vector
    psi = product_state(phi, basis)
    u = phi.mode
    tensor = np.kron(np.kron(u, u), u)
    assert np.allclose(U @ psi.amps, tensor, atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]), st.integers(0, 10**6))
def test_HN_matches_dense_oracle(shape, seed):
    M, N = shape
    rng = np.random.default_rng(seed)
    grid = Grid(M, 0.6)
    v = LatticeField(grid, rng.normal(size=M))
    w = sample_interaction(grid, "random", seed=seed % 1000)
    h = build_h(grid, v)
    basis = enumerate_basis(M, N)
    H = build_HN(h, w, basis).toarray()
    Hor, S = dense_oracle(h, w, M, N)
    U = occupation_to_tensor_isometry(basis)
    assert np.allclose(U.T @ Hor @ U, H, atol=1e-10)
    assert np.allclose(S @ Hor, Hor @ S, atol=1e-11)


def test_dense_oracle_cap():
    g = Grid(8, 1.0)
    w = sample_interaction(g, "constant", c=1.0)
    with pytest.raises(ConfigError):
        dense_oracle(build_h(g), w, 8, 5)  # 8^5 = 32768 > cap
