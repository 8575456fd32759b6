import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdyn.checks import dense_oracle, occupation_to_tensor_isometry, symmetrizer
from mfdyn.errors import ConfigError
from mfdyn.fock import (
    _hop_layout,
    _lowering_map,
    _sqrt_multinomial,
    annihilate,
    build_HN,
    enumerate_basis,
    interaction_diagonal,
    k_basis,
    product_state,
    second_quantize_onebody,
)
from mfdyn.lattice import (
    INTERACTIONS,
    Grid,
    LatticeField,
    convolution_kernel_matrix,
    sample_interaction,
)
from mfdyn.onebody import Orbital, build_h, condensate_projectors, harmonic_potential

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


def stars_and_bars(M, N):
    """The enumeration the sorted-sites count replaced: n_x is the gap
    between bars x-1 and x among N+M-1 slots; combinations of bar positions
    come first-site ascending, so they are reversed."""
    dim = math.comb(N + M - 1, N)
    edges = np.empty((dim, M + 1), dtype=np.int64)
    edges[:, 0], edges[:, -1] = -1, N + M - 1
    edges[:, 1:-1] = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(N + M - 1), M - 1)),
        dtype=np.int64,
        count=dim * (M - 1),
    ).reshape(dim, M - 1)[::-1]
    return np.diff(edges, axis=1) - 1


def object_int_sqrt_multinomial(states, N):
    """sqrt(N!/prod n!) with the multinomial in Python ints throughout."""
    fact = np.array([math.factorial(n) for n in range(N + 1)], dtype=object)
    return np.sqrt((math.factorial(N) // fact[states].prod(axis=-1)).astype(float))


def per_mode_lowering_map(basis, k):
    """The k-particle lowering map with one `rank` call per mode for its
    rows, and the amplitudes sqrt(prod_x (t_x + m_x)!/t_x!) in Python ints."""
    M, N = basis.sites, basis.particles
    modes = stars_and_bars(M, k)
    sub = stars_and_bars(M, N - k)
    rows = np.stack([basis.rank(sub + m) for m in modes])
    perm = [[math.perm(t + n, n) for n in range(k + 1)] for t in range(N - k + 1)]
    perm = np.array(perm, dtype=object)
    count = perm[sub[None], modes[:, None]].prod(axis=-1)
    coef = np.sqrt(count.astype(float)) * object_int_sqrt_multinomial(modes, k)[:, None]
    return sub, rows, coef


def assert_same_array(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


SHAPES = [
    (1, 0), (1, 3), (5, 0), (2, 1), (2, 6), (2, 20), (2, 21), (3, 9), (4, 5), (8, 6), (3, 40),
    (12, 6), (32, 3),
]


@pytest.mark.parametrize("M,N", SHAPES)
def test_basis_and_multinomials_are_bit_identical_to_the_references(M, N):
    # N = 20 is the last N whose N! fits in int64; N = 21 takes Python ints
    basis = enumerate_basis(M, N)
    assert_same_array(basis.states, stars_and_bars(M, N), "states")
    assert basis.states.flags.c_contiguous
    coef = _sqrt_multinomial(basis)
    assert_same_array(coef, object_int_sqrt_multinomial(basis.states, N), "multinomial")
    assert not coef.flags.writeable
    kb = k_basis(M, N)
    assert_same_array(kb.states, basis.states, "k_basis")
    assert not kb.states.flags.writeable and not _sqrt_multinomial(kb).flags.writeable


@pytest.mark.parametrize("M,N", [s for s in SHAPES if s != (3, 40)] + [(3, 25)])
def test_lowering_maps_are_bit_identical_to_per_mode_ranks(M, N):
    # every k <= N; at M = 2 both ring neighbours of a site are one site.
    # N!/(N-k)! >= 2^63 at (2, 21), k = 21 and at (3, 25), k >= 16: there
    # the amplitudes are Python ints (slow, so (3, 40) is left to the
    # basis and multinomial test).
    basis = enumerate_basis(M, N)
    for k in range(N + 1):
        sub, rows, coef = _lowering_map(basis, k)
        want_sub, want_rows, want_coef = per_mode_lowering_map(basis, k)
        assert sub.particles == N - k
        assert_same_array(sub.states, want_sub, ("sub", k))
        assert_same_array(rows, want_rows, ("rows", k))
        assert_same_array(coef, want_coef, ("coef", k))


@pytest.mark.parametrize(
    "M,N", [(2, 0), (2, 6), (2, 21), (5, 0), (3, 40), (8, 6), (12, 6), (32, 3)]
)
def test_product_state_is_bit_identical_to_the_power_of_every_entry(rng, M, N):
    grid = Grid(M, 0.7)
    basis = enumerate_basis(M, N)
    vals = rng.normal(size=M) + 1j * rng.normal(size=M)
    holes = vals.copy()
    holes[::2] = 0.0  # 0**0 = 1 on the sites a state leaves empty
    for phi in (Orbital.normalized(grid, v) for v in (vals, holes, vals.real.astype(complex))):
        want = object_int_sqrt_multinomial(basis.states, N)
        want = want * np.multiply.reduce(phi.mode**basis.states, 1)
        assert_same_array(product_state(phi, basis).amps, want, "amps")


def test_multinomials_above_the_float_range_are_refused():
    grid = Grid(2, 1.0)
    phi = Orbital.normalized(grid, np.ones(2, dtype=complex))
    with pytest.raises(ConfigError, match=r"M=2, N=1030"):
        product_state(phi, enumerate_basis(2, 1030))
    psi = product_state(phi, enumerate_basis(2, 1020))
    assert np.all(np.isfinite(psi.amps))
    assert psi.norm == pytest.approx(1.0, abs=1e-9)


def test_lowering_amplitudes_above_the_float_range_are_refused():
    # sqrt(171!) is the amplitude of a_0^171 on 171 particles at site 0,
    # and 171! is above the float range while 170! is not.
    with pytest.raises(ConfigError, match=r"M=2, N=171, k=171"):
        _lowering_map(enumerate_basis(2, 171), 171)
    _, _, coef = _lowering_map(enumerate_basis(2, 170), 170)
    assert np.all(np.isfinite(coef))
    assert coef.max() == pytest.approx(math.sqrt(float(math.factorial(170))))


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
    raised = basis.rank(t[None] + e[:, None])  # row of t + e_x, per site x
    rows, cols = raised[i].ravel(), raised[j].ravel()
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


@pytest.mark.parametrize("M,N", [(2, 5), (3, 4), (5, 1), (8, 9), (32, 3)])
def test_HN_from_the_hops_of_h_is_bit_identical_to_sparse_sum(rng, M, N):
    # At M = 2 both ring neighbours of a site are one site; at M = 3 the
    # ring has every pair, so H_N's own layout is the all-pairs layout.
    grid = Grid(M, 0.7)
    basis = enumerate_basis(M, N)
    trap = build_h(grid, harmonic_potential(grid, 1.3))
    signed = trap.astype(complex)
    signed.imag[:] = -0.0  # -0.0 imaginary parts, stored as +0.0
    # a uniform potential of -2/dx^2 zeroes h's diagonal
    flat = build_h(grid, LatticeField(grid, np.full(M, -2.0 / grid.spacing**2)))
    assert not np.diag(flat).any()
    no_pair = sample_interaction(grid, "constant", c=0.0)
    for h in (build_h(grid), trap, signed, flat):
        for w in (no_pair, sample_interaction(grid, "random", seed=M)):
            pair = interaction_diagonal(w, basis)
            before = h.tobytes()
            got = build_HN(h, w, basis)
            assert h.tobytes() == before  # h is read, never written
            assert_same_csr(got, sparse_sum_route(h, basis, pair), rng)
            assert_same_csr(got, masked_fill(h, basis, pair.astype(complex) * (1 / N)), rng)
    # with h's diagonal and w zero, every diagonal entry is zero and dropped
    assert not build_HN(flat, no_pair, basis).diagonal().any()


def coo_pattern(basis):
    """The all-pairs `_hop_layout` as scipy's COO->CSR conversion orders
    it: the entry numbers go in as data and come out as the permutation."""
    M, dim = basis.sites, basis.dim
    t = enumerate_basis(M, basis.particles - 1).states
    i, j = np.nonzero(~np.eye(M, dtype=bool))
    e = np.eye(M, dtype=np.int64)
    n_hops = i.size * len(t)
    raised = basis.rank(t[None] + e[:, None])  # row of t + e_x, per site x
    row = np.concatenate([raised[i].ravel(), np.arange(dim)])
    col = np.concatenate([raised[j].ravel(), np.arange(dim)])
    order = sp.coo_matrix((np.arange(n_hops + dim), (row, col)), shape=(dim, dim)).tocsr()
    entry = order.data
    ij = np.concatenate([np.repeat(i * M + j, len(t)), np.zeros(dim, dtype=np.intp)])
    amps = np.concatenate([np.sqrt((t.T[i] + 1) * (t.T[j] + 1)).ravel(), np.zeros(dim)])
    return order.indptr, order.indices, ij[entry], amps[entry], np.flatnonzero(entry >= n_hops)


@pytest.mark.parametrize("M,N", [(2, 5), (4, 3), (8, 4), (8, 6), (12, 6), (3, 40)])
def test_onebody_pattern_equals_the_coo_to_csr_order(M, N):
    basis = enumerate_basis(M, N)
    got = _hop_layout(basis, ~np.eye(M, dtype=bool), np.arange(basis.dim))
    want = coo_pattern(basis)
    for name, a, b in zip(("indptr", "indices", "ij", "amps", "diag_pos"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # shared by every operator built on them, as scipy's were by the CSR
    assert not got[0].flags.writeable and not got[1].flags.writeable


def masked_fill(A, basis, extra_diag=None):
    """The fill of scipy's all-pairs COO->CSR layout that finds zeros with
    a mask over every CSR entry: the reference for the fill that lays out
    only the nonzero entries of A and the diagonal."""
    indptr, indices, ij, amps, diag_pos = coo_pattern(basis)
    diag = basis.states.astype(complex) @ np.diag(A).astype(complex)
    if extra_diag is not None:
        diag += extra_diag
    data = np.empty(indices.size, dtype=complex)
    np.multiply(A.ravel()[ij], amps, out=data)
    data[diag_pos] = diag
    data += 0.0
    keep = data != 0
    if not keep.all():
        data, indices = data[keep], indices[keep]
        indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
    return sp.csr_matrix((data, indices, indptr), shape=(basis.dim, basis.dim))


@pytest.mark.parametrize("zero", ["none", "hop-pair", "diagonal-entry"])
def test_an_operator_lays_out_its_own_nonzero_entries(rng, zero):
    M = 5
    basis = enumerate_basis(M, 3)
    A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    if zero == "hop-pair":
        A[1, 3] = A[3, 1] = 0.0
    elif zero == "diagonal-entry":
        A[2, 2] = 0.0  # zero summed diagonal on the state with every particle at site 2
    before = A.tobytes()
    got = second_quantize_onebody(A, basis)
    assert A.tobytes() == before  # A is read, never written
    assert_same_csr(got, sparse_sum_route(A, basis), rng)
    # an operator with the same nonzero entries takes the kept layout:
    # scipy keeps `indptr` itself and may store a view of `indices`
    same = second_quantize_onebody(2 * A, basis)
    assert_same_csr(same, sparse_sum_route(2 * A, basis), rng)
    assert np.shares_memory(got.indptr, same.indptr)
    assert np.shares_memory(got.indices, same.indices)
    assert not got.indptr.flags.writeable and not got.indices.flags.writeable
    # one with other nonzero entries is laid out afresh
    other = A.copy()
    other[0, 4] = 0.0
    other = second_quantize_onebody(other, basis)
    assert not np.shares_memory(got.indptr, other.indptr)
    assert not np.shares_memory(got.indices, other.indices)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_fill_finds_zeros_as_the_masked_fill_does(rng, N):
    M = 5
    basis = enumerate_basis(M, N)
    A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    A = A + A.conj().T
    with_zeros = A.copy()
    with_zeros[0, 2] = with_zeros[2, 0] = 0.0  # zero hops, dropped
    with_zeros[1, 3] = -0.0
    with_zeros[3, 1] = complex(-0.0, -0.0)
    with_zeros[[0, 1], [0, 1]] = 0.0  # zero diagonal on states in sites 0, 1
    signed = A.real.astype(complex)
    signed.imag[:] = -0.0  # -0.0 imaginary parts, stored as +0.0
    real = -np.abs(A.real)
    real[4, 0] = -0.0
    for B in (A, with_zeros, signed, real, np.zeros((M, M))):
        assert_same_csr(second_quantize_onebody(B, basis), masked_fill(B, basis), rng)
    grid = Grid(M, 0.7)
    h, w = build_h(grid), sample_interaction(grid, "random", seed=N)
    pair = interaction_diagonal(w, basis).astype(complex) * (1 / N)
    assert_same_csr(build_HN(h, w, basis), masked_fill(h, basis, pair), rng)


def test_interaction_diagonal_two_particles_one_site():
    g = Grid(2, 1.0)
    w = sample_interaction(g, "constant", c=3.0)
    basis = enumerate_basis(2, 2)
    diag = interaction_diagonal(w, basis).real
    # states (2,0), (1,1), (0,2): one pair each, w = 3 everywhere
    assert np.allclose(diag, [3.0, 3.0, 3.0], atol=1e-12)


def occupied_pair_sum(w, basis):
    """`interaction_diagonal` as one sequential sum per state over its
    occupied site pairs (x, y), x-major, of (n_x W_xy) n_y: einsum adds its
    M^2 terms in that order, and the terms of empty sites are zeros that
    leave the sum as it is."""
    W = convolution_kernel_matrix(w)
    occ = basis.states.astype(float)
    slots = min(basis.sites, basis.particles)
    # the occupied sites of each state, ascending, in its first slots
    site = np.argsort(basis.states == 0, axis=1, kind="stable")[:, :slots]
    n = np.take_along_axis(occ, site, axis=1)
    total = np.zeros(basis.dim)
    for a in range(slots):
        for b in range(slots):
            term = n[:, a] * W[site[:, a], site[:, b]] * n[:, b]
            total = np.where((n[:, a] > 0) & (n[:, b] > 0), total + term, total)
    return 0.5 * total - 0.5 * W[0, 0] * occ.sum(axis=1)


KERNELS = {
    "constant": [dict(c=0.0), dict(c=-2.0)],
    "gaussian": [dict(lam=1.0, sigma=1.0)],
    "softcoulomb": [dict(lam=0.7, eps=0.3)],
    "invsquare": [dict(lam=1.0)],
    "random": [dict(seed=3)],
}


@pytest.mark.parametrize("M,N", [(2, 1), (8, 6), (64, 3)])
def test_interaction_diagonal_is_the_occupied_pair_sum(M, N):
    # Pins the bytes of the einsum. The pair sum skips the M^2 - (occupied
    # sites)^2 zero terms, so it is faster at large M only: a route for
    # M >= ~20, not the one runs take.
    assert set(KERNELS) == set(INTERACTIONS)
    grid = Grid(M, 8 / M)
    basis = enumerate_basis(M, N)
    for kind, params in KERNELS.items():
        for p in params:
            w = sample_interaction(grid, kind, **p)
            assert_same_array(interaction_diagonal(w, basis), occupied_pair_sum(w, basis), kind)


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
    A, sub = annihilate(psi.amps, basis, 1)
    assert sub.particles == 2
    assert A.shape == (6, sub.dim)
    # sum_x ||a_x psi||^2 = <psi, N psi> = N
    total = sum(np.vdot(A[x], A[x]).real for x in range(6))
    assert total == pytest.approx(3.0, abs=1e-10)
    with pytest.raises(ConfigError):
        annihilate(np.ones(1), enumerate_basis(6, 0), 1)
    with pytest.raises(ConfigError, match="basis dimension"):
        annihilate(np.ones(basis.dim + 1), basis, 1)
    with pytest.raises(ConfigError, match="does not match M=6"):
        second_quantize_onebody(np.eye(5), basis)
    w6 = sample_interaction(grid6, "gaussian", lam=1.0, sigma=1.0)
    with pytest.raises(ConfigError, match="interaction on 6 sites does not match M=8"):
        build_HN(build_h(Grid(8, 1.0)), w6, enumerate_basis(8, 3))
    with pytest.raises(ConfigError, match="different site counts"):
        product_state(phi, enumerate_basis(5, 3))


def test_annihilate_product_state_factorizes(rng, grid6):
    # a_x phi^{(x)N} = sqrt(N) u(x) phi^{(x)(N-1)}
    phi = random_orbital(rng, grid6)
    basis = enumerate_basis(6, 3)
    sub = enumerate_basis(6, 2)
    psi = product_state(phi, basis)
    psi2 = product_state(phi, sub)
    u = phi.mode
    A, _ = annihilate(psi.amps, basis, 1)
    for x in range(6):
        assert np.allclose(A[x], math.sqrt(3) * u[x] * psi2.amps, atol=1e-12)


def test_annihilate_all_stacks_and_commutes(rng):
    basis = enumerate_basis(4, 3)
    v = rng.normal(size=(2, basis.dim)) + 1j * rng.normal(size=(2, basis.dim))
    A, sub = annihilate(v, basis, 1)
    assert A.shape == (2, 4, sub.dim)
    for k in range(2):
        assert np.array_equal(A[k], annihilate(v[k], basis, 1)[0])
    # B[k, y, x] = a_x a_y v_k; annihilators commute
    B, sub2 = annihilate(A, sub, 1)
    assert B.shape == (2, 4, 4, sub2.dim)
    assert np.allclose(B, B.transpose(0, 2, 1, 3), atol=1e-12)


@pytest.mark.parametrize("M, N", [(2, 2), (4, 3), (5, 4), (8, 6)])
def test_pair_map_equals_two_annihilations(rng, M, N):
    # the pair component (x <= y) of a_x a_y v, weighted sqrt(2) for x < y
    basis = enumerate_basis(M, N)
    v = rng.normal(size=(2, basis.dim)) + 1j * rng.normal(size=(2, basis.dim))
    P, sub2 = annihilate(v, basis, 2)
    A, sub = annihilate(v, basis, 1)
    B, _ = annihilate(A, sub, 1)  # B[k, y, x] = a_x a_y v_k
    x, y = np.triu_indices(M)
    weight = np.where(x < y, math.sqrt(2.0), 1.0)
    assert sub2.particles == N - 2 and P.shape == (2, M * (M + 1) // 2, sub2.dim)
    assert np.allclose(P, weight[:, None] * B[:, y, x], atol=1e-12, rtol=0)
    # the pair modes are the two-particle occupation basis, pairs x <= y in
    # row-major order, and its multinomial weights are sqrt(2) and 1
    eye = np.eye(M, dtype=np.int64)
    assert np.array_equal(k_basis(M, 2).states, eye[x] + eye[y])
    assert np.array_equal(_sqrt_multinomial(k_basis(M, 2)), weight)
    with pytest.raises(ConfigError):
        annihilate(np.ones(M), enumerate_basis(M, 1), 2)


@pytest.mark.parametrize("M, N, k", [(3, 3, 3), (4, 5, 3), (3, 5, 4)])
def test_k_map_equals_k_annihilations(rng, M, N, k):
    # mode m of the k-particle basis, sites x_1 <= ... <= x_k, carries
    # sqrt(k!/prod m_x!) times a_x1 ... a_xk v
    basis = enumerate_basis(M, N)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    P, subk = annihilate(v, basis, k)
    B, sub = v, basis
    for _ in range(k):
        B, sub = annihilate(B, sub, 1)  # B[x_1, ..., x_k] = a_xk ... a_x1 v
    kb = k_basis(M, k)
    assert subk.particles == N - k and P.shape == (kb.dim, subk.dim)
    for m, occ in enumerate(kb.states):
        sites = np.repeat(np.arange(M), occ)
        weight = math.sqrt(math.factorial(k) / np.prod([math.factorial(n) for n in occ]))
        assert np.allclose(P[m], weight * B[tuple(sites)], atol=1e-12, rtol=0)


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
