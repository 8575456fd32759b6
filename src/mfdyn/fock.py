"""Symmetric N-particle subspace: occupation basis, second quantization,
product states, the mean-field Hamiltonian, and a first-quantized dense
oracle for tests.

Mode amplitudes carry sqrt(dx), so a lattice-normalized orbital and a
normalized Fock vector are consistent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .lattice import Grid, LatticeField, convolution_kernel_matrix
from .onebody import Orbital

BASIS_CAP = 200_000
DENSE_ORACLE_CAP = 4096


def _compositions(sites: int, total: int):
    """Occupation vectors summing to `total`, first site descending."""
    if sites == 1:
        yield (total,)
        return
    for k in range(total, -1, -1):
        for rest in _compositions(sites - 1, total - k):
            yield (k,) + rest


@dataclass(frozen=True, eq=False)
class OccupationBasis:
    """All occupation vectors of N bosons on M sites, with an index map."""

    sites: int
    particles: int
    states: np.ndarray  # (dim, M) int array
    index: dict = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def index_of(self, occupation) -> int:
        return self.index[tuple(int(n) for n in occupation)]


@lru_cache(maxsize=None)
def enumerate_basis(M: int, N: int) -> OccupationBasis:
    if M < 1 or N < 0:
        raise ConfigError(f"need M >= 1 sites and N >= 0 particles, got M={M}, N={N}")
    dim = math.comb(N + M - 1, N)
    if dim > BASIS_CAP:
        raise ConfigError(
            f"occupation basis for M={M}, N={N} has {dim} states, above the cap {BASIS_CAP}"
        )
    states = np.array(list(_compositions(M, N)), dtype=np.int64)
    index = {tuple(int(n) for n in row): i for i, row in enumerate(states)}
    return OccupationBasis(M, N, states, index)


def _hop_structure(basis: OccupationBasis):
    """Static data for dGamma(A): for every state and ordered pair i != j
    with n_j > 0, the target index and the amplitude sqrt((n_i + 1) n_j)."""
    if "hops" not in basis._cache:
        rows, cols, iidx, jidx, amps = [], [], [], [], []
        M = basis.sites
        for s, n in enumerate(basis.states):
            occ = tuple(int(x) for x in n)
            for j in range(M):
                nj = occ[j]
                if nj == 0:
                    continue
                for i in range(M):
                    if i == j:
                        continue
                    tgt = list(occ)
                    tgt[j] -= 1
                    tgt[i] += 1
                    rows.append(basis.index[tuple(tgt)])
                    cols.append(s)
                    iidx.append(i)
                    jidx.append(j)
                    amps.append(math.sqrt((occ[i] + 1) * nj))
        basis._cache["hops"] = (
            np.array(rows),
            np.array(cols),
            np.array(iidx),
            np.array(jidx),
            np.array(amps),
        )
    return basis._cache["hops"]


def second_quantize_onebody(A: np.ndarray, basis: OccupationBasis) -> sp.csr_matrix:
    """dGamma(A) = sum_ij A_ij a_i^dag a_j on the occupation basis."""
    A = np.asarray(A)
    if A.shape != (basis.sites, basis.sites):
        raise ConfigError(
            f"operator shape {A.shape} does not match M={basis.sites}"
        )
    rows, cols, iidx, jidx, amps = _hop_structure(basis)
    data = A[iidx, jidx] * amps
    diag = basis.states.astype(complex) @ np.diag(A).astype(complex)
    H = sp.coo_matrix(
        (data.astype(complex), (rows, cols)), shape=(basis.dim, basis.dim)
    ).tocsr()
    H = H + sp.diags(diag.astype(complex))
    return H.tocsr()


def interaction_diagonal(w: LatticeField, basis: OccupationBasis) -> sp.csr_matrix:
    """sum_{x<y} w(d(x,y)) n_x n_y + (1/2) w(0) sum_x n_x (n_x - 1), diagonal."""
    W = convolution_kernel_matrix(w)
    occ = basis.states.astype(float)
    pair = 0.5 * np.einsum("sx,xy,sy->s", occ, W, occ) - 0.5 * W[0, 0] * occ.sum(axis=1)
    return sp.diags(pair.astype(complex)).tocsr()


def build_HN(h: np.ndarray, w: LatticeField, basis: OccupationBasis) -> sp.csr_matrix:
    """H_N = dGamma(h) + (1/N) * pair interaction."""
    H = second_quantize_onebody(h, basis)
    if basis.particles > 0:
        H = H + interaction_diagonal(w, basis) / basis.particles
    return H.tocsr()


@dataclass(frozen=True, eq=False)
class ManyBodyState:
    basis: OccupationBasis
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        if a.shape != (self.basis.dim,):
            raise ConfigError("amplitude vector does not match basis dimension")
        object.__setattr__(self, "amps", a)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def product_state(phi: Orbital, basis: OccupationBasis) -> ManyBodyState:
    """phi^(x) N: amplitude sqrt(N!/prod n!) * prod (sqrt(dx) phi(x))^n_x."""
    if basis.sites != phi.grid.sites:
        raise ConfigError("orbital and basis have different site counts")
    u = phi.mode
    N = basis.particles
    amps = np.empty(basis.dim, dtype=complex)
    for s, n in enumerate(basis.states):
        coef = math.sqrt(math.factorial(N) / math.prod(math.factorial(int(k)) for k in n))
        amps[s] = coef * np.prod(u**n)
    return ManyBodyState(basis, amps)


def annihilate(state: ManyBodyState, x: int) -> ManyBodyState:
    """a_x, mapping the N sector to the N-1 sector."""
    basis = state.basis
    if basis.particles < 1:
        raise ConfigError("cannot annihilate from the vacuum sector")
    key = ("ann", x)
    if key not in basis._cache:
        sub = enumerate_basis(basis.sites, basis.particles - 1)
        src, dst, coef = [], [], []
        for s, n in enumerate(basis.states):
            if n[x] == 0:
                continue
            tgt = list(int(k) for k in n)
            tgt[x] -= 1
            src.append(s)
            dst.append(sub.index[tuple(tgt)])
            coef.append(math.sqrt(int(n[x])))
        basis._cache[key] = (sub, np.array(src), np.array(dst), np.array(coef))
    sub, src, dst, coef = basis._cache[key]
    out = np.zeros(sub.dim, dtype=complex)
    np.add.at(out, dst, coef * state.amps[src])
    return ManyBodyState(sub, out)


# ---------------------------------------------------------------------------
# First-quantized dense oracle (tests only)
# ---------------------------------------------------------------------------

def _site_indices(M: int, N: int) -> np.ndarray:
    """(M^N, N) array: particle coordinates for each tensor basis index."""
    grids = np.indices((M,) * N).reshape(N, -1).T
    return grids


def symmetrizer(M: int, N: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of (C^M)^(x) N."""
    import itertools

    dim = M**N
    if dim > DENSE_ORACLE_CAP:
        raise ConfigError(f"dense oracle size {dim} exceeds cap {DENSE_ORACLE_CAP}")
    S = np.zeros((dim, dim))
    flat = _site_indices(M, N)
    weights = M ** np.arange(N - 1, -1, -1)
    for perm in itertools.permutations(range(N)):
        permuted = flat[:, list(perm)] @ weights
        S[permuted, np.arange(dim)] += 1.0
    return S / math.factorial(N)


def dense_oracle(h: np.ndarray, w: LatticeField, M: int, N: int):
    """First-quantized H = sum h_i + (1/N) sum_{i<j} w(x_i - x_j) on (C^M)^(x)N,
    together with the symmetrizer."""
    dim = M**N
    if dim > DENSE_ORACLE_CAP:
        raise ConfigError(f"dense oracle size {dim} exceeds cap {DENSE_ORACLE_CAP}")
    H = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(M)
    for i in range(N):
        ops = [eye] * N
        ops[i] = h
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        H += term
    W = convolution_kernel_matrix(w)
    flat = _site_indices(M, N)
    diag = np.zeros(dim)
    for i in range(N):
        for j in range(i + 1, N):
            diag += W[flat[:, i], flat[:, j]]
    H += np.diag(diag) / N
    return H, symmetrizer(M, N)


def occupation_to_tensor_isometry(basis: OccupationBasis) -> np.ndarray:
    """(M^N, dim) isometry mapping occupation vectors to symmetric tensors."""
    M, N = basis.sites, basis.particles
    dim = M**N
    if dim > DENSE_ORACLE_CAP:
        raise ConfigError(f"dense oracle size {dim} exceeds cap {DENSE_ORACLE_CAP}")
    flat = _site_indices(M, N)
    U = np.zeros((dim, basis.dim))
    for t in range(dim):
        occ = np.bincount(flat[t], minlength=M)
        s = basis.index_of(occ)
        U[t, s] = math.sqrt(
            math.prod(math.factorial(int(k)) for k in occ) / math.factorial(N)
        )
    return U
