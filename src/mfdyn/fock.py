"""Symmetric N-particle subspace: occupation basis, annihilation maps,
second quantization, the N-body Hamiltonian H_N, and product states.

Mode amplitudes carry sqrt(dx), so a lattice-normalized orbital and a
normalized Fock vector are consistent.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .lattice import LatticeField, convolution_kernel_matrix
from .onebody import Orbital

BASIS_CAP = 200_000


@dataclass(frozen=True, eq=False)
class OccupationBasis:
    """All occupation vectors of N bosons on M sites, first site descending.

    Data derived from the basis (rank table, annihilation map, CSR pattern
    of one-body operators) is kept in `_cache`, so it lives exactly as long
    as the basis.
    """

    sites: int
    particles: int
    states: np.ndarray  # (dim, M) int array
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def rank(self, occ) -> np.ndarray:
        """Row in `states` of each occupation vector (last axis = sites).

        A vector with S particles right of site p is preceded by
        C(S + M-p-2, M-p-1) vectors that agree with it up to site p-1 and
        hold more at site p; the rank is the sum of these counts.
        """
        M, N = self.sites, self.particles
        if "rank" not in self._cache:
            table = [
                math.comb(S + M - p - 2, M - p - 1) for p in range(M - 1) for S in range(N + 1)
            ]
            self._cache["rank"] = np.array(table, dtype=np.int64).reshape(M - 1, N + 1)
        right = np.cumsum(np.asarray(occ)[..., :0:-1], axis=-1)[..., ::-1]
        return self._cache["rank"][np.arange(M - 1), right].sum(axis=-1)


def enumerate_basis(M: int, N: int) -> OccupationBasis:
    if M < 1 or N < 0:
        raise ConfigError(f"need M >= 1 sites and N >= 0 particles, got M={M}, N={N}")
    dim = math.comb(N + M - 1, N)
    if dim > BASIS_CAP:
        raise ConfigError(
            f"occupation basis for M={M}, N={N} has {dim} states, above the cap {BASIS_CAP}"
        )
    # Stars and bars: n_x is the gap between bars x-1 and x among N+M-1
    # slots. Combinations of bar positions come first-site ascending.
    edges = np.empty((dim, M + 1), dtype=np.int64)
    edges[:, 0], edges[:, -1] = -1, N + M - 1
    edges[:, 1:-1] = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(N + M - 1), M - 1)),
        dtype=np.int64,
        count=dim * (M - 1),
    ).reshape(dim, M - 1)[::-1]
    return OccupationBasis(M, N, np.diff(edges, axis=1) - 1)


def _annihilation_map(basis: OccupationBasis):
    """The N-1 basis, and for every site x and state t of it the row of
    t + e_x in `basis` with the amplitude sqrt(t_x + 1) of a_x."""
    if "ann" not in basis._cache:
        if basis.particles < 1:
            raise ConfigError("cannot annihilate from the vacuum sector")
        sub = enumerate_basis(basis.sites, basis.particles - 1)
        rows = np.stack(
            [basis.rank(sub.states + e) for e in np.eye(basis.sites, dtype=np.int64)]
        )
        basis._cache["ann"] = (sub, rows, np.sqrt(sub.states.T + 1))
    return basis._cache["ann"]


def annihilate_all(
    amps: np.ndarray, basis: OccupationBasis
) -> tuple[np.ndarray, OccupationBasis]:
    """a_x v for every site x and every vector v on the last axis of `amps`,
    shape (..., dim) -> (..., M, dim of the N-1 sector), with the N-1 basis.

    a_x is injective, so every entry is a single gathered product."""
    amps = np.asarray(amps)
    if amps.shape[-1] != basis.dim:
        raise ConfigError("amplitude vectors do not match basis dimension")
    sub, rows, coef = _annihilation_map(basis)
    return coef * amps[..., rows], sub


def _onebody_pattern(basis: OccupationBasis):
    """Static CSR data for dGamma(A) = sum_ij A_ij a_i^dag a_j.

    For every state t of the N-1 sector and ordered pair i != j there is a
    hop from t + e_j to t + e_i with amplitude sqrt((t_i + 1)(t_j + 1)).
    Returns `indptr` and `indices` of all hops plus the diagonal in
    canonical order; per CSR entry the flat index i*M + j and the amplitude
    of its hop (0 and 0.0 on the diagonal); and the CSR position of every
    diagonal entry. One COO->CSR pass over the entry numbers yields the
    ordering.
    """
    if "pattern" not in basis._cache:
        sub, rows, _ = _annihilation_map(basis)
        M, dim = basis.sites, basis.dim
        i, j = np.nonzero(~np.eye(M, dtype=bool))
        up = sub.states.T + 1
        diag = np.arange(dim)
        n_hops = i.size * sub.dim
        row = np.concatenate([rows[i].ravel(), diag])
        col = np.concatenate([rows[j].ravel(), diag])
        order = sp.coo_matrix(
            (np.arange(n_hops + dim), (row, col)), shape=(dim, dim)
        ).tocsr()
        entry = order.data
        for a in (order.indptr, order.indices):
            a.flags.writeable = False  # shared by every operator built on them
        basis._cache["pattern"] = (
            order.indptr,
            order.indices,
            np.concatenate([np.repeat(i * M + j, sub.dim), np.zeros(dim, dtype=np.intp)])[entry],
            np.concatenate([np.sqrt(up[i] * up[j]).ravel(), np.zeros(dim)])[entry],
            np.flatnonzero(entry >= n_hops),
        )
    return basis._cache["pattern"]


def second_quantize_onebody(
    A: np.ndarray, basis: OccupationBasis, extra_diag=None
) -> sp.csr_matrix:
    """dGamma(A) = sum_ij A_ij a_i^dag a_j on the occupation basis, plus
    `extra_diag` on the diagonal when given.

    The values are filled into the basis's cached CSR pattern. Entries that
    come out zero are dropped and -0.0 parts become +0.0, so the result
    equals, bit for bit, the sparse sum of the hop matrix and the diagonals.
    """
    A = np.asarray(A)
    if A.shape != (basis.sites, basis.sites):
        raise ConfigError(
            f"operator shape {A.shape} does not match M={basis.sites}"
        )
    indptr, indices, ij, amps, diag_pos = _onebody_pattern(basis)
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


def interaction_diagonal(w: LatticeField, basis: OccupationBasis) -> np.ndarray:
    """sum_{x<y} w(d(x,y)) n_x n_y + (1/2) w(0) sum_x n_x (n_x - 1), the
    diagonal of the pair interaction on the occupation basis."""
    W = convolution_kernel_matrix(w)
    occ = basis.states.astype(float)
    return 0.5 * np.einsum("sx,xy,sy->s", occ, W, occ) - 0.5 * W[0, 0] * occ.sum(axis=1)


def build_HN(h: np.ndarray, w: LatticeField, basis: OccupationBasis) -> sp.csr_matrix:
    """H_N = dGamma(h) + (1/N) * pair interaction, as one CSR."""
    if basis.particles == 0:
        return second_quantize_onebody(h, basis)
    # times 1/N, not / N: the scalar division of a sparse matrix did this
    pair = interaction_diagonal(w, basis).astype(complex) * (1 / basis.particles)
    return second_quantize_onebody(h, basis, pair)


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
    coef = np.sqrt(_multinomial(basis.states, basis.particles).astype(float))
    return ManyBodyState(basis, coef * np.prod(phi.mode**basis.states, axis=1))


def _multinomial(states: np.ndarray, N: int) -> np.ndarray:
    """Exact N!/prod(n!) for each occupation row, as Python ints."""
    fact = np.array([math.factorial(k) for k in range(N + 1)], dtype=object)
    return math.factorial(N) // fact[states].prod(axis=-1)
