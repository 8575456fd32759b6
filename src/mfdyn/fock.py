"""Symmetric N-particle subspace: occupation basis, lowering maps,
second quantization, the N-body Hamiltonian H_N, and product states.

Mode amplitudes carry sqrt(dx), so a lattice-normalized orbital and a
normalized Fock vector are consistent.
"""
from __future__ import annotations

import functools
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

    Data derived from the basis (rank table, lowering maps, CSR pattern
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


@functools.cache
def k_basis(M: int, k: int) -> OccupationBasis:
    """The occupation basis of k particles on M sites, the mode space of
    gamma^(k) and phi^(x)k: mode m is the unit symmetric tensor with
    occupations `states[m]`. Made once per (M, k) and shared by every
    caller, so its states are read-only."""
    basis = enumerate_basis(M, k)
    basis.states.flags.writeable = False
    return basis


def _lowering_map(basis: OccupationBasis, k: int):
    """The N-k basis, and for every mode m of `k_basis(M, k)` and state t of
    the N-k basis the row of t + m in `basis` with the amplitude
    sqrt(prod_x (t_x + m_x)! / t_x!) of a^m = prod_x a_x^(m_x), times the
    mode's weight sqrt(k! / prod_x m_x!)."""
    key = ("lower", k)
    if key not in basis._cache:
        if basis.particles < k:
            raise ConfigError(f"cannot lower {basis.particles} particles by {k}")
        kb = k_basis(basis.sites, k)
        sub = enumerate_basis(basis.sites, basis.particles - k)
        modes = np.arange(kb.dim)
        # row i holds the i-th site of every mode, x_1 <= ... <= x_k
        sites = np.repeat(np.tile(np.arange(basis.sites), kb.dim), kb.states.ravel())
        raised = np.zeros((kb.dim, basis.sites), dtype=np.int64)
        count = np.ones((kb.dim, sub.dim), dtype=np.int64)  # under the sqrt
        for x in sites.reshape(kb.dim, k).T:
            raised[modes, x] += 1
            count *= sub.states.T[x] + raised[modes, x][:, None]
        rows = np.stack([basis.rank(sub.states + r) for r in kb.states])
        coef = np.sqrt(count)
        coef *= _sqrt_multinomial(kb)[:, None]  # in place: a temporary here raised peak RSS
        basis._cache[key] = (sub, rows, coef)
    return basis._cache[key]


def annihilate(
    amps: np.ndarray, basis: OccupationBasis, k: int
) -> tuple[np.ndarray, OccupationBasis]:
    """The components of a_x1 ... a_xk v on the symmetric k-particle space,
    for every vector v on the last axis of `amps`: shape (..., dim) ->
    (..., modes, dim of the N-k sector), modes as in `k_basis(M, k)`, with
    the N-k basis.

    a_x1 ... a_xk is injective on each sector, so every entry is a single
    gathered product."""
    amps = np.asarray(amps)
    if amps.shape[-1] != basis.dim:
        raise ConfigError("amplitude vectors do not match basis dimension")
    sub, rows, coef = _lowering_map(basis, k)
    return coef * amps[..., rows], sub


def _onebody_pattern(basis: OccupationBasis):
    """Static CSR data for dGamma(A) = sum_ij A_ij a_i^dag a_j.

    For every state t of the N-1 sector and ordered pair i != j there is a
    hop from t + e_j to t + e_i with amplitude sqrt((t_i + 1)(t_j + 1)).
    Returns `indptr` and `indices` of all hops plus the diagonal in
    canonical order; per CSR entry the flat index i*M + j and the amplitude
    of its hop (0 and 0.0 on the diagonal); and the CSR position of every
    diagonal entry. One stable sort of the (row, column) keys yields the
    ordering.
    """
    if "pattern" not in basis._cache:
        sub, rows, _ = _lowering_map(basis, 1)
        M, dim = basis.sites, basis.dim
        i, j = np.nonzero(~np.eye(M, dtype=bool))
        up = sub.states.T + 1
        diag = np.arange(dim)
        n_hops = i.size * sub.dim
        row = np.concatenate([rows[i].ravel(), diag])
        col = np.concatenate([rows[j].ravel(), diag])
        entry = np.argsort(row * dim + col, kind="stable")  # i != j: no two keys are equal
        indptr = np.zeros(dim + 1, dtype=np.int32)
        np.cumsum(np.bincount(row, minlength=dim), out=indptr[1:])
        indices = col[entry].astype(np.int32)
        for a in (indptr, indices):
            a.flags.writeable = False  # shared by every operator built on them
        basis._cache["pattern"] = (
            indptr,
            indices,
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
    Hop amplitudes are at least 1, so a hop is zero exactly where its
    entry of A is: zeros are looked for on A and the diagonal, and only
    then does `eliminate_zeros` run, on a copy of the shared pattern.
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
    flat = A.astype(complex).ravel()
    data = flat.take(ij)
    data *= amps
    data[diag_pos] = diag
    data += 0.0
    zero_hops = flat == 0
    zero_hops[:: basis.sites + 1] = False  # A's diagonal enters through `diag` only
    if zero_hops.any() or not diag.all():
        out = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(basis.dim, basis.dim))
        out.eliminate_zeros()
        return out
    return sp.csr_matrix((data, indices, indptr), shape=(basis.dim, basis.dim))


def interaction_diagonal(w: LatticeField, basis: OccupationBasis) -> np.ndarray:
    """sum_{x<y} w(d(x,y)) n_x n_y + (1/2) w(0) sum_x n_x (n_x - 1), the
    diagonal of the pair interaction on the occupation basis."""
    W = convolution_kernel_matrix(w)
    occ = basis.states.astype(float)
    return 0.5 * np.einsum("sx,xy,sy->s", occ, W, occ) - 0.5 * W[0, 0] * occ.sum(axis=1)


def build_HN(h: np.ndarray, w: LatticeField, basis: OccupationBasis) -> sp.csr_matrix:
    """H_N = dGamma(h) + (1/N) * pair interaction, as one CSR; N >= 1."""
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
    # np.prod(..., axis=1) without its Python wrapper: E_k and R_k call this per record
    amps = np.multiply.reduce(phi.mode**basis.states, 1)
    return ManyBodyState(basis, _sqrt_multinomial(basis) * amps)


def _sqrt_multinomial(basis: OccupationBasis) -> np.ndarray:
    """sqrt(N!/prod n!) per state, exact in Python ints before the sqrt;
    made once per basis and read-only."""
    if "multinomial" not in basis._cache:
        N = basis.particles
        fact = np.array([math.factorial(n) for n in range(N + 1)], dtype=object)
        coef = np.sqrt((math.factorial(N) // fact[basis.states].prod(axis=-1)).astype(float))
        coef.flags.writeable = False
        basis._cache["multinomial"] = coef
    return basis._cache["multinomial"]
