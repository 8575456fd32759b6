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

    Data derived from the basis (rank table, lowering maps, the all-pairs
    CSR pattern of the weights' dGamma(q)) is kept in `_cache`, so it lives
    exactly as long as the basis.
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
        return self._rank_table()[np.arange(self.sites - 1), _suffix_counts(occ)].sum(axis=-1)

    def _rank_table(self) -> np.ndarray:
        """table[p, S] = C(S + M-p-2, M-p-1) for p < M-1 and S <= N."""
        if "rank" not in self._cache:
            M, N = self.sites, self.particles
            table = [
                math.comb(S + M - p - 2, M - p - 1) for p in range(M - 1) for S in range(N + 1)
            ]
            self._cache["rank"] = np.array(table, dtype=np.int64).reshape(M - 1, N + 1)
        return self._cache["rank"]


def _suffix_counts(occ) -> np.ndarray:
    """The particles right of each site p < M-1: (..., M) -> (..., M-1)."""
    return np.cumsum(np.asarray(occ)[..., :0:-1], axis=-1)[..., ::-1]


def enumerate_basis(M: int, N: int) -> OccupationBasis:
    """All occupation vectors of N bosons on M sites, first site descending,
    as a (dim, M) int64 array counted from the sorted sites of the N
    particles; more than `BASIS_CAP` states are refused."""
    if M < 1 or N < 0:
        raise ConfigError(f"need M >= 1 sites and N >= 0 particles, got M={M}, N={N}")
    dim = math.comb(N + M - 1, N)
    if dim > BASIS_CAP:
        raise ConfigError(
            f"occupation basis for M={M}, N={N} has {dim} states, above the cap {BASIS_CAP}"
        )
    # The sorted sites of the N particles, in lexicographic order, give the
    # occupation vectors first-site descending; one bincount counts them.
    sites = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(M), N)),
        dtype=np.int64,
        count=dim * N,
    ).reshape(dim, N)
    sites += np.arange(0, dim * M, M)[:, None]
    return OccupationBasis(M, N, np.bincount(sites.ravel(), minlength=dim * M).reshape(dim, M))


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
    mode's weight sqrt(k! / prod_x m_x!). The rows come from range sums, see
    `_raised_rows`; an amplitude above the float range is refused."""
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
        # under the sqrt, at most N!/(N-k)!: in int64 while that fits
        fits = math.perm(basis.particles, k) < 2**63
        count = np.ones((kb.dim, sub.dim), dtype=np.int64 if fits else object)
        for x in sites.reshape(kb.dim, k).T:
            raised[modes, x] += 1
            count *= sub.states.T[x] + raised[modes, x][:, None]
        rows = _raised_rows(basis, sub, kb)
        try:
            coef = np.sqrt(count if fits else count.astype(float))
        except OverflowError:
            raise ConfigError(
                f"lowering amplitudes for M={basis.sites}, N={basis.particles}, k={k} "
                "exceed the float range"
            ) from None
        coef *= _sqrt_multinomial(kb)[:, None]  # in place: a temporary here raised peak RSS
        basis._cache[key] = (sub, rows, coef)
    return basis._cache[key]


def _raised_rows(basis: OccupationBasis, sub: OccupationBasis, kb: OccupationBasis):
    """rows[m, t] = basis.rank(sub.states[t] + kb.states[m]), in integers.

    The suffix counts of t + m are those of t plus those of m, and a mode's
    own are a non-increasing step in p with values c in 0..k. So its row is,
    for each c, the sum of table[p, R_p(t) + c] over the sites p where m
    has c particles to the right: one range sum of a column prefix-summed
    over p, k+1 columns in all.
    """
    levels = np.arange(kb.particles + 1)
    # terms[c, t, p] = table[p, R_p(t) + c], summed over p from the left
    flat = _suffix_counts(sub.states) + np.arange(basis.sites - 1) * (basis.particles + 1)
    terms = basis._rank_table().ravel().take(flat + levels[:, None, None])
    prefix = np.zeros((levels.size, sub.dim, basis.sites), dtype=np.int64)
    np.cumsum(terms, axis=2, out=prefix[..., 1:])
    prefix = prefix.transpose(0, 2, 1).copy()
    # level c holds the sites p in [ends[c+1], ends[c]) of every mode
    ends = (_suffix_counts(kb.states)[:, :, None] >= np.append(levels, levels.size)).sum(axis=1)
    rows = np.zeros((kb.dim, sub.dim), dtype=np.int64)
    for c in levels:
        rows += prefix[c, ends[:, c]]
        rows -= prefix[c, ends[:, c + 1]]
    return rows


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


def _hop_layout(basis: OccupationBasis, i: np.ndarray, j: np.ndarray, rows: np.ndarray):
    """CSR layout of the hops of the site pairs (i, j), i != j, and of
    diagonal entries in the rows `rows`.

    For every state t of the N-1 sector a pair's hop goes from t + e_j to
    t + e_i with amplitude sqrt((t_i + 1)(t_j + 1)). The entries are put in
    CSR order by one stable sort of the (row, column) keys. Returns
    `indptr` and `indices`; per entry the flat index i*M + j and the
    amplitude of its hop (0 and 0.0 on the diagonal); and the CSR position
    of every diagonal entry.
    """
    sub, raised, _ = _lowering_map(basis, 1)
    up = sub.states.T + 1
    row = np.concatenate([raised[i].ravel(), rows])
    col = np.concatenate([raised[j].ravel(), rows])
    entry = np.argsort(row * basis.dim + col, kind="stable")  # i != j: no two keys are equal
    indptr = np.zeros(basis.dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=basis.dim), out=indptr[1:])
    n_hops = row.size - rows.size
    # one trailing zero: `clip` sends every diagonal entry (entry >= n_hops) to it
    ij = np.append(np.repeat(i * basis.sites + j, sub.dim), 0).take(entry, mode="clip")
    amps = np.append(np.sqrt(up[i] * up[j]), 0.0).take(entry, mode="clip")
    return indptr, col[entry].astype(np.int32), ij, amps, np.flatnonzero(entry >= n_hops)


def _onebody_pattern(basis: OccupationBasis):
    """`_hop_layout` of every ordered pair i != j and of every row: the
    layout of dGamma(A) for an A without zeros, cached on the basis, its
    `indptr` and `indices` read-only. Only a dense dGamma(q) of the sector
    weights takes it."""
    if "pattern" not in basis._cache:
        i, j = np.nonzero(~np.eye(basis.sites, dtype=bool))
        pattern = _hop_layout(basis, i, j, np.arange(basis.dim))
        # shared by every operator built on them; `ij` stays writeable,
        # because `take` copies a read-only index array on every fill
        for a in pattern[:2]:
            a.flags.writeable = False
        basis._cache["pattern"] = pattern
    return basis._cache["pattern"]


def _complex_operator(A, basis: OccupationBasis) -> np.ndarray:
    """A one-body operator as a complex M x M array; another shape is refused."""
    A = np.asarray(A)
    if A.shape != (basis.sites, basis.sites):
        raise ConfigError(
            f"operator shape {A.shape} does not match M={basis.sites}"
        )
    return A.astype(complex)


def second_quantize_onebody(
    A: np.ndarray, basis: OccupationBasis, extra_diag: np.ndarray | None = None
) -> sp.csr_matrix:
    """dGamma(A) = sum_ij A_ij a_i^dag a_j on the occupation basis, plus
    `extra_diag` on the diagonal (H_N's pair term, see `build_HN`).

    Only A's nonzero off-diagonal hops and the nonzero entries of the
    summed diagonal are laid out, by `_hop_layout`; when that is every
    entry, the basis's cached all-pairs pattern is taken. Hop amplitudes
    are at least 1, so a hop is zero exactly where its entry of A is, and
    -0.0 parts become +0.0: the result equals, bit for bit, the sparse sum
    of the hop matrix and the diagonal.
    """
    A = _complex_operator(A, basis)
    diag = basis.states.astype(complex) @ np.diag(A)
    if extra_diag is not None:
        diag += extra_diag
    hops = A != 0
    np.fill_diagonal(hops, False)  # A's diagonal enters through `diag` only
    if hops.sum() == basis.sites * (basis.sites - 1) and diag.all():
        keep = slice(None)
        indptr, indices, ij, amps, diag_pos = _onebody_pattern(basis)
    else:
        keep = np.flatnonzero(diag)
        indptr, indices, ij, amps, diag_pos = _hop_layout(basis, *np.nonzero(hops), keep)
    data = A.ravel().take(ij)
    data *= amps
    data[diag_pos] = diag[keep]
    data += 0.0
    return sp.csr_matrix((data, indices, indptr), shape=(basis.dim, basis.dim))


def interaction_diagonal(w: LatticeField, basis: OccupationBasis) -> np.ndarray:
    """sum_{x<y} w(d(x,y)) n_x n_y + (1/2) w(0) sum_x n_x (n_x - 1), the
    diagonal of the pair interaction on the occupation basis."""
    W = convolution_kernel_matrix(w)
    occ = basis.states.astype(float)
    return 0.5 * np.einsum("sx,xy,sy->s", occ, W, occ) - 0.5 * W[0, 0] * occ.sum(axis=1)


def build_HN(h: np.ndarray, w: LatticeField, basis: OccupationBasis) -> sp.csr_matrix:
    """H_N = dGamma(h) + (1/N) * pair interaction, as one CSR; N >= 1.

    The pair term is diagonal, so H_N is `second_quantize_onebody` of h
    with it added to the summed diagonal: only h's own hops are laid out.
    """
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
    """phi^(x) N: amplitude sqrt(N!/prod n!) * prod (sqrt(dx) phi(x))^n_x.

    Each site's powers mode[x]**n, n = 0..N, are taken once and gathered by
    the occupations."""
    if basis.sites != phi.grid.sites:
        raise ConfigError("orbital and basis have different site counts")
    powers = phi.mode[:, None] ** np.arange(basis.particles + 1)
    # np.prod(..., axis=1) without its Python wrapper: E_k and R_k call this per record
    amps = np.multiply.reduce(powers[np.arange(basis.sites), basis.states], 1)
    return ManyBodyState(basis, _sqrt_multinomial(basis) * amps)


def _sqrt_multinomial(basis: OccupationBasis) -> np.ndarray:
    """sqrt(N!/prod n!) per state, the multinomial exact in integers before
    the sqrt: int64 while N! fits, Python ints beyond. Made once per basis
    and read-only; a multinomial above the float range is refused."""
    if "multinomial" not in basis._cache:
        M, N = basis.sites, basis.particles
        fact = [math.factorial(n) for n in range(N + 1)]
        fact = np.array(fact, dtype=np.int64 if fact[N] < 2**63 else object)
        try:
            count = (fact[N] // np.multiply.reduce(fact[basis.states], -1)).astype(float)
        except OverflowError:
            raise ConfigError(
                f"multinomials N!/prod n! for M={M}, N={N} exceed the float range"
            ) from None
        coef = np.sqrt(count)
        coef.flags.writeable = False
        basis._cache["multinomial"] = coef
    return basis._cache["multinomial"]
