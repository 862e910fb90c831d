"""Truncated-space time evolution, two-copy overlap curves, and
finite-difference Gram estimation: the truncated basis and projected
Hamiltonians, ``evolve_density``, ``apply_group_word``, the overlaps
``beta`` and the whole-matrix ``estimate_gram_matrix``.

Evolution exponentiates the generator Hamiltonian projected onto a
photon-number-truncated basis, via Hermitian eigendecomposition of the
connected components of its coupling graph, so it is exactly unitary on the
working space and never forms a D x D matrix. A density evolves as the r
columns of its support, on the rows of the blocks that contain a support
state, at all the times asked for in one pass. ``beta`` and
``estimate_gram_matrix`` accept a ket too: its projector evolves as the one
column psi/|psi| (Phi = psi/|psi|, P = [[1]]). Photon-number-shifting
generators get a configurable buffer of extra photons above the state's
support; occupancy of the top two sectors of the working basis (the guard
band) is the truncation-leakage proxy, checked together with trace and
Hermiticity deviations and never silently accepted.

The basis of each (modes, cutoff) and the eigendecomposed blocks of each
(generator, modes, cutoff) depend on no state, so they are built once per
process and kept, read-only, in the byte-budgeted store of ``generators``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityOperator,
    Occupation,
    SparseKet,
    ValidationError,
    _run_starts,
    enumerate_occupations,
    normalize,
)
from .generators import (
    GeneratorDescriptor,
    Group,
    _generator_action,
    _monomials,
    _recall,
    _remember,
    _trim,
    lie_basis,
    number_shift,
)

_IMAG_RESIDUE_TOL = 1e-12


class LeakageError(RuntimeError):
    """Truncated evolution left too much weight near the cutoff boundary."""


@dataclass(frozen=True)
class TruncatedBasis:
    """Bijective map between occupation vectors of at most ``cutoff`` total
    photons (lexicographic order) and dense indices."""

    modes: int
    cutoff: int
    states: tuple[Occupation, ...]
    index: dict[Occupation, int]

    @classmethod
    def build(cls, modes: int, cutoff: int) -> "TruncatedBasis":
        states = tuple(enumerate_occupations(modes, cutoff))
        index = {occ: i for i, occ in enumerate(states)}
        return cls(modes=modes, cutoff=cutoff, states=states, index=index)

    @property
    def size(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs of the truncated evolution: extra photons above the state's
    support, the tolerated boundary/trace deviation, and the default
    finite-difference step."""

    buffer: int = 16
    leakage_tolerance: float = 1e-6
    step: float = 1e-3

    def __post_init__(self) -> None:
        if self.buffer < 0:
            raise ValueError("buffer must be >= 0")
        if not (0 < self.leakage_tolerance < math.inf and 0 < self.step < math.inf):  # NaN fails too
            raise ValueError("tolerances and step must be positive and finite")
        half = self.step / 2.0
        if half * half == 0.0:
            raise ValueError(f"step {self.step:g} is too small: the square of h/2 underflows to 0")


def _check_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")


def _couplings(
    generators: Sequence[GeneratorDescriptor], basis: TruncatedBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every matrix element <row|H_gen|col> of the generators inside the
    truncated basis, as arrays ``(gen, row, col, coeff)``."""
    gen, src, tgt, coeff, union, rows = _generator_action(_monomials(tuple(generators)), np.array(basis.states))
    # rows ranks the basis states among the union of basis and targets;
    # a target above the cutoff keeps position -1 and is dropped
    position = np.full(len(union), -1)
    position[rows] = np.arange(basis.size)
    row = position[tgt]
    kept = row >= 0
    return gen[kept], row[kept], src[kept], coeff[kept]


def dense_hamiltonian(g: GeneratorDescriptor, basis: TruncatedBasis) -> np.ndarray:
    """Matrix elements <n|H|n'> of the generator over the truncated basis.

    Couplings into states above the cutoff are dropped on both sides, so the
    projected matrix is Hermitian by construction.
    """
    _, row, col, coeff = _couplings([g], basis)
    h = np.zeros((basis.size, basis.size), dtype=complex)
    h[row, col] = coeff
    return h


def _blocks(
    generators: Sequence[GeneratorDescriptor], basis: TruncatedBasis
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each generator's projected Hamiltonian, block by block.

    A node is a (generator, basis state) pair, numbered generator * D +
    basis index. The blocks are the connected components of the coupling
    graph, so no coupling crosses a block. Returns one ``(nodes, h)`` pair
    per block size s: the n x s nodes of its blocks, in order of their
    smallest node (hence of generator), and the n x s x s block matrices.
    """
    size = basis.size
    gen, row, col, coeff = _couplings(generators, basis)
    dst, src = gen * size + row, gen * size + col
    # label every node by the smallest node of its component: take the
    # neighbours' smallest label, then jump to that label's own label
    label = np.arange(len(generators) * size)
    while True:
        lowest = label.copy()
        np.minimum.at(lowest, dst, label[src])
        lowest = lowest[lowest]
        if np.array_equal(lowest, label):
            break
        label = lowest
    _, block, counts = np.unique(label, return_inverse=True, return_counts=True)
    order = np.argsort(block, kind="stable")
    start = np.cumsum(counts) - counts
    place = np.empty_like(order)
    place[order] = np.arange(len(order)) - np.repeat(start, counts)
    edge_size = counts[block[dst]]
    out = []
    for s in np.unique(counts).tolist():
        blocks = np.flatnonzero(counts == s)
        within = np.full(len(counts), -1)
        within[blocks] = np.arange(len(blocks))
        kept = edge_size == s
        h = np.zeros((len(blocks), s, s), dtype=complex)
        h[within[block[dst[kept]]], place[dst[kept]], place[src[kept]]] = coeff[kept]
        out.append((order[start[blocks, None] + np.arange(s)], h))
    return out


def _basis(modes: int, cutoff: int) -> tuple[TruncatedBasis, np.ndarray, np.ndarray]:
    """The basis, as itself and as a D x m array, and its guard band: the
    states of the top two photon sectors."""
    key = ("basis", modes, cutoff)
    found = _recall(key)
    if found is None:
        basis = TruncatedBasis.build(modes, cutoff)
        states = np.array(basis.states, dtype=np.int64)
        band = states.sum(axis=1) > cutoff - 2
        found = (basis, states, band)
        _remember(key, found, (states, band))
    return found


def _spectra(
    generators: Sequence[GeneratorDescriptor], basis: TruncatedBasis
) -> list[tuple[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]]:
    """Each generator's eigendecomposed blocks: per block size, the basis
    indices of its blocks (in order of their smallest one), their
    eigenvalues and eigenvectors; and the block of each basis index, the
    blocks numbered in that order, by size and then within it. Misses are
    built together, one stacked ``eigh`` per block size."""
    size = basis.size
    keys = [(g, basis.modes, basis.cutoff) for g in generators]
    found = [_recall(key) for key in keys]
    missing = [n for n, spectrum in enumerate(found) if spectrum is None]
    if missing:
        pieces: dict[int, dict] = {n: {} for n in missing}
        for nodes, h in _blocks([generators[n] for n in missing], basis):
            first = np.searchsorted(nodes[:, 0] // size, np.arange(len(missing) + 1)).tolist()
            eigenvalues, eigenvectors = np.linalg.eigh(h)
            for k, n in enumerate(missing):
                span = slice(first[k], first[k + 1])
                if span.start < span.stop:
                    pieces[n][nodes.shape[1]] = (
                        nodes[span] % size,
                        eigenvalues[span].copy(),
                        eigenvectors[span].copy(),
                    )
        for n in missing:
            block, start = np.empty(size, dtype=np.int64), 0
            for nodes, _, _ in pieces[n].values():
                block[nodes] = start + np.arange(len(nodes))[:, None]
                start += len(nodes)
            found[n] = (pieces[n], block)
            _remember(keys[n], found[n], [block, *(a for piece in pieces[n].values() for a in piece)])
    _trim()
    return found


class _Workspace:
    """The truncated working space for evolving states under a set of
    generators: the cutoff (the states' photon number, plus the buffer when
    any generator shifts photon number), the basis, the generators'
    eigendecomposed blocks, the rows it works on (basis indices) with their
    states and guard band, and the leakage check with the largest value it
    has seen of each measured quantity. Given the states' support (S x m),
    it keeps only the blocks that contain a support state, and its rows are
    the states they cover, ``support`` the support's rows among them."""

    def __init__(
        self, modes: int, max_total: int, generators: Iterable[GeneratorDescriptor], cfg: EvolutionConfig,
        support: np.ndarray | None = None,
    ) -> None:
        self.cfg = cfg
        self.generators = tuple(dict.fromkeys(generators))
        self.shifting = any(number_shift(g.kind) > 0 for g in self.generators)
        self.basis, states, band = _basis(modes, max_total + (cfg.buffer if self.shifting else 0))
        size = self.basis.size
        reached = np.full(size, support is None)
        if support is not None:
            support = np.array([self.basis.index[occ] for occ in map(tuple, support.tolist())], dtype=np.int64)
            reached[support] = True
        spectra = _spectra(self.generators, self.basis)
        # every (generator, block size) piece in turn, and its first block
        # numbered over all of them; each block map starts from 0
        pieces = [(n, s, piece) for n, (spectrum, _) in enumerate(spectra) for s, piece in spectrum.items()]
        first = np.cumsum([0] + [len(piece[0]) for _, _, piece in pieces])
        offset = first[np.searchsorted([n for n, _, _ in pieces], np.arange(len(spectra)))]
        # the blocks that hold a support state, or every block without one
        codes = np.array([block for _, block in spectra]).reshape(len(spectra), size) + offset[:, None]
        chosen = np.zeros(first[-1], dtype=bool)
        chosen[codes if support is None else codes[:, support]] = True
        ids = np.flatnonzero(chosen)
        owner = np.searchsorted(first, ids, side="right") - 1
        # per block size, the kept blocks of each generator in turn
        kept: dict[int, list] = {}
        bounds = np.flatnonzero(_run_starts(owner)).tolist() + [len(ids)]
        for lo, hi in zip(bounds, bounds[1:]):
            p = int(owner[lo])
            n, s, (nodes, eigenvalues, eigenvectors) = pieces[p]
            at = slice(None) if hi - lo == len(nodes) else ids[lo:hi] - first[p]  # all kept: no copy
            kept.setdefault(s, []).append((nodes[at] + n * size, eigenvalues[at], eigenvectors[at]))
        blocks = [[np.concatenate(arrays) for arrays in zip(*kept[s])] for s in sorted(kept)]
        for nodes, _, _ in blocks:
            reached[nodes % size] = True
        self.rows = np.flatnonzero(reached)
        self.states, self.band = states[self.rows], band[self.rows]
        row = np.cumsum(reached) - 1
        self.support = None if support is None else row[support]
        # per block size: nodes (generator * R + row), each generator's first block, eigenpairs
        firsts = np.arange(len(self.generators) + 1)
        self.blocks = [
            (nodes // size * len(self.rows) + row[nodes % size], np.searchsorted(nodes[:, 0] // size, firsts), *pairs)
            for nodes, *pairs in blocks
        ]
        self.worst: dict[str, float] = {}

    def evolve(self, times: np.ndarray | float, columns: np.ndarray, first: int = 0, count: int = 1) -> np.ndarray:
        """exp(-i H_n t) applied to an R x r block of columns for each t in
        ``times`` (exactly the columns where t = 0) and the generators n =
        first .. first + count - 1, stacked: times.shape + (count * R, r)."""
        size = len(self.rows)
        out = np.zeros(np.shape(times) + (count * size, columns.shape[1]), dtype=complex)
        for nodes, firsts, eigenvalues, eigenvectors in self.blocks if np.any(times) else ():
            span = slice(firsts[first], firsts[first + count])
            if span.start == span.stop:  # no block of this size among the generators
                continue
            nodes = nodes[span]
            v = eigenvectors[span]
            x = v.conj().transpose(0, 2, 1) @ columns[nodes % size]
            phases = np.exp(-1j * np.multiply.outer(times, eigenvalues[span]))[..., None]
            out[..., nodes - first * size, :] = v @ (phases * x)
        out[np.equal(times, 0.0)] = np.tile(columns, (count, 1))
        return out

    def check(self, context: str, **measured: float) -> None:
        """Raise LeakageError unless every measured deviation is within the
        leakage tolerance; a NaN deviation fails."""
        for name, value in measured.items():
            self.worst[name] = max(self.worst.get(name, 0.0), value)
        tol = self.cfg.leakage_tolerance
        if not all(value <= tol for value in measured.values()):
            found = ", ".join(f"{name.replace('_', ' ')} {value:.3e}" for name, value in measured.items())
            raise LeakageError(
                f"{context}: {found} exceed tolerance {tol:.1e} "
                f"(cutoff {self.basis.cutoff}); increase the buffer or reduce |t|"
            )

    def column(self, psi: SparseKet) -> np.ndarray:
        """A ket as a D x 1 column over the basis."""
        vec = np.zeros((self.basis.size, 1), dtype=complex)
        for occ, amp in psi.terms.items():
            vec[self.basis.index[occ], 0] = amp
        return vec


class _DensityWorkspace(_Workspace):
    """The working space of one density rho = Phi P Phi^dag under a set of
    generators, so that an evolved copy U rho U^dag is A P A^dag with the
    R x r block A = U Phi. For a density, Phi holds the rows of rho's
    support and P is rho over the support; for a ket psi, the projector
    |psi><psi| / <psi|psi> has Phi = psi/|psi| on the support rows and
    P = [[1]], so r = 1."""

    def __init__(
        self, state: SparseKet | DensityOperator, generators: Sequence[GeneratorDescriptor], cfg: EvolutionConfig
    ) -> None:
        if isinstance(state, SparseKet):
            support, amps = normalize(state).arrays()
            columns = amps[:, None]
            self.p = np.ones((1, 1), dtype=complex)
            # a ket's projector is Hermitian by construction
            self.hermiticity = 0.0
        else:
            support, columns = state.support, np.eye(len(state.support), dtype=complex)
            self.p = state.matrix
            # (A P A^dag)^dag = A P^dag A^dag, so every copy inherits P's residual
            self.hermiticity = state.hermiticity_residual
        super().__init__(state.modes, max(map(sum, support.tolist()), default=0), generators, cfg, support)
        self.phi = np.zeros((len(self.rows), columns.shape[1]), dtype=complex)
        self.phi[self.support] = columns

    def evolved(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The blocks A_0 = Phi and A_n = exp(-i H_n t) Phi for every
        generator n and each of the T times, T x R x (d + 1) x r, and their
        Gram, T x (d + 1) r x (d + 1) r. Every copy at t != 0 is
        leakage-checked; the first to fail, by time then generator, raises."""
        t, k, r = len(times), len(self.generators) + 1, self.phi.shape[1]
        copies = np.empty((t, len(self.rows), k, r), dtype=complex)
        copies[:, :, 0] = self.phi
        copies[:, :, 1:] = self.evolve(times, self.phi, 0, k - 1).reshape(t, k - 1, -1, r).transpose(0, 2, 1, 3)
        x = copies.reshape(t, -1, k * r)
        gram = x.conj().transpose(0, 2, 1) @ x
        moving = times != 0.0
        if moving.any():
            # the diagonal of each A P A^dag, summed in all (from A^dag A) and over the band
            own = np.einsum("tiaib->tiab", gram.reshape(t, k, r, k, r)[:, 1:, :, 1:])
            band = copies[:, self.band, 1:]
            shifts = [number_shift(g.kind) > 0 for g in self.generators]
            measured = {
                "trace_deviation": np.abs(np.sum(self.p * own.conj(), axis=(2, 3)) - 1.0),
                "hermiticity": np.full(own.shape[:2], self.hermiticity),
                "boundary_weight": np.where(shifts, np.sum(((band @ self.p) * band.conj()).real, axis=(1, 3)), 0.0),
            }
            passed = np.logical_and.reduce([value <= self.cfg.leakage_tolerance for value in measured.values()])
            for i, n in np.argwhere(moving[:, None] & ~passed)[:1].tolist():
                context = f"evolving under {self.generators[n].label} for t={times[i]:g}"
                self.check(context, **{name: float(value[i, n]) for name, value in measured.items()})
            # every copy passed, so do the largest values: record them
            self.check("evolving", **{name: float(value[moving].max()) for name, value in measured.items()})
        return copies, gram

    def beta_matrix(self, times: np.ndarray) -> np.ndarray:
        """beta_ij = Tr[rho_i rho_j] for i, j in 0..d at each of the T times,
        with rho_0 = rho: Tr[P M_ij P M_ij^dag] with M_ij = A_i^dag A_j, from
        the Gram of the evolved columns. Each d + 1 square is symmetric bit
        for bit. An overlap that overflows raises ValidationError."""
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.evolved(times)[1]
            t, k, r = len(times), len(self.generators) + 1, self.phi.shape[1]
            m = gram.reshape(t, k, r, k, r).transpose(0, 1, 3, 2, 4)  # M_ij at [:, i, j]
            pmp = self.p @ m @ self.p
            pmp *= m.conj()
            values = np.sum(pmp, axis=(3, 4))
        if not np.isfinite(values).all():
            raise ValidationError("beta overlap is not finite: the density's entries are too large")
        failed = ~(np.abs(values.imag) <= _IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(values.real)))
        if failed.any():
            raise ValidationError(f"beta overlap has imaginary residue {values.imag[failed][0]:.3e}")
        upper = np.triu(values.real)
        return upper + np.triu(upper, 1).transpose(0, 2, 1)


def evolve_density(
    rho: DensityOperator,
    g: GeneratorDescriptor,
    t: float,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> DensityOperator:
    """Conjugate rho by exp(-iHt) on the truncated working basis."""
    _check_time(t)
    ws = _DensityWorkspace(rho, (g,), cfg)
    if t == 0.0:
        return rho
    a = ws.evolved(np.array([t]))[0][0, :, 1]
    return DensityOperator._checked(ws.states, (a @ ws.p) @ a.conj().T)


def beta(
    rho: SparseKet | DensityOperator,
    i: int,
    j: int,
    t: float,
    group: Group,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> float:
    """Hilbert-Schmidt overlap of two evolved copies of rho, the copies
    driven by basis generators ``i`` and ``j`` (1-based; 0 = no evolution).
    A ket stands for its normalized projector. Every generator's copy is
    evolved and leakage-checked."""
    _check_time(t)
    ws = _DensityWorkspace(rho, lie_basis(group, rho.modes).elements, cfg)
    for index in (i, j):
        if not 0 <= index <= len(ws.generators):
            raise ValueError(f"generator index {index} out of range 0..{len(ws.generators)}")
    return float(ws.beta_matrix(np.array([t]))[0, i, j])


@dataclass(frozen=True)
class EstimatedGram:
    """The estimated Gram matrix with its raw stencil values, the working
    space it was evolved in, and the largest leakage measured over every
    evolved copy."""

    group: Group
    modes: int
    step: float
    values: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray
    working_dimension: int
    cutoff: int
    max_boundary_weight: float
    max_trace_deviation: float
    hermiticity_residual: float


def estimate_gram_matrix(
    rho: SparseKet | DensityOperator,
    group: Group,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> EstimatedGram:
    """Estimate the whole Gram matrix from second time derivatives of the
    overlap curves: entry (i, j) is (d2 beta_ij - d2 beta_i0 - d2 beta_0j) / 2
    at t = 0, each derivative from the central stencil of the beta matrix at
    step h (``coarse``) and h/2 (``fine``), with one Richardson step between
    them (``values``). All three are symmetric bit for bit. A ket stands for
    its normalized projector and evolves as one column. A step so small that
    a stencil overflows raises ValidationError."""
    ws = _DensityWorkspace(rho, lie_basis(group, rho.modes).elements, cfg)
    (b0,) = ws.beta_matrix(np.zeros(1))
    steps = np.array([cfg.step, cfg.step / 2.0])
    b = ws.beta_matrix(np.array([steps, -steps]).T.ravel())  # h, -h, h/2, -h/2
    with np.errstate(over="ignore", invalid="ignore"):
        dd = (b[0::2] - 2.0 * b0 + b[1::2]) / (steps * steps)[:, None, None]
        # dd is symmetric and a sum commutes, so the entries are too
        coarse, fine = 0.5 * (dd[:, 1:, 1:] - (dd[:, 1:, :1] + dd[:, :1, 1:]))
        values = (4.0 * fine - coarse) / 3.0
    if not np.isfinite(values).all():  # so are coarse and fine, or values would not be
        raise ValidationError(f"step {cfg.step:g} is too small: the finite-difference estimate is not finite")
    return EstimatedGram(
        group=group,
        modes=rho.modes,
        step=cfg.step,
        values=values,
        coarse=coarse,
        fine=fine,
        working_dimension=ws.basis.size,
        cutoff=ws.basis.cutoff,
        max_boundary_weight=ws.worst["boundary_weight"],
        max_trace_deviation=ws.worst["trace_deviation"],
        hermiticity_residual=ws.worst["hermiticity"],
    )


def apply_group_word(
    psi: SparseKet,
    word: Sequence[tuple[GeneratorDescriptor, float]],
    cfg: EvolutionConfig = EvolutionConfig(),
) -> SparseKet:
    """Apply exp(-i t_1 H_1) ... exp(-i t_a H_a) to the ket, rightmost factor
    first. Photon-number-preserving words are sector-exact; shifting words
    are guard-band checked after every factor."""
    for _, t in word:
        _check_time(t)
    if not word:
        return psi
    if psi.is_zero():
        raise ValidationError("cannot evolve the zero ket")
    ws = _Workspace(psi.modes, psi.max_total(), [g for g, _ in word], cfg)
    vec = ws.column(psi)
    norm0 = float(np.linalg.norm(vec))
    for g, t in reversed(word):
        if t == 0.0:
            continue
        vec = ws.evolve(t, vec, ws.generators.index(g))
        if ws.shifting:
            ws.check(
                f"group word factor {g.label} (t={t:g})",
                boundary_weight=float(np.sum(np.abs(vec[ws.band]) ** 2)),
            )
    ws.check("group word", norm_change=abs(float(np.linalg.norm(vec)) - norm0))
    return SparseKet.from_arrays(ws.states, vec[:, 0])

