"""Truncated-space time evolution, two-copy overlap curves, and
finite-difference Gram estimation: the truncated basis and projected
Hamiltonians, ``evolve_density``, ``apply_group_word``, the overlaps
``beta`` and the whole-matrix ``estimate_gram_matrix``.

Evolution exponentiates the generator Hamiltonian projected onto a
photon-number-truncated basis, block by block, so it is exactly unitary on
the working space and never forms a D x D matrix. Each block is a chain
along the step of the generator's monomial (``generators._chains``), and
each distinct chain is eigendecomposed once per process. The blocks are
padded into size classes, one per power of two, each evolved by two stacked
products; a group word reads the classes as stored, and a density evolves
as the r columns of its support under the blocks that hold a support
state, all its times in one pass; a ket's projector evolves as the one
column psi/|psi|. Photon-number-shifting generators get a buffer of photons
above the state's support; the weight in the top two sectors (the guard
band) is the truncation-leakage proxy, checked with trace and Hermiticity
deviations and never silently passed. A working space too large for the
store is refused before anything is allocated.

The basis of each (modes, cutoff), the decomposed chains and the padded
classes of each (generator, modes, cutoff) depend on no state: built once
per process and kept, read-only, in the byte-budgeted store of ``generators``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
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
    _CACHE_BUDGET,
    _KIND_RISE,
    GeneratorDescriptor,
    Group,
    _chains,
    _decomposed,
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


def dense_hamiltonian(g: GeneratorDescriptor, basis: TruncatedBasis) -> np.ndarray:
    """Matrix elements <n|H|n'> of the generator over the truncated basis.

    Couplings into states above the cutoff are dropped on both sides, so the
    projected matrix is Hermitian by construction.
    """
    _, col, tgt, coeff, union, rows = _generator_action(_monomials((g,)), np.array(basis.states))
    # rows ranks the basis states among the union of basis and targets;
    # a target above the cutoff keeps position -1 and is dropped
    position = np.full(len(union), -1)
    position[rows] = np.arange(basis.size)
    row = position[tgt]
    kept = row >= 0
    h = np.zeros((basis.size, basis.size), dtype=complex)
    h[row[kept], col[kept]] = coeff[kept]
    return h


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


def _flatten(classes: list) -> tuple:
    """Per size class, node arrays (blocks x width) then eigenvectors; as
    each class's span of the flat nodes and its eigenvectors, then each array flat."""
    ends = np.cumsum([v.shape[0] * v.shape[1] for *_, v in classes]).tolist()
    spans = [(slice(end - v.shape[0] * v.shape[1], end), v) for end, (*_, v) in zip(ends, classes)]
    return spans, *(np.concatenate([c[i].ravel() for c in classes]) for i in range(len(classes[0]) - 1))


def _spectra(
    generators: Sequence[GeneratorDescriptor], basis: TruncatedBasis
) -> list[tuple[list[tuple[slice, np.ndarray]], np.ndarray, np.ndarray, np.ndarray]]:
    """Each generator's eigendecomposed chains, laid out to evolve: chains
    of 2^(k-1) < L <= 2^k states form size class k, padded to its longest
    chain (the sentinel index D, eigenvalue 0, an identity eigenvector), and
    run by class, length, then start. Per class, its span of the nodes and
    its eigenvectors; every node's basis index and eigenvalue, flat; and the
    block of each basis index, numbered in that order. Misses are laid out together."""
    size, m, cutoff = basis.size, basis.modes, basis.cutoff
    keys = [(g, m, cutoff) for g in generators]
    found = [_recall(key) for key in keys]
    missing = [n for n, spectrum in enumerate(found) if spectrum is None]
    if missing:
        states = _basis(m, cutoff)[1]
        delta, gen, start, length, key = _chains([generators[n] for n in missing], states, cutoff)
        eigenvalues, eigenvectors, at, square_at = _decomposed(key)
        # a class: a generator's chains of one k, as wide as its longest; a chain
        # has a slot per node, real or padded, and a square of eigenvectors
        classes = np.flatnonzero(_run_starts(gen << 6 | np.frexp(length - 1)[1])).tolist() + [len(gen)]
        width = np.repeat(length[np.array(classes[1:]) - 1], np.diff(classes))
        ends = [np.cumsum(np.append(0, w)) for w in (width, width * width)]  # each chain's first slot, entry
        chain = np.repeat(np.arange(len(width)), width)
        j = np.arange(len(chain)) - ends[0][chain]
        real, node = j < length[chain], np.minimum(j, length[chain] - 1)
        # a node's basis index: at each mode i, the states that agree with it
        # before i and hold fewer photons at i, C(u + m - i, m - i) states of
        # modes i.. with at most u photons for u from R - x_i to R, R the photons left
        counts = np.array([[math.comb(u + m - i, m - i) for u in range(cutoff + 1)] for i in range(m)])
        nodes, left = 0, cutoff
        for count, x in zip(counts, states.T[:, start[chain]] + delta.T[:, gen[chain]] * node):
            nodes, left = nodes + count[left] - count[left - x], left - x
        nodes, values = np.where(real, nodes, size), np.where(real, eigenvalues[at[chain] + node], 0.0)
        # each chain's L x L eigenvectors at the top left of its square, the identity below
        squares = np.zeros(ends[1][-1], dtype=complex)
        squares[(ends[1][chain] + j * (width[chain] + 1))[~real]] = 1.0
        order = np.lexsort((width, length))
        runs = np.flatnonzero(_run_starts(length[order] << 32 | width[order])).tolist() + [len(order)]
        for lo, hi in zip(runs, runs[1:]):
            c, s, w = order[lo:hi, None], int(length[order[lo]]), int(width[order[lo]])
            entry = (np.arange(s)[:, None] * w + np.arange(s)).ravel()  # the L x L entries of a W x W square
            squares[ends[1][c] + entry] = eigenvectors[square_at[c] + np.arange(s * s)]
        first, width = np.searchsorted(gen, np.arange(len(missing) + 1)).tolist(), width.tolist()
        ends = [e.tolist() for e in ends]
        for k, n in enumerate(missing):
            lo, hi = first[k], first[k + 1]
            a, b = ends[0][lo], ends[0][hi]  # its slots
            spans = [  # each class in its own array
                (slice(ends[0][e] - a, ends[0][f] - a),
                 squares[ends[1][e] : ends[1][f]].reshape(f - e, width[e], -1).copy())
                for e, f in zip(classes, classes[1:]) if lo <= e < hi
            ]
            block = np.empty(size + 1, dtype=np.int64)  # the sentinel's entry is dropped
            block[nodes[a:b]] = chain[a:b] - lo
            found[n] = (spans, nodes[a:b].copy(), values[a:b].copy(), block[:size])
            _remember(keys[n], found[n], [*(v for _, v in spans), *found[n][1:]])
    _trim()
    return found


def _refuse_oversized(modes: int, cutoff: int, generators: Iterable[GeneratorDescriptor]) -> None:
    """Refuse a working space whose basis array or longest chain's
    eigenvectors would exceed the store's budget, before allocating them. A
    chain's raised modes gain ``rise`` photons a node: it holds at most cutoff // rise + 1."""
    states = math.comb(modes + cutoff, modes)
    longest = max((cutoff // rise + 1 if rise else 1 for rise in {_KIND_RISE[g.kind] for g in generators}), default=1)
    basis, block = 8 * modes * states, 16 * longest**2
    if max(basis, block) > _CACHE_BUDGET:
        nbytes, what = max((basis, "basis array"), (block, f"{longest:,}-state block's eigenvectors"))
        raise ValidationError(
            f"working space of {states:,} states (cutoff {cutoff}) too large: its {what} would take "
            f"{nbytes / 2**20:,.0f} MiB, over the {_CACHE_BUDGET >> 20} MiB budget; use a smaller --buffer"
        )


class _Workspace:
    """The truncated working space for evolving states under a set of
    generators: the cutoff (the states' photon number, plus the buffer when
    any generator shifts photon number), the basis, the generators'
    eigendecomposed blocks in units, the rows it works on (basis indices)
    with their states and guard band, and the leakage check with the largest
    value it has seen of each measured quantity. Given the states' support
    (S x m), one unit holds every block that contains a support state, and
    the rows are the states they cover, ``support`` the support's rows
    among them; without one, each generator's stored blocks are a unit."""

    def __init__(
        self, modes: int, max_total: int, generators: Iterable[GeneratorDescriptor], cfg: EvolutionConfig,
        support: np.ndarray | None = None,
    ) -> None:
        self.cfg = cfg
        self.generators = tuple(dict.fromkeys(generators))
        self.shifting = any(number_shift(g.kind) > 0 for g in self.generators)
        cutoff = max_total + (cfg.buffer if self.shifting else 0)
        _refuse_oversized(modes, cutoff, self.generators)
        self.basis, self.states, self.band = _basis(modes, cutoff)
        self.worst: dict[str, float] = {}
        size = self.basis.size
        spectra = _spectra(self.generators, self.basis)
        # a unit: its first generator, each node's generator, per size class
        # its span and eigenvectors, the nodes (rows; R the sentinel), eigenvalues
        if support is None:
            self.rows, self.support = np.arange(size), None
            self.units = [(n, n, *spectrum[:3]) for n, spectrum in enumerate(spectra)]
            return
        support = np.array([self.basis.index[occ] for occ in map(tuple, support.tolist())], dtype=np.int64)
        # every (generator, size class) piece in turn, and its first block
        # numbered over all of them; each block map starts from 0
        pieces = [(n, at, v) for n, (classes, *_) in enumerate(spectra) for at, v in classes]
        first = np.cumsum([0] + [len(v) for _, _, v in pieces])
        offset = first[np.searchsorted([n for n, _, _ in pieces], np.arange(len(spectra)))]
        chosen = np.zeros(first[-1], dtype=bool)
        chosen[np.array([spectrum[3][support] + offset[n] for n, spectrum in enumerate(spectra)])] = True
        ids = np.flatnonzero(chosen)
        owner = np.searchsorted(first, ids, side="right") - 1
        # per size class, the kept blocks of each generator in turn
        kept: dict[int, list] = {}
        bounds = np.flatnonzero(_run_starts(owner)).tolist() + [len(ids)]
        for lo, hi in zip(bounds, bounds[1:]):
            p = int(owner[lo])
            n, span, v = pieces[p]
            at = slice(None) if hi - lo == len(v) else ids[lo:hi] - first[p]  # all kept: no copy
            nodes, eigenvalues = (a[span].reshape(v.shape[:2])[at] for a in spectra[n][1:3])
            kept.setdefault(v.shape[1], []).append((np.full(nodes.shape, n), nodes, eigenvalues, v[at]))
        classes, gens, nodes, eigenvalues = _flatten([[np.concatenate(a) for a in zip(*kept[w])] for w in sorted(kept)])
        reached = np.zeros(size + 1, dtype=bool)
        reached[nodes] = True  # the support too: every generator keeps the blocks that hold it
        self.rows = np.flatnonzero(reached[:size])
        self.states, self.band = self.states[self.rows], self.band[self.rows]
        row = np.cumsum(reached) - 1
        row[size] = len(self.rows)  # the sentinel row
        self.support = row[support]
        self.units = [(0, gens, classes, row[nodes], eigenvalues)]

    def evolve(self, times: np.ndarray | float, columns: np.ndarray, first: int = 0, count: int = 1) -> np.ndarray:
        """exp(-i H_n t) applied to an R x r block of columns for the
        generators n = first .. first + count - 1 and the T times ``times``
        (exactly the columns where t = 0): count x R x T x r. Per unit one
        gather, exp and scatter, per size class two stacked products; padded
        nodes read the zero sentinel row R, and their writes to it drop."""
        size, r, t = len(self.rows), columns.shape[1], np.ravel(times)
        # V^dag x is conj(V^T conj(x)), and V^T is a view where V^dag copies V
        source = np.concatenate([columns.conj(), np.zeros((1, r))])
        out = np.zeros((count, size + 1, len(t), r), dtype=complex)
        for lo, gens, classes, nodes, eigenvalues in self.units if t.any() else ():
            if not first <= lo < first + count:  # a unit is wholly inside or outside the generators asked for
                continue
            x = source[nodes]
            phases = np.exp(np.multiply.outer(-1j * t, eigenvalues))[..., None]
            y = np.empty((len(t), len(nodes), r), dtype=complex)
            for at, v in classes:
                z = (v.transpose(0, 2, 1) @ x[at].reshape(*v.shape[:2], r)).conj()
                y[:, at] = (v @ (phases[:, at].reshape(len(t), *v.shape[:2], 1) * z)).reshape(len(t), -1, r)
            out[gens - first, nodes] = y.transpose(1, 0, 2)
        if not t.all():
            out[:, :size, t == 0.0] = columns[:, None]
        return out[:, :size]

    def check(self, context: str | Callable[[], str], **measured: float) -> None:
        """Raise LeakageError unless every measured deviation is within the
        leakage tolerance; a NaN deviation fails. ``context`` names what
        was measured, or is called to name it when a value fails."""
        for name, value in measured.items():
            self.worst[name] = max(self.worst.get(name, 0.0), value)
        tol = self.cfg.leakage_tolerance
        if not all(value <= tol for value in measured.values()):
            context = context() if callable(context) else context
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
        Gram, T x (d + 1) r x (d + 1) r, not yet leakage-checked."""
        t, k, r = len(times), len(self.generators) + 1, self.phi.shape[1]
        copies = np.empty((t, len(self.rows), k, r), dtype=complex)
        copies[:, :, 0] = self.phi
        copies[:, :, 1:] = self.evolve(times, self.phi, 0, k - 1).transpose(2, 1, 0, 3)
        x = copies.reshape(t, -1, k * r)
        return copies, x.conj().transpose(0, 2, 1) @ x

    def check_copies(self, times: np.ndarray, copies: np.ndarray, gram: np.ndarray) -> None:
        """Leakage-check every copy that ``evolved`` gave at t != 0; the
        first to fail, by time then generator, raises."""
        moving = times != 0.0
        t, k, r = len(times), len(self.generators) + 1, self.phi.shape[1]
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
        if moving.any():  # every copy passed, so do the largest values: record them
            self.check("evolving", **{name: float(value[moving].max()) for name, value in measured.items()})

    def beta_matrix(self, times: np.ndarray) -> np.ndarray:
        """beta_ij = Tr[rho_i rho_j] for i, j in 0..d at each of the T times,
        with rho_0 = rho: Tr[P M_ij P M_ij^dag] with M_ij = A_i^dag A_j, from
        the Gram of the evolved columns. Each d + 1 square is symmetric bit
        for bit. An overlap that overflows raises ValidationError."""
        with np.errstate(over="ignore", invalid="ignore"):
            copies, gram = self.evolved(times)
            t, k, r = len(times), len(self.generators) + 1, self.phi.shape[1]
            m = gram.reshape(t, k, r, k, r).transpose(0, 1, 3, 2, 4)  # M_ij at [:, i, j]
            pmp = self.p @ m @ self.p
            pmp *= m.conj()
            values = np.sum(pmp, axis=(3, 4))
            _refuse_overlaps(values[times == 0.0])  # rho's own, refused before any copy is leakage-checked
            self.check_copies(times, copies, gram)
            _refuse_overlaps(values[times != 0.0])
        upper = np.triu(values.real)
        return upper + np.triu(upper, 1).transpose(0, 2, 1)


def _refuse_overlaps(values: np.ndarray) -> None:
    """Refuse overlaps that are not finite or have an imaginary residue."""
    if not np.isfinite(values).all():
        raise ValidationError("beta overlap is not finite: the density's entries are too large")
    failed = ~(np.abs(values.imag) <= _IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(values.real)))
    if failed.any():
        raise ValidationError(f"beta overlap has imaginary residue {values.imag[failed][0]:.3e}")


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
    copies, gram = ws.evolved(np.array([t]))
    ws.check_copies(np.array([t]), copies, gram)
    a = copies[0, :, 1]
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
    steps = np.array([cfg.step, cfg.step / 2.0])
    b = ws.beta_matrix(np.append(0.0, np.array([steps, -steps]).T.ravel()))  # 0, h, -h, h/2, -h/2
    with np.errstate(over="ignore", invalid="ignore"):
        dd = (b[1::2] - 2.0 * b[0] + b[2::2]) / (steps * steps)[:, None, None]
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
        vec = ws.evolve(t, vec, ws.generators.index(g))[0, :, 0]
        if ws.shifting:
            band = vec[ws.band].view(float).ravel()  # re, im of each entry: the band's weight is its squared norm
            ws.check(lambda: f"group word factor {g.label} (t={t:g})", boundary_weight=float(band @ band))
    ws.check("group word", norm_change=abs(float(np.linalg.norm(vec)) - norm0))
    return SparseKet.from_arrays(ws.states, vec[:, 0])

