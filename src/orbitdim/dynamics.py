"""Truncated-space time evolution, two-copy overlap curves, finite-difference
Gram estimation, and seeded random state sampling.

Evolution exponentiates the generator Hamiltonian projected onto a
photon-number-truncated basis, via Hermitian eigendecomposition, so it is
exactly unitary on the working space. Photon-number-shifting generators get
a configurable buffer of extra photons above the state's support; occupancy
of the top two sectors of the working basis (the guard band) is the
truncation-leakage proxy, checked together with trace and Hermiticity
deviations and never silently accepted.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityOperator,
    Occupation,
    SparseKet,
    SparseOperator,
    ValidationError,
    add,
    enumerate_occupations,
    normalize,
    scale,
)
from .generators import (
    GeneratorDescriptor,
    Group,
    _generator_action,
    _monomials,
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
        if not (self.leakage_tolerance > 0 and self.step > 0):  # NaN fails too
            raise ValueError("tolerances and step must be positive")


def dense_hamiltonian(g: GeneratorDescriptor, basis: TruncatedBasis) -> np.ndarray:
    """Matrix elements <n|H|n'> of the generator over the truncated basis.

    Couplings into states above the cutoff are dropped on both sides, so the
    projected matrix is Hermitian by construction.
    """
    _, src, tgt, coeff, union, rows = _generator_action(_monomials([g]), np.array(basis.states))
    # rows ranks the basis states among the union of basis and targets;
    # a target above the cutoff keeps position -1 and is dropped
    position = np.full(len(union), -1)
    position[rows] = np.arange(basis.size)
    row = position[tgt]
    kept = row >= 0
    h = np.zeros((basis.size, basis.size), dtype=complex)
    h[row[kept], src[kept]] = coeff[kept]
    return h


class _Workspace:
    """The truncated working space for evolving one state under a set of
    generators: the cutoff (the state's photon number, plus the buffer when
    any generator shifts photon number), the basis and its guard band, one
    cached eigendecomposition per generator, the conversions between sparse
    states and dense arrays over the basis, and the leakage check."""

    def __init__(
        self, modes: int, max_total: int, generators: Iterable[GeneratorDescriptor], cfg: EvolutionConfig
    ) -> None:
        self.cfg = cfg
        self.shifting = any(number_shift(g.kind) > 0 for g in generators)
        self.basis = TruncatedBasis.build(modes, max_total + (cfg.buffer if self.shifting else 0))
        self.band = np.array([sum(occ) for occ in self.basis.states]) > self.basis.cutoff - 2
        self._eigh: dict[GeneratorDescriptor, tuple[np.ndarray, np.ndarray]] = {}

    def unitary(self, g: GeneratorDescriptor, t: float) -> np.ndarray:
        """exp(-iHt) for g's Hamiltonian projected onto the basis."""
        eigh = self._eigh.get(g)
        if eigh is None:
            eigh = self._eigh[g] = np.linalg.eigh(dense_hamiltonian(g, self.basis))
        eigenvalues, eigenvectors = eigh
        phases = np.exp(-1j * eigenvalues * t)
        return (eigenvectors * phases) @ eigenvectors.conj().T

    def conjugate(self, r: np.ndarray, g: GeneratorDescriptor, t: float) -> np.ndarray:
        """The density matrix r evolved under g for time t, leakage-checked."""
        u = self.unitary(g, t)
        dense = u @ r @ u.conj().T
        boundary = 0.0
        if number_shift(g.kind) > 0:
            boundary = float(np.sum(np.real(np.diag(dense))[self.band]))
        self.check(
            f"evolving under {g.label} for t={t:g}",
            trace_deviation=abs(np.trace(dense) - 1.0),
            hermiticity=float(np.max(np.abs(dense - dense.conj().T))),
            boundary_weight=boundary,
        )
        return dense

    def check(self, context: str, **measured: float) -> None:
        """Raise LeakageError unless every measured deviation is within the
        leakage tolerance; a NaN deviation fails."""
        tol = self.cfg.leakage_tolerance
        if not all(value <= tol for value in measured.values()):
            found = ", ".join(f"{name.replace('_', ' ')} {value:.3e}" for name, value in measured.items())
            raise LeakageError(
                f"{context}: {found} exceed tolerance {tol:.1e} "
                f"(cutoff {self.basis.cutoff}); increase the buffer or reduce |t|"
            )

    def dense(self, state: SparseKet | DensityOperator) -> np.ndarray:
        """A ket as a vector, or a density operator as a matrix, over the basis."""
        index = self.basis.index
        if isinstance(state, SparseKet):
            vec = np.zeros(self.basis.size, dtype=complex)
            for occ, amp in state.terms.items():
                vec[index[occ]] = amp
            return vec
        r = np.zeros((self.basis.size, self.basis.size), dtype=complex)
        for (bra, ket), amp in state.op.entries.items():
            r[index[bra], index[ket]] = amp
        return r

    def sparse(self, dense: np.ndarray) -> SparseKet | SparseOperator:
        """The nonzero entries of a vector as a ket, or of a matrix as an
        operator."""
        states = self.basis.states
        nonzero = np.nonzero(dense)
        keys = zip(*(axis.tolist() for axis in nonzero))
        values = dense[nonzero].tolist()
        if dense.ndim == 1:
            return SparseKet(self.basis.modes, {states[k]: v for (k,), v in zip(keys, values)})
        return SparseOperator(
            self.basis.modes, {(states[i], states[j]): v for (i, j), v in zip(keys, values)}
        )


def evolve_density(
    rho: DensityOperator,
    g: GeneratorDescriptor,
    t: float,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> DensityOperator:
    """Conjugate rho by exp(-iHt) on the truncated working basis."""
    if t == 0.0:
        return rho
    ws = _Workspace(rho.modes, rho.op.max_total(), [g], cfg)
    return DensityOperator.validate(ws.sparse(ws.conjugate(ws.dense(rho), g, t)))


class _DensityWorkspace(_Workspace):
    """The working space of one (rho, group), with rho's evolved copies cached."""

    def __init__(self, rho: DensityOperator, group: Group, cfg: EvolutionConfig) -> None:
        self.basis_elements = lie_basis(group, rho.modes).elements
        super().__init__(rho.modes, rho.op.max_total(), self.basis_elements, cfg)
        self.initial = self.dense(rho)
        self.purity = float(np.vdot(self.initial, self.initial).real)
        self._evolved: dict[tuple[int, float], np.ndarray] = {}

    @property
    def dim(self) -> int:
        return len(self.basis_elements)

    def evolved(self, index: int, t: float) -> np.ndarray:
        if not 0 <= index <= self.dim:
            raise ValueError(f"generator index {index} out of range 0..{self.dim}")
        if index == 0 or t == 0.0:
            return self.initial
        key = (index, t)
        cached = self._evolved.get(key)
        if cached is None:
            cached = self._evolved[key] = self.conjugate(self.initial, self.basis_elements[index - 1], t)
        return cached

    def beta(self, i: int, j: int, t: float) -> float:
        value = np.vdot(self.evolved(i, t), self.evolved(j, t))
        if not abs(value.imag) <= _IMAG_RESIDUE_TOL * max(1.0, abs(value.real)):
            raise ValidationError(f"beta overlap has imaginary residue {value.imag:.3e}")
        return float(value.real)


def beta(
    rho: DensityOperator,
    i: int,
    j: int,
    t: float,
    group: Group,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> float:
    """Hilbert-Schmidt overlap of two evolved copies of rho, the copies
    driven by basis generators ``i`` and ``j`` (1-based; 0 = no evolution)."""
    return _DensityWorkspace(rho, group, cfg).beta(i, j, t)


@dataclass(frozen=True)
class GramEntryEstimate:
    """Finite-difference estimate of one Gram entry: the Richardson value
    plus both raw central-stencil values it was built from."""

    value: float
    coarse: float
    fine: float
    step: float


def _second_derivative(ws: _DensityWorkspace, i: int, j: int, h: float) -> float:
    return (ws.beta(i, j, h) - 2.0 * ws.purity + ws.beta(i, j, -h)) / (h * h)


def _entry_at_step(ws: _DensityWorkspace, i: int, j: int, h: float) -> float:
    dd_ij = _second_derivative(ws, i, j, h)
    dd_i0 = _second_derivative(ws, i, 0, h)
    dd_0j = _second_derivative(ws, 0, j, h)
    return 0.5 * (dd_ij - dd_i0 - dd_0j)


def _estimate_entry(ws: _DensityWorkspace, i: int, j: int, h: float) -> GramEntryEstimate:
    coarse = _entry_at_step(ws, i, j, h)
    fine = _entry_at_step(ws, i, j, h / 2.0)
    return GramEntryEstimate(
        value=(4.0 * fine - coarse) / 3.0,
        coarse=coarse,
        fine=fine,
        step=h,
    )


def estimate_gram_entry(
    rho: DensityOperator,
    i: int,
    j: int,
    group: Group,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> GramEntryEstimate:
    """Estimate one Gram entry from second time derivatives of the overlap
    curves: (d2 beta_ij - d2 beta_i0 - d2 beta_0j) / 2 at t = 0, each
    derivative from the central stencil at the configured step, with one
    Richardson step (h and h/2) applied by default."""
    ws = _DensityWorkspace(rho, group, cfg)
    if not (1 <= i <= ws.dim and 1 <= j <= ws.dim):
        raise ValueError(f"generator indices must lie in 1..{ws.dim}")
    return _estimate_entry(ws, i, j, cfg.step)


@dataclass(frozen=True)
class EstimatedGram:
    group: Group
    modes: int
    step: float
    values: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray


def estimate_gram_matrix(
    rho: DensityOperator,
    group: Group,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> EstimatedGram:
    """Estimate the whole Gram matrix; entries are symmetric because the
    overlap curves are symmetric in their two indices."""
    ws = _DensityWorkspace(rho, group, cfg)
    d = ws.dim
    values = np.zeros((d, d))
    coarse = np.zeros((d, d))
    fine = np.zeros((d, d))
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            est = _estimate_entry(ws, i, j, cfg.step)
            values[i - 1, j - 1] = values[j - 1, i - 1] = est.value
            coarse[i - 1, j - 1] = coarse[j - 1, i - 1] = est.coarse
            fine[i - 1, j - 1] = fine[j - 1, i - 1] = est.fine
    return EstimatedGram(group=group, modes=rho.modes, step=cfg.step, values=values, coarse=coarse, fine=fine)


def sample_sphere_state(m: int, n_cutoff: int, seed: int) -> SparseKet:
    """Uniformly random state on the unit sphere of the cutoff subspace:
    independent standard complex Gaussian amplitudes per basis element
    (lexicographic order), then normalized. Deterministic under the seed."""
    occs = enumerate_occupations(m, n_cutoff)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(len(occs)) + 1j * rng.standard_normal(len(occs))
    amps /= np.linalg.norm(amps)
    return SparseKet(m, {occ: complex(a) for occ, a in zip(occs, amps)})


def apply_group_word(
    psi: SparseKet,
    word: Sequence[tuple[GeneratorDescriptor, float]],
    cfg: EvolutionConfig = EvolutionConfig(),
) -> SparseKet:
    """Apply exp(-i t_1 H_1) ... exp(-i t_a H_a) to the ket, rightmost factor
    first. Photon-number-preserving words are sector-exact; shifting words
    are guard-band checked after every factor."""
    if not word:
        return psi
    if psi.is_zero():
        raise ValidationError("cannot evolve the zero ket")
    ws = _Workspace(psi.modes, psi.max_total(), [g for g, _ in word], cfg)
    vec = ws.dense(psi)
    norm0 = float(np.linalg.norm(vec))
    for g, t in reversed(word):
        if t == 0.0:
            continue
        vec = ws.unitary(g, t) @ vec
        if ws.shifting:
            ws.check(
                f"group word factor {g.label} (t={t:g})",
                boundary_weight=float(np.sum(np.abs(vec[ws.band]) ** 2)),
            )
    ws.check("group word", norm_change=abs(float(np.linalg.norm(vec)) - norm0))
    return ws.sparse(vec)


def perturb_state(
    psi: SparseKet,
    eps: float,
    n_cutoff: int,
    seed: int,
    m: int | None = None,
) -> SparseKet:
    """normalize(psi + eps * chi) for a seeded sphere sample chi on the
    cutoff subspace; eps = 0 returns psi unchanged."""
    if m is not None and m != psi.modes:
        raise ValueError(f"mode count {m} does not match the ket ({psi.modes})")
    if eps == 0.0:
        return psi
    chi = sample_sphere_state(psi.modes, n_cutoff, seed)
    return normalize(add(psi, scale(eps, chi)))
