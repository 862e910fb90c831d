"""Orbit dimensions as Gram-matrix ranks, with closed-form, genericity, and
witness oracles.

The orbit dimension of a state under one of the optical groups equals the
real rank of the generator directions at that state: {H_I |psi>} in the ket
picture, {[H_I, rho]} in the density pictures. Both ranks are evaluated as
the rank of the corresponding real symmetric Gram matrix, thresholded on its
eigenvalue spectrum.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import (
    DensityOperator,
    SparseKet,
    ValidationError,
    basis_ket,
    enumerate_occupations,
    normalize,
)
from .generators import (
    IDENTITY_KIND,
    Group,
    LieBasis,
    _density_arrays,
    _directions,
    _ket_arrays,
    _monomial_table,
    lie_basis,
)

DEFAULT_RANK_TOL = 1e-8
NORM_TOL = 1e-10
_SYMMETRY_TOL = 1e-12
_PSD_FLOOR = 1e-9


class PictureError(ValueError):
    """State representation incompatible with the requested picture."""


class Picture(Enum):
    KET = "ket"
    KETBRA = "ketbra"
    MIXED = "mixed"


class Exactness(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper_bound"


@dataclass(frozen=True)
class GramMatrix:
    """Real symmetric PSD matrix of generator-direction correlations."""

    group: Group
    picture: Picture
    modes: int
    values: np.ndarray
    basis: LieBasis

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        d = self.group.dimension(self.modes)
        if values.shape != (d, d):
            raise ValidationError(f"Gram matrix shape {values.shape} does not match dimension {d}")
        asym = float(np.max(np.abs(values - values.T))) if d else 0.0
        if not asym <= _SYMMETRY_TOL:
            raise ValidationError(f"Gram asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL:.1e}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class RankResult:
    """Thresholded rank with the full spectrum and the tolerance actually used."""

    rank: int
    eigenvalues: tuple[float, ...]
    tolerance_used: float
    relative: bool


def _check_normalized(psi: SparseKet) -> None:
    nrm = psi.norm()
    if not abs(nrm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise ValidationError(f"state is not normalized: measured norm {nrm!r} (tol {NORM_TOL:.1e})")


def _norm2(amps: np.ndarray) -> float:
    return float(np.sum(amps.real * amps.real + amps.imag * amps.imag))


def _re_gram(x: np.ndarray) -> np.ndarray:
    """Symmetric matrix of Re <x_I, x_J> over the rows of a complex d x n matrix."""
    pairs = np.ascontiguousarray(x).view(float)  # interleaved (re, im) per entry
    g = pairs @ pairs.T
    return (g + g.T) / 2.0


def _without_identity(basis: LieBasis, values: np.ndarray) -> np.ndarray:
    """Zero the identity's row and column: [I, rho] = 0 for every rho, while
    the subtraction formulas leave rounding residue of order 1e-17 there."""
    for i, g in enumerate(basis.elements):
        if g.kind == IDENTITY_KIND:
            values[i, :] = 0.0
            values[:, i] = 0.0
    return values


def _commutator_gram(
    group: Group, picture: Picture, occupations: np.ndarray, w: np.ndarray, phi: np.ndarray | None
) -> GramMatrix:
    """Gram matrix of {[H_I, rho]} for rho = Phi P Phi^dag, where the S x r
    matrix Phi has orthonormal columns over the support ``occupations`` and
    W = Phi P: 2 Re[<X_I, X_J>_F - Tr(M_I M_J)] with X_I = H_I W and
    M_I = Phi^dag X_I restricted to the support rows. ``phi=None`` stands
    for Phi = 1, a density given densely over its support (W = rho)."""
    m = occupations.shape[1]
    basis = lie_basis(group, m)
    d = len(basis)
    x, _, rows = _directions(_monomial_table(group, m), occupations, w)
    y = x[:, rows, :] if phi is None else phi.conj().T @ x[:, rows, :]
    cross = (y.reshape(d, -1) @ y.transpose(0, 2, 1).reshape(d, -1).T).real
    values = 2.0 * (_re_gram(x.reshape(d, -1)) - (cross + cross.T) / 2.0)
    return GramMatrix(group, picture, m, _without_identity(basis, values), basis)


def _projector_gram(group: Group, psi: SparseKet, picture: Picture) -> GramMatrix:
    """The commutator Gram matrix of |psi><psi|, with Phi = W = psi/|psi|."""
    _check_normalized(psi)
    occupations, amps = _ket_arrays(psi)
    phi = (amps / math.sqrt(_norm2(amps)))[:, None]
    return _commutator_gram(group, picture, occupations, phi, phi)


def gram_ket(group: Group, psi: SparseKet) -> GramMatrix:
    """Gram matrix of the ket-picture directions {H_I |psi>}:
    G_IJ = Re <H_I psi, H_J psi> = Re (A* A^T)_IJ, where row I of A is
    H_I psi over the union of psi's support and every generator's targets."""
    _check_normalized(psi)
    basis = lie_basis(group, psi.modes)
    occupations, amps = _ket_arrays(psi)
    a, _, _ = _directions(_monomial_table(group, psi.modes), occupations, amps[:, None])
    return GramMatrix(group, Picture.KET, psi.modes, _re_gram(a.reshape(len(basis), -1)), basis)


def gram_ketbra(group: Group, psi: SparseKet) -> GramMatrix:
    """Gram matrix of the projector-picture directions {[H_I, |psi><psi|]}:
    the commutator Gram matrix with Phi = W = psi/|psi|, which is
    2 (G_k - v v^T) with G_k the ket Gram matrix of the normalized psi and
    v_I = <psi| H_I |psi>. The identity's row and column are exactly zero."""
    return _projector_gram(group, psi, Picture.KETBRA)


def gram_mixed(group: Group, rho: DensityOperator) -> GramMatrix:
    """Gram matrix of the density-picture directions {[H_I, rho]}, whose
    entries are the Hilbert-Schmidt products Re Tr([H_I, rho]^dag [H_J, rho]),
    evaluated as the commutator Gram matrix with Phi = 1 and W = R, the
    dense matrix of rho over its support: G_IJ = 2 Re[<X_I, X_J>_F -
    Tr(M_I M_J)], X_I = H_I R, M_I the support rows of X_I. The identity's
    row and column are exactly zero.
    """
    if not isinstance(rho, DensityOperator):
        raise PictureError("gram_mixed requires a validated DensityOperator")
    support, r = _density_arrays(rho)
    return _commutator_gram(group, Picture.MIXED, support, r, None)


def rank_psd(gram: GramMatrix | np.ndarray, tolerance: float | None = None) -> RankResult:
    """Eigenvalue-thresholded rank of a symmetric PSD matrix.

    The default tolerance is ``1e-8 * max(1, lambda_max)`` (relative with an
    absolute floor); passing ``tolerance`` uses it as an absolute threshold,
    which must be finite and non-negative. The full descending spectrum is
    returned so callers can re-threshold.
    """
    values = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    if np.isnan(values).any():
        raise ValidationError("Gram matrix contains NaN entries")
    eigs = np.linalg.eigvalsh(values)
    lam_max = float(eigs[-1]) if eigs.size else 0.0
    floor = -_PSD_FLOOR * max(1.0, lam_max)
    if eigs.size and float(eigs[0]) < floor:
        raise ValidationError(
            f"matrix is not PSD within tolerance: min eigenvalue {eigs[0]:.3e} < {floor:.3e}"
        )
    if tolerance is None:
        tol = DEFAULT_RANK_TOL * max(1.0, lam_max)
        relative = True
    else:
        tol = float(tolerance)
        relative = False
        if not (math.isfinite(tol) and tol >= 0.0):  # NaN fails too
            raise ValidationError(f"rank tolerance must be finite and >= 0, got {tol!r}")
    rank = int(np.count_nonzero(eigs > tol))
    return RankResult(
        rank=rank,
        eigenvalues=tuple(float(x) for x in eigs[::-1]),
        tolerance_used=tol,
        relative=relative,
    )


def gram_matrix(
    group: Group,
    state: SparseKet | DensityOperator,
    picture: Picture,
) -> GramMatrix:
    """Dispatch to the Gram construction matching ``picture``.

    Kets are accepted in every picture (the mixed picture lifts them to the
    projector); density operators only in the mixed picture.
    """
    if picture is Picture.KET:
        if not isinstance(state, SparseKet):
            raise PictureError("the ket picture requires a pure-state ket")
        return gram_ket(group, state)
    if picture is Picture.KETBRA:
        if not isinstance(state, SparseKet):
            raise PictureError("the ketbra picture requires a pure-state ket")
        return gram_ketbra(group, state)
    if picture is Picture.MIXED:
        if isinstance(state, SparseKet):
            return _projector_gram(group, state, Picture.MIXED)
        if isinstance(state, DensityOperator):
            return gram_mixed(group, state)
        raise PictureError("the mixed picture requires a ket or a DensityOperator")
    raise PictureError(f"unknown picture {picture!r}")


def orbit_dimension(
    group: Group,
    state: SparseKet | DensityOperator,
    picture: Picture,
    tolerance: float | None = None,
) -> RankResult:
    """Orbit dimension of ``state`` under ``group`` in the given picture."""
    return rank_psd(gram_matrix(group, state, picture), tolerance)


# --------------------------------------------------------------------------
# Structured state families with closed-form dimensions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FockBasisState:
    """A single occupation-number basis state |n1, ..., nm>."""

    occupation: tuple[int, ...]

    def __post_init__(self) -> None:
        occ = tuple(int(n) for n in self.occupation)
        if not occ or any(n < 0 for n in occ):
            raise ValidationError(f"invalid occupation {self.occupation!r}")
        object.__setattr__(self, "occupation", occ)

    @property
    def modes(self) -> int:
        return len(self.occupation)

    @property
    def unoccupied(self) -> int:
        return sum(1 for n in self.occupation if n == 0)

    def to_ket(self) -> SparseKet:
        return basis_ket(self.occupation)

    @property
    def params_label(self) -> str:
        return "occ=" + ",".join(str(n) for n in self.occupation)


@dataclass(frozen=True)
class OneModeSuperposition:
    """(sum_n alpha_n |n>) on mode 1, tensored with a Fock product on the
    remaining modes. At least two nonzero amplitudes are required."""

    amplitudes: tuple[complex, ...]
    tail: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        tail = tuple(int(n) for n in self.tail)
        if sum(1 for a in amps if a != 0) < 2:
            raise ValidationError("a one-mode superposition needs at least two nonzero terms")
        if any(n < 0 for n in tail):
            raise ValidationError(f"invalid tail {self.tail!r}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "tail", tail)

    @property
    def modes(self) -> int:
        return 1 + len(self.tail)

    @property
    def unoccupied(self) -> int:
        return sum(1 for n in self.tail if n == 0)

    def to_ket(self) -> SparseKet:
        terms = {
            (n, *self.tail): amp
            for n, amp in enumerate(self.amplitudes)
            if amp != 0
        }
        return normalize(SparseKet(self.modes, terms))

    @property
    def params_label(self) -> str:
        amps = ";".join(f"{a.real:g}{a.imag:+g}j" for a in self.amplitudes)
        tail = ",".join(str(n) for n in self.tail)
        return f"amps={amps}|tail={tail}"


@dataclass(frozen=True)
class NoonState:
    """(|N,0> + |0,N>) / sqrt(2) on the first two modes, tensored with a
    Fock product tail."""

    photons: int
    tail: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.photons < 1:
            raise ValidationError("NOON photon number must be >= 1")
        tail = tuple(int(n) for n in self.tail)
        if any(n < 0 for n in tail):
            raise ValidationError(f"invalid tail {self.tail!r}")
        object.__setattr__(self, "tail", tail)

    @property
    def modes(self) -> int:
        return 2 + len(self.tail)

    @property
    def unoccupied(self) -> int:
        return sum(1 for n in self.tail if n == 0)

    def to_ket(self) -> SparseKet:
        amp = 1.0 / math.sqrt(2.0)
        return SparseKet(
            self.modes,
            {
                (self.photons, 0, *self.tail): amp,
                (0, self.photons, *self.tail): amp,
            },
        )

    @property
    def params_label(self) -> str:
        tail = ",".join(str(n) for n in self.tail)
        return f"N={self.photons}|tail={tail}"


StateFamily = FockBasisState | OneModeSuperposition | NoonState


@dataclass(frozen=True)
class ClosedFormValue:
    value: int
    exactness: Exactness


_GROUP_BASE = {
    Group.PLO: lambda m: m * (m - 1),
    Group.DPLO: lambda m: m * (m + 1),
    Group.ALO: lambda m: 2 * m * m,
    Group.GO: lambda m: 2 * m * (m + 1),
}


def closed_form(family: StateFamily, group: Group, picture: Picture) -> ClosedFormValue:
    """Closed-form orbit dimension for the structured families.

    The ket picture adds one to most entries (the global-phase direction);
    UPPER_BOUND marks the one-mode-superposition cells for which only an
    analytic upper bound is known.

    The values are the tabulated ones, kept verbatim. One kind of cell is
    known to undercount by one: the PLO ket-picture value of a
    one-mode superposition whose tail has an occupied mode. There the
    phase-shifter block spans two real directions, N_1 psi and psi (tail
    N_k psi = n_k psi), not one, so the true dimension is the value + 1.
    The ALO values are those of the ALO basis as given, which is closed
    under commutators only modulo the identity (see ``LieBasis``).
    """
    if picture is Picture.MIXED:
        raise ValidationError("closed forms cover the pure-state pictures only")
    delta = 1 if picture is Picture.KET else 0
    m = family.modes
    u = family.unoccupied
    base = _GROUP_BASE[group](m) - u * (u - 1)
    if isinstance(family, FockBasisState):
        if group in (Group.PLO, Group.ALO):
            return ClosedFormValue(base + delta * (1 if u != m else 0), Exactness.EXACT)
        return ClosedFormValue(base + delta, Exactness.EXACT)
    if isinstance(family, OneModeSuperposition):
        if group is Group.PLO:
            return ClosedFormValue(base + 1, Exactness.EXACT)
        return ClosedFormValue(base + 1 + delta, Exactness.UPPER_BOUND)
    if isinstance(family, NoonState):
        if family.photons < 3:
            raise ValidationError("the NOON closed form requires at least 3 photons")
        return ClosedFormValue(base + 1 + delta, Exactness.EXACT)
    raise TypeError(f"unknown family {family!r}")


def generic_dimension(group: Group, m: int, n_cutoff: int, picture: Picture) -> int:
    """Orbit dimension attained with probability one by a uniformly random
    state on the unit sphere of the photon-number-cutoff subspace."""
    if m < 1:
        raise ValueError("mode count must be >= 1")
    if n_cutoff < 0:
        raise ValueError("photon cutoff must be >= 0")
    value = group.dimension(m)
    if n_cutoff == 0:
        value -= m * m
    elif n_cutoff == 1:
        value -= (m - 1) * (m - 1)
    if picture in (Picture.KETBRA, Picture.MIXED) and group in (Group.DPLO, Group.GO):
        value -= 1  # the identity commutes with every density operator
    return value


def uniform_phase_state(m: int, n_cutoff: int) -> SparseKet:
    """Uniform superposition of every basis state with at most min(2, N)
    photons, the j-th term (lexicographic order, 1-based) carrying phase
    exp(2 pi i j / J)."""
    occs = enumerate_occupations(m, min(2, n_cutoff))
    j_count = len(occs)
    amp = 1.0 / math.sqrt(j_count)
    terms = {
        occ: amp * cmath.exp(2j * math.pi * (j + 1) / j_count)
        for j, occ in enumerate(occs)
    }
    return SparseKet(m, terms)


@dataclass(frozen=True)
class WitnessResult:
    dimension: int
    threshold: int
    witnessed: bool
    rank: RankResult


def nongaussianity_witness(psi: SparseKet, tolerance: float | None = None) -> WitnessResult:
    """Witness non-Gaussianity of a pure state: its projector-picture orbit
    dimension under the full Gaussian group exceeds m(m+3) only for
    non-Gaussian states (every Gaussian pure state sits in the vacuum orbit,
    whose dimension is exactly m(m+3))."""
    result = orbit_dimension(Group.GO, psi, Picture.KETBRA, tolerance)
    threshold = psi.modes * (psi.modes + 3)
    return WitnessResult(
        dimension=result.rank,
        threshold=threshold,
        witnessed=result.rank > threshold,
        rank=result,
    )


@dataclass(frozen=True)
class CnotReport:
    group: Group
    dim_plus_zero: int
    dim_bell: int
    distinct: bool

    @property
    def verdict(self) -> str:
        if self.distinct:
            return (
                "input and output lie in different orbits: no deterministic "
                f"{self.group.value.upper()} unitary implements the dual-rail CNOT"
            )
        return "orbit dimensions agree: no obstruction from this invariant"


def cnot_separable_input() -> SparseKet:
    """Dual-rail |+0>_L = (|1,0,1,0> + |1,0,0,1>) / sqrt(2)."""
    amp = 1.0 / math.sqrt(2.0)
    return SparseKet(4, {(1, 0, 1, 0): amp, (1, 0, 0, 1): amp})


def cnot_entangled_output() -> SparseKet:
    """Dual-rail |Phi+>_L = (|1,0,1,0> + |0,1,0,1>) / sqrt(2)."""
    amp = 1.0 / math.sqrt(2.0)
    return SparseKet(4, {(1, 0, 1, 0): amp, (0, 1, 0, 1): amp})


def cnot_demo(group: Group = Group.GO, tolerance: float | None = None) -> CnotReport:
    """Compare the projector-picture orbit dimensions of the dual-rail CNOT
    input |+0>_L and output |Phi+>_L; distinct values rule out a
    deterministic CNOT inside the group."""
    dim_in = orbit_dimension(group, cnot_separable_input(), Picture.KETBRA, tolerance).rank
    dim_out = orbit_dimension(group, cnot_entangled_output(), Picture.KETBRA, tolerance).rank
    return CnotReport(
        group=group,
        dim_plus_zero=dim_in,
        dim_bell=dim_out,
        distinct=dim_in != dim_out,
    )


# --------------------------------------------------------------------------
# Closed-form verification grid
# --------------------------------------------------------------------------


def _fock_patterns(m: int) -> list[tuple[int, ...]]:
    fill = [1, 2, 3]
    patterns: list[tuple[int, ...]] = []
    for u in range(m + 1):
        occupied = [fill[i % 3] for i in range(m - u)]
        patterns.append(tuple([0] * u + occupied))
        if 0 < u < m:
            patterns.append(tuple(occupied + [0] * u))
    patterns.append(tuple(fill[(i + 1) % 3] for i in range(m)))
    patterns.append((3,) * m)
    seen: set[tuple[int, ...]] = set()
    unique = []
    for occ in patterns:
        if occ not in seen:
            seen.add(occ)
            unique.append(occ)
    return unique


def _tails(length: int) -> list[tuple[int, ...]]:
    tails = [(0,) * length]
    if length > 0:
        tails.append(tuple([1, 2][i % 2] for i in range(length)))
    if length > 1:
        tails.append(tuple([1 if i == 0 else 0 for i in range(length)]))
    seen: set[tuple[int, ...]] = set()
    unique = []
    for t in tails:
        if t not in seen:
            seen.add(t)
            unique.append(t)
    return unique


_SUPERPOSITION_AMPLITUDES: tuple[tuple[complex, ...], ...] = (
    (1.0, 1.0),
    (0.7, 0.5, -0.5j),
    (0.5, 0.5j, -0.5, 0.5),
)


def table_families(m_max: int = 4) -> list[StateFamily]:
    """Deterministic verification grid over the three structured families:
    Fock patterns covering every unoccupied count u at each mode number,
    NOON states with 3 to 5 photons and assorted tails, and one-mode
    superpositions of 2 to 4 terms."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    families: list[StateFamily] = []
    for m in range(1, m_max + 1):
        families.extend(FockBasisState(occ) for occ in _fock_patterns(m))
    for m in range(1, m_max + 1):
        for amps in _SUPERPOSITION_AMPLITUDES:
            for tail in _tails(m - 1):
                families.append(OneModeSuperposition(amps, tail))
    for m in range(2, m_max + 1):
        for photons in (3, 4, 5):
            for tail in _tails(m - 2):
                families.append(NoonState(photons, tail))
    return families


@dataclass(frozen=True)
class TableRow:
    """One grid cell. ``closed_value`` is the tabulated value verbatim;
    ``known_discrepancy`` marks the cells where it is known to undercount by
    one (see ``closed_form``), which pass only at ``closed_value + 1``."""

    family: str
    params: str
    group: Group
    picture: Picture
    modes: int
    closed_value: int
    exactness: Exactness
    numerical: int
    passed: bool
    known_discrepancy: bool


def _known_undercount(family: StateFamily, group: Group, picture: Picture) -> bool:
    """The PLO ket cells of one-mode superpositions with an occupied tail."""
    return (
        group is Group.PLO
        and picture is Picture.KET
        and isinstance(family, OneModeSuperposition)
        and any(family.tail)
    )


def closed_form_report(
    m_max: int = 4,
    tolerance: float | None = None,
    families: Sequence[StateFamily] | None = None,
) -> list[TableRow]:
    """Numerically recompute the closed-form grid: exact cells must match,
    upper-bound cells must dominate the numerical value, and the cells of
    the known undercount must equal the tabulated value + 1."""
    if families is None:
        families = table_families(m_max)
    rows: list[TableRow] = []
    for family in families:
        psi = family.to_ket()
        for group in Group:
            for picture in (Picture.KET, Picture.KETBRA):
                expected = closed_form(family, group, picture)
                numerical = orbit_dimension(group, psi, picture, tolerance).rank
                known = _known_undercount(family, group, picture)
                if known:
                    passed = numerical == expected.value + 1
                elif expected.exactness is Exactness.EXACT:
                    passed = numerical == expected.value
                else:
                    passed = numerical <= expected.value
                rows.append(
                    TableRow(
                        family=type(family).__name__,
                        params=family.params_label,
                        group=group,
                        picture=picture,
                        modes=family.modes,
                        closed_value=expected.value,
                        exactness=expected.exactness,
                        numerical=numerical,
                        passed=passed,
                        known_discrepancy=known,
                    )
                )
    return rows
