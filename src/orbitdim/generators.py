"""Quadratic Hamiltonians of linear and Gaussian optics, their Lie-algebra
bases per group, and a numerical closure check.

Generator catalogue (1-based mode indices, k < l for two-mode kinds):

    e[k,l]  (a+_k a_l + a+_l a_k) / 2        beam splitter (pi/2 phase)
    E[k,l]  i (a+_k a_l - a+_l a_k) / 2      beam splitter
    r[k,l]  (a+_k a+_l + a_k a_l) / 2        two-mode squeezer
    R[k,l]  i (a+_k a+_l - a_k a_l) / 2      two-mode squeezer
    N[k]    a+_k a_k                         phase shifter
    s[k]    (a+_k^2 + a_k^2) / 2             single-mode squeezer
    S[k]    i (a+_k^2 - a_k^2) / 2           single-mode squeezer
    q[k]    (a+_k + a_k) / sqrt(2)           displacement (position)
    p[k]    i (a+_k - a_k) / sqrt(2)         displacement (momentum)
    id      identity

Each group's basis is ordered canonically: e pairs in lexicographic (k, l)
order, then E pairs, then N, then (when present) q, p, identity, then (when
present) r, R, s, S. The ordering fixes matrix layouts everywhere; it never
affects ranks.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import (
    DensityOperator,
    SparseKet,
    SparseOperator,
    basis_ket,
    enumerate_occupations,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

TWO_MODE_KINDS = frozenset({"e", "E", "r", "R"})
ONE_MODE_KINDS = frozenset({"N", "s", "S", "q", "p"})
IDENTITY_KIND = "I"

#: Largest change in total photon number a single application can cause.
_NUMBER_SHIFT = {
    "e": 0, "E": 0, "N": 0, IDENTITY_KIND: 0,
    "q": 1, "p": 1,
    "r": 2, "R": 2, "s": 2, "S": 2,
}


def number_shift(kind: str) -> int:
    return _NUMBER_SHIFT[kind]


@dataclass(frozen=True)
class GeneratorDescriptor:
    """Symbolic tag plus mode indices identifying one Hamiltonian."""

    kind: str
    modes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind in TWO_MODE_KINDS:
            if len(self.modes) != 2 or not self.modes[0] < self.modes[1] or self.modes[0] < 1:
                raise ValueError(f"{self.kind} requires mode indices 1 <= k < l, got {self.modes}")
        elif self.kind in ONE_MODE_KINDS:
            if len(self.modes) != 1 or self.modes[0] < 1:
                raise ValueError(f"{self.kind} requires one mode index >= 1, got {self.modes}")
        elif self.kind == IDENTITY_KIND:
            if self.modes:
                raise ValueError("the identity carries no mode indices")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == IDENTITY_KIND:
            return "id"
        return f"{self.kind}[{','.join(str(k) for k in self.modes)}]"


class Group(Enum):
    """The four optical unitary groups."""

    PLO = "plo"
    DPLO = "dplo"
    ALO = "alo"
    GO = "go"

    def dimension(self, m: int) -> int:
        if m < 1:
            raise ValueError("mode count must be >= 1")
        return {
            Group.PLO: m * m,
            Group.DPLO: m * m + 2 * m + 1,
            Group.ALO: 2 * m * m + m,
            Group.GO: 2 * m * m + 3 * m + 1,
        }[self]


@dataclass(frozen=True)
class LieBasis:
    """Ordered Lie-algebra basis (as Hermitian generators H_I; the algebra
    elements are iH_I) for one group at a fixed mode count.

    PLO, DPLO and GO are closed under commutators as given. ALO is closed
    only modulo the identity, which it does not contain:
    [s_k, S_k] = i(2N_k + 1) and [r_kl, R_kl] = (i/2)(N_k + N_l + 1).
    Ranks over these bases reproduce every ``closed_form`` value except its
    one known undercount, the PLO ket-picture cells of one-mode
    superpositions with an occupied tail (see ``closed_form``)."""

    group: Group
    modes: int
    elements: tuple[GeneratorDescriptor, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.elements)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


def _pairs(m: int) -> list[tuple[int, int]]:
    return [(k, l) for k in range(1, m) for l in range(k + 1, m + 1)]


@functools.lru_cache(maxsize=None)
def lie_basis(group: Group, m: int) -> LieBasis:
    """The canonical ordered basis for (group, m); its length equals
    ``group.dimension(m)``. One (frozen) basis is shared per (group, m).

    The ALO basis carries no identity element, so it is closed under
    commutators only modulo the identity (see ``LieBasis``)."""
    if m < 1:
        raise ValueError("mode count must be >= 1")
    pairs = _pairs(m)
    singles = range(1, m + 1)
    elements: list[GeneratorDescriptor] = []
    elements += [GeneratorDescriptor("e", kl) for kl in pairs]
    elements += [GeneratorDescriptor("E", kl) for kl in pairs]
    elements += [GeneratorDescriptor("N", (k,)) for k in singles]
    if group in (Group.DPLO, Group.GO):
        elements += [GeneratorDescriptor("q", (k,)) for k in singles]
        elements += [GeneratorDescriptor("p", (k,)) for k in singles]
        elements.append(GeneratorDescriptor(IDENTITY_KIND))
    if group in (Group.ALO, Group.GO):
        elements += [GeneratorDescriptor("r", kl) for kl in pairs]
        elements += [GeneratorDescriptor("R", kl) for kl in pairs]
        elements += [GeneratorDescriptor("s", (k,)) for k in singles]
        elements += [GeneratorDescriptor("S", (k,)) for k in singles]
    basis = LieBasis(group=group, modes=m, elements=tuple(elements))
    assert len(basis) == group.dimension(m)
    return basis


#: Generators of the form c X + conj(c) X^dag: the coefficient c of X.
_PAIR_COEFFICIENT = {
    "e": 0.5, "E": 0.5j, "r": 0.5, "R": 0.5j, "s": 0.5, "S": 0.5j,
    "q": _SQRT_HALF, "p": 1j * _SQRT_HALF,
}


def _ladder_monomials(g: GeneratorDescriptor) -> list[tuple[complex, tuple[tuple[int, int], ...]]]:
    """H_g as a sum of ladder monomials (coefficient, steps). A step is a
    (0-based mode, +1 for a^dag or -1 for a) pair; steps act in list order."""
    kind = g.kind
    if kind == IDENTITY_KIND:
        return [(1.0, ())]
    k = g.modes[0] - 1
    if kind == "N":
        return [(1.0, ((k, -1), (k, +1)))]
    if kind in ("e", "E"):
        raising = ((g.modes[1] - 1, -1), (k, +1))  # a+_k a_l
    elif kind in ("r", "R"):
        raising = ((g.modes[1] - 1, +1), (k, +1))  # a+_k a+_l
    elif kind in ("s", "S"):
        raising = ((k, +1), (k, +1))  # a+_k^2
    else:
        raising = ((k, +1),)  # a+_k
    lowering = tuple((mode, -step) for mode, step in reversed(raising))
    c = _PAIR_COEFFICIENT[kind]
    return [(c, raising), (c.conjugate(), lowering)]


#: Generator index, coefficient, mode slots and step slots per monomial.
_MonomialTable = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _monomials(generators: Sequence[GeneratorDescriptor]) -> _MonomialTable:
    """Every ladder monomial of the generators, as arrays over monomials:
    generator index, coefficient, and two (mode, step) slots, the unused
    slot holding step 0."""
    rows = [
        (index, coeff, steps + ((0, 0),) * (2 - len(steps)))
        for index, g in enumerate(generators)
        for coeff, steps in _ladder_monomials(g)
    ]
    gen = np.array([r[0] for r in rows], dtype=np.intp)
    coeff = np.array([r[1] for r in rows], dtype=complex)
    slots = np.array([r[2] for r in rows], dtype=np.int64).reshape(len(rows), 2, 2)
    return gen, coeff, slots[:, :, 0], slots[:, :, 1]


@functools.lru_cache(maxsize=None)
def _monomial_table(group: Group, m: int) -> _MonomialTable:
    """The monomials of the (group, m) basis. The arrays are shared, so
    read-only."""
    table = _monomials(lie_basis(group, m).elements)
    for array in table:
        array.setflags(write=False)
    return table


def _generator_action(
    table: _MonomialTable, occupations: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero matrix element of a monomial table's generators on a
    support.

    ``occupations`` is the S x m array of support states. Returns
    ``(gen, src, tgt, coeff, union, rows)``: entry k says that H_gen[k] maps
    support row src[k] to union state tgt[k] with amplitude coeff[k]. The
    array ``union`` holds the states of the support and every target, in a
    fixed order, and ``rows`` gives each support row's rank in it.
    For each generator and source the targets are distinct.
    """
    occupations = np.asarray(occupations, dtype=np.int64)
    s_count = len(occupations)
    gen, coeff, modes, steps = table
    if int(modes.max()) >= occupations.shape[1]:
        raise ValueError(
            f"generator mode index {int(modes.max()) + 1} exceeds the "
            f"{occupations.shape[1]}-mode register"
        )
    occ = np.repeat(occupations[None, :, :], len(gen), axis=0)
    amp = np.ones((len(gen), s_count))
    mono = np.arange(len(gen))[:, None]
    src = np.arange(s_count)[None, :]
    for slot in range(2):
        mode = modes[:, slot, None]
        step = steps[:, slot, None]
        n = occ[mono, src, mode]
        # a+ multiplies by sqrt(n + 1), a by sqrt(n); a state already
        # annihilated (amplitude 0, n possibly -1) stays at zero
        amp *= np.where(step != 0, np.sqrt(np.maximum(n + (step > 0), 0)), 1.0)
        occ[mono, src, mode] = n + step
    mono_k, src_k = np.nonzero(amp)
    union, inverse = _rank_states(np.concatenate([occupations, occ[mono_k, src_k]]))
    return (
        gen[mono_k],
        src_k,
        inverse[s_count:],
        coeff[mono_k] * amp[mono_k, src_k],
        union,
        inverse[:s_count],
    )


def _rank_states(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an int64 array, in a fixed order, and each
    row's rank among them."""
    # each row as one opaque byte string: np.unique(axis=0) sorts the same
    # rows field by field, several times slower
    rows = np.ascontiguousarray(states, dtype=np.int64)
    distinct, inverse = np.unique(
        rows.view(np.dtype((np.void, 8 * rows.shape[1]))).reshape(-1), return_inverse=True
    )
    return distinct.view(np.int64).reshape(-1, rows.shape[1]), inverse.reshape(-1)


def _directions(
    table: _MonomialTable, occupations: np.ndarray, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each generator of a monomial table applied to each column of a block.

    ``columns`` is S x r over the support ``occupations``. Returns
    ``(x, union, rows)``: ``x[n, :, c]`` is H_n applied to column c over the
    union of the support and every target, ``union`` holds the union's
    states, and ``rows`` gives each support state's rank in the union.
    """
    gen, src, tgt, coeff, union, rows = _generator_action(table, occupations)
    d = int(table[0][-1]) + 1  # generator indices ascend over the table
    x = np.zeros((d * len(union), columns.shape[1]), dtype=complex)
    np.add.at(x, gen * len(union) + tgt, coeff[:, None] * columns[src])
    return x.reshape(d, len(union), columns.shape[1]), union, rows


def _ket_arrays(psi: SparseKet) -> tuple[np.ndarray, np.ndarray]:
    """psi's support as an S x m array and its amplitudes."""
    occupations = np.array(list(psi.terms), dtype=np.int64).reshape(len(psi.terms), psi.modes)
    return occupations, np.fromiter(psi.terms.values(), dtype=complex, count=len(psi.terms))


def _density_arrays(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """rho's support (every state in a bra or a ket) as an S x m array, and
    R, rho's dense S x S matrix over it."""
    keys = np.array(list(rho.op.entries), dtype=np.int64).reshape(-1, rho.modes)
    support, inverse = _rank_states(keys)
    bra_ket = inverse.reshape(-1, 2)
    r = np.zeros((len(support), len(support)), dtype=complex)
    r[bra_ket[:, 0], bra_ket[:, 1]] = np.fromiter(
        rho.op.entries.values(), dtype=complex, count=len(rho.op.entries)
    )
    return support, r


def apply_generator(g: GeneratorDescriptor, psi: SparseKet) -> SparseKet:
    """H psi for the Hermitian generator described by ``g``."""
    occupations, amps = _ket_arrays(psi)
    x, union, _ = _directions(_monomials([g]), occupations, amps[:, None])
    return SparseKet(psi.modes, dict(zip(map(tuple, union.tolist()), x[0, :, 0].tolist())))


def commutator_with_density(g: GeneratorDescriptor, rho: DensityOperator) -> SparseOperator:
    """[H, rho] = H rho - rho H = X - X^dag for Hermitian rho, where X = H R
    over the union of rho's support and every target, R being rho's dense
    matrix over its support."""
    support, r = _density_arrays(rho)
    x, union, rows = _directions(_monomials([g]), support, r)
    c = np.zeros((len(union), len(union)), dtype=complex)
    c[:, rows] = x[0]
    c -= c.conj().T
    states = list(map(tuple, union.tolist()))
    bra, ket = np.nonzero(c)
    return SparseOperator(
        rho.modes,
        {(states[i], states[j]): v for i, j, v in zip(bra.tolist(), ket.tolist(), c[bra, ket].tolist())},
    )


@dataclass(frozen=True)
class ClosureReport:
    """Result of fitting every basis-pair commutator back onto the basis."""

    group: Group
    modes: int
    probe_count: int
    fit_labels: tuple[str, ...]
    max_residual: float
    residuals: dict[tuple[int, int], float]
    coefficients: dict[tuple[int, int], np.ndarray]
    min_normal_eigenvalue: float

    def coefficient(self, pair: tuple[int, int], fit_label: str) -> float:
        return float(self.coefficients[pair][self.fit_labels.index(fit_label)])


def default_closure_probes(m: int) -> list[SparseKet]:
    """Every Fock basis state of at most two photons, plus the two-photon
    uniform-phase state (which breaks residual degeneracies the basis states
    alone would leave)."""
    from .orbit import uniform_phase_state

    probes = [basis_ket(occ) for occ in enumerate_occupations(m, 2)]
    probes.append(uniform_phase_state(m, 2))
    return probes


def verify_closure(
    group: Group,
    m: int,
    probes: Sequence[SparseKet] | None = None,
    *,
    exclude: Iterable[GeneratorDescriptor] = (),
    extra_fit: Iterable[GeneratorDescriptor] = (),
) -> ClosureReport:
    """Check numerically that the basis is closed under commutators.

    For every basis pair, [iH_I, iH_J] applied to each probe is fitted by a
    real combination of the fitted set {iH_K psi} (the full basis minus
    ``exclude``, plus any ``extra_fit`` descriptors), simultaneously over all
    probes. Reports the per-pair least-squares residual norms, the coefficient
    table, and the smallest eigenvalue of the normal matrix as a conditioning
    indicator.

    ``extra_fit`` is a diagnostic handle: it widens only the fitting set, not
    the commutator pairs, so it can localize exactly which direction a failed
    closure is missing (for ALO, adjoining the identity).
    """
    basis = lie_basis(group, m)
    if probes is None:
        probes = default_closure_probes(m)
    probes = list(probes)
    if not probes:
        raise ValueError("empty probe list")
    for psi in probes:
        if psi.modes != m:
            raise ValueError("probe mode count does not match the basis")

    excluded = set(exclude)
    fit = [g for g in basis.elements if g not in excluded]
    fit.extend(g for g in extra_fit if g not in fit)
    d = len(basis.elements)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    first, second = np.triu_indices(d, 1)
    table = _monomials(basis.elements + tuple(fit))

    a_blocks: list[np.ndarray] = []
    b_blocks: list[np.ndarray] = []
    off_norm2 = np.zeros(len(pairs))
    for psi in probes:
        occupations, amps = _ket_arrays(psi)
        applied, union, _ = _directions(table, occupations, amps[:, None])
        # twice[J, :, I] = H_J H_I psi over a second, wider union
        twice, _, rows = _directions(_monomial_table(group, m), union, applied[:d, :, 0].T)
        # [iH_I, iH_J] psi = H_J (H_I psi) - H_I (H_J psi)
        targets = twice[second, :, first] - twice[first, :, second]
        # the fitted vectors vanish off the first union, so the target rows
        # there enter the fit only through their norm
        off_norm2 += np.sum(np.abs(np.delete(targets, rows, axis=1)) ** 2, axis=1)
        # rows of (re, im) pairs, one pair per union state
        a_blocks.append((1j * applied[d:, :, 0]).view(float).T)
        b_blocks.append(np.ascontiguousarray(targets[:, rows]).view(float).T)

    a_mat = np.vstack(a_blocks)
    b_mat = np.vstack(b_blocks)
    normal = a_mat.T @ a_mat
    min_eig = float(np.linalg.eigvalsh(normal)[0]) if len(fit) else 0.0
    if pairs:
        rhs = a_mat.T @ b_mat
        try:
            coeff = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            coeff = np.linalg.lstsq(a_mat, b_mat, rcond=None)[0]
        resid = np.sqrt(np.sum((a_mat @ coeff - b_mat) ** 2, axis=0) + off_norm2)
    else:
        coeff = np.zeros((len(fit), 0))
        resid = np.zeros(0)

    residuals: dict[tuple[int, int], float] = {(i, i): 0.0 for i in range(d)}
    coefficients: dict[tuple[int, int], np.ndarray] = {
        (i, i): np.zeros(len(fit)) for i in range(d)
    }
    for col, (i, j) in enumerate(pairs):
        residuals[(i, j)] = residuals[(j, i)] = float(resid[col])
        coefficients[(i, j)] = coeff[:, col].copy()
        coefficients[(j, i)] = -coeff[:, col]
    return ClosureReport(
        group=group,
        modes=m,
        probe_count=len(probes),
        fit_labels=tuple(g.label for g in fit),
        max_residual=float(resid.max()) if resid.size else 0.0,
        residuals=residuals,
        coefficients=coefficients,
        min_normal_eigenvalue=min_eig,
    )
