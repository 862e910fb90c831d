"""Sparse multimode Fock-space states and operators.

States with finite support in the occupation-number basis are stored as
dictionaries mapping occupation tuples to complex amplitudes; operators
(parsed or evolved densities, commutators) map (bra, ket) occupation pairs
to complex entries. Only exact zeros are pruned (no epsilon thresholding).
Generators act on these states through the vectorised kernel in
``generators``, not through arithmetic on the dictionaries. This module
owns the conversions between the dictionaries and arrays over a support:
``SparseKet.arrays`` / ``SparseKet.from_arrays``,
``SparseOperator.from_arrays``, and a validated density's ``support`` and
``matrix``.

Occupation tuples compare lexicographically; that ordering is the canonical
one used for basis enumeration and file output throughout the package.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

Occupation = tuple[int, ...]
OperatorKey = tuple[Occupation, Occupation]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
DIAGONAL_FLOOR = 1e-12
#: Largest occupation accepted: the generator kernel computes n + 2 in int64.
MAX_OCCUPATION = 2**63 - 3


class ValidationError(ValueError):
    """A state, operator, or input violates a structural invariant."""


def validate_occupation(occ: Iterable[int], modes: int) -> Occupation:
    """Canonicalize one occupation vector, checking length and nonnegativity."""
    try:
        out = tuple(operator.index(n) for n in occ)
    except TypeError as exc:
        raise ValidationError(f"occupation entries must be integers, got {occ!r}") from exc
    if len(out) != modes:
        raise ValidationError(f"occupation {out!r} has length {len(out)}, expected {modes}")
    if any(n < 0 for n in out):
        raise ValidationError(f"occupation {out!r} has a negative entry")
    if any(n > MAX_OCCUPATION for n in out):
        raise ValidationError(f"occupation {out!r} has an entry above 2**63 - 3")
    return out


def _rank_states(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an int64 array, in a fixed order, and each
    row's rank among them."""
    # each row as one opaque byte string: np.unique(axis=0) sorts the same
    # rows field by field, several times slower
    rows = np.ascontiguousarray(states, dtype=np.int64)
    if not len(rows):  # nothing to rank, and 8 m bytes may exceed numpy's largest void
        return rows, np.zeros(0, dtype=np.intp)
    distinct, inverse = np.unique(
        rows.view(np.dtype((np.void, 8 * rows.shape[1]))).reshape(-1), return_inverse=True
    )
    return distinct.view(np.int64).reshape(-1, rows.shape[1]), inverse.reshape(-1)


def _occupations(modes: int, budget: int) -> Iterator[Occupation]:
    if modes == 1:
        for n in range(budget + 1):
            yield (n,)
        return
    for n in range(budget + 1):
        for rest in _occupations(modes - 1, budget - n):
            yield (n, *rest)


def enumerate_occupations(modes: int, max_total: int) -> list[Occupation]:
    """All occupation vectors with at most ``max_total`` photons, in
    lexicographic order. The list has ``binom(modes + max_total, max_total)``
    elements."""
    if modes < 1:
        raise ValueError("mode count must be >= 1")
    if max_total < 0:
        raise ValueError("photon cutoff must be >= 0")
    return list(_occupations(modes, max_total))


@dataclass(frozen=True)
class SparseKet:
    """Finite complex combination of occupation-number basis states.

    Exact zeros are dropped at construction; an empty term map is the zero
    ket. Instances are treated as immutable.
    """

    modes: int
    terms: dict[Occupation, complex]

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise ValidationError("mode count must be >= 1")
        clean: dict[Occupation, complex] = {}
        for occ, amp in self.terms.items():
            key = validate_occupation(occ, self.modes)
            value = complex(amp)
            if value != 0:
                clean[key] = value
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        return math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in self.terms.values()))

    def max_total(self) -> int:
        """Largest total photon number in the support (0 for the zero ket)."""
        return max((sum(occ) for occ in self.terms), default=0)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The support as an S x m int64 array and the amplitudes, in term
        order."""
        states = np.array(list(self.terms), dtype=np.int64).reshape(len(self.terms), self.modes)
        return states, np.fromiter(self.terms.values(), dtype=complex, count=len(self.terms))

    @classmethod
    def from_arrays(cls, states: np.ndarray, amps: np.ndarray) -> "SparseKet":
        """The ket with amplitude ``amps[k]`` on the occupation ``states[k]``
        (an S x m array); zero amplitudes are dropped."""
        kept = np.flatnonzero(amps)
        return cls(states.shape[1], dict(zip(map(tuple, states[kept].tolist()), amps[kept].tolist())))


def basis_ket(occ: Sequence[int]) -> SparseKet:
    """The basis state |n1, ..., nm> for the given occupation vector."""
    occ = tuple(occ)
    return SparseKet(len(occ), {occ: 1.0 + 0.0j})


def add(phi: SparseKet, psi: SparseKet) -> SparseKet:
    if phi.modes != psi.modes:
        raise ValueError(f"mode mismatch: {phi.modes} vs {psi.modes}")
    out = dict(phi.terms)
    for occ, amp in psi.terms.items():
        out[occ] = out.get(occ, 0j) + amp
    return SparseKet(phi.modes, out)


def scale(c: complex, psi: SparseKet) -> SparseKet:
    c = complex(c)
    return SparseKet(psi.modes, {occ: c * amp for occ, amp in psi.terms.items()})


def normalize(psi: SparseKet) -> SparseKet:
    nrm = psi.norm()
    if nrm == 0.0:
        raise ValidationError("cannot normalize the zero ket")
    return scale(1.0 / nrm, psi)


@dataclass(frozen=True)
class SparseOperator:
    """Finite complex map over (bra, ket) occupation pairs."""

    modes: int
    entries: dict[OperatorKey, complex]

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise ValidationError("mode count must be >= 1")
        clean: dict[OperatorKey, complex] = {}
        for (bra, ket), amp in self.entries.items():
            key = (validate_occupation(bra, self.modes), validate_occupation(ket, self.modes))
            value = complex(amp)
            if value != 0:
                clean[key] = value
        object.__setattr__(self, "entries", clean)

    def is_zero(self) -> bool:
        return not self.entries

    def max_total(self) -> int:
        return max((max(sum(b), sum(k)) for b, k in self.entries), default=0)

    @classmethod
    def from_arrays(cls, states: np.ndarray, matrix: np.ndarray) -> "SparseOperator":
        """The operator with entry ``matrix[i, j]`` at (``states[i]``,
        ``states[j]``), nonzero entries in row-major order."""
        rows = list(map(tuple, states.tolist()))
        bra, ket = np.nonzero(matrix)
        return cls(
            states.shape[1],
            {(rows[i], rows[j]): v for i, j, v in zip(bra.tolist(), ket.tolist(), matrix[bra, ket].tolist())},
        )


def op_trace(a: SparseOperator) -> complex:
    return sum((amp for (b, k), amp in a.entries.items() if b == k), 0j)


@dataclass(frozen=True)
class DensityOperator:
    """A validated density operator: Hermitian, unit trace, nonnegative diagonal.

    The measured residuals are kept so callers can audit how close the input
    was to the constraints it claims to satisfy. ``support`` holds every
    state in a bra or a ket as a read-only S x m int64 array, and ``matrix``
    the read-only S x S matrix of the operator over it.
    """

    op: SparseOperator
    hermiticity_residual: float
    trace_residual: float
    support: np.ndarray = field(compare=False, repr=False)
    matrix: np.ndarray = field(compare=False, repr=False)

    @property
    def modes(self) -> int:
        return self.op.modes

    @classmethod
    def validate(cls, op: SparseOperator) -> "DensityOperator":
        keys = np.array(list(op.entries), dtype=np.int64).reshape(-1, op.modes)
        support, inverse = _rank_states(keys)
        bra, ket = inverse.reshape(-1, 2).T
        values = np.fromiter(op.entries.values(), dtype=complex, count=len(op.entries))
        matrix = np.zeros((len(support), len(support)), dtype=complex)
        matrix[bra, ket] = values
        # every check is written so that a NaN fails it (np.max keeps a NaN);
        # an infinite entry gives inf - inf = NaN here, as Python's complex does
        with np.errstate(invalid="ignore"):
            herm = float(np.max(np.abs(matrix - matrix.conj().T), initial=0.0))
        if not herm <= HERMITICITY_TOL:
            raise ValidationError(f"hermiticity residual {herm:.3e} exceeds {HERMITICITY_TOL:.1e}")
        trace = op_trace(op)
        trace_res = abs(trace - 1.0)
        if not trace_res <= TRACE_TOL:
            raise ValidationError(f"trace {trace!r} deviates from 1 by {trace_res:.3e} (tol {TRACE_TOL:.1e})")
        low = np.flatnonzero((bra == ket) & ~(values.real >= -DIAGONAL_FLOOR))
        if low.size:  # the first in entry order
            k = low[0]
            raise ValidationError(
                f"diagonal entry {complex(values[k])!r} at {tuple(support[bra[k]].tolist())!r} "
                f"below -{DIAGONAL_FLOOR:.1e}"
            )
        support.setflags(write=False)
        matrix.setflags(write=False)
        return cls(op=op, hermiticity_residual=herm, trace_residual=trace_res, support=support, matrix=matrix)


def outer(psi: SparseKet) -> DensityOperator:
    """The normalized projector |psi><psi| / <psi|psi>."""
    return mixture([(1.0, psi)])


def mixture(components: Sequence[tuple[float, SparseKet]]) -> DensityOperator:
    """Convex mixture sum_i w_i |psi_i><psi_i| (each ket normalized internally)."""
    if not components:
        raise ValidationError("mixture needs at least one component")
    modes = components[0][1].modes
    entries: dict[OperatorKey, complex] = {}
    for weight, psi in components:
        if psi.modes != modes:
            raise ValueError("all mixture components must share the mode count")
        nrm2 = sum(a.real * a.real + a.imag * a.imag for a in psi.terms.values())
        if nrm2 == 0.0:
            raise ValidationError("mixture component is the zero ket")
        if not math.isfinite(nrm2):
            raise ValidationError(f"mixture component has squared norm {nrm2!r}")
        for bra, bamp in psi.terms.items():
            for ket, kamp in psi.terms.items():
                key = (bra, ket)
                entries[key] = entries.get(key, 0j) + weight * bamp * kamp.conjugate() / nrm2
    return DensityOperator.validate(SparseOperator(modes, entries))
