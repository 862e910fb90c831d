"""Sparse multimode Fock-space states and operators.

States with finite support in the occupation-number basis are stored as
dictionaries mapping occupation tuples to complex amplitudes; operators
(parsed or evolved densities, commutators) map (bra, ket) occupation pairs
to complex entries. Only exact zeros are pruned (no epsilon thresholding).
Generators act on these states through the vectorised kernel in
``generators``, not through arithmetic on the dictionaries.

Occupation tuples compare lexicographically; that ordering is the canonical
one used for basis enumeration and file output throughout the package.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

Occupation = tuple[int, ...]
OperatorKey = tuple[Occupation, Occupation]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
DIAGONAL_FLOOR = 1e-12


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
    return out


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


def op_trace(a: SparseOperator) -> complex:
    return sum((amp for (b, k), amp in a.entries.items() if b == k), 0j)


@dataclass(frozen=True)
class DensityOperator:
    """A validated density operator: Hermitian, unit trace, nonnegative diagonal.

    The measured residuals are kept so callers can audit how close the input
    was to the constraints it claims to satisfy.
    """

    op: SparseOperator
    hermiticity_residual: float
    trace_residual: float

    @property
    def modes(self) -> int:
        return self.op.modes

    @classmethod
    def validate(
        cls,
        op: SparseOperator,
        *,
        herm_tol: float = HERMITICITY_TOL,
        trace_tol: float = TRACE_TOL,
        diagonal_floor: float = DIAGONAL_FLOOR,
    ) -> "DensityOperator":
        # every check is written so that a NaN fails it
        herm = 0.0
        for (bra, ket), amp in op.entries.items():
            residual = abs(amp - op.entries.get((ket, bra), 0j).conjugate())
            if residual > herm or math.isnan(residual):  # max() would drop a NaN
                herm = residual
        if not herm <= herm_tol:
            raise ValidationError(f"hermiticity residual {herm:.3e} exceeds {herm_tol:.1e}")
        trace = op_trace(op)
        trace_res = abs(trace - 1.0)
        if not trace_res <= trace_tol:
            raise ValidationError(f"trace {trace!r} deviates from 1 by {trace_res:.3e} (tol {trace_tol:.1e})")
        for (bra, ket), amp in op.entries.items():
            if bra == ket and not amp.real >= -diagonal_floor:
                raise ValidationError(f"diagonal entry {amp!r} at {bra!r} below -{diagonal_floor:.1e}")
        return cls(op=op, hermiticity_residual=herm, trace_residual=trace_res)


def outer(psi: SparseKet) -> DensityOperator:
    """The normalized projector |psi><psi| / <psi|psi>."""
    nrm2 = sum(a.real * a.real + a.imag * a.imag for a in psi.terms.values())
    if nrm2 == 0.0:
        raise ValidationError("cannot form the projector of the zero ket")
    if not math.isfinite(nrm2):
        raise ValidationError(f"cannot form the projector of a ket with squared norm {nrm2!r}")
    entries: dict[OperatorKey, complex] = {}
    for bra, bamp in psi.terms.items():
        for ket, kamp in psi.terms.items():
            entries[(bra, ket)] = bamp * kamp.conjugate() / nrm2
    return DensityOperator.validate(SparseOperator(psi.modes, entries))


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
