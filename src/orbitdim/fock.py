"""Sparse multimode Fock-space states and operators, and the standard
states built from them.

States with finite support in the occupation-number basis are stored as
dictionaries mapping occupation tuples to complex amplitudes; operators
(commutators) map (bra, ket) occupation pairs to complex entries. Only
exact zeros are pruned (no epsilon thresholding).
Generators act on these states through the vectorised kernel in
``generators``, not through arithmetic on the dictionaries. This module
owns the conversions between the dictionaries and arrays over a support:
``SparseKet.arrays`` / ``SparseKet.from_arrays`` and
``SparseOperator.from_arrays``. Arrays are checked as arrays, not term by
term.

A validated density is its ``support`` (the states of its nonzero
entries) and its ``matrix`` over the support; its dict view over (bra, ket)
pairs is ``SparseOperator.from_arrays(rho.support, rho.matrix)``.
``DensityOperator.validate``, ``DensityOperator.from_entries``, ``outer``
and ``mixture`` all end in the same check over the two arrays.

The standard states live here too: ``basis_ket``, the seeded
``sample_sphere_state`` on the photon-number-cutoff subspace, its
``perturb_state`` of a given ket, and ``uniform_phase_state``, with the
``normalize``, ``add`` and ``scale`` they are built from.

Occupation tuples compare lexicographically; that ordering is the canonical
one used for basis enumeration and file output throughout the package. As
arrays, a density's support and the union of a support with its generator
targets (``_rank_states``) are in the same numeric lexicographic order.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

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


def _integers(values: Iterable[object]) -> tuple[int, ...] | None:
    """The values as a tuple of ints, numpy's integers and bools counting as
    integers, or None unless they are a sequence of integers."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return None


def validate_occupation(occ: Iterable[int], modes: int) -> Occupation:
    """Canonicalize one occupation vector, checking length and nonnegativity."""
    out = _integers(occ)
    if out is None:
        raise ValidationError(f"occupation entries must be integers, got {occ!r}")
    if len(out) != modes:
        raise ValidationError(f"occupation {out!r} has length {len(out)}, expected {modes}")
    if any(n < 0 for n in out):
        raise ValidationError(f"occupation {out!r} has a negative entry")
    if any(n > MAX_OCCUPATION for n in out):
        raise ValidationError(f"occupation {out!r} has an entry above 2**63 - 3")
    return out


def _check_rows(states: np.ndarray) -> None:
    """Refuse an S x m occupation array as ``validate_occupation`` refuses
    the first of its rows with an entry outside 0..MAX_OCCUPATION."""
    if states.shape[1] < 1:
        raise ValidationError("mode count must be >= 1")
    if states.size and not (states.min() >= 0 and states.max() <= MAX_OCCUPATION):
        first = np.flatnonzero(((states < 0) | (states > MAX_OCCUPATION)).any(axis=1))[0]
        validate_occupation(states[first].tolist(), states.shape[1])


def _unchecked(cls, **values):
    """A ``SparseKet`` or ``SparseOperator`` with the given fields, whose map
    has valid occupations (or pairs of them) as keys and nonzero complex
    values, built without the per-term checks of ``__post_init__``."""
    state = object.__new__(cls)
    state.__dict__.update(values)
    return state


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Whether each element of a sorted array differs from the one before."""
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _dense_rank(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's rank among the distinct keys, and the position of one
    occurrence of each distinct key, in ascending key order."""
    order = keys.argsort()  # ties may come in any order: only their rank is kept
    first = _run_starts(keys[order])
    rank = np.empty_like(order)
    rank[order] = first.cumsum() - 1
    return rank, order[first]


@functools.lru_cache(maxsize=None)
def _packing(modes: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How rows of ``modes`` occupations below 2^width pack into K words:
    as many occupations a 63-bit word as the width allows, the first mode
    highest, so that rows of words compare as the rows they pack, and a
    sum of rows packs into the sum of their words. Returns the m x K
    weights that pack them, and each mode's word and shift that unpack
    them; read-only, one set per (modes, width)."""
    per = 63 // width
    mode = np.arange(modes)
    word, shift = mode // per, width * (per - 1 - mode % per)
    weights = np.zeros((modes, (modes - 1) // per + 1), dtype=np.int64)
    weights[mode, word] = np.left_shift(1, shift)
    return _frozen(weights, word, shift)


def _unpack(words: np.ndarray, modes: int, width: int) -> np.ndarray:
    """The rows (n x m) that ``_packing`` packed into words (n x K)."""
    _, word, shift = _packing(modes, width)
    rows = np.right_shift(words[:, word], shift)
    return np.bitwise_and(rows, (1 << width) - 1, out=rows)


def _rank_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's rank among the distinct rows of an n x K array of words,
    compared word by word, and the position of one occurrence of each
    distinct row, in ascending order: ranked word by word, carrying the
    rank of the words before."""
    rank, first = _dense_rank(words[:, 0])
    for k in range(1, words.shape[1]):
        # both ranks are below n, so the combined key fits
        rank, first = _dense_rank(rank * len(words) + _dense_rank(words[:, k])[0])
    return rank, first


def _rank_states(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a nonnegative int64 array, in numeric
    lexicographic order, and each row's rank among them."""
    rows = np.ascontiguousarray(states, dtype=np.int64)
    if not len(rows):
        return rows, np.zeros(0, dtype=np.intp)
    # packed as tightly as the largest entry allows
    rank, first = _rank_words(rows @ _packing(rows.shape[1], max(int(rows.max()).bit_length(), 1))[0])
    return rows[first], rank


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
    ket. A ket keeps its arrays, its squared norm and its unit column
    psi/|psi| once they are first asked for, so its terms must not be mutated.
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

    def __getstate__(self) -> dict:
        return {"modes": self.modes, "terms": self.terms}  # what it keeps is derived again

    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        return math.sqrt(self._norm2)

    @functools.cached_property
    def _norm2(self) -> float:
        """The squared norm, summed term by term in term order (inf past the float range)."""
        return sum((a.real * a.real + a.imag * a.imag for a in self.terms.values()), 0.0)

    def max_total(self) -> int:
        """Largest total photon number in the support (0 for the zero ket)."""
        return max((sum(occ) for occ in self.terms), default=0)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The support as an S x m int64 array and the amplitudes, in term
        order; both read-only, and the same two objects on every call."""
        return self._arrays

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        states = np.array(list(self.terms), dtype=np.int64).reshape(len(self.terms), self.modes)
        return _frozen(states, np.fromiter(self.terms.values(), dtype=complex, count=len(self.terms)))

    @functools.cached_property
    def _unit(self) -> np.ndarray:
        """psi/|psi| as a read-only S x 1 column over the support of
        ``arrays``: the one normalisation, ``normalize``'s, |psi| read from
        ``_norm2`` or, below the normal float range, summed as it sums after
        an exact power-of-two scaling that brings the largest modulus into
        [1/2, 1). The zero ket and a ket of infinite or NaN norm are refused."""
        amps, nrm = self._arrays[1], self.norm()
        if not math.isfinite(nrm):
            raise ValidationError(f"cannot normalize a ket of norm {nrm!r}")
        re, im = amps.real, amps.imag
        if nrm * nrm < sys.float_info.min:
            shift = -math.frexp(np.max(np.abs(amps), initial=0.0))[1]
            re, im = np.ldexp(re, shift), np.ldexp(im, shift)
            nrm = math.sqrt(sum((re * re + im * im).tolist(), 0.0))
        if nrm == 0.0:
            raise ValidationError("cannot normalize the zero ket")
        c = 1.0 / nrm  # complex(c) * a for each amplitude a: the products of its zero imaginary part sign zeros
        return _frozen(np.column_stack([c * re - 0.0 * im, c * im + 0.0 * re]).view(complex))[0]

    @classmethod
    def from_arrays(cls, states: np.ndarray, amps: np.ndarray) -> "SparseKet":
        """The ket with amplitude ``amps[k]`` on the occupation ``states[k]``
        (an S x m array); zero amplitudes are dropped. The rows are checked
        as one array, not term by term."""
        _check_rows(states)
        amps = np.asarray(amps, dtype=complex)
        kept = np.flatnonzero(amps)
        states, amps = np.asarray(states[kept], dtype=np.int64), amps[kept]
        terms = dict(zip(map(tuple, states.tolist()), amps.tolist()))
        if len(terms) < len(kept):  # a repeated row: the map keeps its last amplitude
            return _unchecked(cls, modes=states.shape[1], terms=terms)
        return _unchecked(cls, modes=states.shape[1], terms=terms, _arrays=_frozen(states, amps))


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
    # psi's occupations are valid, so only the products that are 0 are dropped
    return _unchecked(SparseKet, modes=psi.modes, terms={occ: v for occ, amp in psi.terms.items() if (v := c * amp)})


def normalize(psi: SparseKet) -> SparseKet:
    """psi / |psi|: the ket of its unit column (``SparseKet._unit``), which
    refuses the zero ket and a ket of infinite or NaN norm; an amplitude
    that underflows to 0 is dropped."""
    return SparseKet.from_arrays(psi.arrays()[0], psi._unit[:, 0])


def sample_sphere_state(m: int, n_cutoff: int, seed: int) -> SparseKet:
    """Uniformly random state on the unit sphere of the cutoff subspace:
    independent standard complex Gaussian amplitudes per basis element
    (lexicographic order), then normalized. Deterministic under the seed."""
    states = np.array(enumerate_occupations(m, n_cutoff), dtype=np.int64)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(len(states)) + 1j * rng.standard_normal(len(states))
    amps /= np.linalg.norm(amps)
    return SparseKet.from_arrays(states, amps)


def perturb_state(psi: SparseKet, eps: float, n_cutoff: int, seed: int) -> SparseKet:
    """normalize(psi + eps * chi) for a seeded sphere sample chi on the
    cutoff subspace; eps = 0 returns psi unchanged."""
    if eps == 0.0:
        return psi
    chi = sample_sphere_state(psi.modes, n_cutoff, seed)
    return normalize(add(psi, scale(eps, chi)))


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

    @classmethod
    def from_arrays(cls, states: np.ndarray, matrix: np.ndarray) -> "SparseOperator":
        """The operator with entry ``matrix[i, j]`` at (``states[i]``,
        ``states[j]``), nonzero entries in row-major order. The rows are
        checked as one array, not entry by entry."""
        _check_rows(states)
        rows = list(map(tuple, states.tolist()))
        matrix = np.asarray(matrix, dtype=complex)
        bra, ket = np.nonzero(matrix)
        entries = {(rows[i], rows[j]): v for i, j, v in zip(bra.tolist(), ket.tolist(), matrix[bra, ket].tolist())}
        return _unchecked(cls, modes=states.shape[1], entries=entries)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated density operator: Hermitian, unit trace, nonnegative diagonal.

    A density is its ``support``, the states of its nonzero entries as a
    read-only S x m int64 array in numeric lexicographic order, and its
    ``matrix``, the read-only S x S matrix of the operator over the support.
    The measured residuals are kept so callers can audit how close the input
    was to the constraints it claims to satisfy. Every constructor ends in
    the same check over the support and the matrix.
    """

    support: np.ndarray
    matrix: np.ndarray
    hermiticity_residual: float
    trace_residual: float

    @property
    def modes(self) -> int:
        return self.support.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityOperator):
            return NotImplemented
        return (
            (self.hermiticity_residual, self.trace_residual) == (other.hermiticity_residual, other.trace_residual)
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.matrix, other.matrix)
        )

    @classmethod
    def validate(cls, op: SparseOperator) -> "DensityOperator":
        keys = np.array(list(op.entries), dtype=np.int64).reshape(-1, 2, op.modes)
        return cls.from_entries(keys, np.fromiter(op.entries.values(), dtype=complex, count=len(op.entries)))

    @classmethod
    def from_entries(cls, keys: np.ndarray, values: np.ndarray) -> "DensityOperator":
        """Validate the operator with entry ``values[k]`` at (``keys[k, 0]``,
        ``keys[k, 1]``), an E x 2 x m array of distinct occupation pairs.
        The pairs are checked as one array, not entry by entry."""
        rows = keys.reshape(2 * len(keys), keys.shape[2])
        _check_rows(rows)
        support, inverse = _rank_states(rows)
        bra, ket = inverse.reshape(-1, 2).T
        matrix = np.zeros((len(support), len(support)), dtype=complex)
        matrix[bra, ket] = values
        return cls._checked(support, matrix)

    @classmethod
    def _checked(cls, states: np.ndarray, matrix: np.ndarray) -> "DensityOperator":
        """The density of ``matrix``, an S x S array that the caller hands
        over, on ``states``, S distinct occupations in numeric lexicographic
        order: kept on the states of its nonzero entries, with every zero
        entry +0, once it passes the Hermiticity, trace and diagonal
        checks."""
        zero = matrix == 0
        matrix[zero] = 0
        kept = ~(zero.all(axis=0) & zero.all(axis=1))
        if not kept.all():
            states, matrix = states[kept], matrix[np.ix_(kept, kept)]
        # every check is written so that a NaN fails it (np.max keeps a NaN);
        # an infinite entry gives inf - inf = NaN here, as Python's complex does
        with np.errstate(over="ignore", invalid="ignore"):
            herm = float(np.max(np.abs(matrix - matrix.conj().T), initial=0.0))
        if not herm <= HERMITICITY_TOL:
            raise ValidationError(f"hermiticity residual {herm:.3e} exceeds {HERMITICITY_TOL:.1e}")
        diagonal = matrix.diagonal()
        trace = sum(diagonal.tolist(), 0j)
        trace_res = abs(trace - 1.0)
        if not trace_res <= TRACE_TOL:
            raise ValidationError(f"trace {trace!r} deviates from 1 by {trace_res:.3e} (tol {TRACE_TOL:.1e})")
        low = np.flatnonzero(~(diagonal.real >= -DIAGONAL_FLOOR))
        if low.size:  # the first in support order
            i = low[0]
            raise ValidationError(
                f"diagonal entry {complex(diagonal[i])!r} at {tuple(states[i].tolist())!r} below -{DIAGONAL_FLOOR:.1e}"
            )
        _frozen(states, matrix)
        return cls(support=states, matrix=matrix, hermiticity_residual=herm, trace_residual=trace_res)


def outer(psi: SparseKet) -> DensityOperator:
    """The normalized projector |psi><psi| / <psi|psi>."""
    return mixture([(1.0, psi)])


def mixture(components: Sequence[tuple[float, SparseKet]]) -> DensityOperator:
    """Convex mixture sum_i w_i |psi_i><psi_i| (each ket normalized internally).

    Each component adds w psi psi^dag / <psi|psi> over the union of the
    supports, in component order. The real and imaginary parts are formed
    apart, so every entry is the one Python's complex arithmetic gives
    (numpy's complex product may fuse a multiply and an add)."""
    if not components:
        raise ValidationError("mixture needs at least one component")
    modes = components[0][1].modes
    arrays = []
    for _, psi in components:
        if psi.modes != modes:
            raise ValueError("all mixture components must share the mode count")
        if not math.isfinite(psi._norm2):
            raise ValidationError(f"mixture component has squared norm {psi._norm2!r}")
        # scaled by the power of two that brings the largest modulus into
        # [1/2, 1), so that no product of two amplitudes underflows unless
        # its normalized value does; exact, so it changes no other entry
        states, amps = psi.arrays()
        shift = -math.frexp(np.max(np.abs(amps), initial=0.0))[1]
        re, im = np.ldexp(amps.real, shift), np.ldexp(amps.imag, shift)
        nrm2 = sum((re * re + im * im).tolist())
        if nrm2 == 0.0:
            raise ValidationError("mixture component is the zero ket")
        arrays.append((states, re, im, nrm2))
    support, inverse = _rank_states(np.concatenate([states for states, *_ in arrays]))
    matrix = np.zeros((len(support), len(support)), dtype=complex)
    offsets = np.cumsum([len(re) for _, re, _, _ in arrays])[:-1]
    # a weight above 1 can overflow, silently as in Python; the check refuses the result
    with np.errstate(over="ignore", invalid="ignore"):
        for (weight, _), (_, re, im, nrm2), rows in zip(components, arrays, np.split(inverse, offsets)):
            wre, wim = weight * re, weight * im
            cell = np.ix_(rows, rows)
            matrix.real[cell] += (np.multiply.outer(wre, re) + np.multiply.outer(wim, im)) / nrm2
            matrix.imag[cell] += (np.multiply.outer(wim, re) - np.multiply.outer(wre, im)) / nrm2
    return DensityOperator._checked(support, matrix)
