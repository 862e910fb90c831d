"""Quadratic Hamiltonians of linear and Gaussian optics, their Lie-algebra
bases per group, and a numerical closure check.

Generator catalogue (1-based mode indices, k < l for two-mode kinds), defined
once in ``_KINDS``, which every other fact about a kind is read from:

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

Each group's basis is ordered canonically (``_BASIS_KINDS``): e pairs in
lexicographic (k, l) order, then E pairs, then N, then (when present) q, p,
identity, then (when present) r, R, s, S. The ordering fixes matrix layouts
everywhere; it never affects ranks.

Generators act on a support through one kernel, ``_generator_action``: each
ladder monomial moves a support row by a fixed step vector, and the
support with every target forms a union of states in numeric lexicographic
order. Which elements land on which union state depends on the generators
and the support alone, not on the amplitudes, so ``_directions`` plans it
once per (monomial table, support) and applies the plan to each block of
columns.

The closure check ``verify_closure`` applies the basis and the fitted set
to each probe, then joins each nonzero of H_I psi with the plan of the
basis on that first union, so no H_J H_I psi is formed densely; the
commutator targets are fitted one block of pairs at a time under a fixed
budget.

State-independent arrays are built once per process and kept, read-only,
in one store under a fixed budget of 64 MiB (least recently used first out):
the plans here, and the truncated bases and block spectra of ``dynamics``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import (
    DensityOperator,
    SparseKet,
    SparseOperator,
    _rank_states,
    _run_starts,
    basis_ket,
    enumerate_occupations,
    uniform_phase_state,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

IDENTITY_KIND = "I"

#: The generator catalogue: kind -> (mode count, c, steps of X), where
#: H = c X + conj(c) X^dag for a ladder monomial X, or H = X when c is None
#: (the Hermitian N and identity). A step is (mode slot, +1 for a^dag or -1
#: for a), the slot indexing the descriptor's modes; steps act in list order.
_KINDS: dict[str, tuple[int, complex | None, tuple[tuple[int, int], ...]]] = {
    "e": (2, 0.5, ((1, -1), (0, +1))),  # a+_k a_l
    "E": (2, 0.5j, ((1, -1), (0, +1))),
    "r": (2, 0.5, ((1, +1), (0, +1))),  # a+_k a+_l
    "R": (2, 0.5j, ((1, +1), (0, +1))),
    "N": (1, None, ((0, -1), (0, +1))),  # a+_k a_k
    "s": (1, 0.5, ((0, +1), (0, +1))),  # a+_k^2
    "S": (1, 0.5j, ((0, +1), (0, +1))),
    "q": (1, _SQRT_HALF, ((0, +1),)),  # a+_k
    "p": (1, 1j * _SQRT_HALF, ((0, +1),)),
    IDENTITY_KIND: (0, None, ()),
}


def number_shift(kind: str) -> int:
    """Largest change in total photon number a single application can cause."""
    return abs(sum(step for _, step in _KINDS[kind][2]))


@dataclass(frozen=True)
class GeneratorDescriptor:
    """Symbolic tag plus mode indices identifying one Hamiltonian."""

    kind: str
    modes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        count = _KINDS[self.kind][0]
        # 1 <= k (< l): each index exceeds the one before, starting from 0
        if len(self.modes) != count or not all(a < b for a, b in zip((0, *self.modes), self.modes)):
            raise ValueError(f"{self.kind} requires {count} increasing mode indices >= 1, got {self.modes}")

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
        """Basis size: each of the group's kinds on C(m, its mode count) tuples."""
        if m < 1:
            raise ValueError("mode count must be >= 1")
        return sum(math.comb(m, _KINDS[kind][0]) for kind in _BASIS_KINDS[self])


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


#: Each group's basis kinds, in basis order.
_BASIS_KINDS = {
    Group.PLO: "eEN",
    Group.DPLO: "eENqpI",
    Group.ALO: "eENrRsS",
    Group.GO: "eENqpIrRsS",
}


@functools.lru_cache(maxsize=None)
def lie_basis(group: Group, m: int) -> LieBasis:
    """The canonical ordered basis for (group, m); its length equals
    ``group.dimension(m)``. One (frozen) basis is shared per (group, m).

    The ALO basis carries no identity element, so it is closed under
    commutators only modulo the identity (see ``LieBasis``)."""
    size = group.dimension(m)  # refuses m < 1
    elements = tuple(
        GeneratorDescriptor(kind, modes)
        for kind in _BASIS_KINDS[group]
        # each kind's increasing mode tuples, in lexicographic order
        for modes in itertools.combinations(range(1, m + 1), _KINDS[kind][0])
    )
    basis = LieBasis(group=group, modes=m, elements=elements)
    assert len(basis) == size
    return basis


def _ladder_monomials(g: GeneratorDescriptor) -> list[tuple[complex, tuple[tuple[int, int], ...]]]:
    """H_g as a sum of ladder monomials (coefficient, steps). A step is a
    (0-based mode, +1 for a^dag or -1 for a) pair; steps act in list order."""
    _, c, slots = _KINDS[g.kind]
    steps = tuple((g.modes[slot] - 1, step) for slot, step in slots)
    if c is None:
        return [(1.0, steps)]
    adjoint = tuple((mode, -step) for mode, step in reversed(steps))
    return [(c, steps), (c.conjugate(), adjoint)]


#: Per monomial: generator index, coefficient, and for each of two step
#: slots its mode, whether it is used and its offset; then the step vector.
_MonomialTable = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=None)
def _monomials(generators: tuple[GeneratorDescriptor, ...]) -> _MonomialTable:
    """Every ladder monomial of the generators, as arrays over monomials:
    generator index and coefficient; the mode each of two step slots acts
    on, whether it holds a step (one-step monomials leave the second slot
    empty) and the offset it adds to the support occupation of its mode
    under the square root; and the monomial's step vector, as wide as the
    highest mode it acts on. Only the support varies between applications,
    so each target is a support row plus a step vector.

    One table is shared per generator tuple, so the arrays are read-only
    and the table's identity names it in the plans of ``_directions``."""
    rows = [
        (index, coeff, steps + ((0, 0),) * (2 - len(steps)))
        for index, g in enumerate(generators)
        for coeff, steps in _ladder_monomials(g)
    ]
    gen = np.array([r[0] for r in rows], dtype=np.intp)
    coeff = np.array([r[1] for r in rows], dtype=complex)
    slots = np.array([r[2] for r in rows], dtype=np.int64).reshape(len(rows), 2, 2)
    modes, steps = slots[:, :, 0], slots[:, :, 1]
    # a+ multiplies by sqrt(n + 1), a by sqrt(n); the second step reads n
    # after the first, which moved it only when both act on the same mode
    offsets = (steps > 0).astype(np.int64)
    offsets[:, 1] += np.where(modes[:, 0] == modes[:, 1], steps[:, 0], 0)
    delta = np.zeros((len(rows), int(modes.max()) + 1), dtype=np.int64)
    for slot in range(2):  # one mode per row and slot: no index repeats
        delta[np.arange(len(rows)), modes[:, slot]] += steps[:, slot]
    table = gen, coeff, modes, steps != 0, offsets, delta
    for array in table:
        array.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _monomial_table(group: Group, m: int) -> _MonomialTable:
    """The monomials of the (group, m) basis."""
    return _monomials(lie_basis(group, m).elements)


def _generator_action(
    table: _MonomialTable, occupations: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero matrix element of a monomial table's generators on a
    support.

    ``occupations`` is the S x m array of support states. Returns
    ``(gen, src, tgt, coeff, union, rows)``: entry k says that H_gen[k] maps
    support row src[k] to union state tgt[k] with amplitude coeff[k]. The
    array ``union`` holds the states of the support and every target, in
    numeric lexicographic order, and ``rows`` gives each support row's rank
    in it. For each generator and source the targets are distinct.
    """
    occupations = np.asarray(occupations, dtype=np.int64)
    gen, coeff, modes, used, offsets, delta = table
    if delta.shape[1] > occupations.shape[1]:
        raise ValueError(
            f"generator mode index {delta.shape[1]} exceeds the "
            f"{occupations.shape[1]}-mode register"
        )
    # the occupation each slot reads, monomials x slots x sources; a state
    # already annihilated (factor 0, n possibly -1) stays at zero
    n = occupations.T[modes] + offsets[:, :, None]
    factor = np.where(used[:, :, None], np.sqrt(np.maximum(n, 0)), 1.0)
    amp = factor[:, 0] * factor[:, 1]
    mono, src = np.nonzero(amp)
    targets = occupations[src]
    targets[:, : delta.shape[1]] += delta[mono]
    union, inverse = _rank_states(np.concatenate([occupations, targets]))
    s_count = len(occupations)
    return gen[mono], src, inverse[s_count:], coeff[mono] * amp[mono, src], union, inverse[:s_count]


#: Bytes of cached arrays kept per process; past it the least recently used
#: plans, bases and spectra are dropped.
_CACHE_BUDGET = 64 << 20


class _Store(OrderedDict):
    """key -> (value, bytes of its arrays), least recently used first, with
    the bytes of every entry summed in ``nbytes``."""

    nbytes = 0


_cache = _Store()
_cache_lock = threading.Lock()


def _recall(key: tuple) -> object | None:
    with _cache_lock:
        hit = _cache.get(key)
        if hit is None:
            return None
        _cache.move_to_end(key)
        return hit[0]


def _remember(key: tuple, value: object, arrays: Iterable[np.ndarray]) -> None:
    size = 0
    for a in arrays:
        a.flags.writeable = False
        size += a.nbytes
    with _cache_lock:
        _, old = _cache.pop(key, (None, 0))  # another thread may have built it too
        _cache[key] = (value, size)
        _cache.nbytes += size - old


def _trim() -> None:
    """Drop the least recently used entries until the cache fits its budget."""
    with _cache_lock:
        while _cache.nbytes > _CACHE_BUDGET:
            _, (_, size) = _cache.popitem(last=False)
            _cache.nbytes -= size


#: A monomial table's action on one support, as ``_directions`` applies it:
#: the table; the source row and the coefficient (a column) of every
#: element, stably sorted by the cell (generator * union size + target) it
#: lands on; where each cell's run of elements starts, and the cell; the
#: union and the support's rows in it.
_Plan = tuple[_MonomialTable, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _plan(table: _MonomialTable, occupations: np.ndarray) -> _Plan:
    """The action of a monomial table on a support, built on the first call
    and then kept in the cache, keyed by the table's identity and the
    support's bytes. The plan holds its table, so no other table takes
    that identity while the plan is cached."""
    occupations = np.asarray(occupations, dtype=np.int64)
    key = ("plan", id(table), occupations.shape, occupations.tobytes())
    plan = _recall(key)
    if plan is None:
        gen, src, tgt, coeff, union, rows = _generator_action(table, occupations)
        # sum the elements landing on one cell in their order, as np.add.at
        # would: a stable sort groups them, one reduceat adds each group
        cell = gen * len(union) + tgt
        order = cell.argsort(kind="stable")
        cell = cell[order]
        starts = _run_starts(cell).nonzero()[0]
        # rows views the whole rank array: a copy keeps only what the store counts
        plan = (table, src[order], coeff[order, None], starts, cell[starts], union, rows.copy())
        _remember(key, plan, plan[1:])
        _trim()
    return plan


def _directions(
    table: _MonomialTable, occupations: np.ndarray, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each generator of a monomial table applied to each column of a block.

    ``columns`` is S x r over the support ``occupations``. Returns
    ``(x, union, rows)``: ``x[n, :, c]`` is H_n applied to column c over the
    union of the support and every target, ``union`` holds the union's
    states, and ``rows`` gives each support state's rank in the union; the
    last two are shared, so read-only.
    """
    _, src, coeff, starts, cells, union, rows = _plan(table, occupations)
    d = int(table[0][-1]) + 1  # generator indices ascend over the table
    x = np.zeros((d * len(union), columns.shape[1]), dtype=complex)
    sums = np.add.reduceat(coeff * columns[src], starts)
    sums += 0.0  # np.add.at starts each cell from +0.0, which turns -0.0 into +0.0
    x[cells] = sums
    return x.reshape(d, len(union), columns.shape[1]), union, rows


def apply_generator(g: GeneratorDescriptor, psi: SparseKet) -> SparseKet:
    """H psi for the Hermitian generator described by ``g``."""
    occupations, amps = psi.arrays()
    x, union, _ = _directions(_monomials((g,)), occupations, amps[:, None])
    return SparseKet.from_arrays(union, x[0, :, 0])


def commutator_with_density(g: GeneratorDescriptor, rho: DensityOperator) -> SparseOperator:
    """[H, rho] = H rho - rho H = X - X^dag for Hermitian rho, where X = H R
    over the union of rho's support and every target, R being rho's dense
    matrix over its support."""
    x, union, rows = _directions(_monomials((g,)), rho.support, rho.matrix)
    c = np.zeros((len(union), len(union)), dtype=complex)
    c[:, rows] = x[0]
    c -= c.conj().T
    return SparseOperator.from_arrays(union, c)


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
    probes = [basis_ket(occ) for occ in enumerate_occupations(m, 2)]
    probes.append(uniform_phase_state(m, 2))
    return probes


#: Bytes of one block of the closure fit: the dense right-hand side of a
#: block of pairs over every probe, or the products joined for a group of
#: probes (at 16 bytes each).
_FIT_BUDGET = 1 << 20


def _commutator_targets(
    applied: np.ndarray, plans: Sequence[_Plan], pairs: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The targets [iH_I, iH_J] psi = H_J H_I psi - H_I H_J psi of the pairs
    I < J, in row-major order, in blocks of pairs under ``_FIT_BUDGET``.

    ``applied`` is d x U: column u holds H_I psi on state u of a first
    union, the first unions of all probes side by side. ``plans`` holds the
    plan of the basis on each first union. Yields ``(start, stop, b,
    off_norm2)`` per block of pairs: ``b`` holds their targets on the
    first unions, as 2U rows of (re, im) pairs, and ``off_norm2`` the
    squared norm of each pair's targets off them, on the second unions.

    No H_J H_I psi is formed, since each is sparse: every element
    (J, u -> v, c) of a plan meets the nonzeros (I, u, a) of its source u,
    and a c enters the target of pair (I, J) on v, with + for I < J and -
    for I > J. The two terms are summed apart, each in plan order."""
    d, u_total = applied.shape
    _, srcs, coeffs, starts, cells, unions, rows = zip(*plans)
    # the elements of all plans in turn, their sources counted over the
    # first unions and their targets over the second unions
    n_u, n_v, n_e, n_r = ([len(a) for a in arrays] for arrays in (rows, unions, srcs, cells))
    u_bound, v_bound, e_bound = (np.cumsum([0, *n]) for n in (n_u, n_v, n_e))
    src = np.concatenate(srcs) + np.repeat(u_bound[:-1], n_e)
    coeff = np.concatenate(coeffs)[:, 0]
    gen, tgt = np.divmod(np.concatenate(cells), np.repeat(n_v, n_r))
    tgt += np.repeat(v_bound[:-1], n_r)
    length = np.diff(np.concatenate(starts) + np.repeat(e_bound[:-1], n_r), append=e_bound[-1])
    gen, tgt = np.repeat(gen, length), np.repeat(tgt, length)
    # each second-union state's column in ``applied``, -1 off the first unions
    column = np.full(v_bound[-1], -1)
    column[np.concatenate(rows) + np.repeat(v_bound[:-1], n_u)] = np.arange(u_total)

    u, first = np.nonzero(applied.T)  # by column, then by row
    amp = applied[first, u]
    count = np.bincount(u, minlength=u_total)
    begin = np.cumsum(count) - count
    reach = count[src]  # the products of each element
    # the elements in groups of whole probes under the budget: the targets
    # of distinct probes share no row
    done = np.concatenate([[0], np.cumsum(reach)])[e_bound]
    off_norm2 = np.zeros(pairs)
    hits = []
    low = 0
    while low < len(plans):
        high = max(int(np.searchsorted(done, done[low] + _FIT_BUDGET // 16, "right")) - 1, low + 1)
        span = slice(e_bound[low], e_bound[high])
        low = high
        n = reach[span]
        element = np.repeat(np.arange(span.start, span.stop), n)
        # each element's products run over its source's nonzeros in turn
        nonzero = np.arange(len(element)) + np.repeat(begin[src[span]] - (np.cumsum(n) - n), n)
        i, j = first[nonzero], gen[element]
        kept = np.flatnonzero(i != j)
        nonzero, element, i, j = nonzero[kept], element[kept], i[kept], j[kept]
        value = amp[nonzero] * coeff[element]
        swapped = i > j
        value[swapped] *= -1
        i, j = np.minimum(i, j), np.maximum(i, j)
        # pair (i, j)'s index in the row-major order of the pairs i < j
        key = (i * (2 * d - i - 1) // 2 + j - i - 1) * v_bound[-1] + tgt[element]
        key = 2 * key + swapped
        order = key.argsort(kind="stable")
        key = key[order]
        runs = _run_starts(key).nonzero()[0]
        sums = np.add.reduceat(value[order], runs)
        key = key[runs] >> 1
        runs = _run_starts(key).nonzero()[0]
        sums = np.add.reduceat(sums, runs)
        pair, v = np.divmod(key[runs], v_bound[-1])
        row = column[v]
        on = row >= 0
        off = ~on
        off_norm2 += np.bincount(pair[off], weights=np.abs(sums[off]) ** 2, minlength=pairs)
        hits.append((pair[on], row[on], sums[on]))

    pair, row, sums = map(np.concatenate, zip(*hits))
    order = pair.argsort(kind="stable")
    pair, row, sums = pair[order], row[order], sums[order]
    width = max(_FIT_BUDGET // (16 * u_total), 1)
    for start in range(0, pairs, width):
        stop = min(start + width, pairs)
        lo, hi = np.searchsorted(pair, [start, stop])
        b = np.zeros((stop - start, u_total), dtype=complex)
        b[pair[lo:hi] - start, row[lo:hi]] = sums[lo:hi]
        yield start, stop, b.view(float).T, off_norm2[start:stop]


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

    Refuses with ``ValueError`` an empty probe list, and a probe with the
    wrong mode count, a probe that is the zero ket or one whose squared
    norm is not finite or falls below the normal float range (its targets,
    directions and residuals underflow to 0): none of them supports a
    verdict.
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
        # the norm is finite exactly when the squared norm is
        norm = psi.norm()
        if not math.isfinite(norm):
            raise ValueError(f"probe has squared norm {norm * norm!r}")
        if psi.is_zero():
            raise ValueError("probe is the zero ket")
        if norm * norm < sys.float_info.min:
            raise ValueError(f"probe has squared norm {norm * norm!r}, below the normal float range")

    excluded = set(exclude)
    fit = [g for g in basis.elements if g not in excluded]
    fit.extend(g for g in extra_fit if g not in fit)
    d = len(basis.elements)
    pairs = d * (d - 1) // 2
    table = _monomials(basis.elements + tuple(fit))
    second = _monomial_table(group, m)

    # the first applications side by side, column u of every probe's first
    # union after the columns of the probes before it; and the plan of the
    # second application on each first union
    applied, plans = [], []
    for psi in probes:
        occupations, amps = psi.arrays()
        x, union, _ = _directions(table, occupations, amps[:, None])
        applied.append(x[:, :, 0])
        plans.append(_plan(second, union))
    applied = np.hstack(applied)
    # rows of (re, im) pairs, one pair per first-union state
    a_mat = (1j * applied[d:]).view(float).T
    normal = a_mat.T @ a_mat
    min_eig = float(np.linalg.eigvalsh(normal)[0]) if len(fit) else 0.0
    coeff = np.zeros((len(fit), pairs))
    resid = np.zeros(pairs)
    for start, stop, b_mat, off_norm2 in _commutator_targets(applied[:d], plans, pairs):
        rhs = a_mat.T @ b_mat
        try:
            block = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            block = np.linalg.lstsq(a_mat, b_mat, rcond=None)[0]
        coeff[:, start:stop] = block
        resid[start:stop] = np.sqrt(np.sum((a_mat @ block - b_mat) ** 2, axis=0) + off_norm2)

    residuals: dict[tuple[int, int], float] = {(i, i): 0.0 for i in range(d)}
    coefficients: dict[tuple[int, int], np.ndarray] = {
        (i, i): np.zeros(len(fit)) for i in range(d)
    }
    for col, (i, j) in enumerate(itertools.combinations(range(d), 2)):
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
