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

The closure check ``verify_closure`` applies each distinct generator of
the basis and the fitted set to all probes as one block: their supports
are stacked, each row followed by its probe's index, so the union keeps
each probe's first union apart. Each nonzero of H_I psi is then joined
with the elements of the basis applied once to all the stacked first
unions, so no H_J H_I psi is formed densely. Only the values of that join
depend on the amplitudes: its structure is planned once per nonzero
pattern and kept. The commutator targets stay sparse and are made dense
one block of pairs at a time under a fixed budget; the right-hand sides of
all pairs are solved with one factorisation of the normal matrix, and the
residuals are taken block by block in a second pass.

On a truncated basis each generator's blocks are chains along the step of
its monomial, found from packed words of the states (``_chains``). The two
kinds of a family (e and E, r and R, s and S, q and p) differ only by the
phase of c, 1 or i, so their chains are D T D^dag for one real shape T,
D = diag(phi^j), which ``_chain_matrices`` builds with the same amplitudes
from the family, the length and the start alone: the memo of
``_decomposed`` keeps real eigenpairs by shape.

Arrays that depend on no amplitude are built once per process and kept,
read-only, in one store under one budget of 64 MiB (least recently used
first out), which ``dynamics`` reads too: the plans and closure joins
here and the working-space layouts of ``dynamics``, each entered through
``_kept``, and the decomposed chain shapes, a memo that ``_decomposed``
updates through ``_recall`` and ``_remember``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .fock import (
    DensityOperator,
    SparseKet,
    SparseOperator,
    _frozen,
    _integers,
    _packing,
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
        modes = _integers(self.modes)  # as fock.validate_occupation reads occupations: numpy's integers and bools too
        # 1 <= k (< l): each index exceeds the one before, starting from 0
        if modes is None or len(modes) != count or not all(a < b for a, b in zip((0, *modes), modes)):
            raise ValueError(f"{self.kind} requires {count} increasing mode indices >= 1, got {self.modes}")
        object.__setattr__(self, "modes", modes)

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

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.elements)

    @functools.cached_property
    def _table(self) -> _MonomialTable:
        """The monomials of the elements: the one table ``_monomials``
        shares for them, whose identity keys plans and joins."""
        return _monomials(self.elements)

    @functools.cached_property
    def _id_rows(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.elements) if g.kind == IDENTITY_KIND)

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
    ``group.dimension(m)``. One (frozen) basis is shared per (group, m),
    and with it the table and identity rows it keeps.

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
    and the table's identity names it in the plans of ``_directions`` and
    the joins of ``_commutator_targets``."""
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
    return _frozen(gen, coeff, modes, steps != 0, offsets, delta)


def _check_register(reach: int, modes: int) -> None:
    """Refuse generators whose highest mode index ``reach`` lies past a register of ``modes``."""
    if reach > modes:
        raise ValueError(f"generator mode index {reach} exceeds the {modes}-mode register")


def _amplitudes(table: _MonomialTable, occupations: np.ndarray, mono: np.ndarray | None = None) -> np.ndarray:
    """Monomials x support rows: the square roots each monomial of a table
    takes on each row (S x m, or wider: no column past a monomial's modes
    is read), 0 where the monomial annihilates the row; given ``mono``, the
    one that monomial mono[i] takes on row i."""
    _, _, modes, used, offsets, _ = table
    # the occupation each slot reads, one int64 table of monomials x slots x sources (or
    # rows x slots); a state already annihilated (factor 0, n possibly -1) stays at zero
    if mono is None:
        n, offsets, used = occupations.T[modes], offsets[:, :, None], used[:, :, None]
    else:
        n, offsets, used = np.take_along_axis(occupations, modes[mono], axis=1), offsets[mono], used[mono]
    n += offsets
    factor = np.sqrt(np.maximum(n, 0, out=n))  # the one float table, 1 where a slot holds no step
    np.copyto(factor, 1.0, where=~used)
    return factor[:, 0] * factor[:, 1]


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
    gen, coeff, _, _, _, delta = table
    _check_register(delta.shape[1], occupations.shape[1])  # a step vector is as wide as its highest mode
    amp = _amplitudes(table, occupations)
    mono, src = np.nonzero(amp)
    # each step over the whole register: whole rows are gathered and added
    # many times faster than a slice of their columns
    step = np.zeros((len(delta), occupations.shape[1]), dtype=np.int64)
    step[:, : delta.shape[1]] = delta
    targets = occupations.take(src, axis=0)
    targets += step.take(mono, axis=0)
    union, inverse = _rank_states(np.concatenate([occupations, targets]))
    s_count = len(occupations)
    return gen[mono], src, inverse[s_count:], coeff[mono] * amp[mono, src], union, inverse[:s_count]


#: One generator of each kind, in ``_KINDS`` order, on modes 1 (and 2),
#: whose monomials give the amplitudes of every chain of that kind; each
#: kind's index there, and the step of its X on each of its modes.
_KIND_GENERATORS = tuple(GeneratorDescriptor(kind, tuple(range(1, n + 1))) for kind, (n, *_) in _KINDS.items())
_KIND_INDEX = {kind: k for k, kind in enumerate(_KINDS)}
_KIND_STEP = np.array([[sum(s for slot, s in steps if slot == i) for i in (0, 1)] for _, _, steps in _KINDS.values()])
#: The kinds whose X moves no photon (N and the identity): each state is a chain of its own.
_STILL = frozenset(kind for kind, step in zip(_KINDS, _KIND_STEP) if not step.any())
#: The kinds whose X changes the photon number (``number_shift`` > 0): r, R, s, S, q and p.
_SHIFTING = frozenset(kind for kind in _KINDS if number_shift(kind))

#: Each kind's family and turn. Kinds with one X and one |c| (e and E, r and
#: R, s and S, q and p) differ by the phase phi = c / |c|, 1 or i = i^turn,
#: so a chain of either kind has the matrix D T D^dag, D = diag(phi^j), for
#: one real shape T: the chain's matrix under the family, the first such
#: kind, whose c is real.
_KIND_FAMILY = np.array(
    [
        next(f for f, (_, c2, s2) in enumerate(_KINDS.values()) if s2 == s and abs(c2 or 1) == abs(c or 1))
        for _, c, s in _KINDS.values()
    ]
)
_KIND_TURN = np.array([int(c is not None and c.imag != 0) for _, c, _ in _KINDS.values()])
#: What a key's kind field (bits 46 to 49) gains to become its family's.
_KIND_SHAPE = (_KIND_FAMILY - np.arange(len(_KINDS))) << 46
#: i^turn for turn 0..3.
_TURNS = np.array([1, 1j, -1, -1j])
#: Past any cutoff (a chain key holds occupations below 2^23).
_BEYOND = 1 << 30


class _Walk(NamedTuple):
    """What a chain walk reads of generators' kinds, each array over the
    kinds (its first axis): the step of X on each of a kind's (up to) two
    modes, and per mode the divisor and bias that take the steps back (a
    raising step, else 1 and past any cutoff) and the nodes ahead (a
    lowering step, likewise) from the occupation (K x 2 x 1); the weights
    that put the two occupations in a key (K x 1 x 2: 2^23 and 1, 0 for no
    mode); the photons a step adds, and the divisor and bias that take the
    nodes below the cutoff from the photons left (K x 1; a kind that does
    not move, N or the identity, takes 0 steps either way); and its kind
    in a key's bit field plus one node. A kind whose two steps mirror (r
    and R) steps back until one of its occupations is 0, so it keys them
    as (min, max) = (0, x + y) by the weights 1 and 1."""

    step: np.ndarray
    back: np.ndarray
    back_bias: np.ndarray
    ahead: np.ndarray
    ahead_bias: np.ndarray
    key_weights: np.ndarray
    rise: np.ndarray
    below: np.ndarray
    below_bias: np.ndarray
    kind: np.ndarray


@functools.cache
def _every_walk() -> _Walk:
    """The ``_Walk`` of every kind, in ``_KINDS`` order, built on first use:
    a process that never evolves does not pay the memory numpy takes on its
    first calls here."""
    step = _KIND_STEP
    up, down, rise = step > 0, step < 0, step.sum(axis=1)
    moves = up.any(axis=1, keepdims=True)
    acts = np.array([n for n, *_ in _KINDS.values()])[:, None] > [0, 1]
    mirror = (step[:, 0] == step[:, 1]) & up[:, 0]
    return _Walk(
        step=step[:, :, None],
        back=np.where(up, step, np.where(moves, 1, _BEYOND))[:, :, None],
        back_bias=np.where(up | ~moves, 0, _BEYOND)[:, :, None],
        ahead=np.maximum(-step, 1)[:, :, None],
        ahead_bias=np.where(down, 0, _BEYOND)[:, :, None],
        key_weights=np.where(acts, np.where(mirror[:, None], 1, [1 << 23, 1]), 0)[:, None],
        rise=rise[:, None],
        below=np.where(rise > 0, rise, np.where(moves[:, 0], 1, _BEYOND))[:, None],
        below_bias=np.where((rise > 0) | ~moves[:, 0], 0, _BEYOND)[:, None],
        kind=(np.arange(len(_KINDS))[:, None] << 46) + (1 << 50),
    )


def _longest_chain(generators: Iterable[GeneratorDescriptor], cutoff: int) -> int:
    """The most nodes a chain of any of the generators can have at a cutoff,
    reckoned in Python ints, so that a layout can refuse any cutoff, however
    large, before its chains are walked in int64."""
    below = _every_walk().below
    least = min(int(below[_KIND_INDEX[g.kind], 0]) for g in generators)
    return 1 if least == _BEYOND else cutoff // least + 1  # N and the identity have chains of one


class _Steps(NamedTuple):
    """What a walk reads of G generators on a register, its states packed
    ``width`` bits an occupation: the ``_Walk`` of their kinds; the modes
    each X steps (G x 2, -1 for none, which reads the last mode, where the
    step is 0) and each generator's index (G x 1); and the width, the
    weights that pack a state (``fock._packing``) and each step delta
    packed (G x K)."""

    walk: _Walk
    acted: np.ndarray
    index: np.ndarray
    width: int
    weights: np.ndarray
    steps: np.ndarray


@functools.lru_cache(maxsize=None)
def _steps(generators: tuple[GeneratorDescriptor, ...], modes: int, width: int) -> _Steps:
    """The ``_Steps`` of generators on a register of ``modes`` packed at a
    width; read-only, one set per generator tuple, register and width (at
    most 23 widths, as a chain key holds occupations below 2^23), as
    ``_monomials`` keeps its table."""
    acted = np.array([(*(k - 1 for k in g.modes), -1, -1)[:2] for g in generators], dtype=np.int64).reshape(-1, 2)
    _check_register(int(acted.max(initial=-1)) + 1, modes)
    kinds = [_KIND_INDEX[g.kind] for g in generators]
    walk = _Walk(*(a[kinds] for a in _every_walk()))
    delta = np.zeros((len(generators), modes + 1), dtype=np.int64)  # the last column is no mode
    delta[np.arange(len(generators))[:, None], acted] = walk.step[:, :, 0]
    weights = _packing(modes, width)[0]
    found = _Steps(walk, acted, np.arange(len(generators))[:, None], width, weights, delta[:, :-1] @ weights)
    _frozen(*walk, acted, found.index, found.steps)
    return found


def _chains(generators: Sequence[GeneratorDescriptor], states: np.ndarray, cutoff: int) -> tuple:
    """The blocks of every generator through every state (S x m), at most
    ``cutoff`` photons (below 2^23). H = c X + conj(c) X^dag moves a state
    only by the step delta of X, so its blocks are chains x + j delta in
    basis order: a chain starts as many steps back as keep every occupation
    >= 0 (a step back adds no photons) and runs until a lowered mode empties
    or the cutoff is reached; N and the identity (delta 0) give chains of
    one.

    States are read as packed words (``fock._packing`` at the cutoff's
    width), which are linear in them, so that a chain's start is its state's
    word less its steps back's, and the distinct chains are found by sorting
    words, not states. Returns per distinct chain, in order of key, then
    generator, then start: its key, length, generator and start's words
    (K x n); then the generators' ``_Steps`` and the states' words (S x K).
    A key is L << 50 | kind (its ``_KINDS`` index) << 46 | the start's
    occupations of the kind's modes << 23 and as they are, as
    ``_chain_matrices`` reads it, so the one-node chains come first; an r or
    R chain keys them as (min, max): the mirrored chains' matrices are equal
    bit for bit, each amplitude's two square roots only swapping."""
    steps = _steps(tuple(generators), states.shape[1], max(int(cutoff).bit_length(), 1))
    walk = steps.walk
    words = states @ steps.weights
    # each generator's (up to) two acted occupations of each state, G x 2 x S, then its chain start's
    x = states.T[steps.acted]
    back = (x + walk.back_bias) // walk.back
    back = np.minimum(back[:, 0], back[:, 1])
    x -= back[:, None] * walk.step
    # the steps from the start to the chain's last node: within the cutoff, and no lowered mode below 0
    ahead = (x + walk.ahead_bias) // walk.ahead
    last = (back * walk.rise + walk.below_bias + (cutoff - states.sum(axis=1))) // walk.below
    np.minimum(last, ahead[:, 0], out=last)
    np.minimum(last, ahead[:, 1], out=last)
    table = np.empty((2 + words.shape[1], *back.shape), dtype=np.int64)  # key, generator, start's words
    np.matmul(walk.key_weights, x, out=table[0, :, None])
    table[0] += last << 50
    table[0] += walk.kind
    table[1] = steps.index
    np.subtract(words.T[:, None], back * steps.steps.T[:, :, None], out=table[2:])
    table = table.reshape(len(table), -1)
    table = table[:, np.lexsort(table[::-1])]
    distinct = np.empty(table.shape[1], dtype=bool)
    distinct[:1] = True
    np.not_equal(table[:, 1:], table[:, :-1]).any(axis=0, out=distinct[1:])
    table = table[:, distinct]
    return table[0], table[0] >> 50, table[1], table[2:], steps, words


@functools.cache
def _kind_monomials() -> _MonomialTable:
    """The monomials of ``_KIND_GENERATORS``, built on first use as
    ``_every_walk`` is and then read without hashing the descriptors."""
    return _monomials(_KIND_GENERATORS)


def _chain_matrices(keys: np.ndarray) -> list[np.ndarray]:
    """The real shapes T of chains given in order of length, one n x L x L
    stack per length, each in the order given: a chain's matrix read under
    its kind's family (``_shapes``), whose c is real. A shape depends only
    on its key, L << 50 | kind (its ``_KINDS`` index) << 46 | the start's
    occupations of the kind's modes << 23 and as they are. A node's amplitude
    is ``_amplitudes``' on its two occupations, as in ``_generator_action``:
    X moves node j to j + 1 with a product a_j of a square root per step,
    X^dag node j + 1 to j with the same factors, so c a_j is on both
    off-diagonals; N and the identity keep the node, on the diagonal."""
    gen, coeff, *_, delta = table = _kind_monomials()
    keys = _shapes(keys)[0]
    length, mono = keys >> 50, np.searchsorted(gen, keys >> 46 & 0xF)
    chain = np.repeat(np.arange(len(keys)), length)
    j = np.arange(len(chain)) - np.repeat(np.cumsum(length) - length, length)
    mono = mono[chain]
    x = np.stack([keys >> 23 & 0x7FFFFF, keys & 0x7FFFFF], axis=1)[chain] + j[:, None] * delta[mono]
    value = coeff.real[mono] * _amplitudes(table, x, mono)
    diagonal, stacks, ends = np.where(delta[mono].any(1), 0, value), [], np.cumsum(np.append(0, length)).tolist()
    runs = np.flatnonzero(_run_starts(length)).tolist() + [len(keys)]
    for lo, hi in zip(runs, runs[1:]):
        s, nodes = int(length[lo]), slice(ends[lo], ends[hi])
        h, j = np.zeros((hi - lo, s, s)), np.arange(s)
        h[:, j, j] = diagonal[nodes].reshape(-1, s)
        h[:, j[1:], j[:-1]] = h[:, j[:-1], j[1:]] = value[nodes].reshape(-1, s)[:, :-1]
        stacks.append(h)
    return stacks


#: Bytes of cached arrays and key states kept per process, read at call time
#: here and in ``dynamics``; past it the least recently used are dropped.
_CACHE_BUDGET = 64 << 20


class _Store(OrderedDict):
    """key -> (value, bytes of its arrays and key), least recently used
    first, with the bytes of every entry summed in ``nbytes``."""

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
    """Store a value under its key, counting the bytes of its arrays and of
    the key's ``bytes`` parts, the copies of states a key holds."""
    size = sum(len(part) for part in key if isinstance(part, bytes))
    for a in arrays:
        a.flags.writeable = False
        size += a.nbytes
    with _cache_lock:
        _, old = _cache.pop(key, (None, 0))  # another thread may have built it too
        _cache[key] = (value, size)
        _cache.nbytes += size - old


def _kept(key: tuple, build: Callable[..., tuple[object, Iterable[np.ndarray]]], *args: object) -> object:
    """The value the store keeps under a key: on a miss, ``build(*args)``
    returns it and the arrays it owns, which are remembered. Every call,
    hit or miss, then drops the least recently used entries until the store
    fits its budget, which may have changed since the last call."""
    value = _recall(key)
    if value is None:
        value, arrays = build(*args)
        _remember(key, value, arrays)
    if _cache.nbytes > _CACHE_BUDGET:  # read unlocked: whoever went past it trims after remembering
        with _cache_lock:
            while _cache.nbytes > _CACHE_BUDGET:
                _, (_, size) = _cache.popitem(last=False)
                _cache.nbytes -= size
    return value


def _shapes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each chain key's shape, the key under its kind's family, and its
    kind's turn (``_KIND_FAMILY``, ``_KIND_TURN``)."""
    kind = keys >> 46 & 0xF
    return keys + _KIND_SHAPE[kind], _KIND_TURN[kind]


def _decomposed(keys: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenpairs of chains given by key (``_chains``): the eigenvalues
    of every shape decomposed so far, flat, and each chain's offset in them;
    and the eigenvectors D V of the chains ``first``, each its shape's real
    eigenvectors V (L x L) with row j turned by its kind's phi^j, one
    row-major square after another in one flat read-only array. A shape is
    a key under its kind's family (``_KIND_FAMILY``); the shapes are kept as
    one store entry, a memo read only to build a layout, of their
    eigenvalues and real eigenvectors. The shapes it lacks are decomposed
    on first use, one stacked real ``eigh`` per length, one node included."""
    shape, turn = _shapes(keys)
    empty = np.zeros(0, dtype=np.int64)
    known, begin, values, vectors = _recall(("chains",)) or (empty, empty.reshape(2, 0), empty, empty)
    found = known.searchsorted(shape)
    missing = known.take(found, mode="clip") != shape if len(known) else np.ones(len(shape), dtype=bool)
    if missing.any():
        fresh = np.sort(shape[missing])  # by length: L leads the key
        fresh = fresh[_run_starts(fresh)]
        sizes = (fresh >> 50)[:, None] ** [1, 2]  # L eigenvalues and L^2 eigenvector entries per shape
        offsets = ([len(values), len(vectors)] + np.cumsum(sizes, axis=0) - sizes).T
        pairs = [np.linalg.eigh(h) for h in _chain_matrices(fresh)]
        values, vectors = (np.concatenate([a, *(p[i].ravel() for p in pairs)]) for i, a in enumerate((values, vectors)))
        known, begin = np.concatenate([known, fresh]), np.concatenate([begin, offsets], axis=1)
        order = np.argsort(known)
        known, begin = known[order], begin[:, order]
        _remember(("chains",), (known, begin, values, vectors), (known, begin, values, vectors))
        found = known.searchsorted(shape)
    at, square_at = begin[:, found]
    # entry e of a chain's square is its shape's, on row j = e // L, times phi^j = i^(j & 3) if turned, else 1:
    # exactly, phi being 1 or i
    size = keys[first] >> 50
    area = size * size
    per = np.empty((4, len(first)), dtype=np.int64)
    per[0], per[1], per[2], per[3] = area.cumsum() - area, square_at[first], size, 3 * turn[first]
    start, offset, side, turn = per.repeat(area, axis=1)
    e = np.arange(len(start)) - start
    turned = vectors[offset + e] * _TURNS[e // side & turn]
    turned.flags.writeable = False
    return values, at, turned


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
    return _kept(("plan", id(table), occupations.shape, occupations.tobytes()), _planned, table, occupations)


def _planned(table: _MonomialTable, occupations: np.ndarray) -> tuple[_Plan, tuple[np.ndarray, ...]]:
    """The plan of ``_plan`` built, and the arrays it owns."""
    gen, src, tgt, coeff, union, rows = _generator_action(table, occupations)
    # sum the elements landing on one cell in their order, as np.add.at
    # would: a stable sort groups them, one reduceat adds each group
    cell = gen * len(union) + tgt
    order = cell.argsort(kind="stable")
    cell = cell[order]
    starts = _run_starts(cell).nonzero()[0]
    # rows views the whole rank array: a copy keeps only what the store counts
    plan = (table, src[order], coeff[order, None], starts, cell[starts], union, rows.copy())
    return plan, plan[1:]


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


@dataclass(frozen=True, eq=False)
class ClosureReport:
    """Result of fitting every basis-pair commutator back onto the basis.

    The fit keeps one residual norm per pair I < J, in row-major order
    (``pair_residuals``), and the fitted set x pairs table of coefficients
    (``pair_coefficients``), both read-only. The per-pair dicts
    ``residuals`` and ``coefficients`` are built from them on first read.
    Reports compare and hash by identity: the fit is held in arrays."""

    group: Group
    modes: int
    probe_count: int
    fit_labels: tuple[str, ...]
    max_residual: float
    min_normal_eigenvalue: float
    pair_residuals: np.ndarray = field(repr=False)
    pair_coefficients: np.ndarray = field(repr=False)

    @property
    def _size(self) -> int:
        """The basis size d, from its d (d - 1) / 2 pairs."""
        return (1 + math.isqrt(1 + 8 * len(self.pair_residuals))) // 2

    @functools.cached_property
    def residuals(self) -> dict[tuple[int, int], float]:
        """(I, J) -> residual norm: 0.0 on the diagonal, each pair's for
        (I, J) and (J, I), keyed in ``_report_keys`` order."""
        d = self._size
        return dict(zip(_report_keys(d), [0.0] * d + np.repeat(self.pair_residuals, 2).tolist()))

    @functools.cached_property
    def coefficients(self) -> dict[tuple[int, int], np.ndarray]:
        """(I, J) -> coefficients over the fitted set: zeros on the
        diagonal, each pair's for I < J and their negation for I > J, keyed
        in ``_report_keys`` order."""
        d = self._size
        keys = _report_keys(d)
        rows = np.zeros((len(keys), len(self.fit_labels)))
        rows[d::2] = self.pair_coefficients.T
        rows[d + 1 :: 2] = -self.pair_coefficients.T
        return dict(zip(keys, rows))

    def coefficient(self, pair: tuple[int, int], fit_label: str) -> float:
        return float(self.coefficients[pair][self.fit_labels.index(fit_label)])


def default_closure_probes(m: int) -> list[SparseKet]:
    """Every Fock basis state of at most two photons, plus the two-photon
    uniform-phase state (which breaks residual degeneracies the basis states
    alone would leave)."""
    probes = [basis_ket(occ) for occ in enumerate_occupations(m, 2)]
    probes.append(uniform_phase_state(m, 2))
    return probes


@functools.lru_cache(maxsize=None)
def _shared_closure_probes(m: int) -> tuple[tuple[SparseKet, ...], np.ndarray, np.ndarray]:
    """The default probes, built once per mode count (kets are immutable),
    with their stacked arrays, checked as custom probes are (``_checked_probes``)."""
    probes = tuple(default_closure_probes(m))
    return (probes, *_checked_probes(probes, m))


def _checked_probes(probes: Sequence[SparseKet], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The supports of one or more closure probes stacked, each row followed
    by its probe's index, and their amplitudes; both read-only. The index
    sits in a column past the register, which no generator reads, so a union
    of states taken over the stacked rows keeps each probe's states apart.
    Refuses as ``verify_closure`` states, naming the first probe that
    supports no verdict and, for it, the first of: another mode count, a
    squared norm that is not finite, no term, a squared norm below the
    normal range."""
    if not probes:
        raise ValueError("empty probe list")
    for psi in probes:
        if psi.modes != m:
            raise ValueError("probe mode count does not match the basis")
        # the squared norm the ket keeps; past the float range it is inf, and refused
        if not math.isfinite(psi._norm2):
            raise ValueError(f"probe has squared norm {psi._norm2!r}")
        if psi.is_zero():
            raise ValueError("probe is the zero ket")
        if psi._norm2 < sys.float_info.min:
            raise ValueError(f"probe has squared norm {psi._norm2!r}, below the normal float range")
    occupations, amps = zip(*(psi.arrays() for psi in probes))
    tag = np.repeat(np.arange(len(probes)), [len(a) for a in amps])
    return _frozen(np.column_stack([np.concatenate(occupations), tag]), np.concatenate(amps))


#: Bytes of one block of the closure fit: the dense right-hand side of a
#: block of pairs over every probe.
_FIT_BUDGET = 1 << 20


def _stable_sort(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys (>= 0) sorted, and the permutation ``argsort(kind="stable")``
    gives: one default (faster) sort of the unique words key << b |
    position, with 2^b > every position, read back by shifts and masks; the
    stable sort itself when those words could overflow int64."""
    bits = max(len(key) - 1, 0).bit_length()
    if len(key) and key.max() < 1 << (63 - bits):
        words = np.sort(key << bits | np.arange(len(key)))
        return words >> bits, words & ((1 << bits) - 1)
    order = key.argsort(kind="stable")
    return key[order], order


@functools.lru_cache(maxsize=None)
def _pair_index(d: int) -> np.ndarray:
    """d x d: the index of the pair (I, J) or (J, I) in the row-major order
    of the pairs I < J, and one past the last pair on the diagonal."""
    i, j = np.triu_indices(d, 1)
    index = np.full((d, d), len(i))
    index[i, j] = index[j, i] = np.arange(len(i))
    index.setflags(write=False)
    return index


def _narrow(index: np.ndarray) -> np.ndarray:
    """An index array as int32 when its entries fit, to keep a join compact."""
    return index.astype(np.int32) if not len(index) or index.max() < 1 << 31 else index


#: The structure of a commutator join, as ``_commutator_targets`` evaluates
#: it: the second table; the coefficients c of its second elements and, per
#: product in key order, the nonzero of ``applied`` and its factor's index
#: in the signed table [c, -c]; the run starts of the two sums, and the sums
#: off the first unions with their pairs; then which sum is each target
#: nonzero, and the pair and column of each.
_Join = tuple[_MonomialTable | np.ndarray, ...]


def _join(applied: np.ndarray, first: np.ndarray, second: _MonomialTable, pairs: int) -> tuple[_Join, _Join]:
    """The join of ``_commutator_targets`` on the first unions ``first``
    with the nonzero pattern of ``applied``, built from one second
    application to all of them, and the arrays it owns.

    Every element (J, u -> v, c) of the second application meets the
    nonzeros (I, u, a) of its source u, and a c enters the target of pair
    (I, J) on v, with + for I < J and - for I > J: the product's index in
    the signed table [c, -c] holds its sign, so no sign is applied per
    product. The products are sorted stably by (pair, probe, v, swapped), the
    second-union states being tagged with their probe; the two terms of a
    pair are summed apart, each in the order of the elements, then added.
    Of the sums with I != J, those on the first unions are the target
    nonzeros, in key order and so sorted by pair; the others enter through
    their squared norm."""
    d, u_total = applied.shape
    u, nonzero_row = np.nonzero(applied.T)  # by column, then by row
    count = np.bincount(u, minlength=u_total)
    begin = np.cumsum(count) - count
    gen, src, tgt, coeff, union, rows = _generator_action(second, first)
    # each second-union state's place probe by probe, and the column in
    # ``applied`` at each place (-1 off the first unions)
    by_probe = np.argsort(union[:, -1], kind="stable")
    place = np.empty_like(by_probe)
    place[by_probe] = np.arange(len(union))
    column = np.full(len(union), -1)
    column[place[rows]] = np.arange(u_total)
    v_bits = (len(union) - 1).bit_length()
    # each element's products run over its source's nonzeros in turn
    n = count[src]
    element = np.repeat(np.arange(len(src), dtype=np.int32 if 2 * len(src) <= 1 << 31 else np.int64), n)
    nonzero = np.arange(len(element)) + np.repeat(begin[src] - (np.cumsum(n) - n), n)
    i, j = nonzero_row[nonzero], np.repeat(gen, n)
    at = _narrow(i * u_total + u[nonzero])
    swapped = i > j
    del nonzero
    # (pair, place, swapped) in bit fields; a product with I = J keys one
    # past the last pair and is dropped once summed
    key = (_pair_index(d)[i, j] << v_bits | np.repeat(place[tgt], n)) << 1 | swapped
    np.add(element, len(src), out=element, where=swapped)  # in place: the negation's entry
    del gen, src, tgt, n, i, j, swapped  # the sort's peak holds only what the join keeps
    key, order = _stable_sort(key)
    at, element = at[order], element[order]
    del order
    runs = _run_starts(key).nonzero()[0]
    key = key[runs] >> 1
    merge = _run_starts(key).nonzero()[0]
    key = key[merge]
    pair = key >> v_bits
    cut = np.searchsorted(pair, pairs)
    row = column[key[:cut] & ((1 << v_bits) - 1)]
    on, off = np.flatnonzero(row >= 0), np.flatnonzero(row < 0)
    join = second, coeff, at, element, *map(_narrow, (runs, merge, off, pair[off], on, pair[on], row[on]))
    return join, join[1:]


def _commutator_targets(
    applied: np.ndarray, first: np.ndarray, second: _MonomialTable, pairs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The targets [iH_I, iH_J] psi = H_J H_I psi - H_I H_J psi of the pairs
    I < J, numbered in row-major order.

    ``applied`` is d x U: column u holds H_I psi on state u of a first
    union, the first unions of all probes side by side. ``first`` holds
    their states, each followed by its probe's index. Returns ``(pair, row,
    value, off_norm2)``: the nonzeros of the targets on the first unions,
    sorted by pair, each a pair's value on column ``row``, and the squared
    norm of each pair's targets off them, on the second unions.

    No H_J H_I psi is formed, since each is sparse: the products of the
    nonzeros of ``applied`` with the elements of the second application
    (the basis ``second`` on the first unions) are joined and summed
    (``_join``). Only their values depend on the amplitudes, so the join is
    planned once per (second table, first unions, nonzero pattern) and kept
    in the cache; a call makes the products, signs included, in key order
    with one gather-multiply from the signed table and sums them with two
    reduceats."""
    key = ("join", id(second), first.shape, first.tobytes(), np.packbits(applied != 0).tobytes())
    join = _kept(key, _join, applied, first, second, pairs)
    _, coeff, at, element, runs, merge, off, off_pair, take, pair, row = join
    value = applied.reshape(-1)[at] * np.concatenate([coeff, -coeff])[element]
    value = np.add.reduceat(np.add.reduceat(value, runs), merge)
    off_norm2 = np.bincount(off_pair, weights=np.abs(value[off]) ** 2, minlength=pairs)
    return pair, row, value[take], off_norm2


def _blocks(keys: np.ndarray, total: int, width: int) -> Iterator[tuple[int, int, slice]]:
    """The numbers 0 .. total - 1 in blocks of ``width``: yields ``(start,
    stop, at)`` per block start .. stop - 1, ``at`` spanning the sorted
    ``keys`` (each below ``total``) that fall in it."""
    starts = range(0, total, width)
    at = np.searchsorted(keys, [*starts, total]).tolist()
    for start, lo, hi in zip(starts, at, at[1:]):
        yield start, min(start + width, total), slice(lo, hi)


@functools.lru_cache(maxsize=None)
def _report_keys(d: int) -> tuple[tuple[int, int], ...]:
    """The keys of a closure report over d basis elements, in its order:
    (i, i) for each i, then (i, j) and (j, i) for each pair i < j in
    row-major order."""
    pairs = itertools.combinations(range(d), 2)
    return (*zip(range(d), range(d)), *itertools.chain.from_iterable(((i, j), (j, i)) for i, j in pairs))


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
        probes, occupations, amps = _shared_closure_probes(m)
    else:
        probes = tuple(probes)
        occupations, amps = _checked_probes(probes, m)

    excluded = set(exclude)
    fit = [g for g in basis.elements if g not in excluded]
    fit.extend(g for g in extra_fit if g not in fit)
    d = len(basis.elements)
    pairs = d * (d - 1) // 2
    # each distinct generator of the basis and the fitted set, basis first
    index = {g: k for k, g in enumerate(basis.elements)}
    for g in fit:
        index.setdefault(g, len(index))
    table = _monomials(tuple(index))
    _check_register(table[5].shape[1], m)  # the probe column is no mode
    second = basis._table

    # the first applications, all probes' supports in one block: the union
    # holds each probe's first union, its states followed by the probe's
    # index; taken probe by probe, they are the columns of ``applied``
    applied, union, _ = _directions(table, occupations, amps[:, None])
    by_probe = np.argsort(union[:, -1], kind="stable")
    applied = applied[:, :, 0].take(by_probe, axis=1)
    # rows of (re, im) pairs, one pair per first-union state
    a_mat = (1j * applied.take([index[g] for g in fit], axis=0)).view(float).T
    normal = a_mat.T @ a_mat
    min_eig = float(np.linalg.eigvalsh(normal)[0]) if len(fit) else 0.0
    pair, row, value, off_norm2 = _commutator_targets(applied[:d], union[by_probe], second, pairs)
    del applied  # the fit reads the directions from a_mat alone
    u_total = len(union)
    # the pairs in blocks whose targets, held densely over the U first-union states, fit the budget
    blocks = list(_blocks(pair, pairs, max(_FIT_BUDGET // (16 * u_total), 1)))

    def targets(start: int, stop: int, at: slice) -> np.ndarray:
        """A block's targets densely, as 2U rows of (re, im) pairs."""
        b = np.zeros((stop - start, u_total), dtype=complex)
        b[pair[at] - start, row[at]] = value[at]
        return b.view(float).T

    # the right-hand sides of every block into one table, solved with one
    # factorisation of the normal matrix (or, if it is singular, by least
    # squares block by block)
    coeff = np.zeros((len(fit), pairs))
    for start, stop, at in blocks:
        coeff[:, start:stop] = a_mat.T @ targets(start, stop, at)
    try:
        coeff = np.linalg.solve(normal, coeff) if pairs else coeff
    except np.linalg.LinAlgError:
        for start, stop, at in blocks:
            coeff[:, start:stop] = np.linalg.lstsq(a_mat, targets(start, stop, at), rcond=None)[0]
    resid = np.zeros(pairs)
    for start, stop, at in blocks:
        # the fit minus the targets, subtracted at their nonzeros alone:
        # subtracting the +0.0 elsewhere would change no bit
        r = a_mat @ coeff[:, start:stop]
        # each nonzero's real part in r, flat; its imaginary part is a row on
        re_at = 2 * row[at] * (stop - start) + pair[at] - start
        flat = r.reshape(-1)
        flat[re_at] -= value[at].real
        flat[re_at + (stop - start)] -= value[at].imag
        resid[start:stop] = np.sum(np.square(r, out=r), axis=0)
    resid = np.sqrt(resid + off_norm2)
    _frozen(resid, coeff)
    return ClosureReport(
        group=group,
        modes=m,
        probe_count=len(probes),
        fit_labels=tuple(g.label for g in fit),
        max_residual=float(resid.max()) if resid.size else 0.0,
        min_normal_eigenvalue=min_eig,
        pair_residuals=resid,
        pair_coefficients=coeff,
    )
