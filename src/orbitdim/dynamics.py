"""Truncated-space time evolution, two-copy overlap curves, and
finite-difference Gram estimation: the truncated basis and projected
Hamiltonians (kept as references), and the only two entry points that
evolve: ``estimate_gram_matrix``, from the overlaps beta of evolved
copies, and ``apply_group_word``.

Evolution exponentiates the generator Hamiltonian projected onto the D
states of at most a cutoff of photons, block by block, so it is exactly
unitary on the working space; a working space never enumerates the D
states. Each block is a chain along the step of the generator's monomial,
found in closed form from any of its states (``generators._chains``). A
working space is the chains of one set of generators through one support
at one cutoff, its states read as packed words, linear in the states, so
that the chains are merged and the rows numbered by sorting words; a group
word evolves factor by factor, each factor on the working space of its one
generator through the rows of the factor before it, but for two exact
shortcuts: N or the identity phases the rows it is given by its one-node
eigenvalues, and the last working space's generator, only phases since,
evolves on it again (a layout on its own rows is itself). The two kinds of
a family (e and E, r and R, s and S, q and p) share each chain's real
shape, its matrix up to the phases D = diag(phi^j), phi = 1 or i: each
shape is eigendecomposed, by a real ``eigh``, on its first use in the
process and then read from the store's memo. The chains of one key are
evolved as one group, by two products with the shape's eigenvectors V
turned by the key's phases, D V (all of a layout's made in one step), and
every one-node chain in one more group, V = [[1]], phased with no product.
A density evolves as the r eigenvectors of its matrix over its support,
each weighted by its eigenvalue, a ket's projector as the one column
psi/|psi|, each copy on its own nodes, its times != 0 (at t = 0 a copy is
rho) in as few groups as their copies made dense, or their Grams where
larger, fit the store's budget; a time whose dense copies do not fit sums
its Gram over blocks of rows that do. Photon-shifting generators get a
buffer of photons above the support; the weight in the top two sectors
(the guard band) is the truncation-leakage proxy, checked with trace and
Hermiticity deviations. A working space whose longest chain, layout of
chains, or one time's copies on their nodes or Gram would not fit the
store's budget is refused before they are allocated; the layouts and the
decomposed chains are kept there.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import generators
from .fock import (
    DensityOperator,
    Occupation,
    SparseKet,
    ValidationError,
    _rank_words,
    _run_starts,
    _unpack,
    enumerate_occupations,
)
from .generators import (
    _SHIFTING,
    _STILL,
    GeneratorDescriptor,
    Group,
    _amplitudes,
    _blocks,
    _chains,
    _check_register,
    _decomposed,
    _generator_action,
    _kept,
    _longest_chain,
    _monomials,
    lie_basis,
)


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


def _integer(value: object) -> bool:
    """Whether a value is an integer, numpy's too, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs of the truncated evolution: extra photons above the state's
    support, the tolerated boundary/trace deviation, and the default
    finite-difference step."""

    buffer: int = 16
    leakage_tolerance: float = 1e-6
    step: float = 1e-3

    def __post_init__(self) -> None:
        if not _integer(self.buffer) or self.buffer < 0:
            raise ValueError(f"buffer must be an integer >= 0, got {self.buffer!r}")
        if not (0 < self.leakage_tolerance < math.inf and 0 < self.step < math.inf):  # NaN fails too
            raise ValueError("tolerances and step must be positive and finite")
        half = self.step / 2.0
        if half * half == 0.0:
            raise ValueError(f"step {self.step:g} is too small: the square of h/2 underflows to 0")


def dense_hamiltonian(g: GeneratorDescriptor, basis: TruncatedBasis) -> np.ndarray:
    """Matrix elements <n|H|n'> of the generator over the truncated basis.

    Couplings into states above the cutoff are dropped on both sides, so the
    projected matrix is Hermitian by construction.
    """
    _, col, tgt, coeff, union, rows = _generator_action(_monomials((g,)), np.array(basis.states, dtype=np.int64))
    # rows ranks the basis states among the union of basis and targets;
    # a target above the cutoff keeps position -1 and is dropped
    position = np.full(len(union), -1)
    position[rows] = np.arange(basis.size)
    row = position[tgt]
    kept = row >= 0
    h = np.zeros((basis.size, basis.size), dtype=complex)
    h[row[kept], col[kept]] = coeff[kept]
    return h


def _cutoff(support: np.ndarray, shifting: bool, cfg: EvolutionConfig) -> int:
    """The photon number of a support (S x m), plus the buffer when the
    evolution shifts photon number."""
    return max(map(sum, support.tolist()), default=0) + (cfg.buffer if shifting else 0)


def _refuse_oversized(modes: int, cutoff: int, what: str, nbytes: int, least: bool = False, advice: str = "") -> None:
    """Refuse, before allocating it, a working space whose ``what`` would
    take more than the store's budget (``least``: at least ``nbytes``) or
    whose cutoff does not fit a chain's key (23 bits an occupation), with
    ``advice`` on what shrinks it (unless given, a smaller buffer)."""
    budget = generators._CACHE_BUDGET
    if nbytes > budget:
        at_least = "at least " if least else ""
        why = f"its {what} would take {at_least}{nbytes / 2**20:,.0f} MiB, over the {budget >> 20} MiB budget"
    elif cutoff >> 23:
        why = "a chain key holds occupations below 2^23"
    else:
        return
    advice = advice or "use a smaller --buffer"
    raise ValidationError(
        f"working space of {math.comb(modes + cutoff, modes):,} states (cutoff {cutoff}) too large: {why}; {advice}"
    )


def _leak(cfg: EvolutionConfig, cutoff: int, context: str, **measured: float) -> LeakageError:
    """The error of deviations past the leakage tolerance, measured in ``context`` at a cutoff."""
    found = ", ".join(f"{name.replace('_', ' ')} {value:.3e}" for name, value in measured.items())
    return LeakageError(
        f"{context}: {found} exceed tolerance {cfg.leakage_tolerance:.1e} "
        f"(cutoff {cutoff}); increase the buffer or reduce |t|"
    )


def _guard_band(states: np.ndarray, cutoff: int) -> np.ndarray:
    """Which states (R x m) lie in the guard band: the top two photon sectors."""
    return states.sum(axis=1) > cutoff - 2


def _layout(generators: tuple[GeneratorDescriptor, ...], cutoff: int, support: np.ndarray) -> tuple:
    """The working space of ``generators`` on a support (S x m): its rows'
    states in basis order, their guard band (the top two photon sectors),
    the support's rows, then the chains of every generator through the
    support: each node's generator, per group its span of the nodes and its
    eigenvectors, each node's row and eigenvalue. A group holds the n
    chains of one key, of every generator, node j n + c of its span being
    place j of its c-th chain, with the L x L eigenvectors D V of the key's
    real shape V turned by its kind's phases D (``generators._decomposed``);
    one more group holds every one-node chain, its eigenvectors [[1]]. The
    support's and the nodes' states are ranked once, as packed words, a
    node's its chain start's plus j steps'; a layout is refused on a lower
    bound of its bytes before they are built, then on its exact bytes.
    Kept in the store, keyed by the generators, cutoff and support."""
    key = ("layout", generators, cutoff, support.shape, support.tobytes())
    return _kept(key, _laid_out, generators, cutoff, support)


def _laid_out(generators: tuple[GeneratorDescriptor, ...], cutoff: int, support: np.ndarray) -> tuple:
    """The layout of ``_layout`` built, and the arrays it owns."""
    modes = support.shape[1]
    longest = _longest_chain(generators, cutoff)
    _refuse_oversized(modes, cutoff, f"{longest:,}-state block's eigenvectors", 16 * longest**2)
    keys, length, gen, start, steps, words = _chains(generators, support, cutoff)
    # each group's first chain, then its chain count: the one-node chains, first by key, are one group
    edges = np.append(_run_starts(np.where(length > 1, keys, 0)), True).nonzero()[0]
    first, count = edges[:-1], edges[1:] - edges[:-1]
    size = length[first]
    span = count * size
    stop = span.cumsum()  # each group's span of the nodes ends here
    # the bytes of the arrays below besides the rows' states and guard band: 8 a support row, 24 a node
    # (generator, row, eigenvalue), 16 an eigenvector entry; the rows hold at least the nodes of any one
    # generator, whose chains are disjoint, so that many rows are refused before any is built
    nbytes = 8 * len(support) + 24 * int(span.sum()) + 16 * int(size @ size)
    fewest = int(np.bincount(gen, weights=length).max())
    _refuse_oversized(modes, cutoff, "layout of chains", (8 * modes + 1) * fewest + nbytes, least=True)
    # node i of a group's span is place i // n of its chain i % n
    per = np.empty((3, len(first)), dtype=np.int64)
    per[0], per[1], per[2] = stop - span, count, first
    begin, n, head = per.repeat(span, axis=1)
    j, chain = np.divmod(np.arange(len(begin)) - begin, n)
    chain += head
    node_gen = gen[chain]
    # the support's words, then each node's: its chain's start plus j steps
    packed = np.empty((len(support) + len(chain), len(words.T)), dtype=np.int64)
    packed[: len(support)] = words
    np.multiply(j[:, None], steps.steps[node_gen], out=packed[len(support) :])
    packed[len(support) :] += start.T[chain]
    rank, distinct = _rank_words(packed)
    rank.flags.writeable = False  # before the support's and the nodes' rows are read from it
    states = _unpack(packed[distinct], modes, steps.width)
    nbytes += states.nbytes + len(states)
    _refuse_oversized(modes, cutoff, "layout of chains", nbytes)
    eigenvalues, at, vectors = _decomposed(keys, first)  # every group's squares, one after another
    bounds = zip((stop - span).tolist(), stop.tolist(), (size * size).cumsum().tolist(), size.tolist())
    groups = [(slice(lo, hi), vectors[a - n * n : a].reshape(n, n)) for lo, hi, a, n in bounds]
    band, rows, nodes = _guard_band(states, cutoff), rank[: len(support)], rank[len(support) :]
    values = eigenvalues[at[chain] + j]
    return (states, band, rows, node_gen, groups, nodes, values), (states, band, rank, node_gen, values, vectors)


class _Workspace:
    """The truncated working space for evolving states on a support (S x m)
    under a set of generators: the cutoff (unless given, the support's
    photon number, plus the buffer when any generator shifts photon
    number), and the layout of ``_layout``."""

    def __init__(
        self, support: np.ndarray, generators: Sequence[GeneratorDescriptor], cfg: EvolutionConfig, cutoff: int | None = None
    ) -> None:
        self.cfg, self.generators = cfg, tuple(generators)
        self.cutoff = _cutoff(support, any(g.kind in _SHIFTING for g in self.generators), cfg) if cutoff is None else cutoff
        self.states, self.band, self.support, self.gens, self.groups, self.nodes, self.values = _layout(
            self.generators, self.cutoff, support
        )

    def evolve(self, times: np.ndarray | float, columns: np.ndarray) -> np.ndarray:
        """exp(-i H_n t) applied to an R x r block of columns at each of the
        T times, on the nodes alone: T x nodes x r, node i on row nodes[i]
        under generator gens[i]. One gather over the nodes; per group of n
        chains of L nodes, V^T of its L x L eigenvectors V applied to the
        L x n r block of its nodes in place; its conjugate (so V^dag x) times
        the phases; per group, V again. The one-node group's V is [[1]], so
        its nodes are copied, not multiplied, both times."""
        t = np.ravel(times)
        # V^dag x is conj(V^T conj(x)), and V^T is a view where V^dag copies V
        x = columns.conj()[self.nodes]
        z = np.empty_like(x)
        for at, v in self.groups:
            if len(v) > 1:
                np.matmul(v.T, x[at].reshape(len(v), -1), out=z[at].reshape(len(v), -1))
            else:  # the one-node chains, V = [[1]]
                z[at] = x[at]
        phased = np.exp(np.multiply.outer(-1j * t, self.values))[:, :, None] * z.conj()
        y = np.empty_like(phased)
        for at, v in self.groups:
            if len(v) > 1:
                np.matmul(v, phased[:, at].reshape(len(t), len(v), -1), out=y[:, at].reshape(len(t), len(v), -1))
            else:
                y[:, at] = phased[:, at]
        return y


class _DensityWorkspace(_Workspace):
    """The working space of one density rho = Phi diag(w) Phi^dag under a set
    of generators, so that an evolved copy U rho U^dag is A diag(w) A^dag
    with the R x r block A = U Phi. For a density, w and the columns of Phi
    on the support rows are the eigenvalues and eigenvectors of rho over the
    support; for a ket psi, the projector |psi><psi| / <psi|psi> has
    Phi = psi/|psi| on the support rows and w = [1], so r = 1."""

    def __init__(
        self, state: SparseKet | DensityOperator, generators: Sequence[GeneratorDescriptor], cfg: EvolutionConfig
    ) -> None:
        if isinstance(state, SparseKet):
            kept = np.flatnonzero(state._unit)  # a row whose unit amplitude is 0 is dropped, as ``normalize`` drops it
            support = state.arrays()[0][kept]
            self.w, columns = np.ones(1), state._unit[kept]
            # a ket's projector is Hermitian by construction
            self.hermiticity = 0.0
        else:
            support, (self.w, columns) = state.support, np.linalg.eigh(state.matrix)
            # eigh reads rho's lower triangle alone, so the copies are of the Hermitian matrix it makes;
            # the residual max|rho - rho^dag| bounds each entry of rho that it leaves out
            self.hermiticity = state.hermiticity_residual
        super().__init__(support, generators, cfg)
        self.phi = np.zeros((len(self.states), columns.shape[1]), dtype=complex)
        self.phi[self.support] = columns

    def overlaps(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """At each of the T times, from the copies A_n = exp(-i H_n t) Phi on
        their nodes (``evolve``, at t != 0 alone: at t = 0 each is Phi, so a
        chunk of t = 0 evolves nothing) and A_0 = Phi: beta, T x (d + 1) x
        (d + 1), sum_ab w_a w_b |M_ij[a, b]|^2 with M_ij = A_i^dag A_j; each
        copy's trace, T x d, sum_a w_a (A_n^dag A_n)[a, a], complex; and its
        guard-band weight, T x d; neither is leakage-checked. M is read from
        the Gram of the copies, (d + 1) r x (d + 1) r, formed per group of
        times whose dense copies and Grams fit the store's budget; the Gram
        and band weights are sums over blocks of rows made dense,
        t x rows x (d + 1) x r, as many as fit the budget, summed from
        zeros. One time's copies on their nodes or Gram past the budget are
        refused before any is evolved."""
        k, r = len(self.generators) + 1, self.phi.shape[1]
        modes, size, nodes = self.states.shape[1], len(self.states), len(self.nodes)
        _refuse_oversized(modes, self.cutoff, f"evolved copies on {nodes:,} nodes", 16 * nodes * r)
        advice = "the Gram grows with the support and the group, not the buffer"
        _refuse_oversized(modes, self.cutoff, f"overlap Gram of {k * r:,} columns", 16 * (k * r) ** 2, advice=advice)
        order = np.argsort(self.nodes, kind="stable")  # the nodes by row
        rows = self.nodes[order]
        slots = rows * k + self.gens[order] + 1  # each node's row and copy, flat over the rows' dense copies
        # the times whose dense copies (or Grams, if larger) fit the budget: one block of rows unless one time's do not
        step = max(generators._CACHE_BUDGET // (16 * k * r * max(size, k * r)), 1)
        weights = np.multiply.outer(self.w, self.w)[:, None]  # against the Gram's two column axes
        beta, boundary = np.empty((len(times), k, k)), np.empty((len(times), k - 1))
        trace = np.empty((len(times), k - 1), dtype=complex)
        for part in (slice(lo, lo + step) for lo in range(0, len(times), step)):
            t, moving = len(times[part]), times[part] != 0.0
            y = np.empty((t, nodes, r), dtype=complex)
            if not moving.all():
                y[~moving] = self.phi[rows]  # the columns as they are where t = 0, unevolved
            if moving.any():
                # each time's copies taken by row straight into y (unbuffered, which mode="raise" is not)
                for i, copies in zip(np.flatnonzero(moving).tolist(), self.evolve(times[part][moving], self.phi)):
                    np.take(copies, order, axis=0, out=y[i], mode="clip")
            gram, boundary[part] = np.zeros((t, k * r, k * r), dtype=complex), 0.0
            for top, bottom, at in _blocks(rows, size, max(generators._CACHE_BUDGET // (16 * t * k * r), 1)):
                x = np.zeros((t, bottom - top, k, r), dtype=complex)
                x[:, :, 0] = self.phi[top:bottom]
                x.reshape(t, -1, r)[:, slots[at] - top * k] = y[:, at]
                flat = x.reshape(t, bottom - top, k * r)
                gram += flat.conj().transpose(0, 2, 1) @ flat  # first, so its conjugate copy is freed before the band's
                band = x[:, self.band[top:bottom], 1:]
                boundary[part] += np.sum((band * band.conj()).real * self.w, axis=(1, 3))
            m = gram.reshape(t, k, r, k, r)
            # (A_n^dag A_n)[a, a] of each copy n >= 1, read off the Gram's diagonal
            np.matmul(gram.diagonal(0, 1, 2)[:, r:].reshape(t, k - 1, r), self.w, out=trace[part])
            np.sum((m * m.conj()).real * weights, axis=(2, 4), out=beta[part])
        return beta, trace, boundary

    def beta_matrix(self, times: np.ndarray) -> np.ndarray:
        """beta_ij = Tr[rho_i rho_j] for i, j in 0..d at each of the T times,
        with rho_0 = rho, from ``overlaps``; each d + 1 square is symmetric bit
        for bit. An overlap that overflows raises ValidationError, rho's own
        before any copy is checked. Every copy at t != 0 is leakage-checked from
        its trace, guard-band weight and rho's Hermiticity residual in one
        comparison (a NaN fails): the first copy to fail, by time then generator,
        raises; else ``worst`` records the largest values."""
        names, moving = ("trace_deviation", "hermiticity", "boundary_weight"), times != 0.0  # in the error's order
        with np.errstate(over="ignore", invalid="ignore"):
            values, trace, boundary = self.overlaps(times)
            finite = np.isfinite(values).all(axis=(1, 2))
            _refuse_overlaps(finite[~moving])
            shifted = np.where([g.kind in _SHIFTING for g in self.generators], boundary, 0.0)
            measured = np.array([np.abs(trace - 1.0), np.full(trace.shape, self.hermiticity), shifted])
        failed = moving[:, None] & ~(measured <= self.cfg.leakage_tolerance).all(axis=0)
        if failed.any():
            i, n = np.unravel_index(failed.argmax(), failed.shape)
            context = f"evolving under {self.generators[n].label} for t={times[i]:g}"
            raise _leak(self.cfg, self.cutoff, context, **dict(zip(names, measured[:, i, n].tolist())))
        self.worst = dict(zip(names, measured[:, moving].max(axis=(1, 2), initial=0.0).tolist()))
        _refuse_overlaps(finite)
        return np.where(np.tri(len(values[0]), k=-1, dtype=bool), values.transpose(0, 2, 1), values)


def _refuse_overlaps(finite: np.ndarray) -> None:
    """Refuse overlaps unless each is finite (``finite``, one flag a time)."""
    if not finite.all():
        raise ValidationError("beta overlap is not finite: the density's entries are too large")


@dataclass(frozen=True, eq=False)
class EstimatedGram:
    """The estimated Gram matrix with its raw stencil values, the working
    space it was evolved in (the D states of at most ``cutoff`` photons, of
    which it holds R rows), and the largest leakage measured over every
    evolved copy A diag(w) A^dag; ``hermiticity_residual`` is rho's own,
    which no copy carries. Estimates compare and hash by identity: they
    hold arrays."""

    group: Group
    modes: int
    step: float
    values: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray
    working_dimension: int
    working_rows: int
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
    times = np.array([0.0, cfg.step, -cfg.step, cfg.step / 2.0, -cfg.step / 2.0])
    b, steps = ws.beta_matrix(times), times[1::2]
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
        working_dimension=math.comb(rho.modes + ws.cutoff, rho.modes),
        working_rows=len(ws.states),
        cutoff=ws.cutoff,
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
    first, each factor with t != 0 on the working space of its generator
    through the rows of the factor before it, all at the word's cutoff: the
    support's photon number, plus the buffer when any factor shifts photon
    number. As its layout would, with none built, N or the identity phases
    each row (in basis order) by exp(-i t h), h the monomial's coefficient
    times its amplitude (sqrt(n) sqrt(n) for N), and a factor of the last
    working space's generator, only phases since, evolves on it again.
    Photon-number-preserving words are sector-exact; shifting words
    are guard-band checked after every factor. A generator past the ket's
    register is refused, also at t = 0."""
    for _, t in word:
        if not math.isfinite(t):
            raise ValueError(f"evolution time must be finite, got {t}")
    _check_register(max((k for g, _ in word for k in g.modes), default=0), psi.modes)
    if not word:
        return psi
    if psi.is_zero():
        raise ValidationError("cannot evolve the zero ket")
    nrm = psi.norm()
    if not math.isfinite(nrm):
        raise ValidationError(f"cannot evolve a ket of norm {nrm!r}")
    states, amps = psi.arrays()
    shifting = any(g.kind in _SHIFTING for g, _ in word)
    cutoff, tol = _cutoff(states, shifting, cfg), cfg.leakage_tolerance
    # the verdicts are relative to the ket's norm, each vector divided by it
    # before it is squared, so that no scale moves them
    peak = float(np.abs(amps).max())
    norm0 = peak * float(np.linalg.norm(amps / peak))
    vec, ws, evolved = amps[:, None], None, False
    for g, t in reversed(word):
        if t == 0.0:
            continue
        if g.kind in _STILL:
            # as its one-node layout: rows in basis order, each phased by its eigenvalue; no bytes, only the key's refusal
            _refuse_oversized(psi.modes, cutoff, "phases", 0)
            if not evolved:
                order = np.lexsort(states.T[::-1])  # the first mode highest
                states, vec = states[order], vec[order]
            table = _monomials((g,))
            vec = np.exp(-1j * np.ravel(t) * (table[1].real * _amplitudes(table, states)[0]))[:, None] * vec
        else:
            if ws is None or ws.generators != (g,):  # else on its own rows, phased since: the same layout
                ws = _Workspace(states, (g,), cfg, cutoff)
                x = np.zeros((len(ws.states), 1), dtype=complex)
                x[ws.support] = vec
                states, vec = ws.states, x
            vec[ws.nodes] = ws.evolve(t, vec)[0]  # one generator's nodes are its rows, each once
        evolved = True
        if shifting:
            # re, im of each entry of the guard band: its weight is their squared norm
            band = vec[_guard_band(states, cutoff) if ws is None else ws.band].view(float).ravel() / norm0
            if not (weight := float(band @ band)) <= tol:  # NaN fails
                raise _leak(cfg, cutoff, f"group word factor {g.label} (t={t:g})", boundary_weight=weight)
    # unless every time is 0, and the ket is as it came
    if evolved and not (change := abs(float(np.linalg.norm(vec / norm0)) - 1.0)) <= tol:
        raise _leak(cfg, cutoff, "group word", norm_change=change)
    return SparseKet.from_arrays(states, vec[:, 0])
