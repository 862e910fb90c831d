"""Truncated evolution, beta overlaps, the Gram estimator, and sampling."""

import functools
import itertools
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from orbitdim import (
    DensityOperator,
    EvolutionConfig,
    GeneratorDescriptor,
    Group,
    LeakageError,
    Picture,
    SparseKet,
    SparseOperator,
    TruncatedBasis,
    ValidationError,
    apply_group_word,
    basis_ket,
    dense_hamiltonian,
    enumerate_occupations,
    estimate_gram_matrix,
    gram_mixed,
    lie_basis,
    mixture,
    normalize,
    orbit_dimension,
    outer,
    perturb_state,
    number_shift,
    sample_sphere_state,
    scale,
)
from orbitdim import dynamics, generators
from orbitdim.dynamics import _Workspace
from orbitdim.fock import _unpack as unpack
from _helpers import assert_entries_close, assert_terms_close
from _oracle import basis_states, connected_blocks, dense_density, dense_ket, density_op, generator_matrix, inner


# ----------------------------------------------------------- TruncatedBasis


def test_truncated_basis_lexicographic_and_bijective():
    basis = TruncatedBasis.build(2, 2)
    assert basis.states == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    assert basis.size == math.comb(2 + 2, 2)
    assert all(basis.index[occ] == i for i, occ in enumerate(basis.states))


# --------------------------------------------------------- dense_hamiltonian


def test_dense_number_operator_is_diagonal():
    basis = TruncatedBasis.build(1, 3)
    h = dense_hamiltonian(GeneratorDescriptor("N", (1,)), basis)
    assert np.allclose(h, np.diag([0.0, 1.0, 2.0, 3.0]))


def test_dense_beam_splitter_single_photon_block():
    basis = TruncatedBasis.build(2, 1)
    h = dense_hamiltonian(GeneratorDescriptor("e", (1, 2)), basis)
    expected = np.zeros((3, 3), dtype=complex)
    i01, i10 = basis.index[(0, 1)], basis.index[(1, 0)]
    expected[i01, i10] = expected[i10, i01] = 0.5
    assert np.array_equal(h, expected)


def test_dense_position_displacement_tridiagonal():
    basis = TruncatedBasis.build(1, 2)
    h = dense_hamiltonian(GeneratorDescriptor("q", (1,)), basis)
    assert abs(h[1, 0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(h[2, 1] - 1.0) < 1e-15
    assert h[2, 0] == 0


def test_dense_hamiltonians_hermitian_for_all_kinds():
    basis = TruncatedBasis.build(2, 4)
    for g in lie_basis(Group.GO, 2).elements:
        h = dense_hamiltonian(g, basis)
        assert np.array_equal(h, h.conj().T), g.label


@pytest.mark.parametrize("cutoff_above", [0, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("group", list(Group))
def test_dense_hamiltonian_matches_dense_oracle(group, m, cutoff_above):
    cutoff = m + cutoff_above
    basis = TruncatedBasis.build(m, cutoff)
    for g in lie_basis(group, m).elements:
        assert np.array_equal(dense_hamiltonian(g, basis), generator_matrix(g, m, cutoff)), g.label


# ------------------------------------------------- block-diagonal evolution


#: i^k for k = 0..3, exactly.
_PHASES = np.array([1, 1j, -1, -1j])


def _chain_blocks(elements, basis):
    """Every chain of every generator on the basis, as (generator index,
    basis indices in chain order, block matrix): the block is D T D^dag,
    T the matrix of its real shape (its key under its kind's family) and
    D = diag(phi^j) its kind's phases, its states unpacked from its start's
    words plus j steps and looked up in the basis's index."""
    states = np.array(basis.states, dtype=np.int64)
    key, _, gen, start, steps, _ = generators._chains(elements, states, basis.cutoff)  # through every state
    shape, turn = generators._shapes(key)
    shapes = generators._chain_matrices(shape)  # by key, so by length
    for c, t in enumerate(h for stack in shapes for h in stack):
        n, length = int(gen[c]), len(t)
        d = _PHASES[np.arange(length) * turn[c] % 4]
        words = start[:, c] + np.arange(length)[:, None] * steps.steps[n]
        nodes = [basis.index[tuple(occ)] for occ in unpack(words, basis.modes, steps.width).tolist()]
        yield n, nodes, d[:, None] * t * d.conj()


@pytest.mark.parametrize("group, m, cutoff", [(Group.GO, 2, 5), (Group.PLO, 3, 4)])
def test_blocks_partition_the_basis_and_reassemble_the_hamiltonian(group, m, cutoff):
    basis = TruncatedBasis.build(m, cutoff)
    elements = lie_basis(group, m).elements
    size = basis.size
    h = np.zeros((len(elements), size, size), dtype=complex)
    seen = []
    for n, nodes, block in _chain_blocks(elements, basis):
        h[n][np.ix_(nodes, nodes)] = block
        seen.extend(n * size + i for i in nodes)
    assert sorted(seen) == list(range(len(elements) * size))
    for n, g in enumerate(elements):
        # no coupling crosses a block, or it would be missing here
        assert np.array_equal(h[n], dense_hamiltonian(g, basis)), g.label


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("group", list(Group))
def test_chains_are_the_connected_blocks_of_the_hamiltonian(group, m):
    """Each generator's chains are exactly the connected components of its
    projected Hamiltonian's nonzeros, so no block is merged or split; a
    chain runs in basis order, and its matrix is the Hamiltonian on its
    states, bit for bit."""
    elements = lie_basis(group, m).elements
    for cutoff in range(7):
        basis = TruncatedBasis.build(m, cutoff)
        chains = [[] for _ in elements]
        for n, nodes, block in _chain_blocks(elements, basis):
            assert all(a < b for a, b in zip(nodes, nodes[1:]))
            chains[n].append((nodes, block))
        for g, found in zip(elements, chains, strict=True):
            h = dense_hamiltonian(g, basis)
            assert sorted(nodes for nodes, _ in found) == connected_blocks(h), (g.label, cutoff)
            for nodes, block in found:
                assert np.array_equal(block, h[np.ix_(nodes, nodes)]), (g.label, cutoff)


@pytest.mark.parametrize("pair", ["eE", "rR", "sS", "qp"])
def test_the_two_kinds_of_a_family_share_one_real_shape(empty_cache, pair):
    """The chain memo is keyed by shape: a chain of either kind of a family
    has the matrix D T D^dag of one real shape T, the chain's matrix under
    the family's first kind (c = |c|), with D = diag(phi^j) and
    phi = c / |c| (1 for the first kind, i for the second). For every
    distinct chain of both kinds of 2 to 19 nodes on m = 2 at cutoff 36
    (every length for each kind), D^dag H D, H the kind's projected
    Hamiltonian on the chain's nodes, equals T entry for entry, its
    imaginary parts zero; a chain's key gives the real T its shape gives,
    bit for bit; and D V diag(lambda) (D V)^dag from the eigenpairs the memo
    keeps for the shape gives H within 1e-14 of its largest entry."""
    first, second = (generators._KIND_INDEX[kind] for kind in pair)
    assert generators._KIND_FAMILY[[first, second]].tolist() == [first, first]
    assert generators._KIND_TURN[[first, second]].tolist() == [0, 1]
    elements = [g for g in lie_basis(Group.GO, 2).elements if g.kind in pair]
    basis = TruncatedBasis.build(2, 36)
    key, length, gen, start, steps, _ = generators._chains(elements, np.array(basis.states, dtype=np.int64), 36)
    kept = (length > 1) & (length <= 19)
    key, length, gen, start = key[kept], length[kept], gen[kept], start[:, kept]
    shape, turn = generators._shapes(key)
    for kind, phase in zip(pair, (0, 1)):
        of_kind = np.array([elements[n].kind == kind for n in gen.tolist()])
        assert sorted(set(length[of_kind].tolist())) == list(range(2, 20))
        assert (turn[of_kind] == phase).all()
    # one stack per length, in key order (so by length), and the shapes in that order
    by_key, by_shape = generators._chain_matrices(key), generators._chain_matrices(shape)
    assert [(t.dtype, t.shape, t.tobytes()) for t in by_key] == [(t.dtype, t.shape, t.tobytes()) for t in by_shape]
    dense = [dense_hamiltonian(g, basis) for g in elements]
    # the eigenvalues, and every chain's eigenvectors D V, one square after another
    values, at, vectors = generators._decomposed(key, np.arange(len(key)))
    ends = np.cumsum(length * length).tolist()
    for c, t in enumerate(t for stack in by_shape for t in stack):
        n, size, a = int(gen[c]), len(t), int(at[c])
        words = start[:, c] + np.arange(size)[:, None] * steps.steps[n]
        nodes = [basis.index[tuple(occ)] for occ in unpack(words, basis.modes, steps.width).tolist()]
        h = dense[n][np.ix_(nodes, nodes)]
        d = _PHASES[np.arange(size) * turn[c] % 4]
        turned = d.conj()[:, None] * h * d
        assert np.array_equal(turned, t) and not turned.imag.any() and t.dtype == float
        v = vectors[ends[c] - size * size : ends[c]].reshape(size, size)
        rebuilt = (v * values[a : a + size]) @ v.conj().T
        assert np.abs(rebuilt - h).max() <= 1e-14 * max(1.0, np.abs(h).max())


@pytest.mark.parametrize("group, m, cutoff", [(Group.GO, 2, 5), (Group.PLO, 3, 4)])
def test_key_groups_reassemble_the_hamiltonian(empty_cache, group, m, cutoff):
    """The layout of every generator on the whole basis as its support:
    V diag(lambda) V^dag is each generator's Hamiltonian, block by block. A
    group holds n chains of L nodes, node j n + c being place j of chain c,
    and one copy of their L x L eigenvectors, no view of the chain memo;
    the chains of a group of L > 1 share a key, so their eigenvalues, and
    the chains of one node, all in one group, have eigenvectors [[1]]."""
    basis = TruncatedBasis.build(m, cutoff)
    elements = lie_basis(group, m).elements
    size = basis.size
    dense = [dense_hamiltonian(g, basis) for g in elements]
    states, band, support, gens, groups, nodes, eigenvalues = dynamics._layout(elements, cutoff, np.array(basis.states))
    assert states.tolist() == [list(occ) for occ in basis.states] and support.tolist() == list(range(size))
    assert band.tolist() == [sum(occ) > cutoff - 2 for occ in basis.states]
    memo = generators._recall(("chains",))[3]
    h = np.zeros((len(elements), size, size), dtype=complex)
    seen, start = [], 0
    for at, v in groups:
        width = len(v)
        assert at.start == start and (at.stop - start) % width == 0 and not np.shares_memory(v, memo)
        start = at.stop
        group_nodes, group_values, group_gens = (a[at].reshape(width, -1).T for a in (nodes, eigenvalues, gens))
        if width == 1:
            assert np.array_equal(v, [[1.0]])
        else:
            assert np.all(group_values == group_values[0])
        for block_nodes, values, block_gens in zip(group_nodes, group_values, group_gens):
            n = int(block_gens[0])
            assert np.all(block_gens == n)
            h[n][np.ix_(block_nodes, block_nodes)] = (v * values) @ v.conj().T
            seen.extend((n * size + block_nodes).tolist())
    assert [len(v) for _, v in groups].count(1) == 1
    assert start == len(nodes) == len(eigenvalues)
    assert sorted(seen) == list(range(len(elements) * size))
    for g, got, expected in zip(elements, h, dense, strict=True):
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max()), g.label


def _dense_propagator(g, m, cutoff, t):
    """exp(-iHt) from the oracle's generator matrix on the whole truncated basis."""
    eigenvalues, eigenvectors = np.linalg.eigh(generator_matrix(g, m, cutoff))
    return (eigenvectors * np.exp(-1j * eigenvalues * t)) @ eigenvectors.conj().T


#: A small buffer keeps the dense reference cheap and puts real weight at
#: the cutoff, where the projection drops couplings; the comparison is on
#: the truncated space, so leakage is allowed here.
_SMALL_BUFFER = EvolutionConfig(buffer=3, leakage_tolerance=1.0)

_EVERY_KIND = [(g, 2) for g in lie_basis(Group.GO, 2).elements] + [
    (g, 3) for g in lie_basis(Group.PLO, 3).elements
]


def _cutoff(g, photons):
    return photons + (_SMALL_BUFFER.buffer if number_shift(g.kind) > 0 else 0)


@pytest.mark.parametrize("g, m", _EVERY_KIND, ids=lambda x: getattr(x, "label", str(x)))
def test_group_word_matches_dense_propagator(g, m):
    psi = sample_sphere_state(m, 2, seed=7)
    cutoff = _cutoff(g, 2)
    _, index = basis_states(m, cutoff)
    occs = list(index)
    for t in (0.3, -1.1):
        out = apply_group_word(psi, [(g, t)], _SMALL_BUFFER)
        expected = _dense_propagator(g, m, cutoff, t) @ dense_ket(psi, index)
        assert_terms_close(out.terms, dict(zip(occs, expected)), tol=1e-12)


def _rows_per_block(monkeypatch, height, generators, columns):
    """Lift the working space's refusals and set the store's budget to
    ``height`` rows of one time's dense copies, so that, ``height`` being
    below its rows, the overlap Gram of ``columns`` evolved under
    ``generators`` is summed a time at a time over blocks of that many rows."""
    monkeypatch.setattr(dynamics, "_refuse_oversized", lambda *args, **kwargs: None)
    monkeypatch.setattr("orbitdim.generators._CACHE_BUDGET", height * 16 * (generators + 1) * columns)


@pytest.mark.parametrize("g, m", _EVERY_KIND, ids=lambda x: getattr(x, "label", str(x)))
def test_one_generator_overlaps_match_dense_propagator(monkeypatch, g, m):
    """The overlaps of a density and its copy under one generator equal
    those of the copy conjugated by the dense propagator, also when the
    copy's overlap Gram is summed over blocks of two rows."""
    # rank two, with coherences between the two kets' supports
    rho = mixture([(0.6, sample_sphere_state(m, 1, seed=3)), (0.4, sample_sphere_state(m, 2, seed=4))])
    cutoff = _cutoff(g, 2)
    _, index = basis_states(m, cutoff)
    u = _dense_propagator(g, m, cutoff, 0.4)
    dense = dense_density(rho, index)
    copies = [dense, u @ dense @ u.conj().T]
    expected = np.array([[np.trace(a @ b).real for b in copies] for a in copies])
    for height in (None, 2):
        if height is not None:
            _rows_per_block(monkeypatch, height, 1, len(rho.support))
        got = dynamics._DensityWorkspace(rho, (g,), _SMALL_BUFFER).beta_matrix(np.array([0.4]))[0]
        assert np.abs(got - expected).max() <= 1e-12


_SUPPORTS = {
    "fock": lambda m: basis_ket((1,) + (0,) * (m - 1)),
    "sphere": lambda m: sample_sphere_state(m, 2, seed=2),
    "rank2": lambda m: mixture([(0.6, sample_sphere_state(m, 1, seed=3)), (0.4, basis_ket((0,) * (m - 1) + (2,)))]),
}


@pytest.mark.parametrize("state", list(_SUPPORTS))
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("group", list(Group))
def test_working_space_rows_are_the_blocks_through_the_support(group, m, state):
    """A state's working space holds exactly the states of the connected
    blocks of each generator's projected Hamiltonian that hold a support
    state, in basis order, found on the whole truncated basis."""
    rho = _SUPPORTS[state](m)
    elements = lie_basis(group, m).elements
    ws = dynamics._DensityWorkspace(rho, elements, _SMALL_BUFFER)
    basis = TruncatedBasis.build(m, ws.cutoff)
    occupations = rho.support if state == "rank2" else rho.arrays()[0]
    support = {basis.index[occ] for occ in map(tuple, occupations.tolist())}
    reached = set()
    for g in elements:
        reached.update(i for block in connected_blocks(dense_hamiltonian(g, basis)) if support & set(block) for i in block)
    assert [tuple(occ) for occ in ws.states.tolist()] == [basis.states[i] for i in sorted(reached)]
    assert ws.states[ws.support].tolist() == occupations.tolist()


_WORDS = {
    (Group.PLO, 2): ("e[1,2]", "N[1]", "E[1,2]", "e[1,2]"),
    (Group.PLO, 3): ("e[1,2]", "E[2,3]", "e[1,3]", "N[2]", "e[1,2]"),
    (Group.GO, 2): ("q[1]", "e[1,2]", "s[2]", "q[1]", "R[1,2]"),
    (Group.GO, 3): ("e[1,2]", "q[3]", "e[2,3]", "S[1]", "e[1,2]", "r[1,3]"),
}


@pytest.mark.parametrize("group, m", list(_WORDS), ids=lambda x: getattr(x, "value", str(x)))
def test_word_matches_the_product_of_dense_propagators(group, m):
    """Each factor of a word evolves the rows the factors before it reach:
    the word equals the product of dense propagators on the whole truncated
    basis, a generator acting again after the rows have grown."""
    basis = lie_basis(group, m)
    rng = np.random.default_rng(m)
    word = [(basis.elements[basis.index_of(label)], float(rng.uniform(-1, 1))) for label in _WORDS[group, m]]
    psi = normalize(SparseKet(m, {(1,) + (0,) * (m - 1): 1.0, (0,) * (m - 1) + (2,): 0.5j}))
    cutoff = 2 + (_SMALL_BUFFER.buffer if group is Group.GO else 0)
    _, index = basis_states(m, cutoff)
    expected = dense_ket(psi, index)
    for g, t in reversed(word):
        expected = _dense_propagator(g, m, cutoff, t) @ expected
    out = apply_group_word(psi, word, _SMALL_BUFFER)
    assert_terms_close(out.terms, dict(zip(index, expected)), tol=1e-12)


def test_a_generator_again_after_phases_evolves_on_its_layout(empty_cache, layouts_built):
    """An m = 2 GO word whose e[1,2] acts again after the phases N[2] and
    the identity, and whose q[1] acts twice in a row, equals the product of
    dense propagators: the second e[1,2] and q[1] evolve on the layout the
    first laid out, on its own rows, so the word lays out two."""
    basis = lie_basis(Group.GO, 2)
    labels = ("q[1]", "q[1]", "e[1,2]", "N[2]", "id", "e[1,2]")
    word = [(basis.elements[basis.index_of(label)], 0.1 * (k + 1) * (-1) ** k) for k, label in enumerate(labels)]
    psi = sample_sphere_state(2, 2, seed=4)
    cutoff = 2 + _SMALL_BUFFER.buffer
    _, index = basis_states(2, cutoff)
    expected = dense_ket(psi, index)
    for g, t in reversed(word):
        expected = _dense_propagator(g, 2, cutoff, t) @ expected
    out = apply_group_word(psi, word, _SMALL_BUFFER)
    assert_terms_close(out.terms, dict(zip(index, expected)), tol=1e-12)
    assert [gens[0].label for gens in layouts_built] == ["e[1,2]", "q[1]"]


@pytest.fixture
def layouts_built(monkeypatch):
    """The generators of each layout that ``_laid_out`` builds."""
    built, laid_out = [], dynamics._laid_out

    def counted(generators, cutoff, support):
        built.append(generators)
        return laid_out(generators, cutoff, support)

    monkeypatch.setattr(dynamics, "_laid_out", counted)
    return built


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1)])
def test_a_round_trip_lays_out_and_evolves_only_what_moves(empty_cache, layouts_built, evolved_times, n, seed):
    """From an empty store, the GO m = 2 round trip of p[2], s[1], e[1,2],
    R[1,2], N[1] on a sphere ket builds 6 layouts and makes 8 ``evolve``
    calls: its two N[1] phase the rows with no layout, and its centre pair
    p[2], p[2] evolves on one layout. It returns the ket."""
    basis = lie_basis(Group.GO, 2)
    labels = ("p[2]", "s[1]", "e[1,2]", "R[1,2]", "N[1]")
    word = [(basis.elements[basis.index_of(label)], 0.05 * (k + 1) * (-1) ** k) for k, label in enumerate(labels)]
    psi = sample_sphere_state(2, n, seed)
    out = apply_group_word(psi, [(g, -t) for g, t in reversed(word)] + word)
    assert (len(layouts_built), len(evolved_times[0])) == (6, 8)
    assert_terms_close(out.terms, psi.terms, tol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("group", list(Group))
def test_a_phase_factor_phases_each_amplitude_by_its_one_node_eigenvalue(layouts_built, evolved_times, group, m):
    """A factor N[k] or the identity on a sphere ket multiplies each
    amplitude by exp(-i t h) bit for bit, in the ket's order, h being the
    monomial's coefficient times its amplitudes (sqrt(n) sqrt(n) for N), with
    no layout or ``evolve`` call; h is bit for bit the one-node eigenvalue
    the generator's layout holds."""
    psi, t = sample_sphere_state(m, 2, seed=m), np.array([0.7])
    states, amps = psi.arrays()
    still = [g for g in lie_basis(group, m).elements if g.kind in ("N", "I")]
    assert len(still) == m + (group in (Group.DPLO, Group.GO))
    outs = [apply_group_word(psi, [(g, float(t[0]))]) for g in still]
    assert layouts_built == evolved_times[0] == []
    for g, out in zip(still, outs):
        table = generators._monomials((g,))
        h = table[1].real * generators._amplitudes(table, states)[0]
        expected = np.exp(np.multiply.outer(-1j * t, h))[0] * amps
        assert list(out.terms) == list(psi.terms)
        assert np.array(list(out.terms.values())).tobytes() == expected.tobytes()
        ws = _Workspace(states, (g,), EvolutionConfig())
        assert np.array_equal(ws.states, states) and ws.values.tobytes() == h[ws.nodes].tobytes()


def test_a_shifting_word_is_band_checked_after_a_first_phase_factor():
    """A shifting word at buffer 0 whose first factor is N[1] is refused
    right after it, the guard band (the top two sectors) holding the ket's
    weight there: the text a layout of N[1] gave."""
    basis = lie_basis(Group.GO, 2)
    q, n = (basis.elements[basis.index_of(label)] for label in ("q[1]", "N[1]"))
    message = (
        "group word factor N[1] (t=0.3): boundary weight 9.144e-01 exceed tolerance 1.0e-06 (cutoff 2); "
        "increase the buffer or reduce |t|"
    )
    with pytest.raises(LeakageError, match=f"^{re.escape(message)}$"):
        apply_group_word(sample_sphere_state(2, 2, seed=1), [(q, 0.05), (n, 0.3)], EvolutionConfig(buffer=0))


def test_an_all_phase_word_returns_its_rows_in_basis_order():
    """An all-phase word on a ket whose terms are not in basis order
    returns them in basis order, as a layout's rows came, each phased by
    its factors in turn."""
    basis = lie_basis(Group.GO, 3)
    n3, identity, n1 = (basis.elements[basis.index_of(label)] for label in ("N[3]", "id", "N[1]"))
    ket = SparseKet(3, {(0, 2, 1): 0.5, (1, 0, 0): 0.5j, (0, 0, 3): -0.5, (0, 1, 0): 0.5})
    out = apply_group_word(ket, [(n3, 0.7), (identity, -0.2), (n1, 0.4)])
    assert list(out.terms) == [(0, 0, 3), (0, 1, 0), (0, 2, 1), (1, 0, 0)]
    for occ, amp in out.terms.items():
        assert abs(amp - ket.terms[occ] * np.exp(-1j * (0.4 * occ[0] - 0.2 + 0.7 * occ[2]))) < 1e-15


def test_a_phase_heavy_mesh_round_trips(empty_cache, layouts_built, evolved_times):
    """The m = 4 PLO word of the six beam splitters e[k,l], each followed by
    its phase N[k], and its inverse return an N = 2 sphere ket within 1e-12:
    only the twelve beam splitters evolve, on one layout a generator."""
    basis = lie_basis(Group.PLO, 4)
    labels = [label for k, l in itertools.combinations(range(1, 5), 2) for label in (f"e[{k},{l}]", f"N[{k}]")]
    word = [(basis.elements[basis.index_of(label)], 0.3 + 0.1 * j) for j, label in enumerate(labels)]
    psi = sample_sphere_state(4, 2, seed=3)
    out = apply_group_word(psi, [(g, -t) for g, t in reversed(word)] + word)
    assert_terms_close(out.terms, psi.terms, tol=1e-12)
    assert (len(layouts_built), len(evolved_times[0])) == (6, 12)


def _assert_beta_entries_equal_the_estimate_stencils(state, group):
    """The entries of beta matrices evolved one time each give the
    estimate's coarse and fine stencils bit for bit, and beta_ij = beta_ji."""
    d = len(lie_basis(group, state.modes))
    est = estimate_gram_matrix(state, group)
    ws = dynamics._DensityWorkspace(state, lie_basis(group, state.modes).elements, EvolutionConfig())

    @functools.cache
    def matrix(t):
        return ws.beta_matrix(np.array([t]))[0]

    def dd(i, j, h):
        return (matrix(h)[i, j] - 2.0 * matrix(0.0)[i, j] + matrix(-h)[i, j]) / (h * h)

    for i in range(1, d + 1):
        for j in range(1, d + 1):
            assert matrix(est.step)[i, j] == matrix(est.step)[j, i]
            for h, stencil in ((est.step, est.coarse), (est.step / 2.0, est.fine)):
                assert 0.5 * (dd(i, j, h) - (dd(i, 0, h) + dd(0, j, h))) == stencil[i - 1, j - 1]


def test_beta_entry_and_matrix_estimates_agree_bitwise():
    rho = mixture([(0.7, normalize(SparseKet(1, {(0,): 1.0, (2,): 0.5j}))), (0.3, basis_ket((1,)))])
    _assert_beta_entries_equal_the_estimate_stencils(rho, Group.GO)


def test_go_estimate_allocates_less_than_its_copies_on_the_whole_basis():
    """The copies, their leakage check and their overlaps live on the rows
    the support's blocks reach, so a GO estimate of |1,0,0> allocates less
    than one complex array of 4 x d x D entries (the four stencil times, d =
    28 generators, D = 1,140). The layouts are cached per process, so the
    estimate is traced once they are."""
    rho = outer(basis_ket((1, 0, 0)))
    estimate_gram_matrix(rho, Group.GO)
    bound = 16 * 4 * len(lie_basis(Group.GO, 3)) * math.comb(3 + 17, 3)
    tracemalloc.start()
    try:
        estimate_gram_matrix(rho, Group.GO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_m3_evolution_allocates_no_dense_matrix():
    basis = lie_basis(Group.GO, 3)
    word = [(basis.elements[basis.index_of(label)], 0.05) for label in ("q[3]", "e[2,3]", "N[2]", "S[2]")]
    psi = sample_sphere_state(3, 1, seed=0)
    dense_bytes = 16 * math.comb(3 + 17, 3) ** 2  # one D x D complex array, D = 1,140
    tracemalloc.start()
    try:
        apply_group_word(psi, word)
        estimate_gram_matrix(outer(basis_ket((1, 0, 0))), Group.GO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


def test_warm_m3_word_copies_no_cached_block(empty_cache):
    """A warm m = 3 GO word evolves its factors' key groups as the store
    holds them, one layout a factor that moves photons (its phase N[2]
    has none): its traced peak stays below the bytes
    that a copy of the eigenvectors for each of its factors' chains would
    take (16 L^2 a chain of L nodes), so no cached block is copied per
    chain or per call."""
    basis = lie_basis(Group.GO, 3)
    word = [(basis.elements[basis.index_of(label)], 0.05) for label in ("q[3]", "e[2,3]", "N[2]", "S[2]")]
    psi = sample_sphere_state(3, 1, seed=0)
    apply_group_word(psi, word)
    layouts = [(key[1], value[4]) for key, (value, _) in generators._cache.items() if key[0] == "layout"]
    assert [held for held, _ in layouts] == [(g,) for g, _ in reversed(word) if g.kind != "N"]
    # a group of n chains of L nodes spans n L nodes
    per_chain = sum(16 * (at.stop - at.start) * len(v) for _, groups in layouts for at, v in groups)
    tracemalloc.start()
    try:
        apply_group_word(psi, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_chain


# ------------------------------------------------------ one-generator copies


def _one_generator_overlaps(rho, g, times, cfg=EvolutionConfig()):
    """The beta matrix of rho and its copy under ``g`` at each time, and
    the working space it was evolved in."""
    ws = dynamics._DensityWorkspace(rho, (g,), cfg)
    return ws.beta_matrix(np.array(times)), ws


def test_evolve_displacement_keeps_trace():
    _, ws = _one_generator_overlaps(outer(basis_ket((0,))), GeneratorDescriptor("q", (1,)), [1e-2])
    assert ws.worst["trace_deviation"] <= 1e-10


def test_evolve_detects_leakage_with_tiny_buffer():
    cfg = EvolutionConfig(buffer=2, leakage_tolerance=1e-10)
    with pytest.raises(LeakageError):
        _one_generator_overlaps(outer(basis_ket((0,))), GeneratorDescriptor("s", (1,)), [0.5], cfg)


def test_active_evolution_leakage_within_tolerance_at_default_buffer():
    rho = outer(basis_ket((1,)))
    for kind in ("s", "q"):
        _, ws = _one_generator_overlaps(rho, GeneratorDescriptor(kind, (1,)), [0.1])
        assert ws.worst["boundary_weight"] <= 1e-6 and ws.worst["trace_deviation"] <= 1e-6


_ONE_GENERATOR_WORDS = [
    ("e", (1, 2), 0.7),
    ("E", (1, 2), 0.3),
    ("N", (2,), 0.7),
    ("q", (1,), 0.1),
    ("p", (2,), 0.1),
    ("r", (1, 2), 0.05),
    ("R", (1, 2), 0.05),
    ("s", (1,), 0.05),
    ("S", (2,), 0.05),
]


@pytest.mark.parametrize("kind, modes, t", _ONE_GENERATOR_WORDS)
def test_projector_overlap_matches_the_group_word(kind, modes, t):
    """beta_01 = Tr[rho U rho U^dag] of a ket's projector is |<psi|U psi>|^2
    of the ket that ``apply_group_word`` evolves."""
    psi = normalize(SparseKet(2, {(1, 0): 1.0, (0, 2): 0.5j, (1, 1): -0.25}))
    g = GeneratorDescriptor(kind, modes)
    b, _ = _one_generator_overlaps(psi, g, [t])
    assert abs(b[0, 0, 1] - abs(inner(psi, apply_group_word(psi, [(g, t)]))) ** 2) <= 1e-12


def test_evolution_config_rejects_nan():
    with pytest.raises(ValueError):
        EvolutionConfig(leakage_tolerance=math.nan)
    with pytest.raises(ValueError):
        EvolutionConfig(step=math.nan)


def test_evolution_config_takes_a_numpy_integer_buffer():
    assert estimate_gram_matrix(basis_ket((1,)), Group.GO, EvolutionConfig(buffer=np.int64(4))).cutoff == 5


_NON_INTEGER_BUFFERS = [1.5, 16.0, math.inf, math.nan, True, "16"]


@pytest.mark.parametrize(
    "knobs",
    [{"step": math.inf}, {"leakage_tolerance": math.inf}, {"step": 1e-300}, {"step": 1e-170}, {"buffer": -1}]
    + [{"buffer": b} for b in _NON_INTEGER_BUFFERS],
    ids=["inf step", "inf tolerance", "step 1e-300", "step 1e-170", "buffer -1"]
    + [f"buffer {b!r}" for b in _NON_INTEGER_BUFFERS],
)
def test_evolution_config_rejects_non_finite_or_underflowing_knobs(knobs):
    with pytest.raises(ValueError):
        EvolutionConfig(**knobs)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind, modes", [("e", (1, 2)), ("q", (1,))])
def test_non_finite_times_raise_value_error(kind, modes, t):
    g = GeneratorDescriptor(kind, modes)
    psi = basis_ket((1, 0))
    with pytest.raises(ValueError, match="finite"):
        apply_group_word(psi, [(g, 0.1), (g, t)])


def test_number_preserving_evolution_exact_at_long_times():
    rho = outer(normalize(SparseKet(2, {(1, 0): 1.0, (0, 1): 0.5j})))
    for kind, modes in (("e", (1, 2)), ("N", (1,))):
        _, ws = _one_generator_overlaps(rho, GeneratorDescriptor(kind, modes), [50.0])
        assert ws.worst["trace_deviation"] <= 1e-10


# ------------------------------------------------------------- beta matrix


def test_beta_at_zero_time_is_purity():
    cases = [
        (mixture([(0.5, basis_ket((0,))), (0.5, basis_ket((1,)))]), Group.GO, 0.5),
        (outer(basis_ket((0,))), Group.PLO, 1.0),
    ]
    for rho, group, purity in cases:
        ws = dynamics._DensityWorkspace(rho, lie_basis(group, 1).elements, EvolutionConfig())
        assert np.abs(ws.beta_matrix(np.array([0.0])) - purity).max() < 1e-12


def test_beta_constant_for_commuting_generator():
    """N[1] fixes the projector on |1>, so its copy overlaps rho and itself
    with 1 at every time."""
    b, _ = _one_generator_overlaps(outer(basis_ket((1,))), GeneratorDescriptor("N", (1,)), [0.05, 0.2, 0.7])
    assert np.abs(b - 1.0).max() < 1e-10


def test_beta_symmetric_in_indices():
    rho = outer(normalize(SparseKet(1, {(0,): 1.0, (1,): 0.5j})))
    ws = dynamics._DensityWorkspace(rho, lie_basis(Group.GO, 1).elements, EvolutionConfig())
    b = ws.beta_matrix(np.array([1e-3, 5e-2]))
    assert np.array_equal(b, b.transpose(0, 2, 1))


def test_overlaps_and_gram_that_overflow_are_refused():
    """A density with off-diagonal entries of 1e160 passes validation; its
    overlaps and its mixed-picture Gram overflow, and every entry point
    refuses them, with no warning."""
    keys = np.array([[[1, 0], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [0, 1]]], dtype=np.int64)
    rho = DensityOperator.from_entries(keys, np.array([0.5, 1e160, 1e160, 0.5]))
    with pytest.raises(ValidationError, match="beta overlap is not finite"):
        estimate_gram_matrix(rho, Group.PLO).values[0, 0]
    with pytest.raises(ValidationError, match="Gram matrix is not finite"):
        gram_mixed(Group.GO, rho)


# --------------------------------------------------------------- estimation


def test_estimate_identity_pair_is_zero():
    rho = outer(basis_ket((1,)))
    basis = lie_basis(Group.GO, 1)
    idx = basis.index_of("id") + 1
    est = estimate_gram_matrix(rho, Group.GO)
    assert abs(est.values[idx - 1, idx - 1]) < 1e-12
    assert abs(est.coarse[idx - 1, idx - 1]) < 1e-12


def test_estimates_compare_and_hash_by_identity():
    psi = sample_sphere_state(2, 2, 0)
    first, second = (estimate_gram_matrix(psi, Group.PLO) for _ in range(2))
    assert np.array_equal(first.values, second.values)
    assert first == first and first != second
    assert len({first, second, first}) == 2


def test_estimate_matches_direct_gram():
    rho = outer(normalize(SparseKet(1, {(0,): 1.0, (2,): 1.0})))
    est = estimate_gram_matrix(rho, Group.GO)
    direct = gram_mixed(Group.GO, rho).values
    dev = np.abs(est.values - direct)
    assert np.all(dev <= 1e-4 + 1e-3 * np.abs(direct))
    assert np.array_equal(est.values, est.values.T)


def test_estimate_second_order_convergence():
    rho = outer(basis_ket((1,)))
    est = estimate_gram_matrix(rho, Group.GO)
    direct = gram_mixed(Group.GO, rho).values
    err_coarse = np.abs(est.coarse - direct).max()
    err_fine = np.abs(est.fine - direct).max()
    assert err_coarse > 1e-12
    assert err_coarse / err_fine >= 2.8


def test_estimate_that_is_not_finite_raises(monkeypatch):
    # beta curves that differ by O(1) over a step of 1e-160 make the
    # stencils overflow, as rounding does at a tiny but accepted step
    beta_matrix = dynamics._DensityWorkspace.beta_matrix
    monkeypatch.setattr(
        dynamics._DensityWorkspace,
        "beta_matrix",
        lambda ws, times: beta_matrix(ws, times) + (times != 0.0)[:, None, None],
    )
    with pytest.raises(ValidationError, match="not finite"):
        estimate_gram_matrix(outer(basis_ket((1,))), Group.PLO, EvolutionConfig(step=1e-160))


@pytest.mark.parametrize("occupation", [(1, 0, 0), (1, 0, 0, 0)])
def test_estimate_reaches_three_and_four_modes(occupation):
    rho = outer(basis_ket(occupation))
    est = estimate_gram_matrix(rho, Group.GO)
    direct = gram_mixed(Group.GO, rho).values
    assert est.working_dimension == math.comb(len(occupation) + 17, 17)
    assert np.all(np.abs(est.values - direct) <= 1e-4 + 1e-3 * np.abs(direct))
    assert np.array_equal(est.values, est.values.T)


@pytest.mark.parametrize("group", [Group.PLO, Group.GO])
def test_estimate_with_complex_coherences_is_exactly_symmetric(group):
    rho = outer(sample_sphere_state(2, 1, seed=0))
    est = estimate_gram_matrix(rho, group)
    direct = gram_mixed(group, rho).values
    assert np.all(np.abs(est.values - direct) <= 1e-4 + 1e-3 * np.abs(direct))
    for table in (est.values, est.coarse, est.fine):
        assert np.array_equal(table, table.T)


def test_estimate_reports_the_trace_and_hermiticity_it_measures():
    # inside the validation tolerances, off by known amounts
    entries = {((0,), (0,)): 0.5 + 4e-11, ((1,), (1,)): 0.5, ((0,), (1,)): 0.25 + 5e-13, ((1,), (0,)): 0.25}
    rho = DensityOperator.validate(SparseOperator(1, entries))
    est = estimate_gram_matrix(rho, Group.GO)
    assert abs(est.max_trace_deviation - 4e-11) < 1e-14
    assert est.hermiticity_residual == rho.hermiticity_residual > 0
    for tol in (1e-11, 1e-13):  # the trace, then also the Hermiticity, over the tolerance
        with pytest.raises(LeakageError):
            estimate_gram_matrix(rho, Group.GO, EvolutionConfig(leakage_tolerance=tol))


def test_estimate_refused_by_the_hermiticity_alone_names_all_three_values():
    """A density whose trace is 1 and whose one coherence is off by 5e-13
    passes validation; under a tolerance of 1e-13 its Hermiticity residual
    alone fails, and the first copy (N[1] at t = h) names the trace
    deviation, the residual and the guard-band weight, in that order."""
    entries = {((0,), (0,)): 0.5, ((1,), (1,)): 0.5, ((0,), (1,)): 0.25 + 5e-13, ((1,), (0,)): 0.25}
    rho = DensityOperator.validate(SparseOperator(1, entries))
    with pytest.raises(LeakageError) as info:
        estimate_gram_matrix(rho, Group.GO, EvolutionConfig(leakage_tolerance=1e-13))
    assert str(info.value) == (
        "evolving under N[1] for t=0.001: trace deviation 2.220e-16, hermiticity 5.000e-13, "
        "boundary weight 0.000e+00 exceed tolerance 1.0e-13 (cutoff 17); increase the buffer or reduce |t|"
    )


def test_estimate_squeezing_with_tiny_buffer_raises():
    cfg = EvolutionConfig(buffer=2, leakage_tolerance=1e-10)
    with pytest.raises(LeakageError):
        estimate_gram_matrix(outer(basis_ket((0,))), Group.GO, cfg)


def test_estimate_leakage_names_the_first_copy_to_fail():
    """The four stencil times are checked together. All six squeezers leak
    at every time, and the error names the first failing copy by time, then
    by generator (r[1,2] at t = h), not the largest weight (s[2]'s). The
    trace deviation is rounding, so only its form is pinned."""
    cfg = EvolutionConfig(buffer=3, leakage_tolerance=1e-8)
    with pytest.raises(LeakageError) as info:
        estimate_gram_matrix(outer(basis_ket((0, 1))), Group.GO, cfg)
    assert re.fullmatch(
        r"evolving under r\[1,2\] for t=0\.001: trace deviation \d\.\d{3}e[+-]\d{2}, hermiticity 0\.000e\+00, "
        r"boundary weight 5\.000e-07 exceed tolerance 1\.0e-08 \(cutoff 4\); increase the buffer or reduce \|t\|",
        str(info.value),
    )


# ------------------------------------------------------------ ket estimation

_KETS = {
    "m1_fock": lambda: basis_ket((1,)),
    "m2_fock": lambda: basis_ket((0, 2)),
    "m1_sphere": lambda: sample_sphere_state(1, 3, seed=2),
    "m2_sphere_N1": lambda: sample_sphere_state(2, 1, seed=8),
    "m2_sphere_N2": lambda: sample_sphere_state(2, 2, seed=9),
}


@pytest.mark.parametrize("state", list(_KETS))
@pytest.mark.parametrize("group", [Group.PLO, Group.GO])
def test_ket_estimate_matches_its_outer_product(group, state):
    """A ket evolves as the one column psi/|psi|, its projector's S support
    columns as S; both estimate the same Gram matrix up to rounding, on the
    same working space, and the ket's projector is exactly Hermitian."""
    psi = _KETS[state]()
    ket, rho = estimate_gram_matrix(psi, group), estimate_gram_matrix(outer(psi), group)
    for name in ("values", "coarse", "fine"):
        assert np.abs(getattr(ket, name) - getattr(rho, name)).max() <= 1e-7
    assert (ket.working_dimension, ket.cutoff) == (rho.working_dimension, rho.cutoff)
    assert abs(ket.max_boundary_weight - rho.max_boundary_weight) <= 1e-12
    assert abs(ket.max_trace_deviation - rho.max_trace_deviation) <= 1e-12
    assert ket.hermiticity_residual == 0.0


@pytest.mark.parametrize("group", [Group.PLO, Group.GO])
def test_ket_beta_entries_equal_the_ket_estimate_stencils_bitwise(group):
    _assert_beta_entries_equal_the_estimate_stencils(sample_sphere_state(1, 2, seed=4), group)


def test_leaking_ket_raises_as_its_outer_product():
    """A Fock ket's one column is its projector's support column, so the
    leakage check measures the same numbers and names the same copy."""
    psi = basis_ket((0, 1))
    cfg = EvolutionConfig(buffer=3, leakage_tolerance=1e-8)
    messages = []
    for state in (psi, outer(psi)):
        with pytest.raises(LeakageError) as info:
            estimate_gram_matrix(state, Group.GO, cfg)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("evolving under r[1,2] for t=0.001: ")


@pytest.mark.parametrize("group", [Group.PLO, Group.GO])
def test_unnormalized_ket_estimates_as_its_normalized_version(group):
    """A ket is normalized as ``outer`` normalizes it: a power-of-two
    multiple gives the same bits, any other multiple the same values up to
    the stencils' rounding noise, and one whose squared norm underflows
    still normalizes."""
    psi = sample_sphere_state(2, 1, seed=3)
    unit = estimate_gram_matrix(psi, group)
    assert np.array_equal(estimate_gram_matrix(scale(4.0, psi), group).values, unit.values)
    for factor in (3.0, 1e-200):
        est = estimate_gram_matrix(scale(factor, psi), group)
        assert np.abs(est.values - unit.values).max() <= 1e-7


def test_zero_ket_is_refused():
    zero = SparseKet(2, {})
    with pytest.raises(ValidationError, match="zero ket"):
        estimate_gram_matrix(zero, Group.GO)


def test_go_ket_estimate_traces_no_support_columns():
    """The GO estimate of an m = 3, N = 3 sphere ket (S = 20) evolves one
    column, not the S columns of its outer product: its traced peak stays
    below 16 MiB, where the S-column estimate peaks near 75 MiB. The layouts
    are cached per process, so the estimate is traced once they are."""
    psi = sample_sphere_state(3, 3, seed=0)
    estimate_gram_matrix(psi, Group.GO)
    tracemalloc.start()
    try:
        estimate_gram_matrix(psi, Group.GO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _indefinite_density():
    """The m = 2 density [[0.5, 0.6 + 0.2j], [0.6 - 0.2j, 0.5]] on |1,0> and
    |0,1>, whose eigenvalues are -0.132 and 1.132: it has unit trace and is
    Hermitian, so it validates."""
    keys = np.array([[[1, 0], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [0, 1]]], dtype=np.int64)
    return DensityOperator.from_entries(keys, np.array([0.5, 0.6 + 0.2j, 0.6 - 0.2j, 0.5]))


@pytest.mark.parametrize("state", ["m1_sphere", "m2_fock", "m2_sphere", "m2_rank2", "m2_indefinite"])
@pytest.mark.parametrize("group", list(Group))
def test_overlaps_on_the_reached_rows_match_dense_propagators(monkeypatch, group, state):
    """beta_ij = Tr[rho_i rho_j] from the blocks that reach the support,
    at every time of one call, equals the overlaps of copies evolved by
    dense propagators on the whole truncated basis, also when the overlap
    Gram is summed a row at a time, and also for a density with a negative
    eigenvalue."""
    rho = {
        "m1_sphere": lambda: outer(sample_sphere_state(1, 2, seed=5)),
        "m2_fock": lambda: outer(basis_ket((1, 0))),
        "m2_sphere": lambda: outer(sample_sphere_state(2, 2, seed=6)),
        "m2_rank2": lambda: mixture([(0.6, sample_sphere_state(2, 1, seed=3)), (0.4, sample_sphere_state(2, 2, seed=4))]),
        "m2_indefinite": _indefinite_density,
    }[state]()
    elements = lie_basis(group, rho.modes).elements
    ws = dynamics._DensityWorkspace(rho, elements, _SMALL_BUFFER)
    times = np.array([0.0, 0.37, -0.21])
    got = ws.beta_matrix(times)
    assert len(ws.states) > 1
    _rows_per_block(monkeypatch, 1, len(elements), ws.phi.shape[1])
    in_blocks = ws.beta_matrix(times)
    m, cutoff = rho.modes, ws.cutoff
    _, index = basis_states(m, cutoff)
    dense = dense_density(rho, index)
    for k, t in enumerate(times):
        propagators = [_dense_propagator(g, m, cutoff, t) for g in elements]
        copies = [dense] + [u @ dense @ u.conj().T for u in propagators]
        expected = np.array([[np.trace(a @ b).real for b in copies] for a in copies])
        assert np.abs(got[k] - expected).max() <= 1e-12
        assert np.abs(in_blocks[k] - expected).max() <= 1e-12
    if state == "m2_fock" and group is not Group.PLO:
        assert len(ws.states) < math.comb(m + cutoff, m)  # the restriction is exercised


def test_layout_past_the_budget_is_refused_before_it_is_allocated(empty_cache, eigh_calls, monkeypatch):
    """Under a 56 KiB budget each chain of an m = 2, N = 2 GO working space
    fits, but its layout of chains (63,154 bytes) does not: an estimate is
    refused before any chain is decomposed or anything is stored. The one
    budget the store evicts by sets the refusal too."""
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 56 << 10)
    psi = sample_sphere_state(2, 2, seed=1)
    with pytest.raises(ValidationError, match=r"^working space of 190 states \(cutoff 18\) too large: its layout of chains"):
        estimate_gram_matrix(psi, Group.GO)
    assert eigh_calls == [] and not generators._cache


def test_word_whose_factors_each_fit_the_budget_runs(empty_cache, monkeypatch):
    """Under the same 56 KiB budget, a word of every m = 2 GO generator
    lays out each factor on its own (at most 48,830 bytes), though the
    layout of all its factors' chains at once would not fit: it runs and
    equals the product of dense propagators, and the store is left within
    the same budget."""
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 56 << 10)
    psi = sample_sphere_state(2, 2, seed=1)
    word = [(g, 0.01) for g in lie_basis(Group.GO, 2).elements]
    _, index = basis_states(2, 18)
    expected = dense_ket(psi, index)
    for g, t in reversed(word):
        expected = _dense_propagator(g, 2, 18, t) @ expected
    assert_terms_close(apply_group_word(psi, word).terms, dict(zip(index, expected)), tol=1e-12)
    assert generators._cache.nbytes <= 56 << 10


def test_factor_past_the_budget_is_refused_before_its_layout_is_stored(empty_cache, monkeypatch):
    """Under a 40,000-byte budget the first factor of an m = 2, N = 2 GO
    word, s[2], fits (6,126 bytes), but the layout of e[1,2]'s chains
    through the rows s[2] reaches (47,678 bytes) does not: the word is
    refused before that layout is stored."""
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 40_000)
    basis = lie_basis(Group.GO, 2)
    e, s = (basis.elements[basis.index_of(label)] for label in ("e[1,2]", "s[2]"))
    message = r"^working space of 190 states \(cutoff 18\) too large: its layout of chains would take"
    with pytest.raises(ValidationError, match=message):
        apply_group_word(sample_sphere_state(2, 2, seed=1), [(e, 0.01), (s, 0.01)])
    assert [key[1] for key in generators._cache if key[0] == "layout"] == [(s,)]


def _stored_bytes(layout):
    """The bytes of the arrays a layout holds: its rows' states and guard
    band, its support rows, each node's generator, row and eigenvalue, and
    each group's eigenvectors."""
    states, band, support, gens, groups, nodes, values = layout
    return sum(a.nbytes for a in (states, band, support, gens, nodes, values)) + sum(v.nbytes for _, v in groups)


@pytest.mark.parametrize("label", ["N[1]", "e[1,2]"])
def test_layout_refusal_boundary_is_its_stored_bytes(empty_cache, monkeypatch, label):
    """A layout fits a budget of exactly the bytes it stores and is refused
    at one byte less, the lower bound taken before its rows are built
    included (for N, whose chains are the support's states, it is exact)."""
    basis = lie_basis(Group.GO, 2)
    g = basis.elements[basis.index_of(label)]
    support = np.array(enumerate_occupations(2, 3))
    nbytes = _stored_bytes(dynamics._layout((g,), 3, support))
    for budget in (nbytes, nbytes - 1):
        monkeypatch.setattr(generators, "_cache", generators._Store())
        monkeypatch.setattr(generators, "_CACHE_BUDGET", budget)
        if budget < nbytes:
            with pytest.raises(ValidationError, match=r"too large: its layout of chains would take "):
                dynamics._layout((g,), 3, support)
        else:
            dynamics._layout((g,), 3, support)


def test_stored_layout_counts_its_support_bytes(empty_cache):
    """The store counts a layout's key, which holds a copy of its support,
    beside the arrays the layout holds."""
    g = GeneratorDescriptor("e", (1, 2))
    support = np.array(enumerate_occupations(2, 3))
    layout = dynamics._layout((g,), 3, support)
    ((_, size),) = [entry for key, entry in generators._cache.items() if key[0] == "layout"]
    assert size == _stored_bytes(layout) + support.nbytes


def test_layout_past_its_lower_bound_is_refused_before_its_rows_are_ranked(empty_cache, monkeypatch):
    """The rows of a working space hold at least the nodes of any one of
    its generators, whose chains are disjoint: a layout whose bytes by that
    count exceed the budget is refused before its rows are built and
    ranked, saying it would take at least that much."""
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 8 << 10)  # past its longest block's 5,776 bytes
    ranked = []
    monkeypatch.setattr(dynamics, "_rank_words", lambda words: ranked.append(words))
    message = r"^working space of 190 states \(cutoff 18\) too large: its layout of chains would take at least "
    with pytest.raises(ValidationError, match=message):
        estimate_gram_matrix(sample_sphere_state(2, 2, seed=1), Group.GO)
    assert ranked == [] and not generators._cache


def test_layout_builds_its_node_states_once(empty_cache):
    """The N[1] layout on the 92,378 states of at most 9 photons in 10
    modes (one-node chains, so as many nodes) stores about 10 MiB; building
    it peaks below four times that. Building the node states from several
    full-size copies and stacking them with the support peaked at 4.6
    times."""
    basis = lie_basis(Group.GO, 10)
    g = basis.elements[basis.index_of("N[1]")]
    support = np.array(enumerate_occupations(10, 9))
    tracemalloc.start()
    try:
        layout = dynamics._layout((g,), 19, support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(layout[0]) == len(support) == 92_378
    assert peak < 4 * _stored_bytes(layout)


def test_a_word_on_fourteen_modes_packs_each_state_in_two_words(empty_cache):
    """At m = 14 and cutoff 17 an occupation takes five bits, so a state
    takes two packed words: a GO round trip of factors on modes 1 and 2 of
    a 2-mode sphere ket times Fock spectators on modes 3..14 gives the
    2-mode round trip's terms times the spectators, bit for bit."""
    spectators = (0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1)
    psi = sample_sphere_state(2, 1, seed=7)
    assert generators._packing(14, 5)[0].shape == (14, 2)
    labels = ["q[1]", "p[2]", "s[1]", "S[2]", "r[1,2]", "R[1,2]", "e[1,2]", "E[1,2]", "N[1]"]
    outs = []
    for m, ket in ((2, psi), (14, SparseKet(14, {k + spectators: v for k, v in psi.terms.items()}))):
        basis = lie_basis(Group.GO, m)
        word = [(basis.elements[basis.index_of(label)], 0.02 * (k + 1) * (-1) ** k) for k, label in enumerate(labels)]
        outs.append(apply_group_word(ket, [(g, -t) for g, t in reversed(word)] + word).terms)
    two, fourteen = outs
    assert list(fourteen) == [k + spectators for k in two]
    assert np.array(list(fourteen.values())).tobytes() == np.array(list(two.values())).tobytes()


def _rank3_density():
    return mixture([(w, sample_sphere_state(2, 2, seed=s)) for w, s in ((0.3, 1), (0.3, 2), (0.4, 3))])


@pytest.fixture
def evolved_times(monkeypatch):
    """The number of times of each ``evolve`` call, and the rows of each
    block that ``evolved`` makes dense."""
    calls, heights = [], []
    evolve, blocks = dynamics._Workspace.evolve, dynamics._blocks

    def counted(self, times, columns):
        calls.append(np.size(times))
        return evolve(self, times, columns)

    def measured(keys, total, width):
        for lo, hi, at in blocks(keys, total, width):
            heights.append(hi - lo)
            yield lo, hi, at

    monkeypatch.setattr(dynamics._Workspace, "evolve", counted)
    monkeypatch.setattr(dynamics, "_blocks", measured)
    return calls, heights


def _dense_copy_bytes(rho, group):
    """Bytes of one time's evolved copies made dense, 16 R (d + 1) r."""
    ws = dynamics._DensityWorkspace(rho, lie_basis(group, rho.modes).elements, EvolutionConfig())
    return 16 * len(ws.states) * (len(ws.generators) + 1) * ws.phi.shape[1]


@pytest.mark.parametrize("per_chunk, chunks", [(1, [1] * 4), (2, [1, 2, 1]), (4, [3, 1]), (5, [4])])
def test_estimate_evolves_its_times_in_chunks_that_fit_the_budget(empty_cache, monkeypatch, evolved_times, per_chunk, chunks):
    """A rank-3 m = 2 GO estimate takes its five times in chunks whose
    dense copies fit the budget, all 130 rows of a chunk in one block, and
    evolves the four times != 0 of each chunk (t = 0, first, leaves the
    copies as they are, so a chunk of it alone evolves nothing); each chunk
    gives the bits it gives when all the times are taken at once. Its five
    overlap Grams (737,280 bytes) pass a budget of one time's dense copies
    (199,680), which one time's Gram (147,456) fits."""
    calls, heights = evolved_times
    rho = _rank3_density()
    whole = estimate_gram_matrix(rho, Group.GO)
    assert (calls, heights, whole.working_rows) == ([4], [130], 130)
    calls.clear()
    heights.clear()
    assert _dense_copy_bytes(rho, Group.GO) == 199_680
    monkeypatch.setattr(generators, "_CACHE_BUDGET", per_chunk * 199_680)
    part = estimate_gram_matrix(rho, Group.GO)
    assert (calls, heights) == (chunks, [130] * -(-5 // per_chunk))  # one block a chunk of the five times
    for name in ("values", "coarse", "fine", "max_boundary_weight", "max_trace_deviation", "hermiticity_residual"):
        assert np.array_equal(getattr(whole, name), getattr(part, name))


@pytest.mark.parametrize("state", ["rank3", "ket"])
def test_overlaps_summed_over_row_blocks_match_one_block(empty_cache, monkeypatch, evolved_times, state):
    """The overlap Gram of a rank-3 m = 2 GO density and of an m = 2, N = 2
    GO ket at an estimate's five times, summed a time at a time over the 2,
    3 or 130 blocks of its 130 rows that the budget allows (its refusals
    lifted), gives every beta within 1e-14 max(1, |beta|) of one block's,
    and every copy's guard-band weight, a sum of terms >= 0, within 1e-12 of
    it relative; the default budget makes one block of all five times."""
    calls, heights = evolved_times
    rho = _rank3_density() if state == "rank3" else sample_sphere_state(2, 2, seed=1)
    ws = dynamics._DensityWorkspace(rho, lie_basis(Group.GO, 2).elements, EvolutionConfig())
    times = np.array([0.0, 1e-3, -1e-3, 5e-4, -5e-4])
    whole = ws.beta_matrix(times)
    boundary = ws.overlaps(times)[2]
    assert boundary[1:].max() > 0.0
    rows = len(ws.states)
    assert (calls, heights, rows) == ([4, 4], [rows] * 2, 130)
    for blocks in (2, 3, rows):
        calls.clear()
        heights.clear()
        height = -(-rows // blocks)
        _rows_per_block(monkeypatch, height, len(ws.generators), ws.phi.shape[1])
        got = ws.beta_matrix(times)
        band = ws.overlaps(times)[2]
        assert (calls, len(heights)) == ([1] * 8, 10 * blocks)  # t = 0 is not evolved
        assert np.all(np.abs(got - whole) <= 1e-14 * np.maximum(1.0, np.abs(whole)))
        assert np.all(np.abs(band - boundary) <= 1e-12 * boundary)


def test_overlaps_at_t_0_alone_evolve_nothing(empty_cache, evolved_times):
    """Overlaps at t = 0 alone evolve no copy, each copy being rho: beta,
    traces and band weights are bit for bit those t = 0 takes beside times
    that evolve, every beta entry rho's purity."""
    calls, _ = evolved_times
    rho = _rank3_density()
    ws = dynamics._DensityWorkspace(rho, lie_basis(Group.GO, 2).elements, EvolutionConfig())
    alone = ws.overlaps(np.array([0.0]))
    assert calls == []
    beside = ws.overlaps(np.array([0.0, 1e-3, -1e-3]))
    assert calls == [2]
    for got, expected in zip(alone, beside, strict=True):
        assert got.tobytes() == expected[:1].tobytes()
    assert np.allclose(alone[0], np.sum(np.abs(rho.matrix) ** 2), rtol=1e-14, atol=0.0)


def _refused_before_evolving(monkeypatch, budget, message, call):
    """``call`` is refused with ``message`` under ``budget`` before any copy
    is evolved."""
    monkeypatch.setattr(generators, "_CACHE_BUDGET", budget)
    monkeypatch.setattr(dynamics._Workspace, "evolve", lambda *args: pytest.fail("copies evolved"))
    with pytest.raises(ValidationError, match=message):
        call()


def test_copies_past_the_budget_are_refused_before_they_are_evolved(empty_cache, monkeypatch):
    """A rank-3 m = 2 GO density evolves its 6 columns on 522 nodes, 50,112
    bytes a time. Under a budget one byte short of them, an estimate is
    refused before any copy is evolved; the layout was stored before the
    budget fell."""
    rho = _rank3_density()
    ws = dynamics._DensityWorkspace(rho, lie_basis(Group.GO, 2).elements, EvolutionConfig())
    assert (len(ws.nodes), ws.phi.shape[1]) == (522, 6)
    message = r"^working space of 190 states \(cutoff 18\) too large: its evolved copies on 522 nodes would take"
    _refused_before_evolving(monkeypatch, 50_112 - 1, message, lambda: estimate_gram_matrix(rho, Group.GO))


def test_overlap_gram_past_the_budget_is_refused_before_copies_are_evolved(empty_cache, monkeypatch):
    """One time's overlap Gram of a rank-3 m = 2 GO density, over its 16 x 6
    evolved columns, takes 147,456 bytes: under a budget one byte short of
    it, which its copies (50,112 bytes a time) and layout fit, an estimate
    is refused before any copy is evolved, and not told to shrink the buffer."""
    rho = _rank3_density()
    message = (
        r"^working space of 190 states \(cutoff 18\) too large: its overlap Gram of 96 columns would take 0 MiB, "
        r"over the 0 MiB budget; the Gram grows with the support and the group, not the buffer$"
    )
    _refused_before_evolving(monkeypatch, 147_456 - 1, message, lambda: estimate_gram_matrix(rho, Group.GO))


def test_photons_past_a_chain_key_are_refused():
    """A chain's key holds each occupation in 23 bits. A one-mode PLO
    working space has only N[1]'s one-node chains, as small as layouts
    get, and is refused from 2^23 photons on, for the key even at 2^50,
    where its chains are still one node long. A word of N[1] and the
    identity alone, which lays out no chain, is refused at 2^23 with the
    text its layout gave."""
    assert estimate_gram_matrix(basis_ket(((1 << 23) - 1,)), Group.PLO).cutoff == (1 << 23) - 1
    with pytest.raises(ValidationError, match=r"\(cutoff 8388608\) too large: a chain key holds occupations below 2\^23"):
        estimate_gram_matrix(basis_ket((1 << 23,)), Group.PLO)
    with pytest.raises(ValidationError, match=r"\(cutoff 1125899906842624\) too large: a chain key holds"):
        estimate_gram_matrix(basis_ket((1 << 50,)), Group.PLO)
    phases = [(g, 0.3) for g in lie_basis(Group.GO, 1).elements if g.kind in ("N", "I")]
    message = (
        "working space of 8,388,609 states (cutoff 8388608) too large: a chain key holds occupations below 2^23; "
        "use a smaller --buffer"
    )
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        apply_group_word(basis_ket((1 << 23,)), phases)


@pytest.mark.parametrize("group, label", [(Group.DPLO, "q[1]"), (Group.ALO, "S[1]"), (Group.GO, "p[1]")])
def test_a_cutoff_past_int64_is_refused_before_its_chains_are_walked(group, label):
    """A buffer of 2^63 puts the cutoff past int64, where a state would pack
    no occupation into a 63-bit word: an estimate, and a word of one
    generator that moves photons, are refused on their longest chain's
    bytes, reckoned in Python ints, not stopped by a numpy error."""
    config = EvolutionConfig(buffer=2**63)
    message = r"\(cutoff 9223372036854775809\) too large: its [\d,]+-state block's eigenvectors would take"
    with pytest.raises(ValidationError, match=message):
        estimate_gram_matrix(basis_ket((1,)), group, config)
    basis = lie_basis(group, 1)
    with pytest.raises(ValidationError, match=message):
        apply_group_word(basis_ket((1,)), [(basis.elements[basis.index_of(label)], 0.1)], config)


# ----------------------------------------------------------------- sampling


def test_sample_norm_and_support():
    psi = sample_sphere_state(2, 2, seed=3)
    assert abs(psi.norm() - 1.0) < 1e-12
    assert psi.max_total() <= 2
    assert len(psi.terms) == math.comb(2 + 2, 2)


def test_sample_deterministic_under_seed():
    a = sample_sphere_state(2, 3, seed=11)
    b = sample_sphere_state(2, 3, seed=11)
    assert a.terms == b.terms


def test_sample_distinct_seeds_differ():
    a = sample_sphere_state(2, 2, seed=0)
    b = sample_sphere_state(2, 2, seed=1)
    assert abs(inner(a, b)) < 0.99


def test_sampled_states_attain_generic_dimension():
    for seed in range(3):
        psi = sample_sphere_state(2, 2, seed)
        assert orbit_dimension(Group.GO, psi, Picture.KET).rank == 15


# ---------------------------------------------------- per-process store


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(generators, "_cache", generators._Store())


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(np.array(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _cached_arrays():
    for key, (value, _) in generators._cache.items():
        if key[0] == "layout":  # states, guard band, support rows, node generators, groups, nodes, eigenvalues
            states, band, support, gens, groups, nodes, eigenvalues = value
            yield from (states, band, support, gens, *(v for _, v in groups), nodes, eigenvalues)
        elif key[0] == "chains":  # keys, offsets, eigenvalues, eigenvectors
            yield from value
        else:  # a plan: its table, then its arrays
            yield from value[1:]


_SUPPORT = sample_sphere_state(2, 1, seed=0).arrays()[0]


def test_second_workspace_calls_no_eigh(empty_cache, eigh_calls):
    elements = lie_basis(Group.GO, 2).elements
    first = _Workspace(_SUPPORT, elements, EvolutionConfig())
    assert eigh_calls
    eigh_calls.clear()
    second = _Workspace(_SUPPORT, elements, EvolutionConfig())
    assert eigh_calls == []
    assert second.states is first.states
    arrays = [[ws.gens, *(v for _, v in ws.groups), ws.nodes, ws.values] for ws in (first, second)]
    for x, y in zip(*arrays, strict=True):
        assert np.array_equal(x, y)


def test_eigh_decomposes_each_distinct_chain_once(empty_cache, eigh_calls):
    """Decomposing every chain of m = 2 GO at cutoff 17, then at 18, hands
    ``eigh`` each distinct shape (family, its modes' occupations at the
    start, length) once in all, one node included, counting stacked
    matrices, as its real matrix: 105 matrices for the 1,737 blocks of the
    two cutoffs, 27 of them one node long, the second decomposing only the
    14 shapes the first lacked. Mirrored r and R starts share a key, so the
    1,737 blocks have 190 keys, and the two kinds of a family share a
    shape, so the keys have 105 shapes."""
    elements = lie_basis(Group.GO, 2).elements
    keys, shapes, blocks, received = set(), set(), 0, []
    for cutoff in (17, 18):
        states = np.array(TruncatedBasis.build(2, cutoff).states)
        key = generators._chains(elements, states, cutoff)[0]
        keys.update(key.tolist())
        shapes.update(generators._shapes(key)[0].tolist())
        blocks += len(key)
        generators._decomposed(key, np.arange(len(key)))
        received.append(sum(len(a) for a in eigh_calls))
    assert received == [91, 105] and len(shapes) == 105 and len(keys) == 190 and blocks == 1737
    expected = [h for stack in generators._chain_matrices(np.array(sorted(shapes))) for h in stack]
    given = [h for stack in eigh_calls for h in stack]
    assert all(h.dtype == float for h in given) and sum(len(h) == 1 for h in given) == 27
    assert sorted((h.shape, h.tobytes()) for h in given) == sorted((h.shape, h.tobytes()) for h in expected)


def test_cold_estimates_and_words_hand_eigh_no_matrix_twice(empty_cache, eigh_calls):
    """Mirrored r and R chain starts, (a, 0) against (0, a), share a key:
    from an empty store, GO estimates and words whose supports hold
    mirrored states hand ``eigh`` the real matrix of each shape they keep
    once, one node included, and no two matrices of more than one node with
    equal bytes (one-node shapes of different kinds, such as [[0]], may
    share them)."""
    basis = lie_basis(Group.GO, 2)
    word = [(basis.elements[basis.index_of(label)], 0.05) for label in ("q[1]", "S[2]", "E[1,2]", "N[2]", "r[1,2]")]
    for psi in (normalize(SparseKet(2, {(1, 0): 1.0, (0, 1): 0.5j})), sample_sphere_state(2, 2, seed=1)):
        estimate_gram_matrix(psi, Group.GO)
        estimate_gram_matrix(outer(psi), Group.PLO)
        apply_group_word(psi, word)
    estimate_gram_matrix(basis_ket((0, 2, 1)), Group.GO)
    # chains come as stacks, a density's own matrix alone
    given = sorted((h.shape, h.tobytes()) for stack in eigh_calls if stack.ndim == 3 for h in stack)
    kept = generators._chain_matrices(generators._recall(("chains",))[0])
    assert given == sorted((h.shape, h.tobytes()) for stack in kept for h in stack)
    longer = [h for h in given if h[0] != (1, 1)]
    assert longer and len(set(longer)) == len(longer) < len(given)


def test_a_word_after_an_estimate_decomposes_only_the_chains_the_store_lacked(empty_cache, eigh_calls):
    """The store is a memo by chain shape: after an estimate, a GO word on
    another state hands ``eigh`` exactly the real matrices of the shapes the
    store lacked, one node included, each once: 50 matrices for 50 new
    shapes, 4 of them one node long (the estimate's chains of the two kinds
    of a family have one set of shapes, the word holds one kind of each
    family, and its phase N[2] lays out no chains)."""
    estimate_gram_matrix(outer(basis_ket((1, 0))), Group.GO)
    before = set(generators._recall(("chains",))[0].tolist())
    eigh_calls.clear()
    basis = lie_basis(Group.GO, 2)
    word = [(basis.elements[basis.index_of(label)], 0.05) for label in ("q[1]", "S[2]", "E[1,2]", "N[2]", "r[1,2]")]
    out = apply_group_word(sample_sphere_state(2, 1, seed=3), word)
    after = set(generators._recall(("chains",))[0].tolist())
    new = np.array(sorted(after - before))
    expected = [h for stack in generators._chain_matrices(new) for h in stack]
    given = [h for stack in eigh_calls for h in stack]
    assert before <= after and len(new) == 50 and len(given) == 50 and sum(len(h) == 1 for h in given) == 4
    assert sorted((h.shape, h.tobytes()) for h in given) == sorted((h.shape, h.tobytes()) for h in expected)
    assert abs(out.norm() - 1.0) < 1e-10


def _cache_runs():
    rho = outer(normalize(SparseKet(2, {(1, 0): 1.0, (0, 1): 0.5j})))
    basis = lie_basis(Group.GO, 2)
    word = [(basis.elements[basis.index_of(label)], t) for label, t in (("p[2]", 0.07), ("e[1,2]", -0.4), ("s[1]", 0.03))]
    psi = sample_sphere_state(2, 1, seed=11)
    est = estimate_gram_matrix(rho, Group.GO)
    out = apply_group_word(psi, word)
    return (est.values, est.coarse, est.fine), np.array(list(out.terms.values())), list(out.terms)


def test_cold_and_warm_cache_give_identical_results(empty_cache, monkeypatch):
    cold = _cache_runs()
    warm = _cache_runs()
    # part cached: the word's generators only
    monkeypatch.setattr(generators, "_cache", generators._Store())
    basis = lie_basis(Group.GO, 2)
    apply_group_word(basis_ket((1, 0)), [(basis.elements[basis.index_of("e[1,2]")], 0.3)])
    mixed = _cache_runs()
    for other in (warm, mixed):
        for x, y in zip(cold[0], other[0], strict=True):
            assert np.array_equal(x, y)
        assert np.array_equal(cold[1], other[1])
        assert cold[2] == other[2]


def _layouts():
    """The layouts in the store, by key."""
    return {key: value for key, (value, _) in generators._cache.items() if key[0] == "layout"}


def _evolved(group, rho):
    """An estimate on rho's working space and, for a ket, a word of every
    generator of the group (each factor on its own working space): their
    bytes, and the layouts they left in the store."""
    est = estimate_gram_matrix(rho, group)
    out = [est.values.tobytes(), est.coarse.tobytes(), est.fine.tobytes()]
    if isinstance(rho, SparseKet):
        word = [(g, 0.03 * (-1) ** k) for k, g in enumerate(lie_basis(group, rho.modes).elements)]
        terms = apply_group_word(rho, word).terms
        out += [list(terms), np.array(list(terms.values())).tobytes()]
    return out, _layouts()


def _same_layout(x, y):
    """Two layouts equal array for array, each group's span and eigenvectors
    byte for byte."""
    *arrays, groups = (*x[:4], *x[5:], x[4])
    *others, other_groups = (*y[:4], *y[5:], y[4])
    for a, b in zip(arrays, others, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert [at for at, _ in groups] == [at for at, _ in other_groups]
    assert all(v.tobytes() == w.tobytes() for (_, v), (_, w) in zip(groups, other_groups, strict=True))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("group", list(Group))
def test_cold_and_warm_stores_give_identical_layouts_estimates_and_words(empty_cache, group, m):
    """From an empty store, then with only the chain memo kept (every layout
    rebuilt from shapes that other kinds and states may have decomposed
    first), then with everything kept: each estimate on its
    full-basis working space and each word of every generator of the group
    (one-generator working spaces) gives the same bytes, and every layout
    is rebuilt equal array for array, on a Fock ket, an N = 2 sphere ket and
    a rank-2 mixture."""
    states = [
        basis_ket((1,) + (0,) * (m - 1)),
        sample_sphere_state(m, 2, seed=m),
        mixture([(0.6, sample_sphere_state(m, 1, seed=3)), (0.4, sample_sphere_state(m, 2, seed=4))]),
    ]
    cold = [_evolved(group, rho) for rho in states]
    layouts = _layouts()
    for key in layouts:
        generators._cache.nbytes -= generators._cache.pop(key)[1]
    assert ("chains",) in generators._cache
    rebuilt = [_evolved(group, rho) for rho in states]
    warm = [_evolved(group, rho) for rho in states]
    assert [out for out, _ in rebuilt] == [out for out, _ in cold] == [out for out, _ in warm]
    assert _layouts().keys() == layouts.keys()
    for key, layout in _layouts().items():
        assert layout is not layouts[key]
        _same_layout(layouts[key], layout)


def test_cached_arrays_are_read_only(empty_cache):
    _Workspace(_SUPPORT, lie_basis(Group.GO, 2).elements, EvolutionConfig())
    arrays = list(_cached_arrays())
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][...] = 0


def _layout_key(generators, cutoff, support):
    return ("layout", tuple(generators), cutoff, support.shape, support.tobytes())


def test_cache_evicts_least_recently_used_past_its_budget(empty_cache, monkeypatch):
    g1, g2, g3 = GeneratorDescriptor("e", (1, 2)), GeneratorDescriptor("E", (1, 2)), GeneratorDescriptor("N", (1,))
    cfg = EvolutionConfig()
    support = np.array([[1, 2]])
    for g in (g1, g2, g1):  # g2 is now the least recently used
        _Workspace(support, [g], cfg)
    total = sum(size for _, size in generators._cache.values())
    monkeypatch.setattr(generators, "_CACHE_BUDGET", total)
    ws = _Workspace(support, [g3], cfg)
    kept = sum(size for _, size in generators._cache.values())
    assert kept <= total
    # the decomposed chains, one entry, were last used to build g3's layout
    assert list(generators._cache) == [_layout_key([g1], 3, support), ("chains",), _layout_key([g3], 3, support)]
    # past a budget of 0 nothing is kept, and evolution still works
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 0)
    again = _Workspace(support, [g3], cfg)
    assert not generators._cache
    x = np.zeros((len(ws.states), 1), dtype=complex)
    x[ws.support] = 1.0
    assert np.array_equal(again.evolve(0.3, x), ws.evolve(0.3, x))


def test_cache_evicts_least_recently_used_across_layouts_chains_and_plans(empty_cache, monkeypatch):
    g = GeneratorDescriptor("e", (1, 2))
    cfg = EvolutionConfig()
    psi = basis_ket((1, 0))
    support = np.array([[12, 0]])
    _Workspace(support, [g], cfg)
    orbit_dimension(Group.GO, psi, Picture.KET)
    (go_plan,) = [key for key in generators._cache if key[0] == "plan"]
    _Workspace(support, [g], cfg)  # the layout is used again,
    orbit_dimension(Group.GO, psi, Picture.KET)  # then the plan
    # the decomposed chains are read only to build a layout, so they are the least recently used
    assert list(generators._cache) == [("chains",), _layout_key([g], 12, support), go_plan]
    # room for a PLO plan: dropping the chains, then the layout, makes it
    monkeypatch.setattr(generators, "_CACHE_BUDGET", generators._cache.nbytes - generators._cache[("chains",)][1])
    orbit_dimension(Group.PLO, psi, Picture.KET)
    (plo_plan,) = [key for key in generators._cache if key[0] == "plan" and key != go_plan]
    assert list(generators._cache) == [go_plan, plo_plan]
    assert generators._cache.nbytes == sum(size for _, size in generators._cache.values())


def test_cache_survives_concurrent_workspaces(empty_cache, monkeypatch):
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 8192)  # every build evicts
    elements = lie_basis(Group.GO, 1).elements
    cfg = EvolutionConfig(buffer=2)

    def evolved(max_total):
        ws = _Workspace(np.array([[max_total]]), elements, cfg)
        x = np.zeros((len(ws.states), 1), dtype=complex)
        x[ws.support] = 1.0
        return ws.evolve(0.3, x)

    expected = {n: evolved(n) for n in range(6)}
    errors = []

    def work():
        try:
            for _ in range(20):
                for n in range(6):
                    if not np.array_equal(evolved(n), expected[n]):
                        errors.append(f"max_total {n} differs")
        except Exception as exc:  # recorded and asserted on below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sum(size for _, size in generators._cache.values()) <= 8192


# ------------------------------------------------------------- group words


def test_empty_word_is_identity():
    psi = basis_ket((1, 1))
    assert apply_group_word(psi, []) is psi


def test_evolve_number_operator_fixes_fock_projector():
    """N[1] only turns the phase of |1>, so the evolved ket's projector is
    the Fock projector."""
    out = apply_group_word(basis_ket((1,)), [(GeneratorDescriptor("N", (1,)), 0.7)])
    assert_entries_close(density_op(outer(out)).entries, density_op(outer(basis_ket((1,)))).entries, tol=1e-12)


def test_word_of_zero_times_builds_no_working_space(monkeypatch):
    monkeypatch.setattr(dynamics, "_Workspace", None)  # calling it would raise TypeError
    psi = sample_sphere_state(2, 2, seed=5)
    assert apply_group_word(psi, [(g, 0.0) for g in lie_basis(Group.GO, 2).elements]) == psi


def test_plo_word_preserves_norm_exactly():
    rng = np.random.default_rng(23)
    psi = basis_ket((1, 1))
    basis = lie_basis(Group.PLO, 2)
    word = [
        (basis.elements[int(rng.integers(len(basis)))], float(rng.uniform(-1, 1)))
        for _ in range(5)
    ]
    out = apply_group_word(psi, word)
    assert abs(out.norm() - 1.0) < 1e-10
    assert out.max_total() == 2  # photon-number sectors are closed


def test_plo_word_preserves_orbit_dimension():
    rng = np.random.default_rng(29)
    psi = normalize(SparseKet(2, {(1, 1): 1.0, (0, 2): 1.0j}))
    basis = lie_basis(Group.PLO, 2)
    word = [
        (basis.elements[int(rng.integers(len(basis)))], float(rng.uniform(-1, 1)))
        for _ in range(5)
    ]
    out = apply_group_word(psi, word)
    for group in (Group.PLO, Group.GO):
        before = orbit_dimension(group, psi, Picture.KET).rank
        after = orbit_dimension(group, out, Picture.KET).rank
        assert before == after


@pytest.mark.parametrize("kind", ["q", "N"])  # photon-shifting, number-preserving
def test_group_word_rejects_nan_amplitude(kind):
    with pytest.raises(ValidationError, match="cannot evolve a ket of norm nan"):
        apply_group_word(SparseKet(1, {(1,): math.nan}), [(GeneratorDescriptor(kind, (1,)), 0.1)])


@pytest.mark.parametrize(
    "factor", [GeneratorDescriptor("e", (1, 2)), GeneratorDescriptor("q", (1,))], ids=lambda g: g.label
)
@pytest.mark.parametrize("amplitude", [math.inf, math.nan, 1e200], ids=["inf", "nan", "overflow"])
def test_group_word_refuses_a_non_finite_norm_before_its_working_space(amplitude, factor, monkeypatch):
    """An infinite or NaN amplitude, or one whose square overflows, is
    refused as ``normalize`` refuses it, before any working space is built:
    no matmul warning and no leakage advice to increase the buffer."""
    monkeypatch.setattr(dynamics, "_Workspace", None)  # calling it would raise TypeError
    psi = SparseKet(2, {(1, 0): amplitude, (0, 1): 1.0})
    with pytest.raises(ValidationError, match="cannot evolve a ket of norm (inf|nan)$"):
        apply_group_word(psi, [(factor, 0.1)])


def test_group_word_refuses_a_working_space_past_the_budget():
    """A 60,000-photon buffer under q[1] gives a 60,001-state chain whose
    eigenvectors alone would take about 54 GiB: refused before anything is
    allocated."""
    word = [(GeneratorDescriptor("q", (1,)), 1e-3)]
    message = "working space of 60,001 states .*60,001-state block.*use a smaller --buffer"
    with pytest.raises(ValidationError, match=message):
        apply_group_word(basis_ket((0,)), word, EvolutionConfig(buffer=60000))


def test_squeezing_word_with_tiny_buffer_raises():
    cfg = EvolutionConfig(buffer=2, leakage_tolerance=1e-10)
    with pytest.raises(LeakageError):
        apply_group_word(basis_ket((0,)), [(GeneratorDescriptor("s", (1,)), 0.5)], cfg)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-200, 1e100])
def test_group_word_guard_band_weight_is_relative_to_the_ket(scale):
    """s[1](0.5) on the vacuum leaves 0.12 of the ket's weight in a
    two-photon guard band at every scale, a tiny one included: the band is
    divided by the ket's norm before it is squared."""
    word = [(GeneratorDescriptor("s", (1,)), 0.5)]
    with pytest.raises(LeakageError, match=r"^group word factor s\[1\] \(t=0\.5\): boundary weight 1\.199e-01 "):
        apply_group_word(SparseKet(1, {(0,): scale}), word, EvolutionConfig(buffer=2))


@pytest.mark.parametrize("seed", range(1, 6))
def test_group_word_norm_change_is_relative_to_the_ket(seed):
    """A sector-exact PLO word on a 1e20-scaled ket keeps its norm to
    rounding relative to that norm, and returns the unit ket's image scaled."""
    basis = lie_basis(Group.PLO, 2)
    word = [(basis.elements[basis.index_of("e[1,2]")], 0.7), (basis.elements[basis.index_of("E[1,2]")], -0.4)]
    psi = sample_sphere_state(2, 2, seed)
    states, amps = psi.arrays()
    out = apply_group_word(SparseKet.from_arrays(states, 1e20 * amps), word)
    assert_terms_close(scale(1e-20, out).terms, apply_group_word(psi, word).terms, tol=1e-14)


# ------------------------------------------------------------ perturb_state


def test_perturb_zero_epsilon_is_identity():
    psi = basis_ket((1, 0))
    assert perturb_state(psi, 0.0, 2, seed=0) is psi


def test_perturb_returns_normalized_state():
    psi = basis_ket((1, 0))
    out = perturb_state(psi, 1e-3, 2, seed=4)
    assert abs(out.norm() - 1.0) < 1e-12


def test_apply_group_word_refuses_the_zero_ket():
    g = lie_basis(Group.PLO, 2).elements[0]
    with pytest.raises(ValidationError, match="cannot evolve the zero ket"):
        apply_group_word(SparseKet(2, {}), [(g, 0.1)])


def test_a_preserving_word_is_refused_past_its_norm_change_tolerance():
    """A beam splitter keeps the photon number, so only the norm change
    is checked: rounding moves it by 2.2e-16 here, past a 1e-300 tolerance."""
    basis = lie_basis(Group.PLO, 2)
    word = [(basis.elements[basis.index_of("e[1,2]")], 0.3)]
    with pytest.raises(LeakageError, match=r"^group word: norm change 2\.220e-16 exceed tolerance 1\.0e-300 "):
        apply_group_word(sample_sphere_state(2, 2, 3), word, EvolutionConfig(leakage_tolerance=1e-300))
