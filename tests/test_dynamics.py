"""Truncated evolution, beta overlaps, the Gram estimator, and sampling."""

import functools
import math
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
    apply_group_word,
    basis_ket,
    beta,
    dense_hamiltonian,
    estimate_gram_entry,
    estimate_gram_matrix,
    evolve_density,
    gram_mixed,
    lie_basis,
    mixture,
    normalize,
    orbit_dimension,
    outer,
    perturb_state,
    number_shift,
    sample_sphere_state,
)
from orbitdim.dynamics import _blocks
from _helpers import assert_entries_close, assert_terms_close
from _oracle import basis_states, dense_density, dense_ket, generator_matrix, inner


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


@pytest.mark.parametrize("group, m, cutoff", [(Group.GO, 2, 5), (Group.PLO, 3, 4)])
def test_blocks_partition_the_basis_and_reassemble_the_hamiltonian(group, m, cutoff):
    basis = TruncatedBasis.build(m, cutoff)
    elements = lie_basis(group, m).elements
    size = basis.size
    h = np.zeros((len(elements), size, size), dtype=complex)
    seen = []
    for nodes, blocks in _blocks(elements, basis):
        for block_nodes, block in zip(nodes, blocks):
            gen = block_nodes // size
            assert np.all(gen == gen[0])  # a block belongs to one generator
            states = block_nodes % size
            h[gen[0]][np.ix_(states, states)] = block
            seen.extend(block_nodes.tolist())
    assert sorted(seen) == list(range(len(elements) * size))
    for n, g in enumerate(elements):
        # no coupling crosses a block, or it would be missing here
        assert np.array_equal(h[n], dense_hamiltonian(g, basis)), g.label


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


@pytest.mark.parametrize("g, m", _EVERY_KIND, ids=lambda x: getattr(x, "label", str(x)))
def test_evolve_density_matches_dense_propagator(g, m):
    # rank two, with coherences between the two kets' supports
    rho = mixture([(0.6, sample_sphere_state(m, 1, seed=3)), (0.4, sample_sphere_state(m, 2, seed=4))])
    cutoff = _cutoff(g, 2)
    _, index = basis_states(m, cutoff)
    occs = list(index)
    u = _dense_propagator(g, m, cutoff, 0.4)
    expected = u @ dense_density(rho, index) @ u.conj().T
    out = evolve_density(rho, g, 0.4, _SMALL_BUFFER)
    reference = {(a, b): expected[i, j] for i, a in enumerate(occs) for j, b in enumerate(occs)}
    assert_entries_close(out.op.entries, reference, tol=1e-12)


def test_beta_entry_and_matrix_estimates_agree_bitwise():
    rho = mixture([(0.7, normalize(SparseKet(1, {(0,): 1.0, (2,): 0.5j}))), (0.3, basis_ket((1,)))])
    group = Group.GO
    d = len(lie_basis(group, 1))
    est = estimate_gram_matrix(rho, group)

    @functools.cache
    def b(i, j, t):
        return beta(rho, i, j, t, group)

    def dd(i, j, h):
        return (b(i, j, h) - 2.0 * b(i, j, 0.0) + b(i, j, -h)) / (h * h)

    for i in range(1, d + 1):
        for j in range(1, d + 1):
            assert b(i, j, est.step) == b(j, i, est.step)
            entry = estimate_gram_entry(rho, i, j, group)
            assert entry.value == est.values[i - 1, j - 1]
            assert entry.coarse == est.coarse[i - 1, j - 1]
            assert entry.fine == est.fine[i - 1, j - 1]
            for h, stencil in ((est.step, est.coarse), (est.step / 2.0, est.fine)):
                assert 0.5 * (dd(i, j, h) - (dd(i, 0, h) + dd(0, j, h))) == stencil[i - 1, j - 1]


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


# ------------------------------------------------------------ evolve_density


def test_evolve_zero_time_returns_input_unchanged():
    rho = outer(basis_ket((1,)))
    assert evolve_density(rho, GeneratorDescriptor("q", (1,)), 0.0) is rho


def test_evolve_number_operator_fixes_fock_projector():
    rho = outer(basis_ket((1,)))
    out = evolve_density(rho, GeneratorDescriptor("N", (1,)), 0.7)
    assert_entries_close(out.op.entries, rho.op.entries, tol=1e-12)


def test_evolve_displacement_keeps_trace():
    rho = outer(basis_ket((0,)))
    out = evolve_density(rho, GeneratorDescriptor("q", (1,)), 1e-2)
    assert out.trace_residual <= 1e-10


def test_evolve_detects_leakage_with_tiny_buffer():
    rho = outer(basis_ket((0,)))
    cfg = EvolutionConfig(buffer=2, leakage_tolerance=1e-10)
    with pytest.raises(LeakageError):
        evolve_density(rho, GeneratorDescriptor("s", (1,)), 0.5, cfg)


def test_active_evolution_leakage_within_tolerance_at_default_buffer():
    rho = outer(basis_ket((1,)))
    for kind in ("s", "q"):
        out = evolve_density(rho, GeneratorDescriptor(kind, (1,)), 0.1)
        assert out.trace_residual <= 1e-6


@pytest.mark.parametrize("kind, modes, t", [("e", (1, 2), 0.7), ("r", (1, 2), 0.05)])
def test_evolve_density_matches_group_word_on_the_projector(kind, modes, t):
    psi = normalize(SparseKet(2, {(1, 0): 1.0, (0, 2): 0.5j, (1, 1): -0.25}))
    g = GeneratorDescriptor(kind, modes)
    out = evolve_density(outer(psi), g, t)
    assert_entries_close(out.op.entries, outer(apply_group_word(psi, [(g, t)])).op.entries, tol=1e-12)


def test_evolution_config_rejects_nan():
    with pytest.raises(ValueError):
        EvolutionConfig(leakage_tolerance=math.nan)
    with pytest.raises(ValueError):
        EvolutionConfig(step=math.nan)


def test_number_preserving_evolution_exact_at_long_times():
    rho = outer(normalize(SparseKet(2, {(1, 0): 1.0, (0, 1): 0.5j})))
    for kind, modes in (("e", (1, 2)), ("N", (1,))):
        out = evolve_density(rho, GeneratorDescriptor(kind, modes), 50.0)
        assert out.trace_residual <= 1e-10
        assert out.hermiticity_residual <= 1e-12


# -------------------------------------------------------------------- beta


def test_beta_at_zero_time_is_purity():
    cases = [
        (mixture([(0.5, basis_ket((0,))), (0.5, basis_ket((1,)))]), 1, 2, Group.GO, 0.5),
        (outer(basis_ket((0,))), 0, 0, Group.PLO, 1.0),
    ]
    for rho, i, j, group, purity in cases:
        assert abs(beta(rho, i, j, 0.0, group) - purity) < 1e-12


def test_beta_constant_for_commuting_generator():
    rho = outer(basis_ket((1,)))
    basis = lie_basis(Group.GO, 1)
    n_idx = basis.index_of("N[1]") + 1
    for t in (0.05, 0.2):
        assert abs(beta(rho, n_idx, 0, t, Group.GO) - 1.0) < 1e-10


def test_beta_symmetric_in_indices():
    rho = outer(normalize(SparseKet(1, {(0,): 1.0, (1,): 0.5j})))
    for t in (1e-3, 5e-2):
        a = beta(rho, 2, 3, t, Group.GO)
        b = beta(rho, 3, 2, t, Group.GO)
        assert abs(a - b) < 1e-12


def test_beta_index_validation():
    rho = outer(basis_ket((0,)))
    with pytest.raises(ValueError):
        beta(rho, 0, 99, 1e-3, Group.PLO)


# --------------------------------------------------------------- estimation


def test_estimate_identity_pair_is_zero():
    rho = outer(basis_ket((1,)))
    basis = lie_basis(Group.GO, 1)
    idx = basis.index_of("id") + 1
    est = estimate_gram_entry(rho, idx, idx, Group.GO)
    assert abs(est.value) < 1e-12
    assert abs(est.coarse) < 1e-12


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


def test_estimate_squeezing_with_tiny_buffer_raises():
    cfg = EvolutionConfig(buffer=2, leakage_tolerance=1e-10)
    with pytest.raises(LeakageError):
        estimate_gram_matrix(outer(basis_ket((0,))), Group.GO, cfg)


def test_estimate_index_validation():
    rho = outer(basis_ket((0,)))
    with pytest.raises(ValueError):
        estimate_gram_entry(rho, 0, 1, Group.PLO)


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


# ------------------------------------------------------------- group words


def test_empty_word_is_identity():
    psi = basis_ket((1, 1))
    assert apply_group_word(psi, []) is psi


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


@pytest.mark.parametrize("kind", ["q", "N"])  # guard-band check, norm check
def test_group_word_rejects_nan_amplitude(kind):
    with pytest.raises(LeakageError):
        apply_group_word(SparseKet(1, {(1,): math.nan}), [(GeneratorDescriptor(kind, (1,)), 0.1)])


def test_squeezing_word_with_tiny_buffer_raises():
    cfg = EvolutionConfig(buffer=2, leakage_tolerance=1e-10)
    with pytest.raises(LeakageError):
        apply_group_word(basis_ket((0,)), [(GeneratorDescriptor("s", (1,)), 0.5)], cfg)


# ------------------------------------------------------------ perturb_state


def test_perturb_zero_epsilon_is_identity():
    psi = basis_ket((1, 0))
    assert perturb_state(psi, 0.0, 2, seed=0) is psi


def test_perturb_returns_normalized_state():
    psi = basis_ket((1, 0))
    out = perturb_state(psi, 1e-3, 2, seed=4)
    assert abs(out.norm() - 1.0) < 1e-12


def test_perturb_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        perturb_state(basis_ket((1, 0)), 1e-3, 2, seed=0, m=3)
