"""Truncated evolution, beta overlaps, the Gram estimator, and sampling."""

import functools
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
    beta,
    dense_hamiltonian,
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
    scale,
)
from orbitdim import dynamics, generators
from orbitdim.dynamics import _blocks, _Workspace
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


def _assert_beta_entries_equal_the_estimate_stencils(state, group):
    """Each entry ``beta`` evolves on its own gives the estimate's coarse
    and fine stencils bit for bit, and beta_ij = beta_ji."""
    d = len(lie_basis(group, state.modes))
    est = estimate_gram_matrix(state, group)

    @functools.cache
    def b(i, j, t):
        return beta(state, i, j, t, group)

    def dd(i, j, h):
        return (b(i, j, h) - 2.0 * b(i, j, 0.0) + b(i, j, -h)) / (h * h)

    for i in range(1, d + 1):
        for j in range(1, d + 1):
            assert b(i, j, est.step) == b(j, i, est.step)
            for h, stencil in ((est.step, est.coarse), (est.step / 2.0, est.fine)):
                assert 0.5 * (dd(i, j, h) - (dd(i, 0, h) + dd(0, j, h))) == stencil[i - 1, j - 1]


def test_beta_entry_and_matrix_estimates_agree_bitwise():
    rho = mixture([(0.7, normalize(SparseKet(1, {(0,): 1.0, (2,): 0.5j}))), (0.3, basis_ket((1,)))])
    _assert_beta_entries_equal_the_estimate_stencils(rho, Group.GO)


def test_go_estimate_allocates_less_than_its_copies_on_the_whole_basis():
    """The copies, their leakage check and their overlaps live on the rows
    the support's blocks reach, so a GO estimate of |1,0,0> allocates less
    than one complex array of 4 x d x D entries (the four stencil times, d =
    28 generators, D = 1,140). The spectra are cached per process, so the
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


# ------------------------------------------------------------ evolve_density


def test_evolve_zero_time_returns_input_unchanged():
    rho = outer(basis_ket((1,)))
    assert evolve_density(rho, GeneratorDescriptor("q", (1,)), 0.0) is rho


def test_evolve_number_operator_fixes_fock_projector():
    rho = outer(basis_ket((1,)))
    out = evolve_density(rho, GeneratorDescriptor("N", (1,)), 0.7)
    assert_entries_close(out.op.entries, rho.op.entries, tol=1e-12)


def test_evolve_density_support_is_the_states_of_its_nonzero_entries():
    """A PLO beam splitter moves |1,0> within the one-photon states; the
    vacuum, part of the working basis, carries no entry and stays out."""
    out = evolve_density(outer(basis_ket((1, 0))), GeneratorDescriptor("e", (1, 2)), 0.3)
    assert out.support.tolist() == [[0, 1], [1, 0]]
    nonzero = out.matrix != 0
    assert (nonzero.any(axis=0) | nonzero.any(axis=1)).all()


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


@pytest.mark.parametrize(
    "knobs",
    [{"step": math.inf}, {"leakage_tolerance": math.inf}, {"step": 1e-300}, {"step": 1e-170}],
    ids=["inf step", "inf tolerance", "step 1e-300", "step 1e-170"],
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
    with pytest.raises(ValueError, match="finite"):
        evolve_density(outer(psi), g, t)
    with pytest.raises(ValueError, match="finite"):
        beta(outer(psi), 1, 1, t, Group.GO)


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


def test_overlaps_and_gram_that_overflow_are_refused():
    """A density with off-diagonal entries of 1e160 passes validation; its
    overlaps and its mixed-picture Gram overflow, and every entry point
    refuses them, with no warning."""
    keys = np.array([[[1, 0], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [0, 1]]], dtype=np.int64)
    rho = DensityOperator.from_entries(keys, np.array([0.5, 1e160, 1e160, 0.5]))
    with pytest.raises(ValidationError, match="beta overlap is not finite"):
        beta(rho, 0, 0, 0.0, Group.GO)
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
    assert beta(scale(3.0, psi), 1, 2, 0.1, group) == pytest.approx(beta(psi, 1, 2, 0.1, group), abs=1e-12)


def test_zero_ket_is_refused():
    zero = SparseKet(2, {})
    with pytest.raises(ValidationError, match="zero ket"):
        estimate_gram_matrix(zero, Group.GO)
    with pytest.raises(ValidationError, match="zero ket"):
        beta(zero, 0, 1, 0.1, Group.PLO)


def test_go_ket_estimate_traces_no_support_columns():
    """The GO estimate of an m = 3, N = 3 sphere ket (S = 20) evolves one
    column, not the S columns of its outer product: its traced peak stays
    below 16 MiB, where the S-column estimate peaks near 75 MiB. The spectra
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


@pytest.mark.parametrize("state", ["m1_sphere", "m2_fock", "m2_sphere", "m2_rank2"])
@pytest.mark.parametrize("group", list(Group))
def test_overlaps_on_the_reached_rows_match_dense_propagators(group, state):
    """beta_ij = Tr[rho_i rho_j] from the blocks that reach the support,
    at every time of one batch, equals the overlaps of copies evolved by
    dense propagators on the whole truncated basis."""
    rho = {
        "m1_sphere": lambda: outer(sample_sphere_state(1, 2, seed=5)),
        "m2_fock": lambda: outer(basis_ket((1, 0))),
        "m2_sphere": lambda: outer(sample_sphere_state(2, 2, seed=6)),
        "m2_rank2": lambda: mixture([(0.6, sample_sphere_state(2, 1, seed=3)), (0.4, sample_sphere_state(2, 2, seed=4))]),
    }[state]()
    elements = lie_basis(group, rho.modes).elements
    ws = dynamics._DensityWorkspace(rho, elements, _SMALL_BUFFER)
    times = np.array([0.0, 0.37, -0.21])
    got = ws.beta_matrix(times)
    m, cutoff = rho.modes, ws.basis.cutoff
    _, index = basis_states(m, cutoff)
    dense = dense_density(rho, index)
    for k, t in enumerate(times):
        propagators = [_dense_propagator(g, m, cutoff, t) for g in elements]
        copies = [dense] + [u @ dense @ u.conj().T for u in propagators]
        expected = np.array([[np.trace(a @ b).real for b in copies] for a in copies])
        assert np.abs(got[k] - expected).max() <= 1e-12
    if state == "m2_fock" and group is not Group.PLO:
        assert len(ws.rows) < ws.basis.size  # the restriction is exercised


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


# ------------------------------------------------- per-process spectra cache


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(generators, "_cache", generators._Store())


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _cached_arrays():
    for value, _ in generators._cache.values():
        if isinstance(value[0], dict):  # spectra: size -> (nodes, eigenvalues, eigenvectors), block map
            yield from (a for piece in value[0].values() for a in piece)
            yield value[1]
        else:  # basis, D x m states, guard band; or a plan: its table, then its arrays
            yield from value[1:]


def test_second_workspace_calls_no_eigh(empty_cache, eigh_calls):
    elements = lie_basis(Group.GO, 2).elements
    first = _Workspace(2, 1, elements, EvolutionConfig())
    assert eigh_calls
    eigh_calls.clear()
    second = _Workspace(2, 1, elements, EvolutionConfig())
    assert eigh_calls == []
    assert second.basis is first.basis
    for a, b in zip(first.blocks, second.blocks, strict=True):
        for x, y in zip(a, b, strict=True):
            assert np.array_equal(x, y)


def test_go_word_reuses_the_spectra_of_an_estimate(empty_cache, eigh_calls):
    estimate_gram_matrix(outer(basis_ket((1, 0))), Group.GO)
    eigh_calls.clear()
    basis = lie_basis(Group.GO, 2)
    word = [(basis.elements[basis.index_of(label)], 0.05) for label in ("q[1]", "S[2]", "E[1,2]", "N[2]", "r[1,2]")]
    psi = sample_sphere_state(2, 1, seed=3)
    out = apply_group_word(psi, word)
    assert eigh_calls == []
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


def test_cached_arrays_are_read_only(empty_cache):
    _Workspace(2, 1, lie_basis(Group.GO, 2).elements, EvolutionConfig())
    arrays = list(_cached_arrays())
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][...] = 0


def test_cache_evicts_least_recently_used_past_its_budget(empty_cache, monkeypatch):
    g1, g2, g3 = GeneratorDescriptor("e", (1, 2)), GeneratorDescriptor("E", (1, 2)), GeneratorDescriptor("N", (1,))
    cfg = EvolutionConfig()
    for g in (g1, g2, g1):  # g2 is now the least recently used
        _Workspace(2, 3, [g], cfg)
    total = sum(size for _, size in generators._cache.values())
    monkeypatch.setattr(generators, "_CACHE_BUDGET", total)
    ws = _Workspace(2, 3, [g3], cfg)
    kept = sum(size for _, size in generators._cache.values())
    assert kept <= total
    assert list(generators._cache) == [(g1, 2, 3), ("basis", 2, 3), (g3, 2, 3)]
    # past a budget of 0 nothing is kept, and evolution still works
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 0)
    again = _Workspace(2, 3, [g3], cfg)
    assert not generators._cache
    x = ws.column(basis_ket((1, 2)))
    assert np.array_equal(again.evolve(0.3, x), ws.evolve(0.3, x))


def test_cache_evicts_least_recently_used_across_bases_spectra_and_plans(empty_cache, monkeypatch):
    g = GeneratorDescriptor("e", (1, 2))
    cfg = EvolutionConfig()
    psi = basis_ket((1, 0))
    _Workspace(2, 12, [g], cfg)
    orbit_dimension(Group.GO, psi, Picture.KET)
    (go_plan,) = [key for key in generators._cache if key[0] == "plan"]
    _Workspace(2, 12, [g], cfg)  # the basis and the spectrum are used again,
    orbit_dimension(Group.GO, psi, Picture.KET)  # then the plan
    assert list(generators._cache) == [("basis", 2, 12), (g, 2, 12), go_plan]
    # a smaller PLO plan than the basis: dropping the basis makes room
    monkeypatch.setattr(generators, "_CACHE_BUDGET", generators._cache.nbytes)
    orbit_dimension(Group.PLO, psi, Picture.KET)
    (plo_plan,) = [key for key in generators._cache if key[0] == "plan" and key != go_plan]
    assert list(generators._cache) == [(g, 2, 12), go_plan, plo_plan]
    assert generators._cache.nbytes == sum(size for _, size in generators._cache.values())


def test_cache_survives_concurrent_workspaces(empty_cache, monkeypatch):
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 8192)  # every build evicts
    elements = lie_basis(Group.GO, 1).elements
    cfg = EvolutionConfig(buffer=2)

    def evolved(max_total):
        ws = _Workspace(1, max_total, elements, cfg)
        return ws.evolve(0.3, ws.column(basis_ket((max_total,))), 0, len(elements))

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
