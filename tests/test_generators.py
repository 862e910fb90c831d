"""Generator catalogue, Lie bases, generator actions, and closure checks."""

import math

import numpy as np
import pytest

from orbitdim import (
    GeneratorDescriptor,
    Group,
    LieBasis,
    SparseKet,
    TruncatedBasis,
    apply_generator,
    apply_group_word,
    basis_ket,
    commutator_with_density,
    default_closure_probes,
    dense_hamiltonian,
    evolve_density,
    lie_basis,
    mixture,
    normalize,
    number_shift,
    outer,
    verify_closure,
)
import orbitdim.generators as generators
from _helpers import assert_entries_close, assert_terms_close, random_ket
import _oracle
from _oracle import basis_states, dense_ket, generator_matrix, inner, oracle_apply

_DIM_FORMULA = {
    Group.PLO: lambda m: m * m,
    Group.DPLO: lambda m: m * m + 2 * m + 1,
    Group.ALO: lambda m: 2 * m * m + m,
    Group.GO: lambda m: 2 * m * m + 3 * m + 1,
}


@pytest.mark.parametrize("group", list(Group))
@pytest.mark.parametrize("m", range(1, 9))
def test_basis_length_matches_group_dimension(group, m):
    basis = lie_basis(group, m)
    assert len(basis) == _DIM_FORMULA[group](m) == group.dimension(m)


def test_basis_order_plo_m2():
    assert lie_basis(Group.PLO, 2).labels == ("e[1,2]", "E[1,2]", "N[1]", "N[2]")


def test_basis_order_go_m1():
    assert lie_basis(Group.GO, 1).labels == ("N[1]", "q[1]", "p[1]", "id", "s[1]", "S[1]")


def test_basis_dplo_m3_has_16_elements():
    assert len(lie_basis(Group.DPLO, 3)) == 16


def test_basis_rejects_bad_mode_count():
    with pytest.raises(ValueError):
        lie_basis(Group.PLO, 0)


def test_basis_is_shared_per_group_and_mode_count():
    assert lie_basis(Group.GO, 3) is lie_basis(Group.GO, 3)
    assert lie_basis(Group.GO, 3) is not lie_basis(Group.ALO, 3)
    for _ in range(2):  # a refused mode count is refused every time
        with pytest.raises(ValueError):
            lie_basis(Group.GO, 0)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GeneratorDescriptor("e", (2, 1))
    with pytest.raises(ValueError):
        GeneratorDescriptor("N", (1, 2))
    with pytest.raises(ValueError):
        GeneratorDescriptor("I", (1,))
    with pytest.raises(ValueError):
        GeneratorDescriptor("z", (1,))


def test_beam_splitter_on_one_photon():
    out = apply_generator(GeneratorDescriptor("e", (1, 2)), basis_ket((1, 0)))
    assert_terms_close(out.terms, {(0, 1): 0.5})


def test_phase_shifter_is_diagonal():
    out = apply_generator(GeneratorDescriptor("N", (1,)), basis_ket((3, 2)))
    assert_terms_close(out.terms, {(3, 2): 3.0})


def test_position_displacement_on_vacuum():
    out = apply_generator(GeneratorDescriptor("q", (1,)), basis_ket((0,)))
    assert_terms_close(out.terms, {(1,): 1.0 / math.sqrt(2)})


def test_momentum_displacement_on_vacuum():
    out = apply_generator(GeneratorDescriptor("p", (1,)), basis_ket((0,)))
    assert_terms_close(out.terms, {(1,): 1j / math.sqrt(2)})


def test_single_mode_squeezers_on_vacuum():
    out = apply_generator(GeneratorDescriptor("s", (1,)), basis_ket((0,)))
    assert_terms_close(out.terms, {(2,): math.sqrt(2) / 2})
    out = apply_generator(GeneratorDescriptor("S", (1,)), basis_ket((0,)))
    assert_terms_close(out.terms, {(2,): 1j * math.sqrt(2) / 2})


def test_two_mode_squeezers_on_vacuum():
    out = apply_generator(GeneratorDescriptor("r", (1, 2)), basis_ket((0, 0)))
    assert_terms_close(out.terms, {(1, 1): 0.5})
    out = apply_generator(GeneratorDescriptor("R", (1, 2)), basis_ket((0, 0)))
    assert_terms_close(out.terms, {(1, 1): 0.5j})


def test_identity_returns_state():
    psi = normalize(SparseKet(2, {(0, 1): 1.0, (2, 0): 1.0j}))
    assert apply_generator(GeneratorDescriptor("I"), psi).terms == psi.terms


def _all_descriptors(m):
    return lie_basis(Group.GO, m).elements


@pytest.mark.parametrize("m", [1, 2, 3])
def test_generator_hermiticity_on_random_states(m):
    rng = np.random.default_rng(100 + m)
    phi, psi = random_ket(rng, m), random_ket(rng, m)
    for g in _all_descriptors(m):
        lhs = inner(phi, apply_generator(g, psi))
        rhs = inner(psi, apply_generator(g, phi)).conjugate()
        assert abs(lhs - rhs) < 1e-12, g.label


@pytest.mark.parametrize("m", [1, 2])
def test_photon_number_shift_structure(m):
    from orbitdim import enumerate_occupations

    for start in enumerate_occupations(m, 3):
        n = sum(start)
        for g in _all_descriptors(m):
            out = apply_generator(g, basis_ket(start))
            shift = number_shift(g.kind)
            allowed = {n} if shift == 0 else {n - shift, n + shift}
            for occ in out.terms:
                assert sum(occ) in allowed, (g.label, start, occ)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_apply_generator_matches_dense_oracle(m):
    rng = np.random.default_rng(2000 + m)
    psi = random_ket(rng, m)
    for g in _all_descriptors(m):
        expected = oracle_apply(g, psi)
        assert_terms_close(apply_generator(g, psi).terms, expected, tol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_wrappers_match_dict_oracle(m):
    rng = np.random.default_rng(3000 + m)
    psi = random_ket(rng, m)
    rho = mixture([(0.3, random_ket(rng, m)), (0.7, random_ket(rng, m))])
    for g in _all_descriptors(m):
        expected = _oracle.apply_generator(g, psi).terms
        assert_terms_close(apply_generator(g, psi).terms, expected, tol=1e-12)
        expected = _oracle.commutator_with_density(g, rho).entries
        assert_entries_close(commutator_with_density(g, rho).entries, expected, tol=1e-12)


@pytest.mark.parametrize("m", [1, 2])
def test_apply_generator_on_zero_ket(m):
    for g in _all_descriptors(m):
        assert apply_generator(g, SparseKet(m, {})).is_zero()


@pytest.mark.parametrize(
    "call",
    [
        lambda g: apply_generator(g, basis_ket((1,))),
        lambda g: commutator_with_density(g, outer(basis_ket((1,)))),
        lambda g: apply_group_word(basis_ket((1,)), [(g, 0.1)]),
        lambda g: evolve_density(outer(basis_ket((1,))), g, 0.1),
        lambda g: dense_hamiltonian(g, TruncatedBasis.build(1, 2)),
    ],
    ids=["apply_generator", "commutator_with_density", "apply_group_word", "evolve_density", "dense_hamiltonian"],
)
def test_generator_beyond_the_register_is_refused(call):
    with pytest.raises(ValueError, match="exceeds the 1-mode register"):
        call(GeneratorDescriptor("e", (1, 2)))


def test_commutator_with_diagonal_density_vanishes():
    rho = outer(basis_ket((1,)))
    comm = commutator_with_density(GeneratorDescriptor("N", (1,)), rho)
    assert comm.is_zero()


def test_commutator_with_identity_vanishes():
    rho = outer(normalize(SparseKet(1, {(0,): 1.0, (1,): 0.5})))
    assert commutator_with_density(GeneratorDescriptor("I"), rho).is_zero()


def test_commutator_displacement_with_vacuum_projector():
    rho = outer(basis_ket((0,)))
    comm = commutator_with_density(GeneratorDescriptor("q", (1,)), rho)
    amp = 1.0 / math.sqrt(2)
    assert_entries_close(comm.entries, {((1,), (0,)): amp, ((0,), (1,)): -amp})


@pytest.mark.parametrize("group", [Group.PLO, Group.DPLO, Group.GO])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_closure_residuals_small(group, m):
    report = verify_closure(group, m)
    assert report.max_residual < 1e-10
    assert report.min_normal_eigenvalue > 0


def test_closure_coefficients_for_beam_splitter_pair():
    report = verify_closure(Group.PLO, 2)
    pair = (0, 1)  # (e[1,2], E[1,2]) in the canonical order
    assert report.residuals[pair] < 1e-10
    assert abs(report.coefficient(pair, "N[1]") - 0.5) < 1e-10
    assert abs(report.coefficient(pair, "N[2]") + 0.5) < 1e-10
    assert abs(report.coefficient(pair, "e[1,2]")) < 1e-10
    # mirrored pair carries the negated coefficients
    assert abs(report.coefficient((1, 0), "N[1]") + 0.5) < 1e-10


@pytest.mark.parametrize(
    "group, extra", [(Group.GO, []), (Group.ALO, [GeneratorDescriptor("I")])], ids=["go", "alo+id"]
)
def test_closure_coefficients_match_dense_commutators(group, extra):
    """Every fitted coefficient reproduces the dense commutator on every
    default probe: (H_J H_I - H_I H_J) psi = sum_K c_K iH_K psi. Cutoff 6
    holds H_J H_I psi exactly for probes of at most two photons."""
    m, cutoff = 2, 6
    report = verify_closure(group, m, extra_fit=extra)
    basis = lie_basis(group, m).elements
    _, index = basis_states(m, cutoff)
    mats = [generator_matrix(g, m, cutoff) for g in basis]
    by_label = {g.label: g for g in basis + tuple(extra)}
    fit = [generator_matrix(by_label[label], m, cutoff) for label in report.fit_labels]
    for psi in default_closure_probes(m):
        v = dense_ket(psi, index)
        directions = np.array([1j * (h @ v) for h in fit])
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                target = mats[j] @ (mats[i] @ v) - mats[i] @ (mats[j] @ v)
                fitted = report.coefficients[(i, j)] @ directions
                assert np.max(np.abs(fitted - target)) < 1e-10, (basis[i].label, basis[j].label)


def test_closure_counts_target_rows_outside_the_fitted_union(monkeypatch):
    """The residual keeps the norm of target rows that no fitted direction
    reaches. A closed basis has none, so this takes a two-element set that
    is not closed: [q_1, r_12] is linear in a_2 and a_2^dag, and on the
    vacuum it lands on |0,1>, which neither q_1 nor r_12 reaches."""
    fake = LieBasis(Group.PLO, 2, (GeneratorDescriptor("q", (1,)), GeneratorDescriptor("r", (1, 2))))
    monkeypatch.setattr(generators, "lie_basis", lambda group, m: fake)
    monkeypatch.setattr(generators, "_monomial_table", lambda group, m: generators._monomials(fake.elements))
    report = verify_closure(Group.PLO, 2, probes=[basis_ket((0, 0))])
    # [iq_1, ir_12]|0,0> = -[q_1, r_12]|0,0> = -|0,1> / (2 sqrt 2)
    assert abs(report.residuals[(0, 1)] - 1.0 / math.sqrt(8.0)) < 1e-12


def test_closure_excluding_phase_shifter_breaks_fit():
    report = verify_closure(Group.PLO, 2, exclude=[GeneratorDescriptor("N", (1,))])
    assert "N[1]" not in report.fit_labels
    assert report.residuals[(0, 1)] >= 0.1


def test_closure_empty_probes_rejected():
    with pytest.raises(ValueError):
        verify_closure(Group.PLO, 2, probes=[])


@pytest.mark.parametrize("m", [1, 2])
def test_alo_closes_only_modulo_identity(m):
    """The squeezer commutators [s,S] = i(2N+1) and [r,R] = (i/2)(N_k+N_l+1)
    carry identity components, so the ALO set (which has no identity element)
    is not commutator-closed as given; adjoining the identity to the fitting
    set closes it numerically."""
    faithful = verify_closure(Group.ALO, m)
    assert faithful.max_residual > 0.1
    fixed = verify_closure(Group.ALO, m, extra_fit=[GeneratorDescriptor("I")])
    assert fixed.max_residual < 1e-10
    if m == 1:
        basis = lie_basis(Group.ALO, 1)
        pair = (basis.index_of("s[1]"), basis.index_of("S[1]"))
        # [is, iS] = -i(2N + 1): coefficient -2 on iN, -1 on the identity
        assert abs(fixed.coefficient(pair, "N[1]") + 2.0) < 1e-10
        assert abs(fixed.coefficient(pair, "id") + 1.0) < 1e-10
