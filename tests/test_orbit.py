"""Gram matrices, rank policy, closed forms, genericity, witness, CNOT demo."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from orbitdim import (
    Exactness,
    FockBasisState,
    GramMatrix,
    Group,
    NoonState,
    OneModeSuperposition,
    Picture,
    PictureError,
    SparseKet,
    ValidationError,
    basis_ket,
    closed_form,
    cnot_demo,
    generic_dimension,
    gram_ket,
    gram_ketbra,
    gram_matrix,
    gram_mixed,
    lie_basis,
    mixture,
    nongaussianity_witness,
    normalize,
    orbit_dimension,
    outer,
    perturb_state,
    rank_psd,
    sample_sphere_state,
    scale,
    uniform_phase_state,
)
from _helpers import kets, random_ket
from _oracle import (
    basis_states,
    dense_density,
    generator_expectations,
    gram_ket_expectation,
    gram_ketbra_covariance,
    gram_mixed_trace,
    oracle_gram_ket,
    oracle_gram_ketbra,
    oracle_gram_mixed,
    oracle_ket_rank,
)


# ---------------------------------------------------------------- gram_ket


def test_gram_ket_vacuum_plo_is_zero():
    gram = gram_ket(Group.PLO, basis_ket((0, 0)))
    assert gram.values.shape == (4, 4)
    assert np.all(gram.values == 0.0)
    assert rank_psd(gram).rank == 0


def test_gram_ket_single_photon_plo():
    gram = gram_ket(Group.PLO, basis_ket((1,)))
    assert gram.values.shape == (1, 1)
    assert abs(gram.values[0, 0] - 1.0) < 1e-14
    assert rank_psd(gram).rank == 1


def test_gram_ket_global_phase_invariance():
    psi = normalize(SparseKet(2, {(0, 1): 1.0, (2, 0): 0.5j, (1, 1): -0.25}))
    base = gram_ket(Group.GO, psi).values
    for phi in (0.3, math.pi / 2, 2.1):
        rotated = gram_ket(Group.GO, scale(cmath.exp(1j * phi), psi)).values
        assert np.abs(rotated - base).max() <= 1e-12


def test_gram_ket_rejects_unnormalized():
    with pytest.raises(ValidationError, match="norm"):
        gram_ket(Group.PLO, scale(2.0, basis_ket((1,))))


def test_orbit_dimension_rejects_nan_amplitude():
    # N annihilates the vacuum, so only the norm check can see this NaN
    with pytest.raises(ValidationError, match="norm"):
        orbit_dimension(Group.PLO, SparseKet(1, {(0,): math.nan}), Picture.KET)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("group", list(Group))
def test_gram_ket_matches_dense_oracle(group, m):
    rng = np.random.default_rng(10 + m)
    psi = normalize(random_ket(rng, m, max_photons=2))
    ours = gram_ket(group, psi).values
    assert np.abs(ours - oracle_gram_ket(group, psi)).max() < 1e-12


# ------------------------------------------------------------- gram_ketbra


def test_gram_ketbra_single_photon_plo_is_zero():
    gram = gram_ketbra(Group.PLO, basis_ket((1,)))
    assert np.all(gram.values == 0.0)
    assert rank_psd(gram).rank == 0


def test_gram_ketbra_vacuum_go_rank_is_gaussian_orbit_dimension():
    assert rank_psd(gram_ketbra(Group.GO, basis_ket((0, 0)))).rank == 10


@pytest.mark.parametrize("group", list(Group))
def test_gram_ketbra_equals_twice_centered_gram_ket(group):
    rng = np.random.default_rng(77)
    psi = normalize(random_ket(rng, 2, max_photons=2))
    gk = gram_ket(group, psi).values
    gkb = gram_ketbra(group, psi).values
    v = generator_expectations(group, psi)
    assert np.abs(gkb - 2.0 * (gk - np.outer(v, v))).max() < 1e-10


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("group", list(Group))
def test_gram_ketbra_matches_dense_oracle(group, m):
    rng = np.random.default_rng(20 + m)
    psi = normalize(random_ket(rng, m, max_photons=2))
    ours = gram_ketbra(group, psi).values
    assert np.abs(ours - oracle_gram_ketbra(group, psi)).max() < 1e-11


# -------------------------------------------------------------- gram_mixed


def test_gram_mixed_matches_gram_ketbra_on_pure_states():
    rng = np.random.default_rng(3)
    psi = normalize(random_ket(rng, 2, max_photons=2))
    for group in Group:
        a = gram_mixed(group, outer(psi)).values
        b = gram_ketbra(group, psi).values
        assert np.abs(a - b).max() <= 1e-10


def test_gram_mixed_diagonal_mixture_plo_is_zero():
    rho = mixture([(0.5, basis_ket((0,))), (0.5, basis_ket((1,)))])
    gram = gram_mixed(Group.PLO, rho)
    assert np.all(gram.values == 0.0)
    assert rank_psd(gram).rank == 0


@pytest.mark.parametrize("group", [Group.DPLO, Group.GO])
def test_gram_mixed_identity_row_is_zero(group):
    rng = np.random.default_rng(5)
    psi = normalize(random_ket(rng, 1, max_photons=2))
    rho = outer(psi)
    for gram in (gram_mixed(group, rho), gram_ketbra(group, psi)):
        idx = gram.basis.index_of("id")
        assert np.all(gram.values[idx, :] == 0.0)
        assert np.all(gram.values[:, idx] == 0.0)


def test_gram_mixed_trace_and_commutator_paths_agree():
    rng = np.random.default_rng(6)
    rho = mixture(
        [
            (0.3, normalize(random_ket(rng, 1, max_photons=2))),
            (0.7, normalize(random_ket(rng, 1, max_photons=2))),
        ]
    )
    for group in Group:
        a = gram_mixed(group, rho).values
        b = gram_mixed_trace(group, rho)
        assert np.abs(a - b).max() <= 1e-10


def test_gram_mixed_matches_dense_oracle_on_proper_mixture():
    rng = np.random.default_rng(8)
    rho = mixture(
        [
            (0.4, normalize(random_ket(rng, 2, max_photons=2))),
            (0.6, normalize(random_ket(rng, 2, max_photons=2))),
        ]
    )
    for group in (Group.PLO, Group.GO):
        ours = gram_mixed(group, rho).values
        assert np.abs(ours - oracle_gram_mixed(group, rho)).max() < 1e-11


_THREE_MODE_KETS = {
    "sphere": lambda: sample_sphere_state(3, 3, 31),
    "noon": lambda: NoonState(3, (1,)).to_ket(),  # sparse, non-contiguous support
}


@pytest.mark.parametrize("state", sorted(_THREE_MODE_KETS))
@pytest.mark.parametrize("group", list(Group))
def test_gram_builders_match_dense_oracle_at_three_modes(group, state):
    psi = _THREE_MODE_KETS[state]()
    rho = outer(psi)
    assert np.abs(gram_ket(group, psi).values - oracle_gram_ket(group, psi)).max() < 1e-11
    assert np.abs(gram_ketbra(group, psi).values - oracle_gram_ketbra(group, psi)).max() < 1e-11
    mixed = oracle_gram_mixed(group, rho)
    assert np.abs(gram_mixed(group, rho).values - mixed).max() < 1e-11
    assert np.abs(gram_matrix(group, psi, Picture.MIXED).values - mixed).max() < 1e-11


@pytest.mark.parametrize("group", list(Group))
def test_gram_mixed_matches_dense_oracle_on_rank3_mixture_at_three_modes(group):
    rho = mixture([(w, sample_sphere_state(3, 3, seed)) for w, seed in ((0.5, 41), (0.3, 42), (0.2, 43))])
    _, index = basis_states(3, 3)
    assert np.linalg.matrix_rank(dense_density(rho, index), tol=1e-10) == 3
    ours = gram_mixed(group, rho).values
    assert np.abs(ours - oracle_gram_mixed(group, rho)).max() < 1e-11


def test_gram_mixed_requires_density_operator():
    with pytest.raises(PictureError):
        gram_mixed(Group.PLO, basis_ket((1,)))


# ------------------------------------------------------- expectation paths


@pytest.mark.parametrize("group", list(Group))
def test_expectation_form_cross_checks(group):
    rng = np.random.default_rng(11)
    psi = normalize(random_ket(rng, 2, max_photons=2))
    assert np.abs(gram_ket(group, psi).values - gram_ket_expectation(group, psi)).max() < 1e-10
    assert np.abs(gram_ketbra(group, psi).values - gram_ketbra_covariance(group, psi)).max() < 1e-10


# ----------------------------------------------------------------- rank_psd


def test_rank_psd_zero_matrix():
    result = rank_psd(np.zeros((3, 3)))
    assert result.rank == 0
    assert result.relative


def test_rank_psd_identity():
    result = rank_psd(np.eye(5))
    assert result.rank == 5
    assert abs(result.tolerance_used - 1e-8) < 1e-20


def test_rank_psd_drops_tiny_eigenvalue_under_default_policy():
    result = rank_psd(np.diag([1.0, 1e-12]))
    assert result.rank == 1


def test_rank_psd_explicit_absolute_tolerance():
    result = rank_psd(np.diag([1.0, 1e-12]), tolerance=1e-13)
    assert result.rank == 2
    assert not result.relative


def test_rank_psd_eigenvalues_descending():
    result = rank_psd(np.diag([0.5, 2.0, 1.0]))
    assert result.eigenvalues == tuple(sorted(result.eigenvalues, reverse=True))


def test_rank_psd_rejects_nan():
    bad = np.full((2, 2), np.nan)
    with pytest.raises(ValidationError):
        rank_psd(bad)
    with pytest.raises(ValidationError):  # no eigenvalue exceeds NaN: rank 0
        rank_psd(np.eye(2), tolerance=math.nan)


def test_rank_psd_rejects_infinite_entries():
    """An infinite entry would give NaN eigenvalues, or an infinite default
    tolerance, and rank 0."""
    for bad in (np.diag([math.inf, 1.0]), np.array([[math.inf]]), np.diag([-math.inf, 1.0])):
        with pytest.raises(ValidationError, match="infinite entries"):
            rank_psd(bad)


@pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.inf, -math.inf])
def test_rank_psd_rejects_negative_or_infinite_tolerance(tolerance):
    with pytest.raises(ValidationError, match="rank tolerance"):
        rank_psd(np.eye(2), tolerance=tolerance)


@pytest.mark.parametrize(
    "shape", [(2, 3), (3,), (2, 2, 2), ()], ids=["rectangular", "vector", "stack", "scalar"]
)
def test_rank_psd_rejects_an_array_that_is_not_a_square_matrix(shape):
    """Refused before the eigensolve, whose errors would name no shape."""
    with pytest.raises(ValidationError, match=rf"shape {re.escape(str(shape))} is not that of a square matrix"):
        rank_psd(np.ones(shape))


def test_rank_psd_rejects_indefinite_matrix():
    with pytest.raises(ValidationError):
        rank_psd(np.diag([1.0, -0.5]))


def test_rank_psd_refuses_an_asymmetric_array_as_gram_matrix_does():
    """eigvalsh reads one triangle: [[1, 5], [0, 1]] would rank 2 with
    eigenvalues (1, 1). A raw array passes the Gram check, so it is refused
    with the asymmetry, and an asymmetry within the tolerance is kept."""
    with pytest.raises(ValidationError, match="Gram asymmetry 5.000e[+]00 exceeds 1.0e-12"):
        rank_psd(np.array([[1.0, 5.0], [0.0, 1.0]]))
    values = np.eye(2)
    values[0, 1] = 1e-13
    assert rank_psd(values).rank == 2


# --------------------------------------------------------------- GramMatrix


def _plo_gram(values) -> GramMatrix:
    return GramMatrix(Picture.KET, values, lie_basis(Group.PLO, 2))


def test_gram_matrix_refuses_a_shape_off_the_group_dimension():
    with pytest.raises(ValidationError, match=r"shape \(3, 3\) does not match dimension 4"):
        _plo_gram(np.eye(3))


def test_gram_matrix_refuses_an_asymmetry_above_its_tolerance():
    values = np.eye(4)
    values[0, 1] = 1e-11
    with pytest.raises(ValidationError, match="asymmetry 1.000e-11 exceeds 1.0e-12"):
        _plo_gram(values)
    values[0, 1] = 1e-13  # within the tolerance: kept as given
    assert _plo_gram(values).values[0, 1] == 1e-13


@pytest.mark.parametrize(
    "entry, mirror",
    [(math.nan, 0.0), (math.inf, math.inf), (-math.inf, -math.inf)],
    ids=["nan", "inf_pair", "minus_inf_pair"],
)
def test_gram_matrix_refuses_non_finite_entries(entry, mirror):
    """A symmetric pair of infinities passes an exact symmetry test; its
    difference with its mirror entry is NaN, so it is refused as well."""
    values = np.eye(4)
    values[0, 1], values[1, 0] = entry, mirror
    with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="not finite"):
        _plo_gram(values)


@pytest.mark.parametrize("action", ["error", "ignore", "always", "default"])
@pytest.mark.parametrize(
    "entry, mirror, at",
    [(math.inf, math.inf, (0, 1)), (-math.inf, -math.inf, (0, 1)), (math.inf, math.inf, (2, 2))],
    ids=["inf_pair", "minus_inf_pair", "inf_diagonal"],
)
def test_gram_matrix_refuses_non_finite_entries_under_every_warnings_filter(action, entry, mirror, at):
    """inf - inf warns before the refusal; whatever the warnings filter
    makes of that warning, with no np.errstate at the caller, the Gram is
    refused with a ValidationError."""
    values = np.eye(4)
    values[at], values[at[::-1]] = entry, mirror
    with warnings.catch_warnings(record=True):
        warnings.simplefilter(action)
        with pytest.raises(ValidationError, match="not finite"):
            _plo_gram(values)


def test_gram_matrix_keeps_its_own_copy_of_a_view():
    base = np.eye(4)
    gram = _plo_gram(base[:])
    base[0, 1] = 3.0
    assert gram.values[0, 1] == 0.0 and np.array_equal(gram.values, gram.values.T)
    assert not gram.values.flags.writeable
    owned = np.eye(4)
    assert _plo_gram(owned).values is not owned and owned.flags.writeable  # a copy; the caller's array is left writable


def test_a_view_made_before_construction_cannot_write_to_the_gram():
    """An array owning its data is copied too: a view of it made before the
    Gram was built writes to the array alone."""
    base = np.eye(4)
    v = base[:]
    gram = _plo_gram(base)
    v[0, 1] = 3.0
    assert gram.values[0, 1] == 0.0 and np.array_equal(gram.values, gram.values.T)
    assert not gram.values.flags.writeable and base.flags.writeable
    assert rank_psd(gram).rank == 4


def test_grams_compare_and_hash_by_identity():
    psi = sample_sphere_state(2, 2, 5)
    first, second = (gram_matrix(Group.PLO, psi, Picture.KET) for _ in range(2))
    assert np.array_equal(first.values, second.values)
    assert first == first and first != second
    assert len({first, second, first}) == 2


def test_a_ranked_ket_ranks_as_a_fresh_one():
    """A ket keeps its arrays and unit column after its first rank; every
    later rank equals that of a fresh ket with the same terms."""
    psi = sample_sphere_state(2, 2, 5)
    pairs = [(group, picture) for group in Group for picture in Picture]
    first = [orbit_dimension(group, psi, picture) for group, picture in pairs]
    for (group, picture), before in zip(pairs, first):
        fresh = SparseKet(psi.modes, dict(psi.terms))
        assert orbit_dimension(group, psi, picture) == before == orbit_dimension(group, fresh, picture)


# ---------------------------------------------------------- orbit_dimension


def test_orbit_dimension_examples():
    assert orbit_dimension(Group.PLO, basis_ket((1, 1)), Picture.KET).rank == 3
    assert orbit_dimension(Group.GO, basis_ket((1, 1)), Picture.KETBRA).rank == 12
    assert orbit_dimension(Group.GO, uniform_phase_state(2, 2), Picture.KET).rank == 15


def test_orbit_dimension_matches_independent_rank():
    rng = np.random.default_rng(13)
    for m in (1, 2):
        psi = normalize(random_ket(rng, m, max_photons=2))
        for group in Group:
            ours = orbit_dimension(group, psi, Picture.KET).rank
            assert ours == oracle_ket_rank(group, psi)


def test_mixed_picture_accepts_kets_via_projector():
    psi = normalize(SparseKet(1, {(0,): 1.0, (1,): 1.0}))
    a = orbit_dimension(Group.GO, psi, Picture.MIXED).rank
    b = orbit_dimension(Group.GO, psi, Picture.KETBRA).rank
    assert a == b


def test_picture_dispatch_rejects_mismatches():
    rho = outer(basis_ket((1,)))
    with pytest.raises(PictureError):
        gram_matrix(Group.PLO, rho, Picture.KET)
    with pytest.raises(PictureError):
        gram_matrix(Group.PLO, rho, Picture.KETBRA)


@pytest.mark.parametrize("build, picture", [(gram_ket, "ket"), (gram_ketbra, "ketbra")], ids=["ket", "ketbra"])
def test_pure_state_builders_refuse_a_density(build, picture):
    """Each builder owns the rule, not only the dispatch in gram_matrix: a
    density gets the PictureError naming the picture, not an AttributeError."""
    with pytest.raises(PictureError, match=f"the {picture} picture requires a pure-state ket"):
        build(Group.GO, outer(basis_ket((1, 0))))


# -------------------------------------------------------------- closed_form


def test_closed_form_fock_examples():
    assert closed_form(FockBasisState((1, 1, 0)), Group.PLO, Picture.KET).value == 7
    vac = FockBasisState((0, 0))
    assert closed_form(vac, Group.PLO, Picture.KET).value == 0
    assert closed_form(vac, Group.GO, Picture.KETBRA).value == 10
    assert closed_form(vac, Group.GO, Picture.KETBRA).exactness is Exactness.EXACT


def test_closed_form_noon_example():
    noon = NoonState(3)
    result = closed_form(noon, Group.GO, Picture.KETBRA)
    assert result.value == 13
    assert result.exactness is Exactness.EXACT


def test_closed_form_superposition_example():
    sup = OneModeSuperposition((1.0, 1.0))
    result = closed_form(sup, Group.PLO, Picture.KET)
    assert result.value == 1
    assert result.exactness is Exactness.EXACT


@pytest.mark.parametrize("group", [Group.DPLO, Group.ALO, Group.GO])
def test_closed_form_superposition_cells_are_upper_bounds(group):
    sup = OneModeSuperposition((1.0, 1.0), tail=(1, 0))
    assert closed_form(sup, group, Picture.KET).exactness is Exactness.UPPER_BOUND


def test_closed_form_rejects_mixed_picture():
    with pytest.raises(ValidationError):
        closed_form(FockBasisState((1,)), Group.PLO, Picture.MIXED)


def test_closed_form_rejects_small_noon():
    with pytest.raises(ValidationError):
        closed_form(NoonState(2), Group.PLO, Picture.KET)


def test_family_invariants():
    assert FockBasisState((0, 2, 0)).unoccupied == 2
    assert OneModeSuperposition((1.0, 1.0), tail=(0, 1)).unoccupied == 1
    assert NoonState(3, tail=(0, 0, 2)).unoccupied == 2
    with pytest.raises(ValidationError):
        OneModeSuperposition((1.0,))
    with pytest.raises(ValidationError):
        OneModeSuperposition((0.0, 1.0))
    with pytest.raises(ValidationError):
        NoonState(0)
    # both families read their tail as ints and refuse a negative occupation alike
    assert OneModeSuperposition((1.0, 1.0), tail=(np.int64(2), 0)).tail == NoonState(2, tail=[2, 0]).tail == (2, 0)
    with pytest.raises(ValidationError, match=r"^invalid tail \(0, -1\)$"):
        OneModeSuperposition((1.0, 1.0), tail=(0, -1))
    with pytest.raises(ValidationError, match=r"^invalid tail \[0, -1\]$"):
        NoonState(2, tail=[0, -1])
    # occupations, tails and photon numbers are read as fock.validate_occupation reads occupations:
    # numpy's integers and bools count as integers, and a float or a string is refused, not truncated
    occupation = FockBasisState((np.int64(2), True)).occupation
    assert occupation == (2, 1) and all(type(n) is int for n in occupation)
    with pytest.raises(ValidationError, match=r"^invalid occupation \(1\.7, '2'\)$"):
        FockBasisState((1.7, "2"))
    with pytest.raises(ValidationError, match=r"^invalid tail \(1\.5,\)$"):
        OneModeSuperposition((1, 1), (1.5,))
    with pytest.raises(ValidationError, match=r"^invalid tail \(2\.9,\)$"):
        NoonState(2, (2.9,))
    with pytest.raises(ValidationError, match=r"^NOON photon number must be an integer, got 3\.5$"):
        NoonState(3.5)
    with pytest.raises(ValidationError, match=r"^NOON photon number must be >= 1$"):
        NoonState(0)
    photons = NoonState(np.int64(3)).photons
    assert photons == 3 and type(photons) is int


def test_superposition_whose_norm_overflows_is_refused():
    """The norm of (1e200, 1e200) overflows to inf; normalizing by it would
    give the zero ket."""
    with pytest.raises(ValidationError, match="cannot normalize a ket of norm inf"):
        OneModeSuperposition((1e200, 1e200)).to_ket()


def test_known_discrepancy_superposition_with_occupied_tail():
    """With an occupied tail mode the phase-shifter block spans two real
    directions in the ket picture (N_1 psi plus the psi-direction), so the
    true dimension exceeds the tabulated closed form by one. Locked here
    against the independent dense oracle; the tabulated value is kept
    verbatim in closed_form."""
    sup = OneModeSuperposition((1.0, 1.0), tail=(1,))
    psi = sup.to_ket()
    tabulated = closed_form(sup, Group.PLO, Picture.KET).value
    assert tabulated == 3
    assert oracle_ket_rank(Group.PLO, psi) == 4
    assert orbit_dimension(Group.PLO, psi, Picture.KET).rank == 4
    # the ketbra value of the same cell is correct
    assert orbit_dimension(Group.PLO, psi, Picture.KETBRA).rank == 3


def test_superposition_with_vacuum_tail_matches_closed_form():
    sup = OneModeSuperposition((1.0, 0.5, 0.25), tail=(0, 0))
    expected = closed_form(sup, Group.PLO, Picture.KET).value
    assert orbit_dimension(Group.PLO, sup.to_ket(), Picture.KET).rank == expected


# -------------------------------------------------------- generic dimension


def test_generic_dimension_examples():
    assert generic_dimension(Group.GO, 2, 2, Picture.KET) == 15
    assert generic_dimension(Group.PLO, 2, 1, Picture.KET) == 3
    assert generic_dimension(Group.PLO, 2, 0, Picture.KET) == 0
    assert generic_dimension(Group.DPLO, 2, 2, Picture.KETBRA) == 8
    assert generic_dimension(Group.GO, 2, 2, Picture.MIXED) == 14


def test_uniform_phase_state_attains_generic_value_at_higher_modes():
    for m in (4, 5):
        for group in (Group.PLO, Group.GO):
            expected = generic_dimension(group, m, 2, Picture.KET)
            got = orbit_dimension(group, uniform_phase_state(m, 2), Picture.KET).rank
            assert got == expected, (group.value, m)


def test_uniform_phase_state_small_cutoffs():
    psi = uniform_phase_state(1, 0)
    assert set(psi.terms) == {(0,)}
    assert abs(abs(psi.terms[(0,)]) - 1.0) < 1e-15

    psi = uniform_phase_state(1, 2)
    assert len(psi.terms) == 3
    phases = [cmath.phase(psi.terms[occ]) for occ in sorted(psi.terms)]
    gaps = {round((phases[i + 1] - phases[i]) % (2 * math.pi), 9) for i in range(2)}
    assert gaps == {round(2 * math.pi / 3, 9)}

    assert len(uniform_phase_state(2, 5).terms) == 6
    assert abs(uniform_phase_state(3, 2).norm() - 1.0) < 1e-12


# ------------------------------------------------------------------ witness


def test_witness_vacuum_not_witnessed():
    result = nongaussianity_witness(basis_ket((0, 0)))
    assert (result.dimension, result.threshold, result.witnessed) == (10, 10, False)


def test_witness_two_photons_witnessed():
    result = nongaussianity_witness(basis_ket((1, 1)))
    assert (result.dimension, result.threshold, result.witnessed) == (12, 10, True)


def test_witness_single_mode_caveat():
    result = nongaussianity_witness(basis_ket((1,)))
    assert (result.dimension, result.threshold, result.witnessed) == (4, 4, False)


# ---------------------------------------------------------------- CNOT demo


def test_cnot_demo_dimensions():
    report = cnot_demo()
    assert report.dim_plus_zero == 38
    assert report.dim_bell == 37
    assert report.distinct
    assert "CNOT" in report.verdict


def test_cnot_dimensions_confirmed_by_independent_rank():
    """The 38/37 pair re-derived by SVD rank of the stacked dense commutators,
    with no Gram matrix in the path."""
    from orbitdim import cnot_entangled_output, cnot_separable_input
    from _oracle import oracle_ketbra_rank

    assert oracle_ketbra_rank(Group.GO, cnot_separable_input()) == 38
    assert oracle_ketbra_rank(Group.GO, cnot_entangled_output()) == 37


def test_cnot_demo_other_group_runs():
    report = cnot_demo(Group.PLO)
    assert report.dim_plus_zero >= 0 and report.dim_bell >= 0


# ------------------------------------------------------ structural properties


@settings(max_examples=20, deadline=None, derandomize=True)
@given(kets(max_modes=2, max_photons=2, normalized=True))
def test_picture_sandwich(psi):
    for group in Group:
        rk = rank_psd(gram_ket(group, psi)).rank
        rkb = rank_psd(gram_ketbra(group, psi)).rank
        assert rkb <= rk <= rkb + 1


def test_group_nesting_monotonicity():
    rng = np.random.default_rng(17)
    for _ in range(5):
        psi = normalize(random_ket(rng, 2, max_photons=2))
        for picture in (Picture.KET, Picture.KETBRA):
            r = {g: orbit_dimension(g, psi, picture).rank for g in Group}
            assert r[Group.PLO] <= r[Group.DPLO] <= r[Group.GO]
            assert r[Group.PLO] <= r[Group.ALO] <= r[Group.GO]


def test_perturbation_keeps_gram_close_and_rank_stable():
    psi = NoonState(3, tail=(0,)).to_ket()
    pert = perturb_state(psi, 1e-9, psi.max_total(), seed=99)
    for group in Group:
        base = gram_ket(group, psi)
        moved = gram_ket(group, pert)
        assert np.abs(base.values - moved.values).max() <= 1e-7
        assert rank_psd(moved).rank >= rank_psd(base).rank


def test_large_perturbation_cannot_lower_rank():
    psi = basis_ket((1, 0))
    pert = perturb_state(psi, 1e-2, 2, seed=5)
    for group in Group:
        assert (
            orbit_dimension(group, pert, Picture.KET).rank
            >= orbit_dimension(group, psi, Picture.KET).rank
        )
