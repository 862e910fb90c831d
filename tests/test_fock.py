"""Sparse Fock-space containers and density checks, plus the dict ladder
arithmetic (ladder actions, inner products) of ``_oracle``, which the sparse
reference formulas there are built on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from orbitdim import (
    DensityOperator,
    SparseKet,
    SparseOperator,
    ValidationError,
    add,
    basis_ket,
    enumerate_occupations,
    mixture,
    normalize,
    outer,
    scale,
    validate_occupation,
)
from _helpers import assert_terms_close, ket_pairs, kets, random_ket
from _oracle import apply_annihilation, apply_creation, hs_inner, inner, real_inner, zero_ket


def test_annihilate_vacuum_is_zero_ket():
    out = apply_annihilation(1, basis_ket((0,)))
    assert out.is_zero()


def test_annihilate_single_photon():
    out = apply_annihilation(1, basis_ket((1,)))
    assert_terms_close(out.terms, {(0,): 1.0})


def test_annihilate_second_mode():
    out = apply_annihilation(2, basis_ket((1, 3)))
    assert_terms_close(out.terms, {(1, 2): math.sqrt(3)})


def test_create_vacuum():
    out = apply_creation(1, basis_ket((0,)))
    assert_terms_close(out.terms, {(1,): 1.0})


def test_create_second_mode():
    out = apply_creation(2, basis_ket((1, 3)))
    assert_terms_close(out.terms, {(1, 4): 2.0})


def test_canonical_commutator_on_basis_state():
    psi = basis_ket((5,))
    left = apply_annihilation(1, apply_creation(1, psi))
    right = apply_creation(1, apply_annihilation(1, psi))
    assert_terms_close(add(left, scale(-1, right)).terms, psi.terms)


@pytest.mark.parametrize("k", [0, 3, -1])
def test_mode_index_out_of_range(k):
    with pytest.raises(ValueError):
        apply_annihilation(k, basis_ket((1, 1)))
    with pytest.raises(ValueError):
        apply_creation(k, basis_ket((1, 1)))


def test_canonical_commutator_random_states():
    rng = np.random.default_rng(42)
    for m in (1, 2, 3):
        psi = random_ket(rng, m)
        for k in range(1, m + 1):
            for l in range(1, m + 1):
                left = apply_annihilation(k, apply_creation(l, psi))
                right = apply_creation(l, apply_annihilation(k, psi))
                comm = add(left, scale(-1, right))
                expected = psi.terms if k == l else {}
                assert_terms_close(comm.terms, expected, tol=1e-12)


def test_inner_orthonormal_basis():
    assert inner(basis_ket((1, 0)), basis_ket((0, 1))) == 0


def test_inner_normalized():
    psi = normalize(SparseKet(1, {(0,): 1.0, (1,): 1.0j}))
    assert abs(inner(psi, psi) - 1.0) < 1e-15


def test_real_inner_of_phase_rotated_basis_state():
    psi = basis_ket((2,))
    assert real_inner(psi, scale(1j, psi)) == 0.0


def test_inner_mode_mismatch():
    with pytest.raises(ValueError):
        inner(basis_ket((0,)), basis_ket((0, 0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ket_pairs())
def test_inner_conjugate_symmetry(pair):
    phi, psi = pair
    assert inner(phi, psi) == inner(psi, phi).conjugate()


def test_hs_inner_disjoint_projectors():
    p0 = outer(basis_ket((0,))).op
    p1 = outer(basis_ket((1,))).op
    assert hs_inner(p0, p1) == 0


def test_hs_inner_purity_of_projector():
    rho = outer(normalize(SparseKet(1, {(0,): 1.0, (1,): 1.0})))
    assert abs(hs_inner(rho.op, rho.op) - 1.0) < 1e-14


def test_hs_inner_offdiagonal_unit():
    a = SparseOperator(1, {((0,), (1,)): 1.0})
    assert hs_inner(a, a) == 1.0


def test_outer_basis_projector():
    rho = outer(basis_ket((1, 0)))
    assert_terms_close(rho.op.entries, {(((1, 0)), ((1, 0))): 1.0})


def test_outer_normalizes():
    rho = outer(scale(2.0, basis_ket((0,))))
    assert_terms_close(rho.op.entries, {((0,), (0,)): 1.0})


def test_outer_superposition_four_entries():
    psi = normalize(SparseKet(1, {(0,): 1.0, (1,): 1.0}))
    rho = outer(psi)
    assert len(rho.op.entries) == 4
    assert all(abs(abs(v) - 0.5) < 1e-15 for v in rho.op.entries.values())


def test_outer_zero_ket_rejected():
    with pytest.raises(ValidationError):
        outer(zero_ket(2))


@pytest.mark.parametrize("amp", [float("nan"), 1e200], ids=["nan", "overflow"])
def test_outer_and_mixture_reject_non_finite_norm(amp):
    psi = SparseKet(1, {(0,): amp})
    with pytest.raises(ValidationError, match="norm"):
        outer(psi)
    with pytest.raises(ValidationError, match="norm"):
        mixture([(0.5, basis_ket((1,))), (0.5, psi)])


def test_normalize_scales_back():
    psi = normalize(scale(2.0, basis_ket((0,))))
    assert_terms_close(psi.terms, {(0,): 1.0})


def test_normalize_zero_rejected():
    with pytest.raises(ValidationError):
        normalize(zero_ket(1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kets(normalized=True))
def test_outer_satisfies_density_invariants(psi):
    rho = outer(psi)
    assert rho.hermiticity_residual <= 1e-12
    assert rho.trace_residual <= 1e-10


def test_exact_zero_pruning_preserves_inner_products():
    with_zero = SparseKet(2, {(0, 0): 1.0, (1, 1): 0.0})
    without = SparseKet(2, {(0, 0): 1.0})
    probe = SparseKet(2, {(0, 0): 0.5, (1, 1): 2.0})
    assert with_zero.terms == without.terms
    assert inner(with_zero, probe) == inner(without, probe)


def test_enumerate_occupations_lexicographic_and_counted():
    occs = enumerate_occupations(2, 2)
    assert occs == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    for m in (1, 2, 3, 4):
        for n in (0, 1, 2, 5):
            assert len(enumerate_occupations(m, n)) == math.comb(m + n, n)


def test_validate_occupation_rejects_bad_input():
    with pytest.raises(ValidationError):
        validate_occupation((0, -1), 2)
    with pytest.raises(ValidationError):
        validate_occupation((0,), 2)
    with pytest.raises(ValidationError):
        validate_occupation((0.5, 1), 2)
    assert validate_occupation([1, 2], 2) == (1, 2)


def test_density_validation_rejects_nonhermitian():
    op = SparseOperator(1, {((0,), (1,)): 1.0, ((0,), (0,)): 1.0})
    with pytest.raises(ValidationError):
        DensityOperator.validate(op)


def test_density_validation_rejects_bad_trace():
    op = SparseOperator(1, {((0,), (0,)): 0.5})
    with pytest.raises(ValidationError):
        DensityOperator.validate(op)


def test_density_validation_rejects_negative_diagonal():
    op = SparseOperator(1, {((0,), (0,)): 1.5, ((1,), (1,)): -0.5})
    with pytest.raises(ValidationError):
        DensityOperator.validate(op)


def test_density_validation_rejects_nan():
    nan = math.nan
    diagonal = {((0,), (0,)): nan}  # fails the trace and hermiticity checks
    off_diagonal = {((0,), (0,)): 1.0, ((0,), (1,)): nan, ((1,), (0,)): nan}  # hermiticity only
    for entries in (diagonal, off_diagonal):
        with pytest.raises(ValidationError):
            DensityOperator.validate(SparseOperator(1, entries))


def test_density_validation_tolerances_overridable():
    op = SparseOperator(1, {((0,), (0,)): 1.0 + 1e-8})
    with pytest.raises(ValidationError):
        DensityOperator.validate(op)
    rho = DensityOperator.validate(op, trace_tol=1e-6)
    assert rho.trace_residual <= 1e-6


def test_mixture_half_half():
    rho = mixture([(0.5, basis_ket((0,))), (0.5, basis_ket((1,)))])
    assert_terms_close(rho.op.entries, {((0,), (0,)): 0.5, ((1,), (1,)): 0.5})
