"""Sparse Fock-space containers and density checks, plus the dict ladder
arithmetic (ladder actions, inner products) of ``_oracle``, which the sparse
reference formulas there are built on."""

import copy
import itertools
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitdim import (
    DensityOperator,
    GeneratorDescriptor,
    SparseKet,
    SparseOperator,
    ValidationError,
    add,
    apply_group_word,
    basis_ket,
    enumerate_occupations,
    mixture,
    normalize,
    outer,
    perturb_state,
    sample_sphere_state,
    scale,
    validate_occupation,
)
from orbitdim.cli import load_state, write_state_file
from orbitdim.fock import MAX_OCCUPATION, _packing, _rank_states, _unpack
import _oracle
from _helpers import assert_terms_close, ket_pairs, kets, random_ket
from _oracle import apply_annihilation, apply_creation, density_op, hs_inner, inner, real_inner, zero_ket


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
    p0 = density_op(outer(basis_ket((0,))))
    p1 = density_op(outer(basis_ket((1,))))
    assert hs_inner(p0, p1) == 0


def test_hs_inner_purity_of_projector():
    rho = outer(normalize(SparseKet(1, {(0,): 1.0, (1,): 1.0})))
    assert abs(hs_inner(density_op(rho), density_op(rho)) - 1.0) < 1e-14


def test_hs_inner_offdiagonal_unit():
    a = SparseOperator(1, {((0,), (1,)): 1.0})
    assert hs_inner(a, a) == 1.0


def test_outer_basis_projector():
    rho = outer(basis_ket((1, 0)))
    assert_terms_close(density_op(rho).entries, {(((1, 0)), ((1, 0))): 1.0})


def test_outer_normalizes():
    rho = outer(scale(2.0, basis_ket((0,))))
    assert_terms_close(density_op(rho).entries, {((0,), (0,)): 1.0})


def test_outer_superposition_four_entries():
    psi = normalize(SparseKet(1, {(0,): 1.0, (1,): 1.0}))
    rho = outer(psi)
    assert len(density_op(rho).entries) == 4
    assert all(abs(abs(v) - 0.5) < 1e-15 for v in density_op(rho).entries.values())


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


def test_normalize_a_ket_whose_squared_norm_underflows():
    """Each amplitude squared underflows to 0; scaled by a power of two
    first, the ket normalizes, and its projector is a valid density."""
    psi = SparseKet(1, {(0,): 1e-200, (1,): 1e-200})
    assert list(normalize(psi).terms.values()) == [1 / math.sqrt(2)] * 2
    rho = outer(psi)
    assert rho.support.tolist() == [[0], [1]]
    assert rho.matrix.tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert rho.trace_residual == 0.0


@pytest.mark.parametrize("factor", [1.0, 3.0, 1e-100, 1e100])
@pytest.mark.parametrize("seed", range(3))
def test_normalize_keeps_the_bits_of_a_normal_squared_norm(seed, factor):
    psi = scale(factor, sample_sphere_state(2, 3, seed))
    expected = scale(1.0 / psi.norm(), psi)
    assert list(normalize(psi).terms.items()) == list(expected.terms.items())


def _unit_is_normalize(psi):
    return psi._unit[:, 0].tobytes() == normalize(psi).arrays()[1].tobytes()


@pytest.mark.parametrize("factor", [1.0, 1.7])
def test_unit_column_is_normalize_bit_for_bit(factor):
    """The Grams' unit column psi/|psi| and ``normalize`` are one
    normalisation: the squared norm summed once, by ``_norm2``."""
    for m, n, seed in itertools.product(range(2, 5), range(2, 5), range(50)):
        assert _unit_is_normalize(scale(factor, sample_sphere_state(m, n, seed)))


def test_unit_column_of_a_subnormal_squared_norm_is_normalize():
    psi = SparseKet(2, {(0, 1): 3e-161 - 1e-162j, (1, 0): -2e-161, (2, 0): 5e-162j})
    assert 0.0 < psi._norm2 < sys.float_info.min
    assert _unit_is_normalize(psi)
    assert abs(np.linalg.norm(psi._unit) - 1.0) < 1e-15


def test_normalize_zero_rejected():
    with pytest.raises(ValidationError):
        normalize(zero_ket(1))


@pytest.mark.parametrize(
    "terms", [{(0,): 1e308, (1,): 1e308}, {(0,): math.inf}, {(0,): 1.0, (1,): math.nan}], ids=["overflow", "inf", "nan"]
)
def test_normalize_refuses_a_non_finite_norm(terms):
    """A norm that overflows would scale by 1/inf = 0 to the zero ket, an
    infinite or NaN amplitude to NaN amplitudes."""
    with pytest.raises(ValidationError, match="cannot normalize a ket of norm"):
        normalize(SparseKet(1, terms))
    with pytest.raises(ValidationError, match="cannot normalize the zero ket"):
        normalize(zero_ket(1))


@pytest.mark.parametrize("eps", [math.nan, math.inf, 1e308], ids=["nan", "inf", "overflow"])
def test_perturb_state_refuses_a_non_finite_perturbation(eps):
    with pytest.raises(ValidationError, match="cannot normalize a ket of norm"):
        perturb_state(basis_ket((1, 0)), eps, 1, 3)


def test_sphere_sample_equals_the_per_state_construction():
    """The sample built from arrays has the terms, and the term order, of a
    ket built state by state from the enumerated occupations."""
    occs = enumerate_occupations(3, 2)
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(len(occs)) + 1j * rng.standard_normal(len(occs))
    amps /= np.linalg.norm(amps)
    expected = SparseKet(3, {occ: complex(a) for occ, a in zip(occs, amps)})
    assert list(sample_sphere_state(3, 2, 11).terms.items()) == list(expected.terms.items())


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


def test_occupation_bound_is_where_the_kernel_stays_in_int64():
    top = 2**63 - 3
    assert validate_occupation((top, 0), 2) == (top, 0)
    for occ in ((top + 1, 0), (0, 10**20)):
        with pytest.raises(ValidationError, match="2\\*\\*63 - 3"):
            SparseKet(2, {occ: 1.0})
        with pytest.raises(ValidationError, match="2\\*\\*63 - 3"):
            SparseOperator(2, {(occ, occ): 1.0})


@pytest.mark.parametrize(
    "terms",
    [{}, {(0, 0): 1.0}, {(2, 1): 0.5j, (0, 3): -0.25, (1, 0): 1e-300}],
    ids=["zero", "basis", "mixed"],
)
def test_ket_arrays_round_trip(terms):
    psi = SparseKet(2, terms)
    states, amps = psi.arrays()
    assert states.dtype == np.int64 and states.shape == (len(terms), 2)
    assert SparseKet.from_arrays(states, amps) == psi


def test_ket_keeps_its_arrays_read_only():
    psi = SparseKet(2, {(2, 1): 0.5j, (0, 3): -0.25, (1, 0): 1e-300})
    states, amps = psi.arrays()
    again = psi.arrays()
    assert again[0] is states and again[1] is amps
    assert not states.flags.writeable and not amps.flags.writeable
    fresh = SparseKet(2, dict(psi.terms)).arrays()
    assert states.tobytes() == fresh[0].tobytes() and amps.tobytes() == fresh[1].tobytes()
    # a copy holds only the terms, and builds read-only arrays of its own
    assert pickle.dumps(psi) == pickle.dumps(SparseKet(2, dict(psi.terms)))
    for twin in (pickle.loads(pickle.dumps(psi)), copy.deepcopy(psi)):
        assert twin == psi and not twin.arrays()[1].flags.writeable


def test_ket_from_arrays_seeds_its_arrays_in_term_order():
    states = np.array([[2, 0], [0, 1], [1, 1], [0, 0]], dtype=np.int64)
    psi = SparseKet.from_arrays(states, np.array([0.5, 0.0, -0.5j, 0.25 + 0.5j]))
    assert list(psi.terms) == [(2, 0), (1, 1), (0, 0)]
    seeded, fresh = psi.arrays(), SparseKet(2, dict(psi.terms)).arrays()
    assert seeded[0].shape == fresh[0].shape == (3, 2)
    assert seeded[0].tobytes() == fresh[0].tobytes() and seeded[1].tobytes() == fresh[1].tobytes()
    assert not seeded[0].flags.writeable and not seeded[1].flags.writeable
    # a repeated row leaves one term, which the arrays follow
    twice = SparseKet.from_arrays(np.array([[1, 0], [1, 0]], dtype=np.int64), np.array([1.0, 2.0]))
    assert twice.terms == {(1, 0): 2.0}
    assert twice.arrays()[0].tolist() == [[1, 0]] and twice.arrays()[1].tolist() == [2.0]


def _parsed_density(tmp_path):
    path = tmp_path / "rho.json"
    rho = mixture([(0.3, basis_ket((0, 2))), (0.7, normalize(SparseKet(2, {(1, 0): 1.0, (0, 1): 1j})))])
    write_state_file(str(path), rho)
    return load_state(str(path))


@pytest.mark.parametrize(
    "build",
    [
        _parsed_density,
        lambda _: outer(normalize(SparseKet(2, {(1, 1): 1.0, (2, 0): 0.5 - 0.5j, (0, 0): 0.25}))),
        lambda _: mixture([(0.25, basis_ket((3,))), (0.75, normalize(SparseKet(1, {(0,): 1.0, (1,): 1j})))]),
        lambda _: outer(apply_group_word(basis_ket((1, 0)), [(GeneratorDescriptor("e", (1, 2)), 0.3)])),
    ],
    ids=["parsed", "outer", "mixture", "group_word"],
)
def test_density_support_and_matrix_rebuild_the_operator(tmp_path, build):
    rho = build(tmp_path)
    assert not rho.support.flags.writeable and not rho.matrix.flags.writeable
    assert rho.matrix.shape == (len(rho.support), len(rho.support))
    entries = density_op(rho).entries
    assert rho.hermiticity_residual == max(abs(v - entries.get((k, b), 0j).conjugate()) for (b, k), v in entries.items())


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
    infinite = {((0,), (0,)): math.inf}  # inf - inf is a NaN residual
    for entries in (diagonal, off_diagonal, infinite):
        with pytest.raises(ValidationError):
            DensityOperator.validate(SparseOperator(1, entries))


def test_density_validation_of_entries_near_the_float_limit():
    """Finite entries whose difference overflows give an infinite residual,
    with no warning."""
    entries = {((0,), (0,)): 0.5, ((0,), (1,)): 1.7e308, ((1,), (0,)): -1.7e308, ((1,), (1,)): 0.5}
    with pytest.raises(ValidationError, match="hermiticity residual inf"):
        DensityOperator.validate(SparseOperator(1, entries))


def test_density_validation_rejects_trace_off_by_1e_8():
    op = SparseOperator(1, {((0,), (0,)): 1.0 + 1e-8})
    with pytest.raises(ValidationError):
        DensityOperator.validate(op)


def test_mixture_half_half():
    rho = mixture([(0.5, basis_ket((0,))), (0.5, basis_ket((1,)))])
    assert_terms_close(density_op(rho).entries, {((0,), (0,)): 0.5, ((1,), (1,)): 0.5})


def test_densities_compare_by_value():
    def half_half():
        return mixture([(0.5, basis_ket((0,))), (0.5, basis_ket((1,)))])

    assert half_half() == half_half()
    assert half_half() != outer(basis_ket((0,)))
    assert half_half() != "density"


def test_diagonal_error_names_the_first_state_in_support_order():
    keys = np.array([[[1], [1]], [[0], [0]], [[2], [2]]], dtype=np.int64)
    with pytest.raises(ValidationError, match=r"diagonal entry \(-0.25\+0j\) at \(0,\) below"):
        DensityOperator.from_entries(keys, np.array([-0.5, -0.25, 1.75]))


def test_a_signed_zero_entry_is_no_entry():
    """An entry of -0.0 is a zero entry: the matrix holds +0.0 there, as
    where no entry was given."""
    keys = np.array([[[0], [0]], [[0], [1]], [[1], [0]], [[1], [1]]], dtype=np.int64)
    rho = DensityOperator.from_entries(keys, np.array([0.5, complex(-0.0, -0.0), complex(-0.0, 0.0), 0.5]))
    expected = np.diag([0.5, 0.5]).astype(complex)
    assert rho.matrix.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


# ----------------------------------------------------- mixtures from arrays


@st.composite
def _mixture_components(draw):
    """One to four components over a few shared states: unnormalised kets
    at three scales, zero weights, and amplitudes whose products underflow
    to 0 (or whose squared norm does, or overflows)."""
    m = draw(st.integers(1, 2))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), min_size=1, max_size=5, unique=True))
    amps = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    amps |= st.sampled_from([1e-30, -1e-300j, 5e-324])
    components = []
    for _ in range(draw(st.integers(1, 4))):
        scale = draw(st.sampled_from([1.0, 1e-150, 1e150]))
        terms = draw(st.dictionaries(st.sampled_from(pool), amps, min_size=1, max_size=len(pool)))
        weight = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        components.append((weight, SparseKet(m, {occ: scale * amp for occ, amp in terms.items()})))
    return components


def _mixture_outcome(build, components):
    try:
        rho = build(components)
    except (ValidationError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    bits = rho.matrix.view(np.uint64).tolist()
    return rho.support.tolist(), bits, rho.hermiticity_residual, rho.trace_residual


@settings(max_examples=300, deadline=None)
@given(components=_mixture_components())
@example(components=[(0.0, basis_ket((2,))), (1.0, basis_ket((0,)))])
@example(components=[(1.0, SparseKet(1, {(0,): 1e-30, (1,): 1e-300}))])
@example(components=[(0.5, SparseKet(1, {(0,): 1.0, (1,): 2j})), (0.5, SparseKet(1, {(1,): -1.0, (2,): 0.5}))])
@example(components=[(1e300, SparseKet(1, {(0,): 1e10 + 1e10j, (1,): -3j}))])  # overflows
def test_mixture_equals_the_per_entry_sum(components):
    """The same support, the same matrix bit for bit and the same
    residuals (or the same error) as summing entry by entry in a dict."""
    assert _mixture_outcome(mixture, components) == _mixture_outcome(_oracle.mixture_per_entry, components)


def test_mixture_support_is_the_states_of_nonzero_entries():
    """A zero weight leaves no nonzero entry on the state |2>, so it is not
    in the support. Amplitudes whose raw product underflows keep their
    normalized coherence rho_01 = 1e-270, which is representable."""
    zero_weight = mixture([(0.0, basis_ket((2,))), (1.0, basis_ket((0,)))])
    assert zero_weight.support.tolist() == [[0]] and zero_weight.matrix.tolist() == [[1.0]]
    underflow = mixture([(1.0, SparseKet(1, {(0,): 1e-30, (1,): 1e-300}))])
    assert underflow.support.tolist() == [[0], [1]]
    assert underflow.matrix[0, 0] == 1.0
    assert underflow.matrix[0, 1] == underflow.matrix[1, 0]
    assert abs(underflow.matrix[0, 1] - 1e-270) <= 1e-15 * 1e-270


# ------------------------------------------------------- ranking union states


@st.composite
def _state_rows(draw):
    """Rows of m <= 70 entries up to a drawn bound, some repeated. A seeded
    generator fills them, which keeps 500 examples of 70 columns fast."""
    m = draw(st.integers(1, 70))
    top = draw(st.sampled_from([1, 3, 255, 256, 2**20, 2**31, 2**62, MAX_OCCUPATION]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # entries at the bound and at zero as often as inside the range
    pool = rng.choice([0, top, *rng.integers(0, top, size=4, endpoint=True)], size=(draw(st.integers(1, 6)), m))
    return pool[rng.integers(0, len(pool), size=draw(st.integers(0, 12)))]


def _check_ranking(states):
    union, inverse = _rank_states(states)
    assert list(map(tuple, union.tolist())) == sorted(set(map(tuple, states.tolist())))
    assert union.dtype == np.int64 and union.shape[1] == states.shape[1]
    assert np.array_equal(union[inverse], states)
    # the words the rows were ranked by unpack to the rows
    modes, width = states.shape[1], max(int(states.max(initial=0)).bit_length(), 1)
    assert np.array_equal(_unpack(states @ _packing(modes, width)[0], modes, width), states)


@settings(max_examples=500, deadline=None)
@given(states=_state_rows())
# 63 one-bit columns fill a word, so 70 columns take two
@example(states=np.array([[0] * 69 + [1], [1] + [0] * 69, [0] * 70, [0] * 69 + [1]], dtype=np.int64))
@example(states=np.array([[1] * 63 + [0] * 7, [1] * 63 + [0] * 6 + [1]], dtype=np.int64))
# entries of 63 bits take one word per column
@example(states=np.array([[2**62, 0, 1], [2**62 - 1, 5, 0], [2**62, 0, 0], [0, MAX_OCCUPATION, 0]], dtype=np.int64))
@example(states=np.zeros((0, 3), dtype=np.int64))
def test_rank_states_orders_rows_lexicographically(states):
    _check_ranking(states)


def test_rank_states_order_is_numeric_above_255():
    """Rows compare as numbers. Comparing the little-endian bytes of each
    row, as a view of the rows as opaque bytes would, puts 256 (bytes 00 01)
    before 1 (bytes 01 00)."""
    union, inverse = _rank_states(np.array([[256, 0], [1, 7], [1, 0]], dtype=np.int64))
    assert union.tolist() == [[1, 0], [1, 7], [256, 0]]
    assert inverse.tolist() == [2, 1, 0]


def test_rank_states_of_no_rows():
    union, inverse = _rank_states(np.zeros((0, 4), dtype=np.int64))
    assert union.shape == (0, 4) and inverse.shape == (0,)


@pytest.mark.parametrize(
    "build",
    [
        lambda rows: SparseKet.from_arrays(rows, np.ones(len(rows))),
        lambda rows: SparseOperator.from_arrays(rows, np.eye(len(rows))),
        lambda rows: DensityOperator.from_entries(np.stack([rows, rows], axis=1), np.ones(len(rows)) / len(rows)),
    ],
    ids=["ket", "operator", "density"],
)
def test_array_constructors_refuse_rows_as_validate_occupation_does(build):
    """The rows are checked as one array; the first bad row gets the
    message ``validate_occupation`` gives it."""
    with pytest.raises(ValidationError, match=r"occupation \(0, -1\) has a negative entry"):
        build(np.array([[1, 0], [0, -1], [-1, 0]], dtype=np.int64))
    with pytest.raises(ValidationError, match=r"has an entry above 2\*\*63 - 3"):
        build(np.array([[0, 0], [2**63 - 2, 0]], dtype=np.int64))
    with pytest.raises(ValidationError, match="mode count must be >= 1"):
        build(np.zeros((1, 0), dtype=np.int64))
    assert build(np.array([[MAX_OCCUPATION, 0]], dtype=np.int64)).modes == 2


_INTEGERS = r"occupation entries must be integers, got "
_VALUES = r"expected values of shape "


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SparseKet.from_arrays(np.array([[1.5, 0.7]]), [1.0]), _INTEGERS + r"\[1\.5, 0\.7\]"),
        (lambda: SparseOperator.from_arrays(np.array([[1.5]]), [[1.0]]), _INTEGERS + r"\[1\.5\]"),
        (lambda: DensityOperator.from_entries(np.array([[[0.5], [0.5]]]), [1.0]), _INTEGERS + r"\[0\.5\]"),
        (lambda: SparseKet.from_arrays(np.array([[1, 0], [0, 1]]), [1.0]), _VALUES + r"\(2,\) .* got shape \(1,\)"),
        (lambda: SparseKet.from_arrays(np.array([[1, 0]]), [1.0, 2.0]), _VALUES + r"\(1,\) .* got shape \(2,\)"),
        (lambda: SparseKet.from_arrays(np.array([1, 0]), [1.0]), r"S x m array, got shape \(2,\)"),
        (lambda: SparseKet.from_arrays(np.array([["1", "0"]]), [1.0]), _INTEGERS + r"\['1', '0'\]"),
        (lambda: SparseOperator.from_arrays(np.array([[1], [0]]), np.eye(3)), _VALUES + r"\(2, 2\) .* \(3, 3\)"),
        (
            lambda: DensityOperator.from_entries(np.array([[[1], [1]], [[0], [0]]]), [1.0]),
            _VALUES + r"\(2,\) .* got shape \(1,\)",
        ),
        (lambda: DensityOperator.from_entries(np.array([[1, 1]]), [1.0]), r"E x 2 x m array, got shape \(1, 2\)"),
    ],
    ids=[
        "ket-float-row",
        "operator-float-row",
        "density-float-pair",
        "ket-two-rows-one-amplitude",
        "ket-one-row-two-amplitudes",
        "ket-1d-rows",
        "ket-string-rows",
        "operator-matrix-of-the-wrong-size",
        "density-keys-and-values-of-different-lengths",
        "density-2d-pairs",
    ],
)
def test_array_constructors_refuse_malformed_arrays(build, error):
    """A row that is not integers is refused with ``validate_occupation``'s
    text, as the dict constructors refuse it; so are rows that are not 2-D
    and values that are not one per row (or pair of rows)."""
    with pytest.raises(ValidationError, match=error):
        build()


@pytest.mark.parametrize("dtype", [np.int64, np.int32, bool])
def test_array_constructors_read_integer_and_bool_rows_as_int64(dtype):
    rows = np.array([[1, 0], [0, 1]], dtype=dtype)
    psi = SparseKet.from_arrays(rows, [0.6, 0.8j])
    assert psi.terms == {(1, 0): 0.6, (0, 1): 0.8j}
    assert psi.arrays()[0].dtype == np.int64
    assert all(type(n) is int for occ in psi.terms for n in occ)
    op = SparseOperator.from_arrays(rows, np.eye(2))
    assert op.entries == {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 1.0}
    rho = DensityOperator.from_entries(np.stack([rows, rows], axis=1), [0.5, 0.5])
    assert rho.support.dtype == np.int64 and rho.support.tolist() == [[0, 1], [1, 0]]


def test_density_from_entries_equals_validate():
    """Same operator, residuals, support and matrix as validating the dict,
    zero entries dropped."""
    keys = np.array([[[1], [1]], [[0], [1]], [[0], [0]], [[1], [0]], [[2], [2]]], dtype=np.int64)
    values = np.array([0.75, 0.25j, 0.25, -0.25j, 0.0])
    built = DensityOperator.from_entries(keys, values)
    pairs = [(tuple(b), tuple(k)) for b, k in keys.tolist()]
    checked = DensityOperator.validate(SparseOperator(1, dict(zip(pairs, values.tolist()))))
    assert list(density_op(built).entries.items()) == list(density_op(checked).entries.items())
    assert (built.hermiticity_residual, built.trace_residual) == (checked.hermiticity_residual, checked.trace_residual)
    assert np.array_equal(built.support, checked.support) and np.array_equal(built.matrix, checked.matrix)
    assert built.support.tolist() == [[0], [1]]
    real = DensityOperator.from_entries(keys[[0, 2]], np.array([0.75, 0.25]))
    assert all(type(v) is complex for v in SparseOperator.from_arrays(real.support, real.matrix).entries.values())


@pytest.mark.parametrize(
    "build, error, text",
    [
        (lambda: enumerate_occupations(2, -1), ValueError, "photon cutoff must be >= 0"),
        (lambda: SparseKet(0, {}), ValidationError, "mode count must be >= 1"),
        (lambda: add(basis_ket((1,)), basis_ket((1, 0))), ValueError, "mode mismatch: 1 vs 2"),
        (lambda: SparseOperator(0, {}), ValidationError, "mode count must be >= 1"),
        (lambda: mixture([]), ValidationError, "mixture needs at least one component"),
        (
            lambda: mixture([(0.5, basis_ket((1,))), (0.5, basis_ket((1, 0)))]),
            ValueError,
            "all mixture components must share the mode count",
        ),
    ],
    ids=["negative-cutoff", "ket-without-modes", "add-across-mode-counts", "operator-without-modes",
         "empty-mixture", "mixture-across-mode-counts"],
)
def test_constructors_refuse_arguments_out_of_their_domain(build, error, text):
    with pytest.raises(error, match=text):
        build()
