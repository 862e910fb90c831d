"""Generator catalogue, Lie bases, generator actions, and closure checks."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdim import (
    GeneratorDescriptor,
    Group,
    LieBasis,
    Picture,
    SparseKet,
    TruncatedBasis,
    apply_generator,
    apply_group_word,
    basis_ket,
    commutator_with_density,
    default_closure_probes,
    dense_hamiltonian,
    evolve_density,
    gram_matrix,
    lie_basis,
    mixture,
    normalize,
    number_shift,
    orbit_dimension,
    outer,
    perturb_state,
    rank_psd,
    sample_sphere_state,
    verify_closure,
)
import orbitdim.generators as generators
from orbitdim.fock import MAX_OCCUPATION
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


@pytest.mark.parametrize("kind", sorted(generators._KINDS))
def test_descriptor_validation_for_every_kind(kind):
    count = generators._KINDS[kind][0]
    assert GeneratorDescriptor(kind, tuple(range(1, count + 1))).modes == tuple(range(1, count + 1))
    with pytest.raises(ValueError):  # one mode index too many; for the identity, any index
        GeneratorDescriptor(kind, tuple(range(1, count + 2)))
    if count:
        with pytest.raises(ValueError):  # one mode index too few
            GeneratorDescriptor(kind, tuple(range(1, count)))
        with pytest.raises(ValueError):  # mode indices start at 1
            GeneratorDescriptor(kind, (0, *range(2, count + 1)))
    if count == 2:
        for modes in [(2, 1), (1, 1)]:  # a pair must increase
            with pytest.raises(ValueError):
                GeneratorDescriptor(kind, modes)


def test_number_shift_per_kind():
    shifts = {kind: number_shift(kind) for kind in generators._KINDS}
    assert shifts == {"e": 0, "E": 0, "N": 0, "I": 0, "q": 1, "p": 1, "r": 2, "R": 2, "s": 2, "S": 2}


def test_basis_order_go_m2():
    assert lie_basis(Group.GO, 2).labels == (
        "e[1,2]", "E[1,2]", "N[1]", "N[2]", "q[1]", "q[2]", "p[1]", "p[2]", "id",
        "r[1,2]", "R[1,2]", "s[1]", "s[2]", "S[1]", "S[2]",
    )


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
        lambda g: evolve_density(outer(basis_ket((1,))), g, 0.0),
        lambda g: dense_hamiltonian(g, TruncatedBasis.build(1, 2)),
    ],
    ids=[
        "apply_generator",
        "commutator_with_density",
        "apply_group_word",
        "evolve_density",
        "evolve_density-t0",
        "dense_hamiltonian",
    ],
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


def _assert_fit_equals_the_dense_fit(report, group, m, probes, exclude=(), extra_fit=()):
    """Coefficients and residuals within 1e-12 of the dense fit's (relative
    past 1), and the normal matrix's smallest eigenvalue bit for bit."""
    coeff, resid, min_eig = _oracle.closure_fit_dense(group, m, probes, exclude, extra_fit)
    pairs = list(itertools.combinations(range(len(lie_basis(group, m))), 2))
    fitted = np.array([report.coefficients[pair] for pair in pairs]).reshape(len(pairs), len(report.fit_labels)).T
    residuals = np.array([report.residuals[pair] for pair in pairs])
    assert np.all(np.abs(fitted - coeff) <= 1e-12 * np.maximum(1.0, np.abs(coeff)))
    assert np.all(np.abs(residuals - resid) <= 1e-12 * np.maximum(1.0, resid))
    assert report.min_normal_eigenvalue == min_eig
    assert report.max_residual == (max(report.residuals.values()) if pairs else 0.0)


@pytest.mark.parametrize("m", [1, 2])
def test_closure_fit_falls_back_to_least_squares_on_a_singular_normal_matrix(monkeypatch, m):
    """The vacuum alone leaves the normal matrix singular, so the fit takes
    np.linalg.lstsq; its coefficients still reproduce every dense commutator
    on the probe: (H_J H_I - H_I H_J) psi = sum_K c_K iH_K psi, and they
    equal the dense fit's."""
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    psi = basis_ket((0,) * m)
    report = verify_closure(Group.GO, m, probes=[psi])
    assert calls
    assert report.min_normal_eigenvalue == 0.0
    basis = lie_basis(Group.GO, m).elements
    _, index = basis_states(m, 6)
    mats = [generator_matrix(g, m, 6) for g in basis]
    v = dense_ket(psi, index)
    directions = np.array([1j * (h @ v) for h in mats])
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            target = mats[j] @ (mats[i] @ v) - mats[i] @ (mats[j] @ v)
            fitted = report.coefficients[(i, j)] @ directions
            assert np.max(np.abs(fitted - target)) < 1e-10, (basis[i].label, basis[j].label)
    _assert_fit_equals_the_dense_fit(report, Group.GO, m, [psi])


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


@pytest.mark.parametrize("group", [Group.PLO, Group.GO])
@pytest.mark.parametrize(
    "probe",
    [
        SparseKet(2, {}),
        SparseKet(2, {(0, 0): math.nan}),
        SparseKet(2, {(1, 0): 1e200}),
        SparseKet(2, {(1, 0): 1e-200}),
    ],
    ids=["zero", "nan", "overflow", "underflow"],
)
def test_closure_refuses_probes_that_support_no_verdict(group, probe):
    """The zero ket fits every commutator with residual 0, a NaN amplitude
    reads as 0 too, a squared norm past the float range breaks the
    eigensolve, and one below the normal range makes every target and
    residual square to 0: each is refused, beside a good probe as well as
    alone."""
    for probes in ([probe], [basis_ket((1, 0)), probe]):
        with pytest.raises(ValueError, match="probe"):
            verify_closure(group, 2, probes=probes)


@st.composite
def _closure_cases(draw):
    """A group, m <= 3 and one to three sphere samples of at most two
    photons, each perhaps perturbed; ALO with or without the identity
    adjoined, and any group with up to two basis elements excluded."""
    group = draw(st.sampled_from(list(Group)))
    m = draw(st.integers(1, 3))
    probes = []
    for _ in range(draw(st.integers(1, 3))):
        n, seed = draw(st.integers(1, 2)), draw(st.integers(0, 2**16))
        psi = sample_sphere_state(m, n, seed)
        if draw(st.booleans()):
            psi = perturb_state(psi, draw(st.sampled_from([1e-6, 1e-2, 0.5])), n, seed + 1)
        probes.append(psi)
    basis = lie_basis(group, m).elements
    exclude = draw(st.lists(st.sampled_from(basis), max_size=2, unique=True))
    extra = [GeneratorDescriptor("I")] if group is Group.ALO and draw(st.booleans()) else []
    return group, m, probes, exclude, extra


@given(case=_closure_cases())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_closure_fit_equals_the_dense_fit(case):
    group, m, probes, exclude, extra = case
    report = verify_closure(group, m, probes, exclude=exclude, extra_fit=extra)
    _assert_fit_equals_the_dense_fit(report, group, m, probes, exclude, extra)


@pytest.mark.parametrize(
    "group, m, exclude, extra",
    [
        (Group.PLO, 2, [GeneratorDescriptor("N", (1,))], []),
        (Group.ALO, 2, [], []),
        (Group.ALO, 2, [], [GeneratorDescriptor("I")]),
        (Group.GO, 3, [], []),
    ],
    ids=["plo-exclude", "alo", "alo+id", "go"],
)
def test_closure_fit_equals_the_dense_fit_on_the_default_probes(monkeypatch, group, m, exclude, extra):
    """At the default budget and at 4 KiB, where every probe is joined
    alone and the pairs are fitted a few at a time."""
    probes = default_closure_probes(m)
    for budget in (generators._FIT_BUDGET, 4096):
        monkeypatch.setattr(generators, "_FIT_BUDGET", budget)
        report = verify_closure(group, m, probes, exclude=exclude, extra_fit=extra)
        _assert_fit_equals_the_dense_fit(report, group, m, probes, exclude, extra)


def test_closure_memory_stays_under_a_fixed_bound(empty_store):
    """GO at m = 5 on an empty store peaks at about 21 MB under
    tracemalloc, plans included: no H_J H_I psi is formed densely (the
    dense fit peaks at 124 MB) and the targets are fitted in pair blocks
    (unblocked, 75 MB)."""
    tracemalloc.start()
    try:
        verify_closure(Group.GO, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


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


# ------------------------------------------- the generator-action kernel, exactly


@st.composite
def _supports(draw):
    """A group, a mode count and distinct support rows, some with
    occupations of 256 and more, up to the largest whose targets the
    oracle's kets still accept."""
    group = draw(st.sampled_from(list(Group)))
    m = draw(st.integers(1, 3))
    top = draw(st.sampled_from([3, 300, 2**40, MAX_OCCUPATION - 2]))
    entry = st.integers(0, 3) | st.integers(0, top) | st.just(top)
    rows = draw(st.lists(st.tuples(*[entry] * m), max_size=5, unique=True))
    return group, m, rows


@settings(max_examples=300, deadline=None)
@given(case=_supports())
def test_generator_action_equals_the_dict_ladder_arithmetic(case):
    """Every element the kernel returns is a term of the oracle's H |row>,
    with the same target and the same coefficient, and none is missing."""
    group, m, rows = case
    support = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    gen, src, tgt, coeff, union, ranks = generators._generator_action(
        generators._monomial_table(group, m), support
    )
    assert list(map(tuple, union.tolist())) == sorted(set(map(tuple, union.tolist())))
    assert np.array_equal(union[ranks], support)
    targets = [tuple(union[t].tolist()) for t in tgt]
    actual = {(i, s, t): c for i, s, t, c in zip(gen.tolist(), src.tolist(), targets, coeff.tolist())}
    assert len(actual) == len(gen)  # distinct targets per generator and source
    expected = {
        (i, s, target): amp
        for i, g in enumerate(lie_basis(group, m).elements)
        for s, row in enumerate(rows)
        for target, amp in _oracle.apply_generator(g, basis_ket(row)).terms.items()
    }
    assert actual == expected  # complex ==: exact coefficients
    assert set(map(tuple, union.tolist())) == set(rows) | set(targets)


def test_generator_action_beyond_the_register_raises():
    table = generators._monomials((GeneratorDescriptor("N", (1,)), GeneratorDescriptor("e", (2, 3))))
    with pytest.raises(ValueError, match="generator mode index 3 exceeds the 2-mode register"):
        generators._generator_action(table, np.zeros((1, 2), dtype=np.int64))


def _add_at_directions(table, occupations, columns):
    """The directions as np.add.at accumulates them, element by element."""
    gen, src, tgt, coeff, union, _ = generators._generator_action(table, occupations)
    d = int(table[0][-1]) + 1
    x = np.zeros((d * len(union), columns.shape[1]), dtype=complex)
    np.add.at(x, gen * len(union) + tgt, coeff[:, None] * columns[src])
    return x.reshape(d, len(union), columns.shape[1])


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(case=_supports(), seed=st.integers(0, 2**32 - 1))
def test_directions_equal_np_add_at_bit_for_bit(case, seed):
    """r = 1 (a ket's amplitudes) and r = d (the closure's second
    application, one column per generator). Signed zeros count: the
    columns hold +0.0 and -0.0 parts."""
    group, m, rows = case
    support = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    table = generators._monomial_table(group, m)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((len(rows), 2)) * rng.choice([-0.0, 0.0, 1.0], size=(len(rows), 2))
    amps = amps.view(complex)
    x, union, _ = generators._directions(table, support, amps)
    assert np.array_equal(_bits(x), _bits(_add_at_directions(table, support, amps)))
    columns = np.ascontiguousarray(x[:, :, 0].T)  # U x d
    twice, _, _ = generators._directions(table, union, columns)
    assert np.array_equal(_bits(twice), _bits(_add_at_directions(table, union, columns)))


# ------------------------------------------- plans kept in the shared store


@pytest.fixture
def empty_store(monkeypatch):
    monkeypatch.setattr(generators, "_cache", generators._Store())


@pytest.fixture
def actions(monkeypatch):
    """Count the kernel calls, each of which builds a plan."""
    calls = []
    action = generators._generator_action

    def counted(table, occupations):
        calls.append(len(occupations))
        return action(table, occupations)

    monkeypatch.setattr(generators, "_generator_action", counted)
    return calls


def _plan_state(m, mixed):
    psi = sample_sphere_state(m, 2 if m < 4 else 1, seed=m)
    if mixed:
        return mixture([(0.25, psi), (0.75, sample_sphere_state(m, 2 if m < 4 else 1, seed=10 + m))])
    return psi


@pytest.mark.parametrize("group", [Group.PLO, Group.GO])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize(
    "picture, mixed", [(Picture.KET, False), (Picture.KETBRA, False), (Picture.MIXED, False), (Picture.MIXED, True)]
)
def test_cold_and_warm_plans_give_identical_grams_and_ranks(empty_store, actions, group, m, picture, mixed):
    state = _plan_state(m, mixed)
    cold = gram_matrix(group, state, picture)
    assert actions, "the first call builds its plan"
    actions.clear()
    warm = gram_matrix(group, state, picture)
    assert actions == []
    assert cold.values.tobytes() == warm.values.tobytes()
    cold_rank, warm_rank = rank_psd(cold), rank_psd(warm)
    assert cold_rank == warm_rank
    assert np.array(cold_rank.eigenvalues).tobytes() == np.array(warm_rank.eigenvalues).tobytes()


@pytest.mark.parametrize(
    "group, m, extra", [(Group.PLO, 2, ()), (Group.GO, 2, ()), (Group.ALO, 1, (GeneratorDescriptor("I"),))]
)
def test_cold_and_warm_plans_give_identical_closure_fits(empty_store, actions, group, m, extra):
    cold = verify_closure(group, m, extra_fit=extra)
    actions.clear()
    warm = verify_closure(group, m, extra_fit=extra)
    assert actions == []  # the fit table is interned, so its plans are found
    assert cold.residuals == warm.residuals
    assert cold.coefficients.keys() == warm.coefficients.keys()
    for pair, coefficients in cold.coefficients.items():
        assert coefficients.tobytes() == warm.coefficients[pair].tobytes()
    assert cold.min_normal_eigenvalue == warm.min_normal_eigenvalue


def test_plan_arrays_are_read_only(empty_store):
    table = generators._monomial_table(Group.GO, 2)
    support = np.array([[0, 1], [2, 0]], dtype=np.int64)
    plan = generators._plan(table, support)
    assert plan[0] is table
    assert not any(a.flags.writeable for a in plan[1:])
    _, union, rows = generators._directions(table, support, np.ones((2, 1), dtype=complex))
    for shared in (union, rows):
        with pytest.raises(ValueError):
            shared[0] = 0
    ((value, size),) = generators._cache.values()
    assert value is plan and size == sum(a.nbytes for a in plan[1:]) == generators._cache.nbytes


def test_plans_survive_concurrent_orbit_dimensions(empty_store, monkeypatch):
    """Under an 8 KiB budget the GO plans of the support are evicted as
    soon as they are built, and the PLO plans are evicted by them, while
    other threads read the plans they hold."""
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 8192)
    states = [sample_sphere_state(3, 2, seed) for seed in range(3)]
    cases = [(group, picture) for group in (Group.PLO, Group.GO) for picture in Picture]

    def dimensions():
        return [orbit_dimension(group, psi, picture) for psi in states for group, picture in cases]

    expected = dimensions()
    errors = []

    def work():
        try:
            for _ in range(5):
                if dimensions() != expected:
                    errors.append("a dimension differs")
        except Exception as exc:  # recorded and asserted on below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert generators._cache.nbytes == sum(size for _, size in generators._cache.values()) <= 8192
