"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Two checks compare against references that differ from the plain tabulated
values, each for a documented and independently confirmed reason:

* criterion 1 compares every grid cell with ``reference_dimension``. That is
  ``closed_form`` except in one kind of cell: the tabulated PLO ket-picture
  value for one-mode superpositions undercounts by one whenever a tail mode
  is occupied (the phase-shifter block contributes two real directions there,
  not one). Those cells are compared with the tabulated value + 1, and at
  m <= 4 also with the independent dense oracle;
* criterion 4 requires PLO, DPLO and GO to close as given. The ALO set closes
  only modulo the identity ([s,S] = i(2N+1), [r,R] = (i/2)(N_k+N_l+1)), so
  for ALO it requires closure once the identity is adjoined to the fitting
  set, and pins which pairs miss it and by which identity coefficient.

Every check is exact or holds at its stated tolerance.
"""

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from orbitdim import (
    ClosedFormValue,
    Exactness,
    GeneratorDescriptor,
    Group,
    OneModeSuperposition,
    Picture,
    SparseKet,
    apply_group_word,
    basis_ket,
    closed_form,
    cnot_demo,
    estimate_gram_matrix,
    generic_dimension,
    gram_ket,
    gram_ketbra,
    gram_mixed,
    lie_basis,
    mixture,
    nongaussianity_witness,
    normalize,
    orbit_dimension,
    outer,
    rank_psd,
    sample_sphere_state,
    scale,
    table_families,
    uniform_phase_state,
    verify_closure,
)

from _oracle import generator_expectations, gram_mixed_trace, oracle_ket_rank

GRID_M_MAX = 5
ORACLE_M_MAX = 4  # the largest m = 5 cell would give the dense oracle a 4,368-dimensional space
PICTURES = (Picture.KET, Picture.KETBRA)


@dataclass
class GridRow:
    family: object
    psi: SparseKet
    grams: dict  # (group, picture) -> GramMatrix
    ranks: dict  # (group, picture) -> int


@dataclass
class Grid:
    rows: list
    elapsed: float


@pytest.fixture(scope="module")
def grid():
    started = time.perf_counter()
    rows = []
    for family in table_families(GRID_M_MAX):
        psi = family.to_ket()
        grams = {}
        ranks = {}
        for group in Group:
            grams[(group, Picture.KET)] = gram_ket(group, psi)
            grams[(group, Picture.KETBRA)] = gram_ketbra(group, psi)
            for picture in PICTURES:
                ranks[(group, picture)] = rank_psd(grams[(group, picture)]).rank
        rows.append(GridRow(family=family, psi=psi, grams=grams, ranks=ranks))
    return Grid(rows=rows, elapsed=time.perf_counter() - started)


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}")


def _is_plo_ket_undercount(family, group, picture):
    """The one kind of cell whose tabulated value is known to be one short."""
    return (
        group is Group.PLO
        and picture is Picture.KET
        and isinstance(family, OneModeSuperposition)
        and any(family.tail)
    )


def reference_dimension(family, group, picture):
    """The proven orbit dimension of a grid cell: ``closed_form`` with its one
    known undercount corrected.

    For a one-mode superposition (sum_n alpha_n |n>) (x) |n2,...,nm> the PLO
    ket-picture directions are the beam-splitter directions plus the
    phase-shifter block {N_k psi}. N_1 psi is not proportional to psi (at
    least two photon numbers carry weight on mode 1), and each tail N_k psi
    equals n_k psi. So when some tail mode is occupied the phase-shifter block
    spans two real directions, N_1 psi and psi, where the tabulated value
    ``m(m-1) - u(u-1) + 1`` counts one. With an all-vacuum tail every tail
    N_k psi vanishes and the tabulated value holds. In the ketbra picture the
    psi-direction is quotiented out, so only the ket cell is affected.
    ``closed_form`` keeps the tabulated value unchanged; this test-side
    reference adds the missing direction.
    """
    tabulated = closed_form(family, group, picture)
    if _is_plo_ket_undercount(family, group, picture):
        return ClosedFormValue(tabulated.value + 1, tabulated.exactness)
    return tabulated


def test_criterion_1_closed_form_grid(grid):
    """Closed-form grid reproduction at m = 1..5, all groups, both pictures,
    against ``reference_dimension``; the corrected cells at m <= 4 must also
    match the independent dense oracle."""
    fock_count = sum(1 for row in grid.rows if type(row.family).__name__ == "FockBasisState")
    failures = []
    checked = 0
    corrected = []
    for row in grid.rows:
        label = f"{type(row.family).__name__}[{row.family.params_label}]"
        for group in Group:
            for picture in PICTURES:
                expected = reference_dimension(row.family, group, picture)
                numerical = row.ranks[(group, picture)]
                checked += 1
                if _is_plo_ket_undercount(row.family, group, picture):
                    corrected.append((row, label, numerical))
                if expected.exactness is Exactness.EXACT:
                    ok = numerical == expected.value
                else:
                    ok = numerical <= expected.value
                if not ok:
                    failures.append(
                        f"{label} {group.value}/{picture.value}: reference {expected.value} "
                        f"({expected.exactness.value}) vs numerical {numerical}"
                    )
    oracle_cells = [(row, label, n) for row, label, n in corrected if row.family.modes <= ORACLE_M_MAX]
    oracle_mismatches = []
    for row, label, numerical in oracle_cells:
        oracle = oracle_ket_rank(Group.PLO, row.psi)
        if oracle != numerical:
            oracle_mismatches.append(f"{label} plo/ket: oracle {oracle} vs numerical {numerical}")
    passed = not failures and not oracle_mismatches and fock_count >= 40 and grid.elapsed < 60.0
    _report(
        1,
        "closed-form grid",
        passed,
        f"{checked - len(failures)}/{checked} cells at default tolerance, "
        f"{len(corrected)} at the corrected reference "
        f"({len(oracle_cells) - len(oracle_mismatches)}/{len(oracle_cells)} agree with the oracle), "
        f"{fock_count} Fock states, grid built in {grid.elapsed:.1f}s"
        + (f"; failing cells: {failures[:3]} ..." if failures else "")
        + (f"; oracle mismatches: {oracle_mismatches[:3]} ..." if oracle_mismatches else ""),
    )
    assert fock_count >= 40
    assert grid.elapsed < 60.0
    assert not failures, (
        f"{len(failures)}/{checked} cells disagree with the reference dimensions:\n"
        + "\n".join(failures)
    )
    assert not oracle_mismatches, oracle_mismatches


def test_criterion_2_cnot_impossibility():
    """Dual-rail CNOT input/output projector dimensions are exactly 38 and 37."""
    started = time.perf_counter()
    report = cnot_demo()
    elapsed = time.perf_counter() - started
    passed = (report.dim_plus_zero, report.dim_bell) == (38, 37) and elapsed < 5.0
    _report(
        2,
        "CNOT impossibility",
        passed,
        f"dimensions ({report.dim_plus_zero}, {report.dim_bell}) in {elapsed:.2f}s",
    )
    assert (report.dim_plus_zero, report.dim_bell) == (38, 37)
    assert report.distinct
    assert elapsed < 5.0


def test_criterion_3_genericity():
    """20 seeded sphere samples per (group, m, N) cell all attain the generic
    value in the ket picture, minus one for DPLO/GO in the ketbra picture;
    the uniform-phase state attains the same value in every cell."""
    started = time.perf_counter()
    misses = []
    cells = 0
    for group in Group:
        for m in (1, 2, 3):
            for n_cutoff in (0, 1, 2, 3):
                cells += 1
                for picture in PICTURES:
                    expected = generic_dimension(group, m, n_cutoff, picture)
                    uniform = orbit_dimension(
                        group, uniform_phase_state(m, n_cutoff), picture
                    ).rank
                    if uniform != expected:
                        misses.append((group.value, m, n_cutoff, picture.value, "uniform", uniform, expected))
                    for seed in range(20):
                        psi = sample_sphere_state(m, n_cutoff, seed)
                        got = orbit_dimension(group, psi, picture).rank
                        if got != expected:
                            misses.append((group.value, m, n_cutoff, picture.value, seed, got, expected))
    elapsed = time.perf_counter() - started
    passed = not misses and elapsed < 120.0
    _report(
        3,
        "genericity",
        passed,
        f"{cells} cells x 20 seeds x 2 pictures plus uniform-phase states, "
        f"100% hit rate, {elapsed:.1f}s" if passed else f"misses: {misses[:5]}",
    )
    assert not misses, misses[:10]
    assert elapsed < 120.0


def _alo_identity_coefficients(m):
    """The basis pairs of ALO whose commutator carries an identity component,
    with the coefficient of that component on i*id:
    [is_k, iS_k] = -i(2N_k + 1) and [ir_kl, iR_kl] = -(i/2)(N_k + N_l + 1)."""
    basis = lie_basis(Group.ALO, m)
    expected = {}
    for k in range(1, m + 1):
        expected[(basis.index_of(f"s[{k}]"), basis.index_of(f"S[{k}]"))] = -1.0
        for l in range(k + 1, m + 1):
            expected[(basis.index_of(f"r[{k},{l}]"), basis.index_of(f"R[{k},{l}]"))] = -0.5
    return expected


def test_criterion_4_lie_closure():
    """Closure residual < 1e-10 for PLO, DPLO and GO at m = 1..4; removing
    N[1] from the PLO fitting set pushes the (e,E) residual above 0.1. ALO
    closes only modulo the identity: with the identity adjoined to the fitting
    set its residual is < 1e-10, and the faithful fit misses exactly the
    (s[k],S[k]) and (r[k,l],R[k,l]) pairs, each by more than 0.1, whose fitted
    identity coefficients are -1 and -1/2."""
    residuals = {}
    for group in (Group.PLO, Group.DPLO, Group.GO):
        for m in (1, 2, 3, 4):
            residuals[(group.value, m)] = verify_closure(group, m).max_residual
    excl = verify_closure(Group.PLO, 2, exclude=[GeneratorDescriptor("N", (1,))])
    excl_resid = excl.residuals[(0, 1)]
    worst = max(residuals.values())

    alo_widened = {}
    alo_problems = []
    open_pairs = 0
    for m in (1, 2, 3, 4):
        expected = _alo_identity_coefficients(m)
        faithful = verify_closure(Group.ALO, m)
        widened = verify_closure(Group.ALO, m, extra_fit=[GeneratorDescriptor("I")])
        alo_widened[m] = widened.max_residual
        missing = {
            pair: r for pair, r in faithful.residuals.items() if pair[0] < pair[1] and r >= 1e-10
        }
        open_pairs += len(missing)
        if set(missing) != set(expected):
            alo_problems.append((m, "open pairs", sorted(missing), sorted(expected)))
        alo_problems += [(m, "residual", pair, r) for pair, r in missing.items() if r <= 0.1]
        for pair, coefficient in expected.items():
            fitted = widened.coefficient(pair, "id")
            if abs(fitted - coefficient) >= 1e-10:
                alo_problems.append((m, "id coefficient", pair, fitted, coefficient))
    alo_worst = max(alo_widened.values())

    passed = worst < 1e-10 and excl_resid > 0.1 and alo_worst < 1e-10 and not alo_problems
    detail = ", ".join(
        f"{g} m={m}: {r:.1e}" for (g, m), r in residuals.items() if r >= 1e-10
    )
    _report(
        4,
        "Lie closure",
        passed,
        f"max residual {worst:.2e} (plo, dplo, go); "
        f"alo with identity adjoined {alo_worst:.2e}, "
        f"{open_pairs} alo pairs open without it; "
        f"N[1]-exclusion residual {excl_resid:.2f}"
        + (f"; over threshold: {detail}" if detail else "")
        + (f"; alo deviations: {alo_problems[:3]}" if alo_problems else ""),
    )
    assert excl_resid > 0.1
    assert worst < 1e-10, f"residuals over threshold: {detail}"
    assert alo_worst < 1e-10, alo_widened
    assert not alo_problems, alo_problems


def test_criterion_5_cross_formula_consistency(grid):
    """Pure/mixed consistency, trace-form vs commutator-form agreement, and
    the centered-covariance identity, entrywise <= 1e-10 over the grid. The
    trace form and the expectations are the sparse references of
    ``tests/_oracle.py``."""
    started = time.perf_counter()
    worst = {"mixed_vs_ketbra": 0.0, "trace_vs_commutator": 0.0, "covariance_identity": 0.0}
    for row in grid.rows:
        rho = outer(row.psi)
        for group in Group:
            gkb = row.grams[(group, Picture.KETBRA)].values
            gm = gram_mixed(group, rho).values
            gmt = gram_mixed_trace(group, rho)
            gk = row.grams[(group, Picture.KET)].values
            v = generator_expectations(group, row.psi)
            worst["mixed_vs_ketbra"] = max(worst["mixed_vs_ketbra"], float(np.abs(gm - gkb).max()))
            worst["trace_vs_commutator"] = max(
                worst["trace_vs_commutator"], float(np.abs(gmt - gm).max())
            )
            worst["covariance_identity"] = max(
                worst["covariance_identity"],
                float(np.abs(gkb - 2.0 * (gk - np.outer(v, v))).max()),
            )
    elapsed = time.perf_counter() - started
    passed = all(x <= 1e-10 for x in worst.values())
    _report(
        5,
        "cross-formula consistency",
        passed,
        ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f" ({elapsed:.1f}s)",
    )
    for name, value in worst.items():
        assert value <= 1e-10, (name, value)


def test_criterion_6_invariance_suite(grid):
    """Global-phase invariance, PLO group-word rank invariance, the picture
    sandwich, and group-nesting monotonicity."""
    # global phase, <= 1e-12, over the whole grid
    worst_phase = 0.0
    for row in grid.rows:
        for group in Group:
            base = row.grams[(group, Picture.KET)].values
            for phi in (0.3, math.pi / 2, 2.1):
                rotated = gram_ket(group, scale(cmath.exp(1j * phi), row.psi)).values
                worst_phase = max(worst_phase, float(np.abs(rotated - base).max()))

    # random 5-factor PLO words on the m <= 3 rows (exact sector arithmetic)
    rng = np.random.default_rng(2024)
    word_violations = []
    for row in grid.rows:
        m = row.psi.modes
        if m > 3:
            continue
        plo = lie_basis(Group.PLO, m)
        word = [
            (plo.elements[int(rng.integers(len(plo)))], float(rng.uniform(-1, 1)))
            for _ in range(5)
        ]
        moved = apply_group_word(row.psi, word)
        for group in (Group.PLO, Group.GO):
            before = row.ranks[(group, Picture.KET)]
            after = orbit_dimension(group, moved, Picture.KET).rank
            if before != after:
                word_violations.append((row.family.params_label, group.value, before, after))

    # picture sandwich and nesting from the precomputed ranks
    sandwich_violations = []
    nesting_violations = []
    for row in grid.rows:
        for group in Group:
            rk = row.ranks[(group, Picture.KET)]
            rkb = row.ranks[(group, Picture.KETBRA)]
            if not rkb <= rk <= rkb + 1:
                sandwich_violations.append((row.family.params_label, group.value, rk, rkb))
        for picture in PICTURES:
            r = {g: row.ranks[(g, picture)] for g in Group}
            if not (r[Group.PLO] <= r[Group.DPLO] <= r[Group.GO]):
                nesting_violations.append((row.family.params_label, picture.value, "dplo"))
            if not (r[Group.PLO] <= r[Group.ALO] <= r[Group.GO]):
                nesting_violations.append((row.family.params_label, picture.value, "alo"))

    passed = (
        worst_phase <= 1e-12
        and not word_violations
        and not sandwich_violations
        and not nesting_violations
    )
    _report(
        6,
        "invariance suite",
        passed,
        f"phase shift {worst_phase:.2e}, word violations {len(word_violations)}, "
        f"sandwich violations {len(sandwich_violations)}, nesting violations {len(nesting_violations)}",
    )
    assert worst_phase <= 1e-12
    assert not word_violations, word_violations[:5]
    assert not sandwich_violations, sandwich_violations[:5]
    assert not nesting_violations, nesting_violations[:5]


def test_criterion_7_estimation_pipeline():
    """Finite-difference Gram estimates agree with the direct evaluation to
    1e-4 absolute + 1e-3 relative, and halving the step shrinks the
    pre-extrapolation error by at least 2.8x wherever it is above noise."""
    states = {
        "fock_1": outer(basis_ket((1,))),
        "mixed_01": mixture([(0.5, basis_ket((0,))), (0.5, basis_ket((1,)))]),
        "superposition_02": outer(normalize(SparseKet(1, {(0,): 1.0, (2,): 1.0}))),
    }
    worst_dev = 0.0
    worst_ratio = math.inf
    violations = []
    for name, rho in states.items():
        for group in (Group.GO, Group.PLO):
            est = estimate_gram_matrix(rho, group)
            direct = gram_mixed(group, rho).values
            dev = np.abs(est.values - direct)
            bound = 1e-4 + 1e-3 * np.abs(direct)
            if not np.all(dev <= bound):
                violations.append((name, group.value, "tolerance", float(dev.max())))
            worst_dev = max(worst_dev, float(dev.max()))
            err_coarse = float(np.abs(est.coarse - direct).max())
            err_fine = float(np.abs(est.fine - direct).max())
            if err_coarse > 1e-12:  # below this the stencil is pure roundoff
                ratio = err_coarse / err_fine if err_fine > 0 else math.inf
                worst_ratio = min(worst_ratio, ratio)
                if ratio < 2.8:
                    violations.append((name, group.value, "convergence", ratio))
    passed = not violations
    _report(
        7,
        "estimation pipeline",
        passed,
        f"max |estimate - direct| {worst_dev:.2e}, worst halving factor {worst_ratio:.2f}"
        + (f"; violations {violations}" if violations else ""),
    )
    assert not violations, violations


def test_criterion_8_witness():
    """Vacuum at m=2 sits exactly at the Gaussian threshold m(m+3) = 10 and is
    not witnessed; |1,1> reports 12 and is witnessed."""
    vac = nongaussianity_witness(basis_ket((0, 0)))
    fock = nongaussianity_witness(basis_ket((1, 1)))
    passed = (
        (vac.dimension, vac.threshold, vac.witnessed) == (10, 10, False)
        and (fock.dimension, fock.threshold, fock.witnessed) == (12, 10, True)
    )
    _report(
        8,
        "non-Gaussianity witness",
        passed,
        f"vacuum {vac.dimension}/{vac.threshold} witnessed={vac.witnessed}; "
        f"|1,1> {fock.dimension}/{fock.threshold} witnessed={fock.witnessed}",
    )
    assert (vac.dimension, vac.threshold, vac.witnessed) == (10, 10, False)
    assert (fock.dimension, fock.threshold, fock.witnessed) == (12, 10, True)
