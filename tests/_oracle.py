"""Independent reference implementations.

The dense oracle rebuilds everything from first principles with dense numpy
matrices: ladder operators from the sqrt(n) rule, generators by matrix
algebra, Gram entries from the expectation-value / trace formulas, ranks
from stacked real-imaginary matrices. None of the package's kernels are
reused, so agreement is a genuine cross-check.

The sparse references at the end evaluate the same Gram formulas on states
too large for dense matrices. They apply generators through the package's
dict-based ladder arithmetic (``apply_generator``, ``left_apply_generator``),
which shares no code with the vectorised kernel behind ``gram_ket``,
``gram_ketbra`` and ``gram_mixed``.
"""

import itertools
import math

import numpy as np

from orbitdim import (
    SparseOperator,
    apply_generator,
    inner,
    left_apply_generator,
    lie_basis,
    op_trace,
    real_inner,
)


def basis_states(m, cutoff):
    occs = [o for o in itertools.product(range(cutoff + 1), repeat=m) if sum(o) <= cutoff]
    occs.sort()
    return occs, {o: i for i, o in enumerate(occs)}


def annihilation_matrices(m, cutoff):
    occs, index = basis_states(m, cutoff)
    d = len(occs)
    mats = []
    for mode in range(m):
        a = np.zeros((d, d), dtype=complex)
        for occ, col in index.items():
            if occ[mode] > 0:
                target = list(occ)
                target[mode] -= 1
                a[index[tuple(target)], col] = math.sqrt(occ[mode])
        mats.append(a)
    return occs, index, mats


def generator_matrix(descriptor, m, cutoff):
    _, _, a = annihilation_matrices(m, cutoff)
    ad = [x.conj().T for x in a]
    kind = descriptor.kind
    if kind == "I":
        return np.eye(len(a[0]), dtype=complex)
    if kind == "N":
        (k,) = descriptor.modes
        return ad[k - 1] @ a[k - 1]
    if kind in ("e", "E"):
        k, l = descriptor.modes
        x = ad[k - 1] @ a[l - 1]
        y = ad[l - 1] @ a[k - 1]
        return 0.5 * (x + y) if kind == "e" else 0.5j * (x - y)
    if kind in ("r", "R"):
        k, l = descriptor.modes
        up = ad[k - 1] @ ad[l - 1]
        down = a[k - 1] @ a[l - 1]
        return 0.5 * (up + down) if kind == "r" else 0.5j * (up - down)
    if kind in ("s", "S"):
        (k,) = descriptor.modes
        up = ad[k - 1] @ ad[k - 1]
        down = a[k - 1] @ a[k - 1]
        return 0.5 * (up + down) if kind == "s" else 0.5j * (up - down)
    if kind in ("q", "p"):
        (k,) = descriptor.modes
        if kind == "q":
            return (ad[k - 1] + a[k - 1]) / math.sqrt(2)
        return 1j * (ad[k - 1] - a[k - 1]) / math.sqrt(2)
    raise ValueError(kind)


def dense_ket(psi, index):
    v = np.zeros(len(index), dtype=complex)
    for occ, amp in psi.terms.items():
        v[index[occ]] = amp
    return v


def dense_density(rho, index):
    r = np.zeros((len(index), len(index)), dtype=complex)
    for (bra, ket), amp in rho.op.entries.items():
        r[index[bra], index[ket]] = amp
    return r


def _cutoff_for(state_max, margin=4):
    return state_max + margin


def oracle_gram_ket(group, psi):
    """Entries <psi| {H_I, H_J} |psi> via dense matrix products."""
    cutoff = _cutoff_for(psi.max_total())
    _, index = basis_states(psi.modes, cutoff)
    v = dense_ket(psi, index)
    mats = [generator_matrix(g, psi.modes, cutoff) for g in lie_basis(group, psi.modes).elements]
    d = len(mats)
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            anti = 0.5 * (mats[i] @ mats[j] + mats[j] @ mats[i])
            out[i, j] = out[j, i] = np.vdot(v, anti @ v).real
    return out


def oracle_gram_ketbra(group, psi):
    """Entries 2 Cov(H_I, H_J) via dense matrix products."""
    cutoff = _cutoff_for(psi.max_total())
    _, index = basis_states(psi.modes, cutoff)
    v = dense_ket(psi, index)
    mats = [generator_matrix(g, psi.modes, cutoff) for g in lie_basis(group, psi.modes).elements]
    means = np.array([np.vdot(v, h @ v).real for h in mats])
    return 2.0 * (oracle_gram_ket(group, psi) - np.outer(means, means))


def oracle_gram_mixed(group, rho):
    """Entries 2 Tr[{H_I,H_J} rho^2] - 2 Tr[H_I rho H_J rho] via dense products."""
    cutoff = _cutoff_for(rho.op.max_total())
    _, index = basis_states(rho.modes, cutoff)
    r = dense_density(rho, index)
    r2 = r @ r
    mats = [generator_matrix(g, rho.modes, cutoff) for g in lie_basis(group, rho.modes).elements]
    d = len(mats)
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            anti = mats[i] @ mats[j] + mats[j] @ mats[i]
            entry = (np.trace(anti @ r2) - 2.0 * np.trace(mats[i] @ r @ mats[j] @ r)).real
            out[i, j] = out[j, i] = entry
    return out


def oracle_ket_rank(group, psi, tol=1e-8):
    """Real rank of {H_I psi} from the stacked real/imaginary matrix."""
    cutoff = _cutoff_for(psi.max_total(), margin=2)
    _, index = basis_states(psi.modes, cutoff)
    v = dense_ket(psi, index)
    rows = []
    for g in lie_basis(group, psi.modes).elements:
        w = generator_matrix(g, psi.modes, cutoff) @ v
        rows.append(np.concatenate([w.real, w.imag]))
    return int(np.linalg.matrix_rank(np.array(rows), tol=tol))


def oracle_apply(descriptor, psi):
    """Dense generator application, returned as an occupation->amplitude map."""
    cutoff = _cutoff_for(psi.max_total(), margin=2)
    occs, index = basis_states(psi.modes, cutoff)
    w = generator_matrix(descriptor, psi.modes, cutoff) @ dense_ket(psi, index)
    return {occs[i]: w[i] for i in np.nonzero(np.abs(w) > 0)[0]}


def oracle_ketbra_rank(group, psi, tol=1e-8):
    """Real rank of {[H_I, |psi><psi|]} from the stacked real/imaginary
    matrix of dense commutators (no Gram matrix involved)."""
    cutoff = _cutoff_for(psi.max_total(), margin=2)
    _, index = basis_states(psi.modes, cutoff)
    v = dense_ket(psi, index)
    v = v / np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    rows = []
    for g in lie_basis(group, psi.modes).elements:
        h = generator_matrix(g, psi.modes, cutoff)
        c = h @ rho - rho @ h
        rows.append(np.concatenate([c.real.ravel(), c.imag.ravel()]))
    return int(np.linalg.matrix_rank(np.array(rows), tol=tol))


# ------------------------------------------------------- sparse references


def generator_expectations(group, psi):
    """The expectation values E[H_I] = Re <psi| H_I |psi> in basis order."""
    return np.array([real_inner(psi, apply_generator(g, psi)) for g in lie_basis(group, psi.modes).elements])


def gram_ket_expectation(group, psi):
    """Ket Gram entries as anticommutator expectation values
    <psi| {H_I, H_J} |psi>, through sequential generator applications."""
    elements = lie_basis(group, psi.modes).elements
    applied = [apply_generator(g, psi) for g in elements]
    d = len(elements)
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            ij = inner(psi, apply_generator(elements[i], applied[j]))
            ji = inner(psi, apply_generator(elements[j], applied[i]))
            out[i, j] = out[j, i] = 0.5 * (ij + ji).real
    return out


def gram_ketbra_covariance(group, psi):
    """Ketbra Gram entries as twice the symmetrized covariance
    2(E[{H_I,H_J}] - E[H_I] E[H_J])."""
    means = generator_expectations(group, psi)
    return 2.0 * (gram_ket_expectation(group, psi) - np.outer(means, means))


def _op_mul(a, b):
    """The sparse operator product a @ b."""
    rows = {}
    for (j, k), amp in b.entries.items():
        rows.setdefault(j, []).append((k, amp))
    out = {}
    for (bra, j), amp in a.entries.items():
        for k, bamp in rows.get(j, ()):
            out[(bra, k)] = out.get((bra, k), 0j) + amp * bamp
    return SparseOperator(a.modes, out)


def _trace_product(a, b):
    """Tr[a @ b] without forming the product."""
    total = 0j
    for (bra, ket), amp in a.entries.items():
        if (ket, bra) in b.entries:
            total += amp * b.entries[(ket, bra)]
    return total


def gram_mixed_trace(group, rho):
    """Mixed Gram entries 2 Tr[{H_I,H_J} rho^2] - 2 Tr[H_I rho H_J rho] with
    sparse operator arithmetic. rho^2 is formed from rho, so nothing assumes
    a pure state. Tr[H_J H_I rho^2] is the conjugate of Tr[H_I H_J rho^2]
    (the trace of its adjoint), so only the latter is formed."""
    elements = lie_basis(group, rho.modes).elements
    rho2 = _op_mul(rho.op, rho.op)
    h_rho = [left_apply_generator(g, rho.op) for g in elements]
    h_rho2 = [left_apply_generator(g, rho2) for g in elements]
    d = len(elements)
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            tr_ij = op_trace(left_apply_generator(elements[i], h_rho2[j]))
            tr_cross = _trace_product(h_rho[i], h_rho[j])
            out[i, j] = out[j, i] = 2.0 * (tr_ij - tr_cross).real
    return out
