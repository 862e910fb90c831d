"""Independent reference implementations.

The dense oracle rebuilds everything from first principles with dense numpy
matrices: ladder operators from the sqrt(n) rule, generators by matrix
algebra, Gram entries from the expectation-value / trace formulas, ranks
from stacked real-imaginary matrices. None of the package's kernels are
reused, so agreement is a genuine cross-check.

The sparse references after it evaluate the same Gram formulas on states
too large for dense matrices. They apply generators through this module's
own dict-based ladder arithmetic (``apply_creation`` / ``apply_annihilation``
composed into ``apply_generator`` and ``left_apply_generator``), which
shares no code with the package's vectorised generator-action kernel behind
``gram_ket``, ``gram_ketbra``, ``gram_mixed``, ``orbitdim.apply_generator``
and ``orbitdim.commutator_with_density``. From the package it takes only the
state containers with ``basis_ket``, ``add`` and ``scale``, and
``lie_basis``; a density enters through ``density_op``, its dict view
``SparseOperator.from_arrays(rho.support, rho.matrix)``.

The last section holds references that work one value at a time: the
recursive JSON renderer, a state-file reader that checks each entry in turn
and builds the state through the validating dict constructors, and a
mixture summed entry by entry in a dict. The package renders lists of floats
in one pass, reads state files in bulk and sums a mixture as outer products
of arrays; these pin its bytes, its error messages and its matrices. They
take the state-file schema and error class from ``orbitdim.cli``.

The closure fit at the end forms every double application H_J H_I psi
densely and fits all pairs in one solve.
It applies generators through the package's kernel, so it pins the fit's
sparse join and pair blocks, not the generator action.

``connected_blocks`` finds the blocks of a projected Hamiltonian by
breadth-first search over its nonzeros, with no knowledge of their shape.
"""

import collections
import itertools
import json
import math

import numpy as np

from orbitdim import (
    DensityOperator,
    SparseKet,
    SparseOperator,
    ValidationError,
    add,
    basis_ket,
    lie_basis,
    scale,
)
from orbitdim.cli import _SCHEMA, StateFileError
from orbitdim.generators import _directions, _monomials


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


def connected_blocks(h):
    """The connected components of the nonzeros of a square matrix, found
    by breadth-first search from each index not yet reached: each a sorted
    list of indices, in order of its smallest index."""
    seen = np.zeros(len(h), dtype=bool)
    blocks = []
    for root in range(len(h)):
        if seen[root]:
            continue
        seen[root] = True
        queue, block = collections.deque([root]), []
        while queue:
            node = queue.popleft()
            block.append(node)
            for other in np.flatnonzero((h[node] != 0) | (h[:, node] != 0)):
                if not seen[other]:
                    seen[other] = True
                    queue.append(int(other))
        blocks.append(sorted(block))
    return blocks


def dense_ket(psi, index):
    v = np.zeros(len(index), dtype=complex)
    for occ, amp in psi.terms.items():
        v[index[occ]] = amp
    return v


def density_op(rho):
    """A density as a map over (bra, ket) pairs, in sorted (bra, ket) order."""
    return SparseOperator.from_arrays(rho.support, rho.matrix)


def dense_density(rho, index):
    r = np.zeros((len(index), len(index)), dtype=complex)
    for (bra, ket), amp in density_op(rho).entries.items():
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
    cutoff = _cutoff_for(max((max(sum(b), sum(k)) for b, k in density_op(rho).entries), default=0))
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


# ------------------------------------------------- dict ladder arithmetic

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _check_mode(k, modes):
    if not 1 <= k <= modes:
        raise ValueError(f"mode index {k} out of range 1..{modes}")


def zero_ket(modes):
    return SparseKet(modes, {})


def apply_annihilation(k, psi):
    """Apply a_k: each |..., n_k, ...> maps to sqrt(n_k) |..., n_k - 1, ...>."""
    _check_mode(k, psi.modes)
    out = {}
    i = k - 1
    for occ, amp in psi.terms.items():
        n = occ[i]
        if n == 0:
            continue
        target = occ[:i] + (n - 1,) + occ[i + 1 :]
        out[target] = out.get(target, 0j) + amp * math.sqrt(n)
    return SparseKet(psi.modes, out)


def apply_creation(k, psi):
    """Apply a^dag_k: each |..., n_k, ...> maps to sqrt(n_k + 1) |..., n_k + 1, ...>."""
    _check_mode(k, psi.modes)
    out = {}
    i = k - 1
    for occ, amp in psi.terms.items():
        n = occ[i]
        target = occ[:i] + (n + 1,) + occ[i + 1 :]
        out[target] = out.get(target, 0j) + amp * math.sqrt(n + 1)
    return SparseKet(psi.modes, out)


def inner(phi, psi):
    """<phi|psi>, summed over the common support.

    Terms are accumulated in sorted key order, so conjugate symmetry
    inner(phi, psi) == conj(inner(psi, phi)) holds exactly on stored doubles.
    """
    if phi.modes != psi.modes:
        raise ValueError(f"mode mismatch: {phi.modes} vs {psi.modes}")
    common = phi.terms.keys() & psi.terms.keys()
    total = 0j
    for occ in sorted(common):
        total += phi.terms[occ].conjugate() * psi.terms[occ]
    return total


def real_inner(phi, psi):
    """Re <phi|psi>: the inner product of the underlying real Hilbert space."""
    return inner(phi, psi).real


def dagger(a):
    return SparseOperator(a.modes, {(k, b): amp.conjugate() for (b, k), amp in a.entries.items()})


def op_add(a, b):
    if a.modes != b.modes:
        raise ValueError(f"mode mismatch: {a.modes} vs {b.modes}")
    out = dict(a.entries)
    for key, amp in b.entries.items():
        out[key] = out.get(key, 0j) + amp
    return SparseOperator(a.modes, out)


def op_scale(c, a):
    c = complex(c)
    return SparseOperator(a.modes, {key: c * amp for key, amp in a.entries.items()})


def op_trace(a):
    return sum((amp for (b, k), amp in a.entries.items() if b == k), 0j)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr[a^dag b], summed over common entries."""
    if a.modes != b.modes:
        raise ValueError(f"mode mismatch: {a.modes} vs {b.modes}")
    if len(a.entries) <= len(b.entries):
        return sum(
            (amp.conjugate() * b.entries[key] for key, amp in a.entries.items() if key in b.entries),
            0j,
        )
    return sum(
        (a.entries[key].conjugate() * amp for key, amp in b.entries.items() if key in a.entries),
        0j,
    )


def apply_generator(g, psi):
    """H psi for the Hermitian generator described by ``g``, built by
    composing ladder-operator applications."""
    kind = g.kind
    if kind == "I":
        return psi
    if kind == "N":
        (k,) = g.modes
        return apply_creation(k, apply_annihilation(k, psi))
    if kind in ("e", "E"):
        k, l = g.modes
        x = apply_creation(k, apply_annihilation(l, psi))
        y = apply_creation(l, apply_annihilation(k, psi))
        if kind == "e":
            return scale(0.5, add(x, y))
        return scale(0.5j, add(x, scale(-1.0, y)))
    if kind in ("r", "R"):
        k, l = g.modes
        up = apply_creation(k, apply_creation(l, psi))
        down = apply_annihilation(k, apply_annihilation(l, psi))
        if kind == "r":
            return scale(0.5, add(up, down))
        return scale(0.5j, add(up, scale(-1.0, down)))
    if kind in ("s", "S"):
        (k,) = g.modes
        up = apply_creation(k, apply_creation(k, psi))
        down = apply_annihilation(k, apply_annihilation(k, psi))
        if kind == "s":
            return scale(0.5, add(up, down))
        return scale(0.5j, add(up, scale(-1.0, down)))
    if kind in ("q", "p"):
        (k,) = g.modes
        up = apply_creation(k, psi)
        down = apply_annihilation(k, psi)
        if kind == "q":
            return scale(_SQRT_HALF, add(up, down))
        return scale(1j * _SQRT_HALF, add(up, scale(-1.0, down)))
    raise ValueError(f"unknown generator kind {kind!r}")


def left_apply_generator(g, a):
    """The operator product H a, applying the generator to the bra slot."""
    if g.kind == "I":
        return a
    actions = {}
    out = {}
    for (j, ket), amp in a.entries.items():
        action = actions.get(j)
        if action is None:
            action = apply_generator(g, basis_ket(j)).terms
            actions[j] = action
        for target, coeff in action.items():
            key = (target, ket)
            out[key] = out.get(key, 0j) + coeff * amp
    return SparseOperator(a.modes, out)


def commutator_with_density(g, rho):
    """[H, rho] = H rho - rho H; uses rho H = (H rho)^dag for Hermitian rho."""
    left = left_apply_generator(g, density_op(rho))
    return op_add(left, op_scale(-1.0, dagger(left)))


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
    op = density_op(rho)
    rho2 = _op_mul(op, op)
    h_rho = [left_apply_generator(g, op) for g in elements]
    h_rho2 = [left_apply_generator(g, rho2) for g in elements]
    d = len(elements)
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            tr_ij = op_trace(left_apply_generator(elements[i], h_rho2[j]))
            tr_cross = _trace_product(h_rho[i], h_rho[j])
            out[i, j] = out[j, i] = 2.0 * (tr_ij - tr_cross).real
    return out


# ------------------------------------------------- one entry at a time


def render_json(value) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(value, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{render_json(v)}" for k, v in sorted(value.items())
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return render_json(value.tolist())
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot render the non-finite value {float(value)!r} as JSON")
        return f"{float(value):.17g}"
    if value is None:
        return "null"
    return json.dumps(str(value))


def _finite(x):
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


def load_state_per_entry(path):
    """Read a state file checking one entry at a time, in entry order, and
    build the state from dicts through the validating constructors."""
    with open(path, "rb") as fh:
        doc = json.loads(fh.read())
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be an object")
    modes = doc.get("modes")
    if isinstance(modes, bool) or not isinstance(modes, int) or modes < 1:
        raise StateFileError(f"{path}: 'modes' must be a positive integer")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _SCHEMA:
        kinds = " or ".join(json.dumps(k) for k in _SCHEMA)
        raise StateFileError(f"{path}: 'kind' must be {kinds}, got {kind!r}")
    field, occ_fields = _SCHEMA[kind]
    items = doc.get(field)
    if not isinstance(items, list):
        article = "an" if field[0] in "aeiou" else "a"
        raise StateFileError(f"{path}: {kind} files need {article} {field!r} list")
    entries = {}
    for idx, item in enumerate(items):
        where = f"{field}[{idx}]"
        if not isinstance(item, dict):
            raise StateFileError(f"{path}: {where} must be an object")
        key = []
        for name in occ_fields:
            value = item.get(name)
            if not isinstance(value, list) or len(value) != modes:
                raise StateFileError(f"{path}: {where}.{name} must be a list of {modes} integers")
            if any(isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in value):
                raise StateFileError(f"{path}: {where}.{name} entries must be nonnegative integers")
            key.append(tuple(value))
        key = tuple(key)
        if key in entries:
            raise StateFileError(f"{path}: {where}: duplicate {'/'.join(occ_fields)} {[list(occ) for occ in key]}")
        if not {"re", "im"} <= set(item):
            raise StateFileError(f"{path}: {where} must carry 're' and 'im' fields")
        re, im = item["re"], item["im"]
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (re, im)):
            raise StateFileError(f"{path}: {where} 're'/'im' must be numbers")
        if not all(map(_finite, (re, im))):
            raise StateFileError(f"{path}: {where} 're'/'im' must be finite, got {re!r}, {im!r}")
        entries[key] = complex(re, im)
    try:
        if kind == "ket":
            return SparseKet(modes, {occ: amp for (occ,), amp in entries.items()})
        return DensityOperator.validate(SparseOperator(modes, entries))
    except ValidationError as exc:
        raise StateFileError(f"{path}: {exc}") from exc


def mixture_per_entry(components):
    """Convex mixture sum_i w_i |psi_i><psi_i| (each ket normalized internally),
    summed one (bra, ket) entry at a time in Python complex arithmetic."""
    if not components:
        raise ValidationError("mixture needs at least one component")
    modes = components[0][1].modes
    entries = {}
    for weight, psi in components:
        if psi.modes != modes:
            raise ValueError("all mixture components must share the mode count")
        nrm2 = sum(a.real * a.real + a.imag * a.imag for a in psi.terms.values())
        if not math.isfinite(nrm2):
            raise ValidationError(f"mixture component has squared norm {nrm2!r}")
        # scaled by the power of two that brings the largest modulus into [1/2, 1)
        shift = -math.frexp(max(map(abs, psi.terms.values()), default=0.0))[1]
        terms = {occ: complex(math.ldexp(a.real, shift), math.ldexp(a.imag, shift)) for occ, a in psi.terms.items()}
        nrm2 = sum(a.real * a.real + a.imag * a.imag for a in terms.values())
        if nrm2 == 0.0:
            raise ValidationError("mixture component is the zero ket")
        for bra, bamp in terms.items():
            for ket, kamp in terms.items():
                key = (bra, ket)
                entries[key] = entries.get(key, 0j) + weight * bamp * kamp.conjugate() / nrm2
    return DensityOperator.validate(SparseOperator(modes, entries))


# ------------------------------------------------- the dense closure fit


def closure_fit_dense(group, m, probes, exclude=(), extra_fit=()):
    """The closure fit of ``verify_closure`` from dense double applications:
    every H_J H_I psi as a d x U2 x d array, the commutator targets as a
    pairs x U2 array, and one least-squares solve over all pairs. Returns
    ``(coeff, resid, min_eig)``: the fitted-set x pairs coefficients, the
    per-pair residual norms and the normal matrix's smallest eigenvalue,
    the pairs (i, j), i < j, in row-major order."""
    basis = lie_basis(group, m)
    excluded = set(exclude)
    fit = [g for g in basis.elements if g not in excluded]
    fit.extend(g for g in extra_fit if g not in fit)
    d = len(basis.elements)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    first, second = np.triu_indices(d, 1)
    table = _monomials(basis.elements + tuple(fit))

    a_blocks = []
    b_blocks = []
    off_norm2 = np.zeros(len(pairs))
    for psi in probes:
        occupations, amps = psi.arrays()
        applied, union, _ = _directions(table, occupations, amps[:, None])
        # twice[J, :, I] = H_J H_I psi over a second, wider union
        twice, _, rows = _directions(basis._table, union, applied[:d, :, 0].T)
        # [iH_I, iH_J] psi = H_J (H_I psi) - H_I (H_J psi)
        targets = twice[second, :, first] - twice[first, :, second]
        # the fitted vectors vanish off the first union, so the target rows
        # there enter the fit only through their norm
        off_norm2 += np.sum(np.abs(np.delete(targets, rows, axis=1)) ** 2, axis=1)
        # rows of (re, im) pairs, one pair per union state
        a_blocks.append((1j * applied[d:, :, 0]).view(float).T)
        b_blocks.append(np.ascontiguousarray(targets[:, rows]).view(float).T)

    a_mat = np.vstack(a_blocks)
    b_mat = np.vstack(b_blocks)
    normal = a_mat.T @ a_mat
    min_eig = float(np.linalg.eigvalsh(normal)[0]) if len(fit) else 0.0
    if pairs:
        rhs = a_mat.T @ b_mat
        try:
            coeff = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            coeff = np.linalg.lstsq(a_mat, b_mat, rcond=None)[0]
        resid = np.sqrt(np.sum((a_mat @ coeff - b_mat) ** 2, axis=0) + off_norm2)
    else:
        coeff = np.zeros((len(fit), 0))
        resid = np.zeros(0)
    return coeff, resid, min_eig
