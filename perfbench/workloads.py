"""The three benchmark workloads: their inputs, operations and reference checks.

Importing this module imports ``orbitdim``, so the import is part of the
timed set-up. Each build function turns a seed into a fixed list of ``Op`` objects.
The seed changes the sampled states and group words, never the op mix.

An op's ``call`` runs exactly one top-level orbitdim call (a library
function or one in-process CLI command), so that under tracing the op's
root span is a boundary function. Its ``check`` compares the result with
an independent reference and returns a ``Verdict``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import orbitdim as od
import orbitdim.cli as odcli
from orbitdim import Exactness, GeneratorDescriptor, Group, Picture

#: Acceptance check 3 verifies sphere samples with these seeds in every
#: grid cell (m <= 3, N <= 3, all groups, ket and ketbra).
ACCEPTANCE_SAMPLE_SEEDS = 20
#: Per-entry bound of acceptance check 7: |est - direct| <= ABS + REL * |direct|.
ESTIMATE_ABS_TOL = 1e-4
ESTIMATE_REL_TOL = 1e-3
CLOSURE_TOL = 1e-10
ROUND_TRIP_TOL = 1e-10


@dataclass
class Verdict:
    ok: bool
    note: str = ""
    disagreement: bool = False


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]
    cli: bool = False
    #: Its time goes to D x D arrays larger than a core's L2 cache, so the
    #: whole calibration kernel, not its interpreter part, scales it.
    array_bound: bool = False


@dataclass
class CliResult:
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliResult:
    """Run ``orbitdim <argv>`` in-process. ``odcli.main`` is looked up at
    call time so that a traced run sees the wrapped entry point."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = odcli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue())


def _cli_json(result: CliResult) -> tuple[dict | None, str]:
    if result.code != 0:
        return None, f"exit code {result.code}"
    try:
        return json.loads(result.stdout), ""
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON: {exc.msg}"


def _seeds(seed: int, salt: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# --------------------------------------------------------------------------
# grid: many tiny library calls on the same (group, m) keys
# --------------------------------------------------------------------------


def _documented_cell(family, group: Group, picture: Picture) -> bool:
    """The README's known tabulation error: PLO ket one-mode superpositions
    with an occupied tail sit one above the closed form."""
    return (
        group is Group.PLO
        and picture is Picture.KET
        and isinstance(family, od.OneModeSuperposition)
        and any(n > 0 for n in family.tail)
    )


def _cell_check(family, group: Group, picture: Picture) -> Callable[[Any], Verdict]:
    expected = od.closed_form(family, group, picture)
    documented = _documented_cell(family, group, picture)

    def check(result) -> Verdict:
        rank = result.rank
        if documented:
            ok = rank == expected.value + 1
            return Verdict(ok, "" if ok else f"rank {rank}, reference {expected.value + 1}",
                           disagreement=rank != expected.value)
        if expected.exactness is Exactness.EXACT:
            ok = rank == expected.value
        else:
            ok = rank <= expected.value
        return Verdict(ok, "" if ok else f"rank {rank}, closed form {expected.value}")

    return check


def _generic_check(group: Group, m: int, n_cutoff: int, picture: Picture) -> Callable[[Any], Verdict]:
    expected = od.generic_dimension(group, m, n_cutoff, picture)

    def check(result) -> Verdict:
        ok = result.rank == expected
        return Verdict(ok, "" if ok else f"rank {result.rank}, generic {expected}")

    return check


def _closure_check(result) -> Verdict:
    ok = result.max_residual < CLOSURE_TOL
    return Verdict(ok, "" if ok else f"closure residual {result.max_residual:.3e}")


def build_grid(seed: int, smoke: bool) -> list[Op]:
    m_max, sample_m, sample_n, samples, closure_m = (2, 2, 1, 1, 2) if smoke else (5, 3, 2, 9, 4)
    ops: list[Op] = []
    pictures = (Picture.KET, Picture.KETBRA)
    for family in od.table_families(m_max):
        psi = family.to_ket()
        for group in Group:
            for picture in pictures:
                ops.append(Op(
                    f"cell:{type(family).__name__}[{family.params_label}]:{group.value}:{picture.value}",
                    lambda g=group, s=psi, p=picture: od.orbit_dimension(g, s, p),
                    _cell_check(family, group, picture),
                ))
    # Genericity holds with probability one, yet a fresh m=1, N=1 sample
    # within ~0.02 of a Fock state has a Gram eigenvalue below the rank
    # tolerance (about 1 run in 12 hit one). So the samples come from the
    # seeds acceptance check 3 verifies; the benchmark seed picks which.
    sample_seeds = [(seed * samples + k) % ACCEPTANCE_SAMPLE_SEEDS for k in range(samples)]
    for m in range(1, sample_m + 1):
        for n_cutoff in range(sample_n + 1):
            for sample_seed in sample_seeds:
                psi = od.sample_sphere_state(m, n_cutoff, sample_seed)
                for group in Group:
                    for picture in pictures:
                        ops.append(Op(
                            f"sphere:m={m}:N={n_cutoff}:{group.value}:{picture.value}",
                            lambda g=group, s=psi, p=picture: od.orbit_dimension(g, s, p),
                            _generic_check(group, m, n_cutoff, picture),
                        ))
    identity = [GeneratorDescriptor("I")]
    closures = [(group, m) for group in Group for m in range(1, closure_m + 1)]
    if not smoke:
        # The tail sample is the 11th slowest of the run. With three passes
        # GO and ALO at m = 4 take the top six samples, and GO m = 3 and
        # DPLO m = 4 (about 0.3-0.4 s) the next six, with ALO m = 3 some
        # 40% below them. PLO at m = 5 costs about as much as those two, so
        # it puts the tail sample in the middle of their nine samples.
        closures.append((Group.PLO, 5))
    for group, m in closures:
        # ALO closes only modulo the identity (README, acceptance check 4).
        extra = identity if group is Group.ALO else []
        ops.append(Op(
            f"closure:{group.value}:m={m}",
            lambda g=group, mm=m, x=extra: od.verify_closure(g, mm, extra_fit=x),
            _closure_check,
        ))
    return ops


# --------------------------------------------------------------------------
# dense: `orbitdim dim --json` on sphere-state files with large support
# --------------------------------------------------------------------------


def _dim_check(group: Group, m: int, n_cutoff: int, picture: Picture) -> Callable[[Any], Verdict]:
    expected = od.generic_dimension(group, m, n_cutoff, picture)

    def check(result: CliResult) -> Verdict:
        doc, why = _cli_json(result)
        if doc is None:
            return Verdict(False, why)
        ok = doc.get("dimension") == expected
        return Verdict(ok, "" if ok else f"dimension {doc.get('dimension')}, generic {expected}")

    return check


def _write(workdir: str, name: str, state) -> str:
    path = os.path.join(workdir, name)
    odcli.write_state_file(path, state)
    return path


def _rank2(m: int, n_cutoff: int, seeds: list[int], weight: float) -> od.DensityOperator:
    return od.mixture([
        (weight, od.sample_sphere_state(m, n_cutoff, seeds[0])),
        (1.0 - weight, od.sample_sphere_state(m, n_cutoff, seeds[1])),
    ])


def _dim_op(path: str, label: str, m: int, n_cutoff: int, group: Group, picture: Picture) -> Op:
    return Op(
        f"dim:{label}m={m}:N={n_cutoff}:{group.value}:{picture.value}",
        lambda: run_cli(["dim", "--state", path, "--group", group.value, "--picture", picture.value, "--json"]),
        _dim_check(group, m, n_cutoff, picture),
        cli=True,
    )


#: Second sphere states, (m, N, group, pictures), placed so that the two
#: order statistics fall inside clusters of ops of like cost. Sorted by
#: cost, 12 ops (the ket rows, then the ketbra and mixed rows at (3,3) PLO
#: and (3,4) PLO) lie below a cluster of ops of 0.2-0.3 s; without the
#: first four ops here, the median falls at the foot of that cluster, where
#: a noisy sample flips it between ops 40% apart. The tail sample, 11th
#: slowest, falls among GO at (4,3) and PLO at (5,3) (1.1-1.4 s); the
#: last op here puts three samples between it and the 0.8 s ops below.
_SECOND_SAMPLES = (
    (4, 3, Group.PLO, (Picture.KETBRA, Picture.MIXED)),
    (3, 3, Group.GO, (Picture.KETBRA, Picture.MIXED)),
    (4, 3, Group.GO, (Picture.KETBRA,)),
)


def build_dense(seed: int, smoke: bool, workdir: str) -> list[Op]:
    sizes = [(2, 2)] if smoke else [(3, 3), (3, 4), (4, 3), (5, 3)]
    ops: list[Op] = []
    for (m, n_cutoff), state_seed in zip(sizes, _seeds(seed, 1, len(sizes))):
        path = _write(workdir, f"sphere_m{m}_N{n_cutoff}.json", od.sample_sphere_state(m, n_cutoff, state_seed))
        for group in (Group.PLO, Group.GO):
            for picture in Picture:
                ops.append(_dim_op(path, "", m, n_cutoff, group, picture))
    m, n_cutoff = sizes[0]
    rng = np.random.default_rng([seed, 2])
    rho = _rank2(m, n_cutoff, _seeds(seed, 3, 2), float(rng.uniform(0.2, 0.8)))
    path = _write(workdir, f"rank2_m{m}_N{n_cutoff}.json", rho)
    ops.append(_dim_op(path, "rank2:", m, n_cutoff, Group.GO, Picture.MIXED))
    if not smoke:
        for (m, n_cutoff, group, pictures), state_seed in zip(_SECOND_SAMPLES, _seeds(seed, 6, len(_SECOND_SAMPLES))):
            path = _write(workdir, f"sphere2_m{m}_N{n_cutoff}_{group.value}.json",
                          od.sample_sphere_state(m, n_cutoff, state_seed))
            for picture in pictures:
                ops.append(_dim_op(path, "second:", m, n_cutoff, group, picture))
    return ops


# --------------------------------------------------------------------------
# evolve: `orbitdim estimate` plus group-word round trips
# --------------------------------------------------------------------------


def _estimate_check(result: CliResult) -> Verdict:
    doc, why = _cli_json(result)
    if doc is None:
        return Verdict(False, why)
    entries = doc.get("entries") or []
    if not entries:
        return Verdict(False, "no per-entry details")
    worst = max(
        abs(e["estimate"] - e["direct"]) / (ESTIMATE_ABS_TOL + ESTIMATE_REL_TOL * abs(e["direct"]))
        for e in entries
    )
    ok = worst <= 1.0
    return Verdict(ok, "" if ok else f"estimate off by {worst:.2f}x the bound")


def _round_trip_check(psi: od.SparseKet) -> Callable[[Any], Verdict]:
    def check(out: od.SparseKet) -> Verdict:
        keys = set(out.terms) | set(psi.terms)
        worst = max(abs(out.terms.get(k, 0j) - psi.terms.get(k, 0j)) for k in keys)
        ok = worst <= ROUND_TRIP_TOL
        return Verdict(ok, "" if ok else f"round trip off by {worst:.3e}")

    return check


def _word(rng: np.random.Generator, group: Group, m: int, labels: tuple[str, ...]) -> list:
    """The given basis factors with seeded times.

    The factors are fixed and only the times are drawn: the cost of
    ``eigh`` on a factor depends on its kind and on which modes it acts on
    (they set how the lexicographic basis orders its blocks), but not on
    its time, so every seed does the same work. Photon-shifting factors
    get |t| <= 0.1 so the 16-photon guard band stays far below the leakage
    tolerance.
    """
    basis = od.lie_basis(group, m)
    word = []
    for label in labels:
        g = basis.elements[basis.index_of(label)]
        if od.number_shift(g.kind) > 0:
            t = float(rng.uniform(0.02, 0.1)) * (1 if rng.random() < 0.5 else -1)
        else:
            t = float(rng.uniform(-1.0, 1.0))
        word.append((g, t))
    return word


#: (m, group, photon cutoff of the ket, factors of each word). Thirteen
#: words and 14 estimates make 27 ops. Sorted by cost, 12 ops (PLO words,
#: PLO estimates) lie below the three m = 1 GO estimates and 12 (m = 2 GO
#: words and estimates, the m = 3 GO word) above them, so the median falls
#: in the middle of those three: their states are fixed, so no seed moves
#: the median across the gap to a neighbouring kind of op. The tail sample
#: likewise falls inside the repeats of the m = 2 GO estimates.
_WORDS = (
    (2, Group.PLO, 2, (
        ("e[1,2]", "N[1]", "E[1,2]"),
        ("E[1,2]", "N[2]", "e[1,2]", "N[1]"),
    )),
    (2, Group.GO, 1, (
        ("r[1,2]", "e[1,2]", "N[1]"),
        ("q[1]", "S[2]", "E[1,2]", "N[2]"),
        ("p[2]", "s[1]", "e[1,2]", "R[1,2]", "N[1]"),
        ("R[1,2]", "N[2]", "e[1,2]"),
        ("q[2]", "E[1,2]", "N[1]", "r[1,2]"),
        ("s[2]", "e[1,2]", "N[2]"),
        ("p[1]", "S[1]", "R[1,2]", "N[2]", "E[1,2]"),
    )),
    (3, Group.PLO, 2, (
        ("e[1,2]", "E[2,3]", "N[3]"),
        ("E[1,3]", "N[1]", "e[2,3]", "E[1,2]"),
        ("e[1,3]", "N[2]", "E[1,2]", "N[3]", "e[2,3]"),
    )),
    # The one m=3 GO word shifts photons: D = C(3 + 17, 3) = 1140.
    (3, Group.GO, 1, (("q[3]", "e[2,3]", "N[2]", "S[2]"),)),
)


def _array_bound(group: Group, m: int) -> bool:
    """GO evolution shifts photons, so its truncated basis carries a
    16-photon guard band: D = 171 to 190 at m = 2 (a D x D complex matrix
    of about 0.5 MiB) and 1,140 at m = 3. At m = 1 D stays below 20, and
    PLO evolution is sector-exact with D of a few dozen at most."""
    return group is Group.GO and m >= 2


def build_evolve(seed: int, smoke: bool, workdir: str) -> list[Op]:
    s2, s3, s4, s5, s6, s7 = _seeds(seed, 4, 6)
    half = 1.0 / math.sqrt(2.0)
    states = {
        "m1_fock1": od.basis_ket((1,)),
        "m1_sup02": od.SparseKet(1, {(0,): half, (2,): half}),
        "m1_mix01": od.mixture([(0.5, od.basis_ket((0,))), (0.5, od.basis_ket((1,)))]),
    }
    if not smoke:
        states.update({
            "m2_fock10": od.basis_ket((1, 0)),
            "m2_sphere_N1": od.sample_sphere_state(2, 1, s2),
            "m2_sphere_N2": od.sample_sphere_state(2, 2, s3),
            "m2_rank2": _rank2(2, 1, [s4, s5], 0.7),
        })
    ops: list[Op] = []
    for name, state in states.items():
        path = _write(workdir, f"{name}.json", state)
        for group in (Group.PLO, Group.GO):
            ops.append(Op(
                f"estimate:{name}:{group.value}",
                lambda p=path, g=group: run_cli(["estimate", "--state", p, "--group", g.value, "--details", "--json"]),
                _estimate_check,
                cli=True,
                array_bound=_array_bound(group, state.modes),
            ))
    rng = np.random.default_rng([seed, 5])
    for m, group, n_cutoff, words in _WORDS[:2] if smoke else _WORDS:
        psi = od.sample_sphere_state(m, n_cutoff, s6 if m == 2 else s7)
        for labels in words:
            word = _word(rng, group, m, labels)
            inverse = [(g, -t) for g, t in reversed(word)]
            ops.append(Op(
                f"word:m={m}:{group.value}:" + ",".join(labels),
                lambda s=psi, w=inverse + word: od.apply_group_word(s, w),
                _round_trip_check(psi),
                array_bound=_array_bound(group, m),
            ))
    return ops


BUILD = {
    "grid": lambda seed, smoke, workdir: build_grid(seed, smoke),
    "dense": build_dense,
    "evolve": build_evolve,
}
