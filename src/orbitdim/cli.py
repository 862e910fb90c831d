"""Command-line surface: orbit dimensions, Gram matrices, the closed-form
grid, genericity sampling, Lie-closure verification, the non-Gaussianity
witness, finite-difference estimation, state sampling, and the dual-rail
CNOT demonstration.

Exit codes: 0 success; 1 quantitative mismatch (table2 / generic / cnot-demo /
estimate); 2 parse or validation failure; 3 picture/kind mismatch; 4
truncation leakage.

Structured (--json) output is deterministic: sorted keys, floats rendered
with 17 significant digits, no timing fields. Elapsed time appears only in
the human rendering.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import math
import sys
import time
from collections.abc import Callable
from typing import NoReturn

import numpy as np

from .dynamics import EvolutionConfig, LeakageError, estimate_gram_matrix
from .fock import (
    MAX_OCCUPATION,
    DensityOperator,
    SparseKet,
    ValidationError,
    _unchecked,
    basis_ket,
    sample_sphere_state,
    uniform_phase_state,
    validate_occupation,
)
from .generators import Group, lie_basis, verify_closure
from .orbit import (
    Exactness,
    Picture,
    PictureError,
    RankResult,
    _check_normalized,
    closed_form_report,
    cnot_demo,
    generic_dimension,
    gram_matrix,
    nongaussianity_witness,
    orbit_dimension,
    rank_psd,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_PICTURE = 3
EXIT_LEAKAGE = 4


class StateFileError(ValidationError):
    """A state file failed to parse or validate."""


# --------------------------------------------------------------------------
# State files
# --------------------------------------------------------------------------


#: State-file kind -> (its entry-list field, the occupation fields keying an entry)
_SCHEMA = {"ket": ("terms", ("occ",)), "density": ("entries", ("bra", "ket"))}


def load_state(path: str) -> SparseKet | DensityOperator:
    """Parse and validate a state file (kind "ket" or "density")."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise StateFileError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise StateFileError(f"{path}: nested too deeply to parse") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit, or bytes that are not text
        raise StateFileError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be an object")
    modes = doc.get("modes")
    if isinstance(modes, bool) or not isinstance(modes, int) or modes < 1:
        raise StateFileError(f"{path}: 'modes' must be a positive integer")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _SCHEMA:  # a list kind would not hash
        kinds = " or ".join(json.dumps(k) for k in _SCHEMA)
        raise StateFileError(f"{path}: 'kind' must be {kinds}, got {kind!r}")
    field, occ_fields = _SCHEMA[kind]
    items = doc.get(field)
    if not isinstance(items, list):
        article = "an" if field[0] in "aeiou" else "a"
        raise StateFileError(f"{path}: {kind} files need {article} {field!r} list")
    columns = _entry_columns(items, modes, occ_fields)
    if columns is None:
        _raise_first_entry_error(path, field, occ_fields, items, modes)
    occs, amps = columns
    if kind == "ket":  # every term passed the checks above, so none is checked again
        terms = {tuple(occ): amp for occ, amp in zip(occs[0], amps) if amp}
        return _unchecked(SparseKet, modes=modes, terms=terms)
    keys = np.array(occs, dtype=np.int64).reshape(len(occ_fields), len(items), modes).transpose(1, 0, 2)
    try:
        return DensityOperator.from_entries(keys, np.array(amps, dtype=complex))
    except ValidationError as exc:
        raise StateFileError(f"{path}: {exc}") from exc


def _entry_columns(items: list, modes: int, occ_fields: tuple[str, ...]) -> tuple[list[list], list[complex]] | None:
    """The entries of a state file as k columns of occupation lists, one
    per occupation field, and their amplitudes; or None if any entry fails
    a check of ``_raise_first_entry_error``. Each check runs over a whole
    column in C (types compare by identity, so a bool is not an int) rather
    than entry by entry in Python."""
    if not set(map(type, items)) <= {dict}:
        return None
    occs = [list(map(dict.get, items, itertools.repeat(name))) for name in occ_fields]
    if any(not set(map(type, col)) <= {list} or not set(map(len, col)) <= {modes} for col in occs):
        return None
    flat = list(itertools.chain.from_iterable(itertools.chain.from_iterable(occs)))
    if not set(map(type, flat)) <= {int} or (flat and not (min(flat) >= 0 and max(flat) <= MAX_OCCUPATION)):
        return None
    if len(set(zip(*(map(tuple, col) for col in occs)))) < len(items):  # a duplicate entry
        return None
    re, im = (list(map(dict.get, items, itertools.repeat(name))) for name in ("re", "im"))
    numbers = re + im
    if not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        if not all(map(math.isfinite, numbers)):
            return None
    except OverflowError:  # an integer past the float range
        return None
    return occs, list(map(complex, re, im))


def _raise_first_entry_error(path: str, field: str, occ_fields: tuple[str, ...], items: list, modes: int) -> NoReturn:
    """Raise the error of the first entry that fails a check, checking entry
    by entry in the order of the checks; when every entry passes them, the
    error of the first occupation above ``MAX_OCCUPATION``."""
    keys: dict[tuple[tuple[int, ...], ...], None] = {}  # in entry order
    for idx, item in enumerate(items):
        where = f"{field}[{idx}]"
        if not isinstance(item, dict):
            raise StateFileError(f"{path}: {where} must be an object")
        key = tuple(_parse_occ(path, f"{where}.{name}", item.get(name), modes) for name in occ_fields)
        if key in keys:
            occs = [list(occ) for occ in key]
            raise StateFileError(f"{path}: {where}: duplicate {'/'.join(occ_fields)} {occs}")
        keys[key] = None
        _parse_amp(path, where, item)
    try:
        for occ in itertools.chain.from_iterable(keys):
            validate_occupation(occ, modes)
    except ValidationError as exc:
        raise StateFileError(f"{path}: {exc}") from exc
    # not reached: _entry_columns refuses no file that passes every check above
    raise StateFileError(f"{path}: invalid {field}")


def _parse_occ(path: str, where: str, value, modes: int) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != modes:
        raise StateFileError(f"{path}: {where} must be a list of {modes} integers")
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in value):
        raise StateFileError(f"{path}: {where} entries must be nonnegative integers")
    return tuple(value)


def _parse_amp(path: str, where: str, item) -> None:
    if not isinstance(item, dict) or not {"re", "im"} <= set(item):
        raise StateFileError(f"{path}: {where} must carry 're' and 'im' fields")
    re, im = item["re"], item["im"]
    if isinstance(re, bool) or isinstance(im, bool) or not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise StateFileError(f"{path}: {where} 're'/'im' must be numbers")
    try:
        finite = math.isfinite(re) and math.isfinite(im)
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise StateFileError(f"{path}: {where} 're'/'im' must be finite, got {re!r}, {im!r}")


def state_document(state: SparseKet | DensityOperator) -> dict:
    """A state file's document: a ket's terms in sorted order, a density's
    nonzero entries in row-major order over its sorted support, which is
    sorted (bra, ket) order."""
    if isinstance(state, SparseKet):
        kind = "ket"
        items = [{"occ": list(occ), "re": amp.real, "im": amp.imag} for occ, amp in sorted(state.terms.items())]
    else:
        kind, support = "density", state.support.tolist()
        bra, ket = np.nonzero(state.matrix)
        items = [
            {"bra": support[i], "ket": support[j], "re": v.real, "im": v.imag}
            for i, j, v in zip(bra.tolist(), ket.tolist(), state.matrix[bra, ket].tolist())
        ]
    return {"modes": state.modes, "kind": kind, _SCHEMA[kind][0]: items}


def write_state_file(path: str, state: SparseKet | DensityOperator) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(render_json(state_document(state)))
            fh.write("\n")
    except OSError as exc:
        raise StateFileError(f"{path}: {exc}") from exc


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


#: The element types of a list rendered in one pass; each formats as float.
_FLOAT_TYPES = {float, np.float64}
#: json.dumps of a str with the default settings, without its dispatch
_quote = json.encoder.encode_basestring_ascii


def render_json(value) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    kind = type(value)  # finite floats and strings, most leaves, by exact type first
    if kind is float and math.isfinite(value):
        return f"{value:.17g}"
    if kind is str:
        return _quote(value)
    if isinstance(value, dict):
        return "{" + ",".join([_quote(str(k)) + ":" + render_json(v) for k, v in sorted(value.items())]) + "}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        # a spectrum or a Gram row: finite floats, joined in one pass
        if set(map(type, value)) <= _FLOAT_TYPES and all(map(math.isfinite, value)):
            return "[" + ",".join(map(format, value, itertools.repeat(".17g"))) + "]"
        return "[" + ",".join(map(render_json, value)) + "]"
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
    return _quote(str(value))


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _emit(args, payload: dict, lines: Callable[[], list[str]]) -> None:
    """Print the command's result: with --json the payload under the
    schema version and command name, otherwise the lines, built only
    then, and the time elapsed since ``main`` parsed the arguments."""
    if args.json:
        print(render_json({"schema_version": SCHEMA_VERSION, "command": args.command, **payload}))
    else:
        for line in lines():
            print(line)
        print(f"elapsed: {time.perf_counter() - args.started:.3f} s")


def _rank_fields(result: RankResult) -> dict:
    return {
        "dimension": result.rank,
        "eigenvalues": list(result.eigenvalues),
        "tolerance_used": result.tolerance_used,
    }


def _spectrum_line(eigenvalues) -> str:
    return "spectrum: [" + ", ".join(_fmt(x) for x in eigenvalues) + "]"


def _input_block(path: str) -> dict:
    return {"path": path, "sha256": file_digest(path)}


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_dim(args) -> int:
    group = Group(args.group)
    picture = Picture(args.picture)
    result = rank_psd(gram_matrix(group, load_state(args.state), picture), args.tol)
    payload = {
        "input": _input_block(args.state),
        "group": group.value,
        "picture": picture.value,
        **_rank_fields(result),
        "relative_tolerance_policy": result.relative,
    }
    _emit(args, payload, lambda: [
        f"state: {args.state} (sha256 {payload['input']['sha256'][:12]}...)",
        f"group: {group.value}  picture: {picture.value}",
        f"dimension: {result.rank}",
        f"tolerance: {_fmt(result.tolerance_used)}"
        + (" (relative policy 1e-8 * max(1, lambda_max))" if result.relative else " (absolute)"),
        _spectrum_line(result.eigenvalues),
    ])
    return EXIT_OK


def cmd_gram(args) -> int:
    group = Group(args.group)
    picture = Picture(args.picture)
    gram = gram_matrix(group, load_state(args.state), picture)
    result = rank_psd(gram, args.tol)
    payload = {
        "input": _input_block(args.state),
        "group": group.value,
        "picture": picture.value,
        "basis_labels": list(gram.basis.labels),
        "matrix": gram.values,
        **_rank_fields(result),
    }
    _emit(args, payload, lambda: [
        f"state: {args.state}",
        f"group: {group.value}  picture: {picture.value}  d: {gram.dim}",
        "basis: " + " ".join(gram.basis.labels),
        "matrix:",
        *("  [" + ", ".join(_fmt(x) for x in row) + "]" for row in gram.values),
        f"dimension: {result.rank}",
        _spectrum_line(result.eigenvalues),
    ])
    return EXIT_OK


def cmd_table2(args) -> int:
    rows = closed_form_report(args.m_max, args.tol)
    failed = [r for r in rows if not r.passed]
    # the csv header and the keys of a --json row
    columns = ["family", "group", "picture", "m", "params", "closed_form", "numerical", "exactness",
               "known_discrepancy", "pass"]
    # one list of cells per row; --json keeps the last three typed
    cells = [
        [
            r.family,
            r.group.value,
            r.picture.value,
            r.modes,
            r.params,
            r.closed_value,
            r.numerical,
            "exact" if r.exactness is Exactness.EXACT else "<=",
            "yes" if r.known_discrepancy else "no",
            "PASS" if r.passed else "FAIL",
        ]
        for r in rows
    ]
    payload_rows = [
        {
            **dict(zip(columns, row_cells)),
            "exactness": r.exactness.value,
            "known_discrepancy": r.known_discrepancy,
            "pass": r.passed,
        }
        for r, row_cells in zip(rows, cells)
    ]
    if args.format == "csv" and not args.json:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
    else:

        def lines() -> list[str]:
            out = [f"{'family':<22}{'group':<6}{'pict':<8}{'m':<3}{'closed':<8}{'num':<6}{'kind':<7}result"]
            for family, group, picture, m, params, closed, num, kind, discrepancy, result in cells:
                star = "*" if discrepancy == "yes" else " "
                out.append(
                    f"{family:<22}{group:<6}{picture:<8}{m:<3}{closed:<8}{num:<6}{kind:<7}{result}{star} {params}"
                )
            known = sum(1 for r in rows if r.known_discrepancy)
            out.append(f"rows: {len(rows)}  failures: {len(failed)}  known discrepancies (*): {known}")
            if known:
                out.append("* tabulated value undercounts by one here; the cell passes at closed + 1")
            return out

        _emit(args, {"m_max": args.m_max, "rows": payload_rows, "failures": len(failed)}, lines)
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_generic(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    group = Group(args.group)
    picture = Picture(args.picture)
    expected = generic_dimension(group, args.m, args.N, picture)
    uniform_dim = orbit_dimension(group, uniform_phase_state(args.m, args.N), picture, args.tol).rank
    dims: list[int] = []
    if args.N == 0:
        # the cutoff-0 sphere is the vacuum phase circle; nothing to sample
        dims = [orbit_dimension(group, basis_ket((0,) * args.m), picture, args.tol).rank]
    else:
        for s in range(args.seeds):
            psi = sample_sphere_state(args.m, args.N, args.seed0 + s)
            dims.append(orbit_dimension(group, psi, picture, args.tol).rank)
    hits = sum(1 for d in dims if d == expected)
    hit_rate = hits / len(dims)
    payload = {
        "group": group.value,
        "picture": picture.value,
        "m": args.m,
        "N": args.N,
        "expected": expected,
        "samples": len(dims),
        "seed0": args.seed0,
        "dimensions": dims,
        "hits": hits,
        "hit_rate": hit_rate,
        "uniform_phase_dimension": uniform_dim,
    }
    _emit(args, payload, lambda: [
        f"group: {group.value}  picture: {picture.value}  m: {args.m}  N: {args.N}",
        f"expected generic dimension: {expected}",
        f"samples: {len(dims)}  hits: {hits}  hit rate: {hit_rate:.0%}",
        f"uniform-phase state dimension: {uniform_dim}",
    ])
    return EXIT_OK if hit_rate == 1.0 else EXIT_MISMATCH


def cmd_closure(args) -> int:
    group = Group(args.group)
    report = verify_closure(group, args.m)
    d = len(lie_basis(group, args.m))
    payload = {
        "group": group.value,
        "m": args.m,
        "basis_size": d,
        "pairs": d * (d - 1) // 2,
        "probes": report.probe_count,
        "max_residual": report.max_residual,
        "min_normal_eigenvalue": report.min_normal_eigenvalue,
    }
    verdict = "< 1e-10" if report.max_residual < 1e-10 else ">= 1e-10 (NOT closed at probe resolution)"
    _emit(args, payload, lambda: [
        f"group: {group.value}  m: {args.m}  basis size: {d}  probes: {report.probe_count}",
        f"max residual: {report.max_residual:.3e} ({verdict})",
        f"min normal-matrix eigenvalue: {report.min_normal_eigenvalue:.3e}",
    ])
    return EXIT_OK


def cmd_witness(args) -> int:
    result = nongaussianity_witness(load_state(args.state), args.tol)
    payload = {
        "input": _input_block(args.state),
        **_rank_fields(result.rank),
        "threshold": result.threshold,
        "witnessed": result.witnessed,
    }
    comparator = ">" if result.witnessed else "<="
    _emit(args, payload, lambda: [
        f"state: {args.state}",
        f"gaussian-orbit dimension: {result.dimension}  threshold m(m+3): {result.threshold}",
        f"witnessed: {str(result.witnessed).lower()} ({result.dimension} {comparator} {result.threshold})",
    ])
    return EXIT_OK


def cmd_estimate(args) -> int:
    group = Group(args.group)
    state = load_state(args.state)
    if isinstance(state, SparseKet):
        _check_normalized(state)  # as dim and witness do; the estimate would rescale
    cfg = EvolutionConfig(buffer=args.buffer, step=getattr(args, "h"), leakage_tolerance=args.leakage_tol)
    estimated = estimate_gram_matrix(state, group, cfg)
    direct = gram_matrix(group, state, Picture.MIXED).values
    dev = np.abs(estimated.values - direct)
    max_dev = float(dev.max()) if dev.size else 0.0
    # acceptance check 7: every entry within 1e-4 + 1e-3 |direct|
    with np.errstate(over="ignore"):  # a ratio past the float range reads inf
        ratio = dev / (1e-4 + 1e-3 * np.abs(direct))
    worst = np.unravel_index(np.argmax(ratio), ratio.shape)
    labels = lie_basis(group, state.modes).labels
    payload = {
        "input": _input_block(args.state),
        "group": group.value,
        "step": cfg.step,
        "buffer": cfg.buffer,
        "max_abs_deviation": max_dev,
        "working_dimension": estimated.working_dimension,
        "cutoff": estimated.cutoff,
        "max_boundary_weight": estimated.max_boundary_weight,
        "max_trace_deviation": estimated.max_trace_deviation,
        "hermiticity_residual": estimated.hermiticity_residual,
    }
    if args.details:
        payload["entries"] = [
            {
                "I": labels[i],
                "J": labels[j],
                "direct": float(direct[i, j]),
                "estimate": float(estimated.values[i, j]),
                "coarse": float(estimated.coarse[i, j]),
                "fine": float(estimated.fine[i, j]),
            }
            for i, j in zip(*np.triu_indices(len(labels)))
        ]

    def lines() -> list[str]:
        out = [
            f"state: {args.state}  group: {group.value}",
            f"step h: {_fmt(cfg.step)}  buffer: {cfg.buffer}",
            f"max |estimated - direct| over all (I, J): {max_dev:.6e}",
            f"working dimension: {estimated.working_dimension}  cutoff: {estimated.cutoff}  "
            f"max boundary weight: {estimated.max_boundary_weight:.3e}  "
            f"max trace deviation: {estimated.max_trace_deviation:.3e}  "
            f"hermiticity residual: {estimated.hermiticity_residual:.3e}",
        ]
        if args.details:
            out.append(f"{'I':<8}{'J':<8}{'direct':>14}{'estimate':>14}{'|dev|':>12}")
            for row in payload["entries"]:
                out.append(
                    f"{row['I']:<8}{row['J']:<8}{row['direct']:>14.6g}{row['estimate']:>14.6g}"
                    f"{abs(row['estimate'] - row['direct']):>12.3e}"
                )
        return out

    _emit(args, payload, lines)
    if ratio[worst] > 1.0:
        print(
            f"mismatch: |estimated - direct| at ({labels[worst[0]]}, {labels[worst[1]]}) is "
            f"{ratio[worst]:.3g} times the bound 1e-4 + 1e-3 |direct|",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_sample(args) -> int:
    psi = sample_sphere_state(args.m, args.N, args.seed)
    write_state_file(args.out, psi)
    payload = {
        "m": args.m,
        "N": args.N,
        "seed": args.seed,
        "out": args.out,
        "terms": len(psi.terms),
        "norm": psi.norm(),
        "sha256": file_digest(args.out),
    }
    _emit(args, payload, lambda: [
        f"wrote {args.out}: {len(psi.terms)} terms, norm {psi.norm():.12f}",
        f"m: {args.m}  N: {args.N}  seed: {args.seed}",
    ])
    return EXIT_OK


def cmd_cnot_demo(args) -> int:
    group = Group(args.group)
    report = cnot_demo(group, args.tol)
    expected_pair = (38, 37)
    matches_reference = (report.dim_plus_zero, report.dim_bell) == expected_pair
    payload = {
        "group": group.value,
        "picture": "ketbra",
        "dim_plus_zero": report.dim_plus_zero,
        "dim_bell": report.dim_bell,
        "distinct": report.distinct,
        "verdict": report.verdict,
    }
    _emit(args, payload, lambda: [
        f"group: {group.value}  picture: ketbra",
        f"|+0>_L  = (|1,0,1,0> + |1,0,0,1>)/sqrt(2): dimension {report.dim_plus_zero}",
        f"|Phi+>_L = (|1,0,1,0> + |0,1,0,1>)/sqrt(2): dimension {report.dim_bell}",
        f"verdict: {report.verdict}",
    ])
    if group is Group.GO and not matches_reference:
        return EXIT_MISMATCH
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_GROUPS = [g.value for g in Group]
_PICTURES = [p.value for p in Picture]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; every ``parse_args`` returns a
    fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="orbitdim",
        description="Orbit dimensions of multimode bosonic states under linear and Gaussian optics groups.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured deterministic output")
    common.add_argument("--tol", type=float, default=None, help="absolute rank tolerance (default: 1e-8 * max(1, lambda_max))")
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", required=True)
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--group", required=True, choices=_GROUPS)
    picture = argparse.ArgumentParser(add_help=False)
    picture.add_argument("--picture", required=True, choices=_PICTURES)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", parents=[common, state, group, picture], help="orbit dimension of a state file")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("gram", parents=[common, state, group, picture], help="print the Gram matrix of a state file")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("table2", parents=[common], help="recompute the closed-form dimension grid")
    p.add_argument("--m-max", dest="m_max", type=int, default=4)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("generic", parents=[common, group, picture], help="sampled genericity check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--seed0", "--seed", dest="seed0", type=int, default=0)
    p.set_defaults(func=cmd_generic)

    p = sub.add_parser("closure", parents=[common, group], help="verify Lie-algebra closure numerically")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("witness", parents=[common, state], help="non-Gaussianity witness for a ket file")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("estimate", parents=[common, state, group], help="finite-difference Gram estimation vs direct")
    p.add_argument("--h", type=float, default=1e-3, help="finite-difference step")
    p.add_argument("--buffer", type=int, default=16, help="photon buffer above the state support")
    p.add_argument("--leakage-tol", dest="leakage_tol", type=float, default=1e-6)
    p.add_argument("--details", action="store_true", help="per-entry detail")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sample", parents=[common], help="write a seeded random sphere state")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("cnot-demo", parents=[common], help="dual-rail CNOT impossibility demonstration")
    p.add_argument("--group", choices=_GROUPS, default=Group.GO.value)
    p.set_defaults(func=cmd_cnot_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except LeakageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LEAKAGE
    except PictureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PICTURE
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
