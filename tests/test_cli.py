"""Command-line surface: state files, reports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitdim import (
    DensityOperator,
    EvolutionConfig,
    GeneratorDescriptor,
    Group,
    SparseKet,
    ValidationError,
    apply_group_word,
    basis_ket,
    lie_basis,
    mixture,
    normalize,
    outer,
    sample_sphere_state,
)
from orbitdim import cli, generators
import _oracle
from orbitdim.cli import (
    EXIT_INVALID,
    EXIT_LEAKAGE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PICTURE,
    StateFileError,
    load_state,
    main,
    render_json,
    write_state_file,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fock11(tmp_path):
    path = tmp_path / "fock_11.json"
    write_state_file(str(path), basis_ket((1, 1)))
    return str(path)


@pytest.fixture
def vacuum2(tmp_path):
    path = tmp_path / "vacuum.json"
    write_state_file(str(path), basis_ket((0, 0)))
    return str(path)


@pytest.fixture
def density1(tmp_path):
    path = tmp_path / "density.json"
    path.write_text(
        json.dumps(
            {
                "modes": 1,
                "kind": "density",
                "entries": [
                    {"bra": [0], "ket": [0], "re": 0.5, "im": 0.0},
                    {"bra": [1], "ket": [1], "re": 0.5, "im": 0.0},
                ],
            }
        )
    )
    return str(path)


# ---------------------------------------------------------------- state files


def test_state_file_round_trip(tmp_path):
    psi = normalize(SparseKet(2, {(0, 1): 0.25 - 1.5j, (2, 0): 1 / 3}))
    path = tmp_path / "state.json"
    write_state_file(str(path), psi)
    again = load_state(str(path))
    assert again.modes == 2
    assert again.terms == psi.terms  # 17 significant digits round-trip losslessly


def test_a_ket_file_builds_its_arrays_once(tmp_path):
    """The reader hands its columns to ``SparseKet.from_arrays``, so the ket
    holds the arrays of its terms from the start, not rebuilt from them."""
    path = tmp_path / "state.json"
    write_state_file(str(path), sample_sphere_state(2, 2, 4))
    psi = load_state(str(path))
    assert "_arrays" in vars(psi)
    states, amps = psi.arrays()
    assert np.array_equal(states, np.array(list(psi.terms))) and states.dtype == np.int64
    assert amps.tolist() == list(psi.terms.values())
    assert psi.arrays()[0] is states


def test_load_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        json.dumps(
            {
                "modes": 1,
                "kind": "ket",
                "terms": [
                    {"occ": [0], "re": 1.0, "im": 0.0},
                    {"occ": [0], "re": 0.5, "im": 0.0},
                ],
            }
        )
    )
    with pytest.raises(Exception, match="duplicate"):
        load_state(str(path))


def test_load_rejects_wrong_occupation_length(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"modes": 2, "kind": "ket", "terms": [{"occ": [0], "re": 1.0, "im": 0.0}]})
    )
    with pytest.raises(Exception, match="terms\\[0\\]"):
        load_state(str(path))


_KET = {"modes": 1, "kind": "ket", "terms": [{"occ": [1], "re": 1.0, "im": 0.0}]}
_DENSITY = {"modes": 1, "kind": "density", "entries": [{"bra": [1], "ket": [1], "re": 1.0, "im": 0.0}]}


@pytest.mark.parametrize(
    "doc",
    [
        {**_KET, "modes": True},
        {**_KET, "terms": [{"occ": [True], "re": 1.0, "im": 0.0}]},
        {**_DENSITY, "modes": True},
        {**_DENSITY, "entries": [{"bra": [True], "ket": [1], "re": 1.0, "im": 0.0}]},
        {**_DENSITY, "entries": [{"bra": [1], "ket": [True], "re": 1.0, "im": 0.0}]},
    ],
    ids=["ket-modes", "ket-occ", "density-modes", "density-bra", "density-ket"],
)
def test_json_booleans_in_state_files_exit_2(capsys, tmp_path, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "dim", "--state", str(path), "--group", "go", "--picture", "mixed")
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:")


_HUGE_KET = {**_KET, "terms": [{"occ": [10**20], "re": 1.0, "im": 0.0}]}
# 2**63 - 2 itself fits in int64, but n + 2 does not
_HUGE_DENSITY = {**_DENSITY, "entries": [{"bra": [2**63 - 2], "ket": [2**63 - 2], "re": 1.0, "im": 0.0}]}


@pytest.mark.parametrize(
    "doc, picture",
    [(_HUGE_KET, "ket"), (_HUGE_KET, "ketbra"), (_HUGE_DENSITY, "mixed")],
    ids=["ket", "ketbra", "density"],
)
def test_occupations_beyond_int64_exit_2(capsys, tmp_path, doc, picture):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "dim", "--state", str(path), "--group", "go", "--picture", picture)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and "2**63 - 3" in err


def test_load_density_file(density1):
    rho = load_state(density1)
    assert isinstance(rho, DensityOperator)
    assert rho.trace_residual <= 1e-10


def test_density_state_file_round_trip(tmp_path):
    psi = normalize(SparseKet(2, {(0, 1): 0.25 - 1.5j, (2, 0): 1 / 3}))
    rho = mixture([(0.3, psi), (0.7, basis_ket((1, 1)))])
    path = tmp_path / "density.json"
    write_state_file(str(path), rho)
    again = load_state(str(path))
    assert isinstance(again, DensityOperator)
    assert again.modes == 2
    assert _oracle.density_op(again).entries == _oracle.density_op(rho).entries  # 17 significant digits round-trip losslessly
    assert json.loads(path.read_text())["kind"] == "density"


@pytest.mark.parametrize(
    "build",
    [
        lambda: mixture([(0.3, normalize(SparseKet(2, {(2, 0): 1.0, (0, 1): -0.5j, (1, 1): 0.25}))), (0.7, basis_ket((0, 0)))]),
        lambda: outer(apply_group_word(basis_ket((1, 0)), [(GeneratorDescriptor("R", (1, 2)), 0.2)])),
        lambda: mixture([(0.4, sample_sphere_state(3, 3, 1)), (0.6, sample_sphere_state(3, 3, 2))]),
    ],
    ids=["mixture", "group_word", "rank2_m3_N3"],
)
def test_density_file_lists_the_sorted_entries(tmp_path, build):
    """The file is the document of the operator's entries in sorted
    (bra, ket) order, byte for byte."""
    rho = build()
    path = tmp_path / "rho.json"
    write_state_file(str(path), rho)
    entries = [
        {"bra": list(bra), "ket": list(ket), "re": amp.real, "im": amp.imag}
        for (bra, ket), amp in sorted(_oracle.density_op(rho).entries.items())
    ]
    doc = {"modes": rho.modes, "kind": "density", "entries": entries}
    assert path.read_bytes() == (_oracle.render_json(doc) + "\n").encode("ascii")


@pytest.mark.parametrize("command", ["dim", "gram", "witness", "estimate"])
def test_state_commands_read_the_state_file_once(capsys, tmp_path, monkeypatch, command):
    """dim, gram, witness and estimate open the state file once and report
    the digest of the bytes they parsed."""
    path = tmp_path / "psi.json"
    write_state_file(str(path), sample_sphere_state(2, 1, seed=2))
    opened = []
    real_open = open

    def counted(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    flags = {"dim": ["--group", "go", "--picture", "ket"], "gram": ["--group", "go", "--picture", "ket"],
             "witness": [], "estimate": ["--group", "plo"]}[command]
    code, out, _ = run(capsys, command, "--state", str(path), *flags, "--json")
    assert code == EXIT_OK
    assert opened.count(str(path)) == 1
    assert json.loads(out)["input"] == {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def test_unhashable_kind_exits_2_without_traceback(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**_KET, "kind": ["ket"]}))
    code, out, err = run(capsys, "dim", "--state", str(path), "--group", "go", "--picture", "ket")
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and "'kind'" in err
    assert "Traceback" not in err


# any JSON value, and documents built to come close to a valid state file
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_OCC = st.lists(st.integers(0, 2), min_size=1, max_size=2) | st.lists(st.integers(-1, 3), max_size=3) | _JSON
_NUMBER = st.floats(-1, 1) | st.integers(-2, 2) | st.floats() | _JSON
_FIELDS = {"occ": _OCC, "bra": _OCC, "ket": _OCC, "re": _NUMBER, "im": _NUMBER}
_ENTRY = st.fixed_dictionaries(_FIELDS) | st.fixed_dictionaries({}, optional=_FIELDS) | _JSON
_ENTRIES = st.lists(_ENTRY, max_size=4) | _JSON
_KIND = st.sampled_from(["ket", "density"]) | _JSON
_MODES = st.integers(1, 2) | st.integers(-1, 3) | _JSON
_LISTS = {"terms": _ENTRIES, "entries": _ENTRIES}
_DOCUMENT = (
    st.fixed_dictionaries({"kind": st.sampled_from(["ket", "density"]), "modes": st.integers(1, 2)}, optional=_LISTS)
    | st.fixed_dictionaries({"kind": _KIND, "modes": _MODES}, optional=_LISTS)
    | st.fixed_dictionaries({}, optional={"kind": _KIND, "modes": _MODES, **_LISTS})
    | _JSON
)


@settings(max_examples=500, deadline=None)
@given(doc=_DOCUMENT)
@example(doc=_KET)
@example(doc=_DENSITY)
@example(doc={**_DENSITY, "kind": ["density"]})
@example(doc={**_DENSITY, "modes": 2**28, "entries": []})  # no (2**28)-mode row to rank
def test_load_state_gives_a_state_or_a_state_file_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "arbitrary.json"
    path.write_text(json.dumps(doc))
    try:
        state = load_state(str(path))
    except StateFileError:
        return
    assert isinstance(state, (SparseKet, DensityOperator))


def test_render_json_is_deterministic_and_sorted():
    payload = {"b": 1.5, "a": [True, None, 2], "c": "x"}
    assert render_json(payload) == '{"a":[true,null,2],"b":1.5,"c":"x"}'
    assert render_json({"x": 1 / 3}) == f'{{"x":{1 / 3:.17g}}}'


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_render_json_rejects_non_finite_floats(value):
    with pytest.raises(ValueError, match="non-finite"):
        render_json({"x": [1.0, value]})


# Python's json module reads NaN; 1e200 squares to an infinite norm.
@pytest.mark.parametrize("amp", [math.nan, 1e200], ids=["nan", "overflow"])
@pytest.mark.parametrize(
    "command",
    [
        ["estimate", "--group", "go"],
        ["dim", "--group", "go", "--picture", "ket"],
        ["dim", "--group", "go", "--picture", "ketbra"],
        ["dim", "--group", "go", "--picture", "mixed"],
        ["witness"],
    ],
    ids=lambda c: "-".join(c[::2]),
)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_non_finite_ket_file_exits_2_without_output(capsys, tmp_path, amp, command, as_json):
    path = tmp_path / "ket.json"
    path.write_text(
        json.dumps(
            {
                "modes": 1,
                "kind": "ket",
                "terms": [
                    {"occ": [0], "re": amp, "im": 0.0},
                    {"occ": [1], "re": 0.5, "im": 0.0},
                ],
            }
        )
    )
    argv = [command[0], "--state", str(path), *command[1:]] + (["--json"] if as_json else [])
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    # NaN is refused when the file is parsed, the overflow at the norm check
    assert ("finite" if math.isnan(amp) else "norm") in err


@pytest.mark.parametrize(
    "command",
    [
        ["dim", "--group", "plo", "--picture", "mixed"],
        ["gram", "--group", "go", "--picture", "mixed"],
        ["estimate", "--group", "go"],
    ],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_density_whose_gram_overflows_exits_2_without_output(capsys, tmp_path, command, as_json):
    """The density checks bound no off-diagonal entry, so this file passes
    them; the products of its entries overflow in the Gram matrix and in
    the overlaps of the estimator."""
    path = tmp_path / "rho.json"
    entries = [((0, 0), 0.5), ((0, 1), 1e160), ((1, 0), 1e160), ((1, 1), 0.5)]
    states = [[1, 0], [0, 1]]
    doc = {
        "modes": 2,
        "kind": "density",
        "entries": [{"bra": states[i], "ket": states[j], "re": v, "im": 0.0} for (i, j), v in entries],
    }
    path.write_text(json.dumps(doc))
    argv = [command[0], "--state", str(path), *command[1:]] + (["--json"] if as_json else [])
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize(
    "message, line",
    [
        (("Unable to allocate 1.72 GiB for an array",), "error: out of memory: Unable to allocate 1.72 GiB for an array\n"),
        ((), "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_2_without_traceback(capsys, monkeypatch, message, line):
    def exhausted(*args, **kwargs):
        raise MemoryError(*message)

    monkeypatch.setattr(cli, "verify_closure", exhausted)
    code, out, err = run(capsys, "closure", "--group", "go", "--m", "16", "--json")
    assert code == EXIT_INVALID
    assert out == ""
    assert err == line


# ------------------------------------------------------------------ dim/gram


def test_dim_vacuum_plo(capsys, vacuum2):
    code, out, _ = run(capsys, "dim", "--state", vacuum2, "--group", "plo", "--picture", "ket")
    assert code == EXIT_OK
    assert "dimension: 0" in out


def test_dim_fock11_go_ketbra(capsys, fock11):
    code, out, _ = run(capsys, "dim", "--state", fock11, "--group", "go", "--picture", "ketbra")
    assert code == EXIT_OK
    assert "dimension: 12" in out


def test_dim_json_deterministic(capsys, fock11):
    code1, out1, _ = run(capsys, "dim", "--state", fock11, "--group", "go", "--picture", "ketbra", "--json")
    code2, out2, _ = run(capsys, "dim", "--state", fock11, "--group", "go", "--picture", "ketbra", "--json")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical structured reports
    doc = json.loads(out1)
    assert doc["dimension"] == 12
    assert doc["schema_version"] == 1
    assert "elapsed" not in out1


def test_dim_does_not_mutate_input(capsys, fock11):
    before = Path(fock11).read_bytes()
    run(capsys, "dim", "--state", fock11, "--group", "plo", "--picture", "ket")
    assert Path(fock11).read_bytes() == before


def test_dim_mixed_picture_accepts_ket_file(capsys, fock11):
    code, out, _ = run(capsys, "dim", "--state", fock11, "--group", "go", "--picture", "mixed")
    assert code == EXIT_OK
    assert "dimension: 12" in out


def test_dim_picture_kind_mismatch_exits_3(capsys, density1):
    code, _, err = run(capsys, "dim", "--state", density1, "--group", "plo", "--picture", "ket")
    assert code == EXIT_PICTURE
    assert "mixed" in err


def test_dim_density_mixed_ok(capsys, density1):
    code, out, _ = run(capsys, "dim", "--state", density1, "--group", "plo", "--picture", "mixed")
    assert code == EXIT_OK
    assert "dimension: 0" in out


def test_dim_invalid_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "dim", "--state", str(path), "--group", "plo", "--picture", "ket")
    assert code == EXIT_INVALID
    assert "line" in err


def test_dim_explicit_tolerance(capsys, fock11):
    code, out, _ = run(
        capsys, "dim", "--state", fock11, "--group", "go", "--picture", "ketbra", "--tol", "1e-6", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["tolerance_used"] == 1e-6
    assert doc["relative_tolerance_policy"] is False


@pytest.mark.parametrize("tol", ["-1", "inf"])
def test_dim_rejects_negative_or_infinite_tolerance(capsys, vacuum2, tol):
    # the vacuum under GO in the ketbra picture has dimension 10; --tol -1
    # used to print 15 and --tol inf 0, both with exit 0
    code, out, err = run(capsys, "dim", "--state", vacuum2, "--group", "go", "--picture", "ketbra", "--tol", tol)
    assert code == EXIT_INVALID
    assert out == ""
    assert "rank tolerance" in err


def test_gram_prints_matrix(capsys, fock11):
    code, out, _ = run(capsys, "gram", "--state", fock11, "--group", "plo", "--picture", "ket")
    assert code == EXIT_OK
    assert "matrix:" in out
    assert "e[1,2]" in out


# -------------------------------------------------------------------- table2


def test_table2_m1_all_pass_csv(capsys):
    code, out, _ = run(capsys, "table2", "--m-max", "1", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "family,group,picture,m,params,closed_form,numerical,exactness,known_discrepancy,pass"
    assert all(line.endswith("PASS") for line in lines[1:])


def test_table2_m2_exposes_known_discrepancy(capsys):
    # occupied-tail superposition cells: tabulated PLO ket value undercounts,
    # so they are flagged and pass at the tabulated value + 1
    code, out, _ = run(capsys, "table2", "--m-max", "2", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert all(r["pass"] for r in doc["rows"])

    def occupied_tail(row):
        tail = row["params"].split("|tail=")[1]
        return any(int(n) for n in tail.split(",") if n)

    expected = [
        r for r in doc["rows"]
        if r["family"] == "OneModeSuperposition" and r["group"] == "plo" and r["picture"] == "ket"
        and occupied_tail(r)
    ]
    flagged = [r for r in doc["rows"] if r["known_discrepancy"]]
    assert flagged
    assert flagged == expected
    assert all(r["numerical"] == r["closed_form"] + 1 for r in flagged)


# ------------------------------------------------------------------- generic


def test_generic_small_cell(capsys):
    code, out, _ = run(
        capsys, "generic", "--group", "plo", "--m", "1", "--N", "1",
        "--picture", "ket", "--seeds", "3", "--json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["expected"] == 1
    assert doc["hit_rate"] == 1.0
    assert doc["uniform_phase_dimension"] == 1


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_generic_rejects_seed_count_below_one(capsys, seeds):
    code, out, err = run(
        capsys, "generic", "--group", "plo", "--m", "1", "--N", "1", "--picture", "ket", "--seeds", seeds
    )
    assert code == EXIT_INVALID
    assert out == ""
    assert "--seeds" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "command, option",
    [
        (["generic", "--group", "plo", "--m", "1", "--N", "1", "--picture", "ket", "--seeds", "1", "--seed0", "-1"], "--seed0/--seed"),
        (["generic", "--group", "plo", "--m", "1", "--N", "1", "--picture", "ket", "--seeds", "1", "--seed", "-1"], "--seed0/--seed"),
        (["sample", "--m", "1", "--N", "1", "--seed", "-1", "--out", "{out}"], "--seed"),
    ],
    ids=["generic", "generic-seed", "sample"],
)
def test_negative_seed_is_refused_by_name(capsys, tmp_path, command, option, json_flag):
    out_path = tmp_path / "sampled.json"
    code, out, err = run(capsys, *[arg.format(out=out_path) for arg in command], *json_flag)
    assert code == EXIT_INVALID
    assert out == ""
    assert f"error: {option} must be >= 0, got -1" in err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_generic_vacuum_cell_without_sampling(capsys):
    code, out, _ = run(
        capsys, "generic", "--group", "plo", "--m", "3", "--N", "0", "--picture", "ket", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["expected"] == 0
    assert doc["samples"] == 1
    assert doc["dimensions"] == [0]


# ------------------------------------------------------------------- closure


def test_closure_command(capsys):
    code, out, _ = run(capsys, "closure", "--group", "go", "--m", "2", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["max_residual"] < 1e-10
    assert doc["basis_size"] == 15


# ------------------------------------------------------------------- witness


def test_witness_fock11(capsys, fock11):
    code, out, _ = run(capsys, "witness", "--state", fock11)
    assert code == EXIT_OK
    assert "witnessed: true (12 > 10)" in out


@pytest.mark.parametrize(
    "occupation, verdict", [((1,), "false (4 <= 4)"), ((2,), "false (4 <= 4)"), ((1, 1), "true (12 > 10)")]
)
def test_witness_never_fires_on_one_mode_fock_states(capsys, tmp_path, occupation, verdict):
    """The witness is one-sided: the one-mode Fock states |1> and |2> read
    GO ketbra dimension 4, the threshold m(m + 3) at m = 1, and are not
    witnessed, while |1,1> is."""
    path = tmp_path / "fock.json"
    write_state_file(str(path), basis_ket(occupation))
    code, out, _ = run(capsys, "witness", "--state", str(path))
    assert code == EXIT_OK
    assert f"witnessed: {verdict}" in out


def test_witness_help_names_its_blind_spot(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["witness", "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "one-sided" in help_text and "never fires on a one-mode Fock state" in help_text


def test_witness_rejects_density_file(capsys, density1):
    code, _, err = run(capsys, "witness", "--state", density1)
    assert code == EXIT_PICTURE


# ------------------------------------------------------------------ estimate


def test_estimate_small_deviation(capsys, density1):
    code, out, _ = run(capsys, "estimate", "--state", density1, "--group", "go", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["max_abs_deviation"] < 1e-4


def test_estimate_defaults_are_the_evolution_config_defaults(capsys, density1, monkeypatch):
    """Without --h, --buffer and --leakage-tol, estimate evolves under
    ``EvolutionConfig()``."""
    configs = []

    def refuse(state, group, cfg):
        configs.append(cfg)
        raise ValidationError("evolution config recorded")

    monkeypatch.setattr(cli, "estimate_gram_matrix", refuse)
    code, _, _ = run(capsys, "estimate", "--state", density1, "--group", "go")
    assert (code, configs) == (EXIT_INVALID, [EvolutionConfig()])


def test_estimate_details(capsys, density1):
    code, out, _ = run(capsys, "estimate", "--state", density1, "--group", "plo", "--details", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["entries"][0]["I"] == "N[1]"


def test_estimate_reports_measured_leakage(capsys, density1):
    argv = ("estimate", "--state", density1, "--group", "go", "--leakage-tol", "1e-6", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["working_dimension"] == 18 and doc["cutoff"] == 17  # one mode, 1 + 16 photons
    for field in ("max_boundary_weight", "max_trace_deviation", "hermiticity_residual"):
        assert doc[field] <= 1e-6, field
    assert run(capsys, *argv)[1] == out
    code, text, _ = run(capsys, *argv[:-1])
    assert code == EXIT_OK
    assert "working dimension: 18  cutoff: 17  max boundary weight: " in text


def test_estimate_accepts_ket_file_via_projector(capsys, tmp_path):
    path = tmp_path / "ket.json"
    write_state_file(str(path), basis_ket((1,)))
    code, out, _ = run(capsys, "estimate", "--state", str(path), "--group", "go", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["max_abs_deviation"] < 1e-4


@pytest.mark.parametrize("kind", ["ket", "rank2", "plo-ket", "plo-rank2"])
def test_estimate_details_json_matches_the_recursive_renderer(capsys, tmp_path, kind):
    """The --details --json stdout of an m = 2 estimate, a ket's and a
    rank-2 density's under GO and PLO, equals the recursive renderer's bytes
    of the document it parses to (integers parsed as floats render the
    same), its entries rendered from columns (d = 15 under GO: 120 entries)."""
    group, _, kind = kind.rpartition("-")
    group = group or "go"
    state = {
        "ket": lambda: sample_sphere_state(2, 2, seed=3),
        "rank2": lambda: mixture([(0.7, sample_sphere_state(2, 1, seed=4)), (0.3, sample_sphere_state(2, 1, seed=5))]),
    }[kind]()
    path = tmp_path / f"{kind}.json"
    write_state_file(str(path), state)
    code, out, _ = run(capsys, "estimate", "--state", str(path), "--group", group, "--details", "--json")
    assert code == EXIT_OK
    d = len(lie_basis(Group(group), 2))
    assert len(json.loads(out)["entries"]) == d * (d + 1) // 2
    assert out == _oracle.render_json(json.loads(out, parse_int=float)) + "\n"


def test_estimate_details_text_keeps_labels_apart_past_ten_modes(capsys, tmp_path):
    """At m = 11 a PLO label such as e[10,11] has 8 characters, so the I
    and J columns widen to the longest label and a space: every detail row
    splits into its five fields."""
    path = tmp_path / "m11.json"
    write_state_file(str(path), sample_sphere_state(11, 1, seed=0))
    code, out, _ = run(capsys, "estimate", "--state", str(path), "--group", "plo", "--details")
    assert code == EXIT_OK
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("I "))
    rows = lines[header + 1 : -1]  # the elapsed line closes the output
    d = len(lie_basis(Group.PLO, 11))
    assert len(rows) == d * (d + 1) // 2
    labels = set(lie_basis(Group.PLO, 11).labels)
    for row in rows:
        fields = row.split()
        assert len(fields) == 5 and {fields[0], fields[1]} <= labels, row
    assert "e[10,11] e[10,11] " in out


def test_estimate_reports_the_rows_of_its_working_space(capsys, tmp_path):
    """At m = 1 the GO chains through |1> reach every state of at most 17
    photons, so the working space holds R = D = 18 rows."""
    path = tmp_path / "ket.json"
    write_state_file(str(path), basis_ket((1,)))
    argv = ("estimate", "--state", str(path), "--group", "go")
    code, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert (code, doc["working_rows"], doc["working_dimension"]) == (EXIT_OK, 18, 18)
    code, text, _ = run(capsys, *argv)
    assert code == EXIT_OK and "working rows: 18  working dimension: 18  cutoff: 17  " in text


def test_estimate_refuses_unnormalized_ket_file(capsys, tmp_path):
    path = tmp_path / "ket.json"
    path.write_text(json.dumps({"modes": 1, "kind": "ket", "terms": [{"occ": [1], "re": 2.0, "im": 0.0}]}))
    code, out, err = run(capsys, "estimate", "--state", str(path), "--group", "go", "--json")
    assert code == EXIT_INVALID
    assert out == ""
    assert "not normalized" in err


@pytest.mark.parametrize("as_json", [False, True])
def test_estimate_refuses_a_working_space_past_the_budget(capsys, tmp_path, as_json):
    """A 100,000-photon buffer on |1> gives a 100,002-state chain of q[1],
    whose eigenvectors alone would take about 149 GiB: refused before
    anything is allocated, exit 2, one line naming the size and the option
    to lower, nothing on stdout."""
    path = tmp_path / "ket.json"
    write_state_file(str(path), basis_ket((1,)))
    argv = ("estimate", "--state", str(path), "--group", "go", "--buffer", "100000", *(["--json"] * as_json))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: working space of 100,002 states (cutoff 100001) too large: ")
    assert "100,002-state block" in err and "152,594 MiB" in err and err.endswith("use a smaller --buffer\n")
    assert "Traceback" not in err


def test_estimate_refuses_a_layout_past_the_budget(capsys, tmp_path, monkeypatch):
    """Under a 56 KiB budget the layout of chains of an m = 2, N = 2 GO
    estimate is refused, though each of its chains fits: exit 2, one line,
    nothing on stdout. A layout already in the store passed the refusal
    when it was built, so the store starts empty."""
    monkeypatch.setattr(generators, "_cache", generators._Store())
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 56 << 10)
    path = tmp_path / "ket.json"
    write_state_file(str(path), sample_sphere_state(2, 2, seed=1))
    code, out, err = run(capsys, "estimate", "--state", str(path), "--group", "go", "--json")
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("error: working space of 190 states (cutoff 18) too large: its layout of chains would take ")
    assert err.endswith("use a smaller --buffer\n") and err.count("\n") == 1


def test_estimate_refuses_copies_past_the_budget(capsys, tmp_path, monkeypatch):
    """Under a budget that the layout of a rank-3 m = 2, N = 3 GO estimate
    fits but one time's copies of its 10 columns on its 742 nodes (118,720
    bytes) do not: exit 2, one line, nothing on stdout."""
    monkeypatch.setattr(generators, "_cache", generators._Store())
    monkeypatch.setattr(generators, "_CACHE_BUDGET", 118_000)
    path = tmp_path / "rho.json"
    kets = [sample_sphere_state(2, 3, seed=s) for s in (1, 2, 3)]
    write_state_file(str(path), mixture(list(zip((0.3, 0.3, 0.4), kets))))
    code, out, err = run(capsys, "estimate", "--state", str(path), "--group", "go", "--json")
    assert (code, out) == (EXIT_INVALID, "")
    copies = "its evolved copies on 742 nodes would take "
    assert err.startswith(f"error: working space of 210 states (cutoff 19) too large: {copies}")
    assert err.endswith("use a smaller --buffer\n") and err.count("\n") == 1


def test_estimate_leakage_exits_4(capsys, tmp_path):
    path = tmp_path / "sup.json"
    write_state_file(str(path), normalize(SparseKet(1, {(0,): 1.0, (2,): 1.0})))
    code, _, err = run(
        capsys, "estimate", "--state", str(path), "--group", "go",
        "--buffer", "0", "--leakage-tol", "1e-12",
    )
    assert code == EXIT_LEAKAGE
    assert "buffer" in err


@pytest.mark.parametrize(
    "option, value",
    [
        ("--h", "1e-300"),  # (h/2)^2 underflows to 0
        ("--h", "1e-170"),
        ("--h", "inf"),
        ("--h", "nan"),
        ("--leakage-tol", "inf"),  # would switch every leakage check off
    ],
)
@pytest.mark.parametrize("as_json", [False, True])
def test_estimate_non_finite_step_or_tolerance_exits_2(capsys, density1, option, value, as_json):
    argv = ["estimate", "--state", density1, "--group", "go", option, value] + ["--json"] * as_json
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "m, n_cutoff, seed, group, step",
    [(3, 1, 0, "go", "1e-8"), (1, 3, 1, "plo", "1e300")],
    ids=["go-tiny-step", "plo-huge-step"],
)
def test_estimate_outside_the_acceptance_bound_exits_1(capsys, tmp_path, m, n_cutoff, seed, group, step):
    path = str(tmp_path / "sample.json")
    write_state_file(path, sample_sphere_state(m, n_cutoff, seed))
    argv = ["estimate", "--state", path, "--group", group]
    code, _, err = run(capsys, *argv)  # the default step meets the bound
    assert code == EXIT_OK
    assert err == ""
    code, out, err = run(capsys, *argv, "--h", step)
    assert code == EXIT_MISMATCH
    assert "max |estimated - direct| over all (I, J): " in out  # the usual report
    assert out.splitlines()[-1].startswith("elapsed: ")
    assert len(err.splitlines()) == 1 and "times the bound" in err
    labels = lie_basis(Group(group), m).labels
    worst = err[err.index(" at (") + 5 : err.index(") is ")].split(", ")
    assert len(worst) == 2 and set(worst) <= set(labels)
    code, out, _ = run(capsys, *argv, "--h", step, "--json")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["max_abs_deviation"] > 1e-4


# -------------------------------------------------------------------- parser


def test_parser_is_built_once_per_process(capsys, fock11):
    cli._build_parser.cache_clear()
    for _ in range(2):
        code, _, _ = run(capsys, "dim", "--state", fock11, "--group", "plo", "--picture", "ket")
        assert code == EXIT_OK
    assert cli._build_parser.cache_info().misses == 1


def test_parsed_options_do_not_leak_between_calls(capsys, fock11):
    argv = ("dim", "--state", fock11, "--group", "plo", "--picture", "ket")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK and json.loads(out)["dimension"] == 3
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.startswith("state: ") and "dimension: 3" in out.splitlines()


def test_parser_works_after_an_argparse_error(capsys, fock11):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--state", fock11, "--group", "nonsense", "--picture", "ket"])
    assert exc.value.code == EXIT_INVALID
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run(capsys, "dim", "--state", fock11, "--group", "plo", "--picture", "ket", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["group"] == "plo"


# -------------------------------------------------------------------- sample


def test_sample_writes_deterministic_state(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code, report, _ = run(capsys, "sample", "--m", "2", "--N", "2", "--seed", "9", "--out", str(out1), "--json")
    assert code == EXIT_OK
    assert json.loads(report)["sha256"] == hashlib.sha256(out1.read_bytes()).hexdigest()
    run(capsys, "sample", "--m", "2", "--N", "2", "--seed", "9", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    psi = load_state(str(out1))
    assert abs(psi.norm() - 1.0) < 1e-12
    assert len(psi.terms) == math.comb(4, 2)


def test_sample_to_unwritable_path_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "sample", "--m", "1", "--N", "1", "--out", str(target))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_sample_json_to_a_pipe_returns(tmp_path):
    """Written to stdout through a pipe, which cannot be read back, the
    state file and then the report arrive, the report's sha256 that of the
    state file's bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = [sys.executable, "-W", "error", "-m", "orbitdim.cli", "sample", "--m", "1", "--N", "1", "--json"]
    done = subprocess.run([*argv, "--out", "/dev/stdout"], capture_output=True, timeout=30, env=env, check=True)
    state, report = done.stdout.splitlines(keepends=True)
    assert json.loads(report)["sha256"] == hashlib.sha256(state).hexdigest()
    assert write_state_file(str(tmp_path / "psi.json"), sample_sphere_state(1, 1, 0)) == state


# ----------------------------------------------------------------- cnot-demo


def test_cnot_demo_command(capsys):
    code, out, _ = run(capsys, "cnot-demo", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["dim_plus_zero"], doc["dim_bell"]) == (38, 37)
    assert doc["distinct"] is True


def test_cnot_demo_other_group_informational(capsys):
    code, out, _ = run(capsys, "cnot-demo", "--group", "plo", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["group"] == "plo"


_COMMANDS = {
    "dim": ["dim", "--state", "{ket}", "--group", "plo", "--picture", "ket"],
    "gram": ["gram", "--state", "{ket}", "--group", "plo", "--picture", "ketbra"],
    "table2": ["table2", "--m-max", "1"],
    "generic": ["generic", "--group", "plo", "--m", "1", "--N", "1", "--picture", "ket", "--seeds", "1"],
    "closure": ["closure", "--group", "plo", "--m", "1"],
    "witness": ["witness", "--state", "{ket}"],
    "estimate": ["estimate", "--state", "{density}", "--group", "plo"],
    "sample": ["sample", "--m", "1", "--N", "1", "--out", "{out}"],
    "cnot-demo": ["cnot-demo", "--group", "plo"],
}


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_json_envelope_names_schema_and_command(capsys, tmp_path, fock11, density1, name):
    paths = {"ket": fock11, "density": density1, "out": str(tmp_path / "sampled.json")}
    code, out, _ = run(capsys, *[arg.format(**paths) for arg in _COMMANDS[name]], "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == name


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_only_the_ranking_commands_take_tol(capsys, tmp_path, fock11, density1, name):
    paths = {"ket": fock11, "density": density1, "out": str(tmp_path / "sampled.json")}
    argv = [arg.format(**paths) for arg in _COMMANDS[name]] + ["--tol", "1e-6", "--json"]
    if name in ("closure", "estimate", "sample"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INVALID
        assert captured.out == ""
        assert "unrecognized arguments: --tol 1e-6" in captured.err
        assert not (tmp_path / "sampled.json").exists()
    else:
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["command"] == name


# ------------------------------------------------------------------- fuzzing


def _samples(modes):
    return st.builds(sample_sphere_state, modes, st.integers(0, 3), st.integers(0, 2**32 - 1))


_SAMPLE = _samples(st.integers(1, 3))
_MIXTURE = st.integers(1, 3).flatmap(
    lambda m: st.builds(
        lambda w, a, b: mixture([(w, a), (1.0 - w, b)]), st.floats(0.05, 0.95), _samples(st.just(m)), _samples(st.just(m))
    )
)
_GROUP_ARG = st.sampled_from(cli._GROUPS).map(lambda g: ["--group", g])
_PICTURE_ARG = st.sampled_from(cli._PICTURES).map(lambda p: ["--picture", p])
#: the values an argv draws for a size (--m, --N, --m-max), a ranking
#: tolerance and an estimate's options, well formed or at an edge
_WELL_FORMED = {
    "size": st.integers(1, 3),
    "tol": st.sampled_from([[], ["--tol", "1e-6"]]),
    "estimate": st.sampled_from([[], ["--h", "0.01"], ["--buffer", "0"], ["--buffer", "2"], ["--details"]]),
}
_EDGE = {
    "size": st.integers(-1, 0),
    "tol": st.sampled_from([["--tol", "-1"], ["--tol", "inf"]]),
    "estimate": st.sampled_from([["--buffer", "-1"], ["--buffer", str(2**63)], ["--h", "1e-300"]]),
}


@st.composite
def _invocations(draw):
    """An argv of any command, with "{state}" and "{out}" for the paths of
    its state file and output file, and the state file's contents: a
    sphere sample, a mixture of two, or a document near a state file. Half
    the argvs draw their options at an edge: a size of -1 or 0 (each size
    at an edge or not), a negative or infinite tolerance, a negative
    buffer or one past int64, or an underflowing step."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    state = draw(draw(st.sampled_from([_SAMPLE, _MIXTURE, _DOCUMENT])))
    values = draw(st.sampled_from([_WELL_FORMED, _EDGE]))
    m, n = (str(draw(draw(st.sampled_from([_WELL_FORMED, values]))["size"])) for _ in range(2))
    group, picture, tol = draw(_GROUP_ARG), draw(_PICTURE_ARG), draw(values["tol"])
    argv = {
        "dim": ["--state", "{state}", *group, *picture, *tol],
        "gram": ["--state", "{state}", *group, *picture, *tol],
        "table2": ["--m-max", m, *tol],
        "generic": [*group, *picture, "--m", m, "--N", n, "--seeds", str(draw(st.integers(0, 2))), *tol],
        "closure": [*group, "--m", m],
        "witness": ["--state", "{state}", *tol],
        "estimate": ["--state", "{state}", *group, *draw(values["estimate"])],
        "sample": ["--m", m, "--N", n, "--seed", str(draw(st.integers(0, 9))), "--out", "{out}"],
        "cnot-demo": [*group, *tol],
    }[name]
    return [name, *argv, *draw(st.sampled_from([[], ["--json"]]))], state


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invocation=_invocations())
def test_fuzzed_commands_exit_0_to_4_without_traceback(tmp_path_factory, invocation):
    """Every command at m <= 3 and N <= 3, on sphere samples, mixtures and
    documents near a state file, with edge arguments among its options:
    the exit code is in 0..4, stderr holds no traceback, and --json stdout
    parses whenever the command ran (exit 0 or 1)."""
    argv, state = invocation
    base = tmp_path_factory.getbasetemp()
    paths = {"state": str(base / "fuzzed.json"), "out": str(base / "fuzzed_out.json")}
    if isinstance(state, (SparseKet, DensityOperator)):
        write_state_file(paths["state"], state)
    else:
        Path(paths["state"]).write_text(json.dumps(state))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.format(**paths) for arg in argv])
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    if "--json" in argv and code in (EXIT_OK, EXIT_MISMATCH):
        json.loads(out.getvalue())


# ------------------------------------------------- bulk reading, one-pass rendering


def _outcome(read, path):
    """A reader's error message, or the state it built, down to term order."""
    try:
        state = read(path)
    except StateFileError as exc:
        return "error", str(exc)
    if isinstance(state, SparseKet):
        return "ket", state.modes, list(state.terms.items())
    return (
        "density",
        state.modes,
        list(_oracle.density_op(state).entries.items()),
        state.hermiticity_residual,
        state.trace_residual,
        state.support.tolist(),
        state.matrix.tolist(),
    )


# occupations around the int64 bound, so that the range check is reached
_WIDE_OCC = st.lists(st.integers(0, 2) | st.sampled_from([2**63 - 3, 2**63 - 2, 10**20]), min_size=1, max_size=2)
_WIDE_ENTRY = st.fixed_dictionaries({"occ": _WIDE_OCC, "bra": _WIDE_OCC, "ket": _WIDE_OCC, "re": _NUMBER, "im": _NUMBER})
_WIDE_DOCUMENT = st.fixed_dictionaries(
    {"kind": st.sampled_from(["ket", "density"]), "modes": st.integers(1, 2)},
    optional={"terms": st.lists(_WIDE_ENTRY, max_size=4), "entries": st.lists(_WIDE_ENTRY, max_size=4)},
)


@settings(max_examples=500, deadline=None)
@given(doc=_DOCUMENT | _WIDE_DOCUMENT)
@example(doc={**_KET, "terms": [{"occ": [2**63 - 2], "re": 1.0, "im": 0.0}, {"occ": [0], "re": "x", "im": 0.0}]})
@example(doc={**_KET, "terms": [{"occ": [1], "re": 0.0, "im": 0.0}, {"occ": [1], "re": 1.0, "im": 0.0}]})
@example(doc={**_KET, "terms": [{"occ": [0], "re": 0.0, "im": -0.0}, {"occ": [1], "re": 1.0, "im": 0.0}]})
@example(doc={**_KET, "terms": [{"occ": [1], "re": 10**400, "im": 0.0}]})
@example(doc={**_DENSITY, "entries": [{"bra": [0], "ket": [2**64], "re": 0.0, "im": 0.0}, {"bra": [1], "ket": [1]}]})
@example(doc={**_DENSITY, "modes": 2**28, "entries": []})
def test_load_state_matches_the_per_entry_reference(tmp_path_factory, doc):
    """The bulk reader names the same first failing entry with the same
    message as a reader that checks one entry at a time, and otherwise
    builds the same state, term for term and in the same order."""
    path = str(tmp_path_factory.getbasetemp() / "reference.json")
    Path(path).write_text(json.dumps(doc))
    assert _outcome(load_state, path) == _outcome(_oracle.load_state_per_entry, path)


def test_integer_amplitude_past_the_float_range_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"modes": 1, "kind": "ket", "terms": [{"occ": [0], "re": 1' + "0" * 400 + ', "im": 0}]}')
    code, out, err = run(capsys, "dim", "--state", str(path), "--group", "go", "--picture", "ket")
    assert code == EXIT_INVALID and out == ""
    assert err.startswith(f"error: {path}: terms[0] 're'/'im' must be finite, got 1000")


_UNPARSEABLE = {
    # each bracket opens a level: deeper than the parser's recursion limit
    "nested": "[" * 200_000 + "]" * 200_000,
    # past the interpreter's 4,300-digit limit on converting text to int
    "digits": '{"modes": ' + "7" * 5_000 + ', "kind": "ket", "terms": []}',
}


@pytest.mark.parametrize("name", sorted(_UNPARSEABLE))
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_unparseable_state_file_exits_2_naming_the_file(capsys, tmp_path, name, as_json):
    path = tmp_path / f"{name}.json"
    path.write_text(_UNPARSEABLE[name])
    flags = ["--json"] if as_json else []
    code, out, err = run(capsys, "dim", "--state", str(path), "--group", "go", "--picture", "ket", *flags)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


_RENDER_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | st.text(max_size=6)
)
_RENDERABLE = st.recursive(
    # lists of floats alone, rendered in one pass, drawn as leaves: a branch
    # of the extension that ignores its argument is deprecated
    _RENDER_LEAVES | st.lists(st.floats() | st.floats().map(np.float64), max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=500, deadline=None)
@given(value=_RENDERABLE)
def test_render_json_matches_the_recursive_renderer(value):
    try:
        expected = _oracle.render_json(value)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            render_json(value)
        assert str(raised.value) == str(exc)
        return
    assert render_json(value) == expected


#: Labels with the characters a %-template or a JSON string must escape.
_LABELS = ["e[1,2]", "100%", 'say "hi"', "back\\slash", "%s%%", "\u00e9"]


@pytest.mark.parametrize(
    "floats",
    [
        [0.5, -0.0, 5e-324, -1.25e300, 1.0 / 3.0, 0.1],
        [0.0, 1.0, 2.0, math.nan, 4.0, 5.0],
        [0.0, math.inf, 2.0, math.nan, -math.inf, 5.0],
        [],
    ],
    ids=["finite", "nan", "inf-first", "empty"],
)
@pytest.mark.parametrize("key", ["fine", "50%"])
def test_columns_render_as_the_recursive_renderer_renders_their_rows(floats, key):
    """Rows given as columns, labels quoted and floats at 17 significant
    digits, render with the bytes of the recursive reference renderer of
    the same rows as dicts, a key containing % included; the first
    non-finite float by row, then by key, raises the same ValueError."""
    n = len(floats)
    columns = {"I": _LABELS[:n], "J": _LABELS[::-1][:n], "direct": np.array(floats), key: -np.array(floats[::-1])}
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    try:
        expected = _oracle.render_json(rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            render_json(cli._Columns(columns))
        assert str(raised.value) == str(exc)
        return
    assert render_json(cli._Columns(columns)) == expected
    assert render_json({"entries": cli._Columns(columns)}) == _oracle.render_json({"entries": rows})
