"""Command-line surface: state files, reports, exit codes, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from orbitdim import DensityOperator, SparseKet, basis_ket, normalize
from orbitdim.cli import (
    EXIT_INVALID,
    EXIT_LEAKAGE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PICTURE,
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


def test_load_density_file(density1):
    rho = load_state(density1)
    assert isinstance(rho, DensityOperator)
    assert rho.trace_residual <= 1e-10


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


def test_witness_rejects_density_file(capsys, density1):
    code, _, err = run(capsys, "witness", "--state", density1)
    assert code == EXIT_PICTURE


# ------------------------------------------------------------------ estimate


def test_estimate_small_deviation(capsys, density1):
    code, out, _ = run(capsys, "estimate", "--state", density1, "--group", "go", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["max_abs_deviation"] < 1e-4


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


def test_estimate_refuses_unnormalized_ket_file(capsys, tmp_path):
    path = tmp_path / "ket.json"
    path.write_text(json.dumps({"modes": 1, "kind": "ket", "terms": [{"occ": [1], "re": 2.0, "im": 0.0}]}))
    code, out, err = run(capsys, "estimate", "--state", str(path), "--group", "go", "--json")
    assert code == EXIT_INVALID
    assert out == ""
    assert "not normalized" in err


def test_estimate_leakage_exits_4(capsys, tmp_path):
    path = tmp_path / "sup.json"
    write_state_file(str(path), normalize(SparseKet(1, {(0,): 1.0, (2,): 1.0})))
    code, _, err = run(
        capsys, "estimate", "--state", str(path), "--group", "go",
        "--buffer", "0", "--leakage-tol", "1e-12",
    )
    assert code == EXIT_LEAKAGE
    assert "buffer" in err


# -------------------------------------------------------------------- sample


def test_sample_writes_deterministic_state(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code, _, _ = run(capsys, "sample", "--m", "2", "--N", "2", "--seed", "9", "--out", str(out1))
    assert code == EXIT_OK
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
