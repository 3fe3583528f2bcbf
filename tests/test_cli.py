"""Spec-file loading, round-trips, and the CLI surface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from moritalab.cli import DEMOS, main
from moritalab.errors import SpecError
from moritalab.rings.base import cyclic_ring, matrix_ring
from moritalab.rings.bimodules import column_module, regular_bimodule, row_module
from moritalab.specfile import (
    SpecFile,
    load_spec_dict,
    load_spec_file,
    serialize_spec,
)
from moritalab.wstar import (
    MultiMatrixAlgebra,
    State,
    block_correspondence,
    vector_correspondence,
)


def _demo_doc(name):
    return DEMOS[name]()


class TestSpecFile:
    def test_round_trip_is_stable(self):
        for name in DEMOS:
            doc = _demo_doc(name)
            again = serialize_spec(load_spec_dict(doc))
            assert json.loads(json.dumps(again)) == json.loads(json.dumps(doc))

    def test_loaded_objects_match_originals(self):
        Z2 = cyclic_ring(2)
        M2 = matrix_ring(Z2, 2)
        col = column_module(Z2, 2, M2)
        spec = SpecFile(rings={"Z2": Z2, "M2": M2}, bimodules={"col": col})
        loaded = load_spec_dict(serialize_spec(spec))
        assert loaded.rings["Z2"] == Z2
        assert loaded.rings["M2"] == M2
        assert loaded.bimodules["col"] == col

    def test_unreduced_action_entries_serialize_reduced(self):
        # a bimodule keeps its actions with row a reduced modulo the carrier
        # factor f_a, so an entry moved by a multiple of f_a is written reduced
        doc = _demo_doc("matrix-ring-pair")
        action = doc["bimodules"]["column"]["left_action"]
        original = load_spec_dict(doc).bimodules["column"]
        m, i, j = _first_one(action)
        f = doc["bimodules"]["column"]["carrier"][i]
        action[m][i][j] += 3 * f
        loaded = load_spec_dict(doc).bimodules["column"]
        assert loaded == original
        written = serialize_spec(load_spec_dict(doc))["bimodules"]["column"]["left_action"]
        assert written[m][i][j] == 1
        assert written == original.left_action.tolist()
        again = load_spec_dict(serialize_spec(load_spec_dict(doc))).bimodules["column"]
        assert again == original

    def test_state_and_correspondence_round_trip(self):
        A = MultiMatrixAlgebra((2, 1))
        rho = np.diag([0.3, 0.3, 0.4]).astype(np.complex128)
        spec = SpecFile(
            algebras={"A": A, "M2": MultiMatrixAlgebra((2,)),
                      "C": MultiMatrixAlgebra((1,))},
            states={"phi": State(A, rho)},
            correspondences={"H": vector_correspondence(2)},
        )
        loaded = load_spec_dict(serialize_spec(spec))
        assert np.allclose(loaded.states["phi"].density, rho)
        H = loaded.correspondences["H"]
        assert H.dim == 2
        for U, V in zip(H.pi_l_units, vector_correspondence(2).pi_l_units):
            assert np.allclose(U, V)

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError):
            load_spec_dict({"ringz": {}})

    def test_bad_ring_rejected(self):
        doc = {"rings": {"R": {"invariant_factors": [2],
                               "mult_table": [[[0]]],  # zero ring
                               "unit": [0]}}}
        with pytest.raises(SpecError):
            load_spec_dict(doc)

    def test_missing_field_names_the_definition(self):
        doc = {"rings": {"R": {"invariant_factors": [2]}}}
        with pytest.raises(SpecError, match="ring 'R'"):
            load_spec_dict(doc)

    def test_unresolved_task_reference(self):
        doc = {"tasks": [{"task": "check-ring", "ring": "nope"}]}
        with pytest.raises(SpecError, match="nope"):
            load_spec_dict(doc)

    @pytest.mark.parametrize("task", [
        {"task": "coherence-rings", "count": "many"},
        {"task": "coherence-rings", "count": -3},
        {"task": "coherence-rings", "count": 0},
        {"task": "coherence-wstar", "count": 2.5},
        {"task": "coherence-wstar", "seed": "7"},
        {"task": "coherence-rings", "seed": -1},
        {"task": "coherence-rings", "count": True},
    ])
    def test_bad_optional_task_field(self, task):
        with pytest.raises(SpecError, match="task 0"):
            load_spec_dict({"tasks": [task]})

    def test_bad_samples_and_flag(self):
        Z2 = cyclic_ring(2)
        doc = serialize_spec(SpecFile(rings={"Z2": Z2},
                                      bimodules={"P": regular_bimodule(Z2)}))
        doc["tasks"] = [{"task": "morita-ring", "bimodule": "P",
                         "check_end_ring": "yes"}]
        with pytest.raises(SpecError, match="check_end_ring"):
            load_spec_dict(doc)
        doc = serialize_spec(SpecFile(
            algebras={"C": MultiMatrixAlgebra((1,))},
            correspondences={"H": vector_correspondence(1)}))
        doc["tasks"] = [{"task": "fusion", "left": "H", "right": "H",
                         "samples": 0}]
        with pytest.raises(SpecError, match="samples"):
            load_spec_dict(doc)

    def test_unknown_task_kind(self):
        doc = {"tasks": [{"task": "frobnicate"}]}
        with pytest.raises(SpecError):
            load_spec_dict(doc)

    def test_non_string_task_kind(self):
        with pytest.raises(SpecError, match="unknown task kind"):
            load_spec_dict({"tasks": [{"task": ["check-ring"]}]})

    def test_bad_complex_entry(self):
        doc = {"algebras": {"A": {"block_sizes": [1]}},
               "states": {"s": {"algebra": "A", "density": [[[1.0]]]}}}
        with pytest.raises(SpecError):
            load_spec_dict(doc)

    def test_boolean_complex_entry_rejected(self):
        doc = {"algebras": {"A": {"block_sizes": [1]}},
               "states": {"s": {"algebra": "A", "density": [[[[1, 0]]]]}}}
        load_spec_dict(doc)
        doc["states"]["s"]["density"] = [[[[True, False]]]]
        with pytest.raises(SpecError, match="number pairs"):
            load_spec_dict(doc)

    def test_invalid_correspondence_rejected(self):
        A = {"block_sizes": [2]}
        doc = {"algebras": {"A": A, "C": {"block_sizes": [1]}},
               "correspondences": {"H": {
                   "left": "A", "right": "C", "dim": 2,
                   "pi_l": [[[[1.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [0.0, 0.0]]]] * 4,
                   "pi_r": [[[[1.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [0.0, 1.0]]]]}}}
        with pytest.raises(SpecError):
            load_spec_dict(doc)

    def test_file_loader_errors(self, tmp_path):
        with pytest.raises(SpecError):
            load_spec_file(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        with pytest.raises(SpecError):
            load_spec_file(str(bad))


def _first_one(matrices):
    """(matrix, row, column) of the first entry equal to 1."""
    for m, M in enumerate(matrices):
        for i, row in enumerate(M):
            for j, v in enumerate(row):
                if v == 1:
                    return m, i, j
    raise AssertionError("no entry equal to 1")


def _set_action_entry(doc, value):
    action = doc["bimodules"]["column"]["left_action"]
    m, i, j = _first_one(action)
    action[m][i][j] = value


def _set_unit(doc, value):
    doc["rings"]["Z2"]["unit"] = [value]


def _set_table_entry(doc, value):
    doc["rings"]["Z2"]["mult_table"] = [[[value]]]


def _set_block_size(doc, value):
    doc["algebras"]["C"]["block_sizes"] = [value]


def _set_dim(doc, value):
    doc["correspondences"]["H"]["dim"] = value


def _ring_pair_doc():
    return _demo_doc("matrix-ring-pair")


def _vector_doc():
    return serialize_spec(SpecFile(
        algebras={"C": MultiMatrixAlgebra((1,))},
        correspondences={"H": vector_correspondence(1)}))


# each value would truncate or coerce to the valid entry it replaces; the
# message shows that the loader's integer check, not a later one, refused it
MATRIX, VECTOR = "nested integer array", "integer vector"
NON_INTEGERS = [
    (_ring_pair_doc, _set_action_entry, 1.9, MATRIX),
    (_ring_pair_doc, _set_action_entry, "1", MATRIX),
    (_ring_pair_doc, _set_action_entry, True, MATRIX),
    (_ring_pair_doc, _set_unit, True, VECTOR),
    (_ring_pair_doc, _set_table_entry, True, VECTOR),
    (_vector_doc, _set_block_size, True, VECTOR),
    (_vector_doc, _set_dim, True, "dim must be a nonnegative integer"),
]


class TestIntegerBoundary:
    @pytest.mark.parametrize("build, mutate, value, why", NON_INTEGERS)
    def test_non_integer_rejected(self, build, mutate, value, why, tmp_path,
                                  capsys):
        doc = build()
        load_spec_dict(doc)  # the unmutated document is valid
        mutate(doc, value)
        with pytest.raises(SpecError, match=why):
            load_spec_dict(doc)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["run", str(spec_path)]) == 2


class TestDemos:
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demo_passes(self, name, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["demo", name, "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["all_pass"] is True
        assert report["tool"] == "moritalab"
        assert report["input_digest"].startswith("sha256:")
        assert all(row["status"] == "Pass" for row in report["tasks"])

    @pytest.mark.parametrize("name", ["mn-vs-c", "non-tracial-fusion"])
    def test_morita_wstar_data_do_not_depend_on_seed(self, name, tmp_path,
                                                     capsys):
        data = []
        for seed in ("0", "5"):
            path = tmp_path / f"r{seed}.json"
            main(["demo", name, "--seed", seed, "--report", str(path)])
            data.append([row["data"] for row in
                         json.loads(path.read_text())["tasks"]
                         if row["task"] == "morita-wstar"])
        assert data[0] and data[0] == data[1]
        assert data[0][0]["multiplicities"] == [[1]]

    def test_demo_spec_out_reloads(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        rc = main(["demo", "non-tracial-fusion", "--spec-out", str(spec_path),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 0
        loaded = load_spec_file(str(spec_path))
        assert set(loaded.states) == {"phi"}
        assert len(loaded.tasks) == 3


class TestRunCommand:
    def test_run_exit_zero_and_stdout_report(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        main(["demo", "matrix-ring-pair", "--spec-out", str(spec_path),
              "--report", str(tmp_path / "ignored.json")])
        capsys.readouterr()
        rc = main(["run", str(spec_path)])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert report["version"]

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2

    def test_invalid_spec_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"tasks": [{"task": "morita-ring", "bimodule": "ghost"}]}))
        assert main(["run", str(bad)]) == 2

    def test_task_error_exit_one(self, tmp_path, capsys):
        Z2, Z4 = cyclic_ring(2), cyclic_ring(4)
        doc = serialize_spec(SpecFile(
            rings={"Z2": Z2, "Z4": Z4},
            bimodules={"P": regular_bimodule(Z2), "Q": regular_bimodule(Z4)},
            tasks=({"task": "tensor", "left": "P", "right": "Q"},)))
        spec_path = tmp_path / "mismatch.json"
        spec_path.write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        rc = main(["run", str(spec_path), "--report", str(report_path)])
        assert rc == 1
        report = json.loads(report_path.read_text())
        row = report["tasks"][0]
        assert row["status"] == "Error"
        assert "RingMismatch" in row["detail"]

    def test_refuted_task_exit_one(self, tmp_path, capsys):
        from moritalab.rings.bimodules import scalar_bimodule
        Z4 = cyclic_ring(4)
        doc = serialize_spec(SpecFile(
            rings={"Z4": Z4},
            bimodules={"D": scalar_bimodule(Z4, Z4, 2)},
            tasks=({"task": "morita-ring", "bimodule": "D"},)))
        spec_path = tmp_path / "refuted.json"
        spec_path.write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        rc = main(["run", str(spec_path), "--report", str(report_path)])
        assert rc == 1
        report = json.loads(report_path.read_text())
        assert report["tasks"][0]["status"] == "Refuted"

    @pytest.mark.parametrize("count", ["many", -3])
    def test_bad_task_count_exit_two(self, tmp_path, capsys, count):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"tasks": [{"task": "coherence-rings", "count": count}]}))
        assert main(["run", str(spec_path)]) == 2
        assert "count" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"],
        ["--max-dim", "0"], ["--max-order", "0"], ["--threads", "2"],
    ])
    def test_bad_flag_exit_two(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "mn-vs-c", "--report",
                  str(tmp_path / "r.json")] + flags)
        assert exc.value.code == 2
        assert not (tmp_path / "r.json").exists()

    def test_dimension_cap_below_chain_length_errors(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["demo", "mn-vs-c", "--max-dim", "3",
                   "--report", str(report_path)])
        assert rc == 1
        rows = json.loads(report_path.read_text())["tasks"]
        assert [r["status"] for r in rows] == ["Pass", "Pass", "Error"]
        assert "CapExceeded" in rows[2]["detail"]

    @pytest.mark.parametrize("flags, rc, status", [([], 1, "Error"),
                                                   (["--max-dim", "25"], 0, "Pass")])
    def test_fusion_ambient_cap_is_max_dim_squared(self, tmp_path, capsys,
                                                   flags, rc, status):
        # L2(M_5) with itself has ambient 25 * 25 = 625, past 24 ** 2 = 576
        M5 = MultiMatrixAlgebra((5,), name="M5")
        doc = serialize_spec(SpecFile(
            algebras={"M5": M5},
            correspondences={"L": block_correspondence(M5, M5, [[1]])},
            tasks=({"task": "fusion", "left": "L", "right": "L", "samples": 5},)))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        assert main(["run", str(spec_path), "--report", str(report_path)] + flags) == rc
        (row,) = json.loads(report_path.read_text())["tasks"]
        assert row["status"] == status
        if status == "Error":
            assert row["detail"] == ("CapExceeded: ambient tensor dimension "
                                     "625 exceeds 576")
        else:
            assert row["data"]["fused_dim"] == 25

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"tasks": [{"task": "coherence-rings", "count": 1}]}))
        monkeypatch.setenv("MORITALAB_SEED", "123")
        report_path = tmp_path / "report.json"
        assert main(["run", str(spec_path), "--seed", "7",
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["seed"] == 123
        assert report["tasks"][0]["data"]["seed"] == 123


    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_seed_env_exit_two(self, tmp_path, capsys, monkeypatch,
                                   value):
        monkeypatch.setenv("MORITALAB_SEED", value)
        report_path = tmp_path / "r.json"
        assert main(["demo", "mn-vs-c", "--report", str(report_path)]) == 2
        assert "MORITALAB_SEED" in capsys.readouterr().err
        assert not report_path.exists()

    @staticmethod
    def _unwritable(tmp_path, kind):
        """A path no open() for writing accepts, root's included."""
        return tmp_path / "missing" / "out.json" if kind == "missing-dir" else tmp_path

    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", ["run", "demo"])
    def test_unwritable_report_exit_two_before_any_task(self, tmp_path, capsys,
                                                        monkeypatch, command, kind):
        import moritalab.cli as cli
        ran = []
        monkeypatch.setattr(cli, "run_spec", lambda *args: ran.append(args))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_demo_doc("mn-vs-c")))
        target = ["run", str(spec_path)] if command == "run" else ["demo", "mn-vs-c"]
        report = self._unwritable(tmp_path, kind)
        assert main(target + ["--report", str(report)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(report) in err[0], err
        assert ran == []

    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    def test_unwritable_spec_out_exit_two_before_any_task(self, tmp_path, capsys,
                                                          monkeypatch, kind):
        import moritalab.cli as cli
        ran = []
        monkeypatch.setattr(cli, "run_spec", lambda *args: ran.append(args))
        spec_out, report = self._unwritable(tmp_path, kind), tmp_path / "r.json"
        assert main(["demo", "mn-vs-c", "--spec-out", str(spec_out),
                     "--report", str(report)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(spec_out) in err[0], err
        assert ran == [] and not report.exists()

    def test_unexpected_exception_becomes_error_row(self, tmp_path, capsys,
                                                    monkeypatch):
        from moritalab.rings.families import CoherencePool

        def fail(*args, **kwargs):
            raise RuntimeError("could not sample a composable chain")

        monkeypatch.setattr(CoherencePool, "sample_chain", fail)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(serialize_spec(SpecFile(
            rings={"Z2": cyclic_ring(2)},
            tasks=({"task": "coherence-rings", "count": 1},
                   {"task": "check-ring", "ring": "Z2"})))))
        report_path = tmp_path / "report.json"
        assert main(["run", str(spec_path),
                     "--report", str(report_path)]) == 1
        rows = json.loads(report_path.read_text())["tasks"]
        assert [r["status"] for r in rows] == ["Error", "Pass"]
        assert "RuntimeError" in rows[0]["detail"]

    def test_ring_coherence_on_zero_cells_fails(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["demo", "matrix-ring-pair", "--max-order", "1",
                   "--report", str(report_path)])
        assert rc == 1
        row = json.loads(report_path.read_text())["tasks"][-1]
        assert row["task"] == "coherence-rings"
        assert row["status"] == "Fail"
        assert row["data"]["nonzero_tuples"] == 0
        assert main(["demo", "matrix-ring-pair",
                     "--report", str(report_path)]) == 0
        row = json.loads(report_path.read_text())["tasks"][-1]
        assert row["data"]["nonzero_tuples"] >= 1


class TestToleranceGatesResidualsOnly:
    """--tol is compared with measured residuals, never used as a cutoff."""

    @staticmethod
    def _rows(args, report_path):
        main(args + ["--report", str(report_path)])
        return json.loads(report_path.read_text())["tasks"]

    @pytest.mark.parametrize("tol", ["1e-16", "1e-30"])
    @pytest.mark.parametrize("name", ["mn-vs-c", "non-tracial-fusion"])
    def test_tight_tolerance_fails_by_residual(self, name, tol, tmp_path,
                                               capsys):
        rows = self._rows(["demo", name, "--tol", tol], tmp_path / "r.json")
        assert {r["status"] for r in rows} <= {"Pass", "Fail"}
        for row in rows:
            if row["status"] == "Fail":
                assert row["discrepancy"] > float(tol)
                assert f"{row['discrepancy']:.3g} exceeds tolerance" \
                    in row["detail"]

    @pytest.mark.parametrize("tol", ["1e-8", "0.5", "1.5"])
    def test_refuting_gate_does_not_move_with_tolerance(self, tol, tmp_path,
                                                        capsys):
        M2 = MultiMatrixAlgebra((2,), name="M2")
        C = MultiMatrixAlgebra((1,), name="C")
        spec_path = tmp_path / "doubled.json"
        spec_path.write_text(json.dumps(serialize_spec(SpecFile(
            algebras={"M2": M2, "C": C},
            correspondences={"H": block_correspondence(M2, C, [[2]])},
            tasks=({"task": "morita-wstar", "correspondence": "H"},)))))
        (row,) = self._rows(["run", str(spec_path), "--tol", tol],
                            tmp_path / "r.json")
        assert row["status"] == "Refuted"
        assert row["detail"] == ("right action does not fill the commutant "
                                 "of the left one")
        assert row["data"]["multiplicities"] == [[2]]

    def test_fused_dimension_does_not_move_with_tolerance(self, tmp_path,
                                                          capsys):
        dims = set()
        for tol in ("1e-30", "1e-8", "0.9"):
            rows = self._rows(["demo", "non-tracial-fusion", "--tol", tol],
                              tmp_path / "r.json")
            (fusion,) = [r for r in rows if r["task"] == "fusion"]
            dims.add(fusion["data"]["fused_dim"])
        assert dims == {1}


class TestValidateCommand:
    def test_validate_ok(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        main(["demo", "mn-vs-c", "--spec-out", str(spec_path),
              "--report", str(tmp_path / "ignored.json")])
        capsys.readouterr()
        assert main(["validate", str(spec_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["valid"] is True
        assert summary["correspondences"] == 1

    def test_validate_rejects(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rings": {"R": {}}}))
        assert main(["validate", str(bad)]) == 2


class TestConsoleEntryPoint:
    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "moritalab.cli", "demo", "mn-vs-c",
             "--report", "/dev/null"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
