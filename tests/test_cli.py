import json
import math

import pytest

from nilflow.cli import (EXIT_BASIS, EXIT_EXPECT_FAIL, EXIT_OK, EXIT_SCHEMA,
                         main, run, validate_config)


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


TORUS_1_SQRT2 = {"kind": "torus-flow", "freqs": [{"ONE": "1"}, {"SQRT2": "1"}]}


class TestValidate:
    def test_well_formed_config(self):
        cfg = {"operation": "minimal", "system": TORUS_1_SQRT2}
        assert validate_config(cfg) == []

    def test_repeated_alphas_named(self):
        cfg = {"operation": "fiber-coverage", "system": TORUS_1_SQRT2,
               "params": {"alphas": [1.0, 1.0], "projection": "torus-coord-0",
                          "x": [0, 0]}}
        diags = validate_config(cfg)
        assert any("alphas" in d for d in diags)

    def test_unsupported_product_reported_by_name(self):
        cfg = {"operation": "exceptional", "system": TORUS_1_SQRT2,
               "params": {"t": {"SQRT5": "1"}}}
        diags = validate_config(cfg)
        assert any("UNSUPPORTED-BASIS" in d and "SQRT2*SQRT5" in d for d in diags)

    def test_unknown_operation(self):
        assert validate_config({"operation": "frobnicate"})

    def test_validate_subcommand_exit_zero(self, tmp_path, capsys):
        cfg = {"operation": "exceptional", "system": TORUS_1_SQRT2,
               "params": {"t": {"SQRT5": "1"}}}
        path = write_cfg(tmp_path, cfg)
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["result"]["diagnostics"]


class TestRun:
    def test_minimal_flow(self):
        rep = run({"operation": "minimal", "system": TORUS_1_SQRT2})
        assert rep["result"]["minimal"] is True

    def test_exceptional_time_one(self):
        rep = run({"operation": "exceptional", "system": TORUS_1_SQRT2,
                   "params": {"t": "1"}})
        assert rep["result"]["minimal"] is False

    def test_rp_certify_diagonal(self):
        cfg = {"operation": "rp-certify",
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "params": {"x": [0.3], "y": [0.3], "d": 1, "delta": 0.05,
                          "budget": 1000}}
        rep = run(cfg)
        assert rep["result"]["status"] == "witness"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = {"operation": "nd-compare", "seed": 3,
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "system_h": {"kind": "torus-map", "freqs": [{"SQRT3": "1"}]},
               "params": {"x": [0.1], "d": 2, "budget": 2000}}
        a = run(json.loads(json.dumps(cfg)))
        b = run(json.loads(json.dumps(cfg)))
        for rep in (a, b):
            rep.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_sweep_mode(self):
        cfg = {"operation": "rp-certify",
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "params": {"x": [0.2], "y": [0.2], "d": 1, "delta": 0.05,
                          "budget": 500},
               "sweep": {"param": "params.delta", "values": [0.2, 0.1, 0.05]},
               "expect": [{"path": "status", "op": "eq", "value": "witness"}]}
        rep = run(cfg)
        assert len(rep["result"]["rows"]) == 3
        assert rep["pass"] is True

    def test_sweep_supplies_delta(self):
        cfg = {"operation": "rp-certify",
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "params": {"x": [0.2], "y": [0.2], "d": 1, "budget": 500},
               "sweep": {"param": "params.delta", "values": [0.2, 0.1]}}
        assert validate_config(cfg) == []
        assert len(run(cfg)["result"]["rows"]) == 2

    def test_expectation_failure(self):
        cfg = {"operation": "minimal", "system": TORUS_1_SQRT2,
               "expect": [{"path": "minimal", "op": "false"}]}
        rep = run(cfg)
        assert rep["pass"] is False


class TestMainExitCodes:
    def test_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"operation": "minimal",
                                    "system": TORUS_1_SQRT2})
        assert main(["minimal", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()

    def test_schema_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"operation": "minimal"})
        assert main(["minimal", "--config", str(path)]) == EXIT_SCHEMA
        capsys.readouterr()

    def test_unsupported_basis_exit(self, tmp_path, capsys):
        cfg = {"operation": "exceptional", "system": TORUS_1_SQRT2,
               "params": {"t": {"SQRT5": "1"}}}
        path = write_cfg(tmp_path, cfg)
        assert main(["exceptional", "--config", str(path)]) == EXIT_BASIS
        capsys.readouterr()

    def test_expectation_failure_exit(self, tmp_path, capsys):
        cfg = {"operation": "minimal", "system": TORUS_1_SQRT2,
               "expect": [{"path": "minimal", "op": "false"}]}
        path = write_cfg(tmp_path, cfg)
        assert main(["minimal", "--config", str(path)]) == EXIT_EXPECT_FAIL
        capsys.readouterr()

    @pytest.mark.parametrize("op, params, named", [
        ("rp-certify", {"x": [0.3], "y": [0.3], "d": 1, "budget": 100},
         "params.delta"),
        ("cube", {"x": [0.1], "d": 2, "budget": 0}, "params.budget"),
        ("rp-certify", {"x": [0.3], "y": [0.3], "d": 1, "delta": 0.05,
                        "budget": -5}, "params.budget"),
        ("fiber-coverage", {"alphas": ["x"], "projection": "torus-coord-0",
                            "x": [0.0]}, "params.alphas"),
        ("rp-certify", {"x": [0.3], "y": [0.3], "delta": "small"},
         "params.delta"),
    ], ids=["missing-delta", "zero-budget", "negative-budget", "alpha-not-number",
            "delta-not-number"])
    def test_malformed_params_exit_schema(self, tmp_path, capsys, op, params, named):
        cfg = {"operation": op,
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "params": params}
        assert any(named in d for d in validate_config(cfg))
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == EXIT_SCHEMA
        assert named in capsys.readouterr().err

    HEIS_MAP = {"kind": "heisenberg-nilsystem", "alpha": {"SQRT2": "1"},
                "beta": {"SQRT3": "1"}}
    ROT = {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]}
    PLANE = {"kind": "torus-flow", "freqs": [{"SQRT2": "1"}, {"SQRT3": "1"}]}

    @pytest.mark.parametrize("system, op, params, named", [
        (ROT, "rp-certify", {"x": [0.3], "y": [0.3], "d": 0, "delta": 0.05},
         "params.d"),
        (ROT, "cube", {"x": [0.1], "d": 0, "budget": 10}, "params.d"),
        (ROT, "suspend", {"x": [0.0], "times": [1.0], "resolution": 0},
         "params.resolution"),
        (ROT, "suspend", {"x": [0.0], "times": [1.0], "resolution": 2},
         "params.resolution"),
        (ROT, "fiber-coverage", {"projection": "identity", "d": 1, "alphas": [1.0],
                                 "x": [0.0], "resolution": -0.05},
         "params.resolution"),
        (ROT, "rp-certify", {"x": [0.1, 0.2], "y": [0.1], "d": 1, "delta": 0.05},
         "params.x"),
        (HEIS_MAP, "rp-certify", {"x": [0.1, 0.2], "y": [0.0, 0.0, 0.0], "d": 1,
                                  "delta": 0.05}, "params.x"),
        (ROT, "fiber-coverage", {"projection": "no-such", "d": 1, "alphas": [1.0],
                                 "x": [0.0]}, "params.projection"),
        (PLANE, "fiber-coverage", {"projection": "heisenberg-base", "d": 1,
                                   "alphas": [1.0], "x": [0.0, 0.0]},
         "params.projection"),
        (HEIS_MAP, "fiber-coverage", {"projection": "torus-coord-0", "d": 1,
                                      "alphas": [1.0], "x": [0.0, 0.0, 0.0]},
         "params.projection"),
        (ROT, "fiber-coverage", {"projection": "torus-coord-0", "d": 1,
                                 "alphas": [1.0], "x": [0.0]}, "params.projection"),
    ], ids=["d-zero-rp-certify", "d-zero-cube", "resolution-zero", "resolution-two",
            "resolution-negative", "x-dim-rotation", "x-dim-heisenberg",
            "projection-unknown", "projection-base-on-torus",
            "projection-coord-on-heisenberg", "projection-coord-on-circle"])
    def test_out_of_range_params_exit_schema(self, tmp_path, capsys, system, op,
                                             params, named):
        cfg = {"operation": op, "system": system, "params": params}
        assert any(named in d for d in validate_config(cfg))
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == EXIT_SCHEMA
        assert named in capsys.readouterr().err

    LINE = {"kind": "torus-flow", "freqs": [{"SQRT2": "1"}]}
    LINE_H = {"kind": "torus-flow", "freqs": [{"SQRT3": "1"}]}

    @pytest.mark.parametrize("op, system, system_h, params", [
        ("fiber-coverage", PLANE, None, {"projection": "torus-coord-0", "d": 2,
                                         "alphas": [1.0], "x": [0.0, 0.0]}),
        ("fiber-coverage", PLANE, None, {"projection": "torus-coord-0", "d": 1,
                                         "x": [0.0, 0.0]}),
        ("nd-compare", LINE, LINE_H, {"x": [0.1], "d": 2, "budget": 10}),
        ("nd-compare", LINE, LINE_H, {"x": [0.1], "d": 3, "alphas": [1.0, 2.0],
                                      "budget": 10}),
        ("nd-compare", ROT, ROT, {"x": [0.1], "alphas": [1.0, 2.0, 3.0],
                                  "budget": 10}),
    ], ids=["fiber-d-vs-alphas", "fiber-no-alphas", "nd-flows-no-alphas",
            "nd-d-vs-alphas", "nd-default-d-vs-alphas"])
    def test_alpha_per_arm_exit_schema(self, tmp_path, capsys, op, system,
                                       system_h, params):
        # each arm needs one alpha; only maps default to (1, ..., d)
        cfg = {"operation": op, "system": system, "params": params}
        if system_h is not None:
            cfg["system_h"] = system_h
        assert any("params.alphas" in d for d in validate_config(cfg))
        path = write_cfg(tmp_path, cfg)
        assert main(["run", "--config", str(path)]) == EXIT_SCHEMA
        assert "params.alphas" in capsys.readouterr().err

    def test_maps_default_alphas(self):
        cfg = {"operation": "nd-compare", "system": self.ROT, "system_h": self.ROT,
               "params": {"x": [0.1], "d": 3, "budget": 10}}
        assert validate_config(cfg) == []

    @pytest.mark.parametrize("op", ["cube", "nd-compare"])
    def test_point_checked_on_both_systems(self, op):
        # x is read on system and system_h; a point fitting only one is named
        cfg = {"operation": op, "system": self.ROT, "system_h": self.PLANE,
               "params": {"x": [0.1], "d": 2, "alphas": [1.0, 2.0], "budget": 10}}
        diags = validate_config(cfg)
        assert any("params.x" in d and "system_h" in d for d in diags)

    def test_report_and_artifacts_written(self, tmp_path, capsys):
        cfg = {"operation": "nd-compare", "seed": 1,
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "system_h": {"kind": "torus-map", "freqs": [{"SQRT3": "1"}]},
               "params": {"x": [0.1], "d": 2, "budget": 1000},
               "expect": [{"path": "hausdorff", "op": "le", "value": 0.2}]}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "report.json"
        assert main(["nd-compare", "--config", str(path),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        arts = report["payload"]["artifacts"]
        assert (tmp_path / "report.cloud_g.csv").exists()
        assert arts["cloud_g"].endswith("cloud_g.csv")
        capsys.readouterr()

    def test_csv_format(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"operation": "minimal",
                                    "system": TORUS_1_SQRT2})
        assert main(["minimal", "--config", str(path), "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("key,value")

    def test_budget_exhaustion_exit(self, tmp_path, capsys):
        # demanding a witness from a hopeless search maps to the budget code
        cfg = {"operation": "rp-certify",
               "system": {"kind": "heisenberg-nilsystem",
                          "alpha": {"SQRT2": "1"}, "beta": {"SQRT3": "1"}},
               "params": {"x": [0.0, 0.0, 0.0], "y": [0.0, 0.0, 0.5],
                          "d": 1, "delta": 0.002, "budget": 50,
                          "require_witness": True}}
        path = write_cfg(tmp_path, cfg)
        from nilflow.cli import EXIT_BUDGET
        assert main(["rp-certify", "--config", str(path)]) == EXIT_BUDGET
        capsys.readouterr()

    def test_internal_error_exit(self, tmp_path, capsys, monkeypatch):
        # an invariant breach mid-run (here planted in the search) maps to
        # exit 5; config defects such as a wrong-dimension point exit 2
        def breach(*args, **kwargs):
            raise RuntimeError("planted invariant breach")
        monkeypatch.setattr("nilflow.cli.rp_witness_search", breach)
        cfg = {"operation": "rp-certify",
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "params": {"x": [0.1], "y": [0.2], "d": 1,
                          "delta": 0.05, "budget": 10}}
        path = write_cfg(tmp_path, cfg)
        from nilflow.cli import EXIT_INTERNAL
        assert main(["rp-certify", "--config", str(path)]) == EXIT_INTERNAL
        capsys.readouterr()

    def test_budget_consumed_reported(self):
        cfg = {"operation": "rp-certify",
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "params": {"x": [0.3], "y": [0.3], "d": 1, "delta": 0.05,
                          "budget": 1000}}
        rep = run(cfg)
        assert rep["budget_consumed"] == rep["result"]["checked"]


class TestMoreOperations:
    def test_density_operation(self):
        cfg = {"operation": "density",
               "system": {"kind": "torus-flow", "freqs": [{"SQRT2": "1"}]},
               "params": {"x": [0.0], "center": [0.0], "radius": 0.1,
                          "time_grid": {"kind": "grid", "start": 0.0,
                                        "stop": 2000.0, "step": 0.1},
                          "rho": 100.0, "step": 50.0, "horizon": 2000.0}}
        rep = run(cfg)
        assert rep["result"]["lower"] > 0.05

    def test_embed_operation(self):
        cfg = {"operation": "embed",
               "params": {"gs": [[1, 0, 0], [0, 0, 1]], "alphas": [1.0, 2.0]}}
        rep = run(cfg)
        assert rep["result"]["components"] == [[1.0, 0.0, 0.0], [2.0, 0.0, 1.0]]

    def test_membership_operation(self):
        cfg = {"operation": "membership",
               "params": {"tuple": [[1, 0, 0], [2, 0, 1]],
                          "alphas": [1.0, 2.0], "tol": 1e-10,
                          "conjugate_by": [0.5, -0.3, 0.1]}}
        rep = run(cfg)
        assert rep["result"]["member"] is True
        assert rep["result"]["conjugation_closed"] is True

    def test_average_operation(self):
        cfg = {"operation": "average",
               "system": {"kind": "torus-flow", "freqs": [{"ONE": "1"}]},
               "params": {"observable": {"kind": "cos", "freq": [1]},
                          "alphas": [1.0], "t": 0.3}}
        rep = run(cfg)
        assert rep["result"]["value_re"] == pytest.approx(
            0.5 * math.cos(2 * math.pi * 0.3), abs=1e-9)

    def test_ud_operation(self):
        grid = [float(x) * 0.5 for x in range(41)]
        cfg = {"operation": "ud",
               "params": {"series": {"grid": grid,
                                     "values": [0.0] * len(grid)},
                          "windows": [[0.0, 10.0], [5.0, 10.0]]}}
        rep = run(cfg)
        assert rep["result"]["sup"] == 0.0

    def test_suspend_operation(self):
        cfg = {"operation": "suspend",
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "params": {"x": [0.0],
                          "times": {"kind": "quadratic",
                                    "beta": math.sqrt(3), "n_max": 3000},
                          "resolution": 0.05}}
        rep = run(cfg)
        assert rep["result"]["coverage"] >= 0.95

    def test_susp_rp_operation(self):
        cfg = {"operation": "susp-rp",
               "system": {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]},
               "params": {"x1": [0.2], "x2": [0.2], "s1": 0.4, "s2": 0.4,
                          "d": 1, "delta": 0.1, "budget": 5000}}
        rep = run(cfg)
        assert rep["result"]["forward"] is True
        assert rep["result"]["agreement"] is True

    def test_potts_operation(self):
        cfg = {"operation": "potts",
               "system": {"kind": "torus-flow", "freqs": [{"ONE": "1"}]},
               "params": {"polys": [{"coeffs": ["0", "1"]},
                                    {"coeffs": ["0", "0", "1"]}],
                          "observables": [{"kind": "exp", "freq": [1]},
                                          {"kind": "exp", "freq": [1]}],
                          "R": 1000.0}}
        rep = run(cfg)
        assert rep["result"]["abs_deviation"] <= 0.2

    def test_nilres_operation(self):
        cfg = {"operation": "nilres",
               "system": {"kind": "torus-flow", "freqs": [{"ONE": "1"}]},
               "params": {"observable": {"kind": "cos", "freq": [1]},
                          "alphas": [1.0],
                          "t_grid": {"kind": "grid", "start": 0.0,
                                     "stop": 1100.0, "step": 0.5},
                          "windows": [[0.0, 1000.0], [100.0, 1000.0]]}}
        rep = run(cfg)
        assert rep["result"]["ud_sup"] <= 1e-6
