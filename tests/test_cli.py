import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nilflow import averages, cli
from nilflow.averages import (Observable, TimeSeries, multi_average_series,
                              nilfunction_residual, ud_sup)
from nilflow.cli import (EXIT_BASIS, EXIT_EXPECT_FAIL, EXIT_INTERNAL, EXIT_OK,
                         EXIT_SCHEMA, main, report_json, run, validate_config)
from nilflow.proximality import cube_orbit_sample, nd_sample

ROOT = Path(__file__).parents[1]


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

    def test_minimal_prints_the_dependence_certificate(self):
        # 2 * sqrt2 - 1 * (2 sqrt2) = 0
        cfg = {"operation": "minimal",
               "system": {"kind": "torus-flow", "freqs": [{"SQRT2": "1"}, {"SQRT2": "2"}]}}
        assert run(cfg)["result"] == {"minimal": False, "certificate": ["2", "-1"]}

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

    def test_undeclared_commutator_product_exits_basis(self, tmp_path, capsys):
        # c = SQRT2*SQRT5 - SQRT3*SQRT3 needs a product the default basis lacks
        cfg = on("rp-transfer", HEIS_MAP, HEIS_MAP_H, x=[0.1, 0.2, 0.3], y=[0.1, 0.2, 0.3],
                 delta=0.3, budget=100)
        assert validate_config(cfg) == [
            "UNSUPPORTED-BASIS: product SQRT2*SQRT5 is not expressible in the declared basis"]
        assert main(["run", "--config", str(write_cfg(tmp_path, cfg))]) == EXIT_BASIS
        assert "SQRT2*SQRT5" in capsys.readouterr().err

    def test_commuting_heisenberg_pairs_run(self):
        # c = 1 at steps whose product is an integer, and c = 0 from equal freqs
        for system, system_h in (({**HALF_MAP, "step": 1}, {**HALF_MAP_H, "step": 1}),
                                 ({**HALF_MAP, "step": 2}, {**HALF_MAP_H, "step": 0.5}),
                                 (HEIS_MAP, {**HEIS_MAP, "z": 0.37})):
            cfg = on("rp-transfer", system, system_h, x=[0.1, 0.2, 0.3], y=[0.1, 0.2, 0.3],
                     delta=0.3, budget=100)
            assert validate_config(cfg) == []
            assert run(cfg)["result"]["transfer"]["status"] == "witness"

    @pytest.mark.parametrize("text", [None, "{", '{"operation": "minimal",}'],
                             ids=["no-such-file", "truncated", "trailing-comma"])
    def test_unreadable_config_exit(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert main(["run", "--config", str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("config error: ")

    def test_transfer_without_a_witness_exit(self, tmp_path, capsys):
        # the G-search exhausts its budget, so there is no witness to transfer
        cfg = on("rp-transfer", HEIS_MAP, {**HEIS_MAP, "z": 0.37}, x=[0.0, 0.0, 0.0],
                 y=[0.0, 0.0, 0.5], delta=0.002, budget=50, require_witness=True)
        assert main(["run", "--config", str(write_cfg(tmp_path, cfg))]) == cli.EXIT_BUDGET
        assert "budget exhausted: no witness to transfer" in capsys.readouterr().err

    def test_require_witness_exits_budget_only_when_exhausted(self, tmp_path, capsys):
        # rp-certify and rp-transfer's G-search on the same pair: a proven
        # absence spends no budget and exits 0, an exhausted search exits 4
        rot3 = {"kind": "torus-map", "freqs": [{"SQRT3": "1"}]}
        absent = {"x": [0.1], "y": [0.6], "delta": 0.05}
        exhausted = {"x": [0.0, 0.0, 0.0], "y": [0.0, 0.0, 0.5], "delta": 0.002, "budget": 50}
        for system, system_h, pair, status, code in [
                (ROT, rot3, absent, "proven-absent", EXIT_OK),
                (HEIS_MAP, {**HEIS_MAP, "z": 0.37}, exhausted, "exhausted", cli.EXIT_BUDGET)]:
            for op in ("rp-certify", "rp-transfer"):
                cfg = on(op, system, system_h if op == "rp-transfer" else None, **pair)
                result = run(cfg)["result"]
                assert result.get("witness_g", result)["status"] == status
                assert "transfer" not in result
                cfg["params"]["require_witness"] = True
                assert main(["run", "--config", str(write_cfg(tmp_path, cfg))]) == code
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

    @pytest.mark.parametrize("command", ["minimal", "run", "validate"])
    def test_config_not_an_object_exit(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text('["x"]')
        assert main([command, "--config", str(path)]) == EXIT_SCHEMA
        assert "config error: must be a JSON object, got ['x']" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [["x"], "minimal", 3, None])
    def test_config_not_an_object_validate_config(self, cfg):
        assert validate_config(cfg) == ["config: must be a JSON object"]

    @pytest.mark.parametrize("cfg", [["x"], "minimal", 3, None])
    def test_config_not_an_object_run(self, cfg):
        with pytest.raises(cli.SchemaError, match="^config: must be a JSON object$"):
            run(cfg)

    @pytest.mark.parametrize("cfg", [["x"], "minimal", 3, None])
    def test_config_not_an_object_run_validate(self, cfg):
        rep = cli.run_validate(cfg)
        assert rep["result"]["diagnostics"] == ["config: must be a JSON object"]
        assert rep["seed"] == 0
        assert cli.run_validate(cfg, seed=4)["seed"] == 4

    def test_uncomparable_expectation_exit(self, tmp_path, capsys):
        # a list does not order against a boolean: the expectation fails
        cfg = {"operation": "minimal", "system": TORUS_1_SQRT2,
               "expect": [{"path": "minimal", "op": "le", "value": [1]}]}
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
        (PLANE, "fiber-coverage", {"projection": "torus-coord-0", "d": 1,
                                   "alphas": [1.0], "x": [0.0, 0.0], "resolution": -0.05},
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

    @pytest.mark.parametrize("op, params, named", [
        ("rp-certify", {"x": [0.3], "y": [0.3], "delta": 0.05}, "faces per candidate"),
        ("rp-transfer", {"x": [0.3], "y": [0.3], "delta": 0.05}, "ranked g-tuples"),
        ("susp-rp", {"x1": [0.3], "x2": [0.3], "s1": 0.0, "s2": 0.0, "delta": 0.05},
         "faces per candidate"),
        ("cube", {"x": [0.1], "budget": 10}, "10 * 2^64 points at budget 10"),
    ], ids=["rp-certify", "rp-transfer", "susp-rp", "cube"])
    def test_exponential_d_capped(self, op, params, named):
        """2^d faces per candidate, 16^d ranked transfer tuples and budget * 2^d
        cube points each have a cap, so a large d exits 2 before anything
        runs; every d <= 3 still passes (validated only, never run)."""
        cfg = {"operation": op, "system": self.ROT, "system_h": self.ROT,
               "params": {**params, "d": 64}}
        if op == "susp-rp":
            del cfg["system_h"]
        diags = validate_config(cfg)
        assert len(diags) == 1 and diags[0].startswith("params.d: d = 64 gives ")
        assert "2^64" in diags[0] and named in diags[0]
        for d in (1, 2, 3):
            assert validate_config({**cfg, "params": {**params, "d": d}}) == []

    def test_caps_at_their_edges(self):
        # the largest d each cap allows, and the next one
        rp = {"operation": "rp-certify", "system": self.ROT,
              "params": {"x": [0.3], "y": [0.3], "delta": 0.05}}
        transfer = {**rp, "operation": "rp-transfer", "system_h": self.ROT}
        cube = {"operation": "cube", "system": self.ROT, "system_h": self.ROT,
                "params": {"x": [0.1], "budget": 2 ** 12}}
        for cfg, last in ((rp, 10), (transfer, 4), (cube, 10)):
            assert validate_config({**cfg, "params": {**cfg["params"], "d": last}}) == []
            diags = validate_config({**cfg, "params": {**cfg["params"], "d": last + 1}})
            assert len(diags) == 1 and f"2^{last + 1}" in diags[0], diags

    def test_correlation_points_capped_at_the_edge(self, monkeypatch):
        """POINT_CAP samples or mesh points validate, one more does not; the
        cap sits above the benchmark's 10^5 samples.  Validated only, so
        nothing is allocated."""
        assert averages.POINT_CAP >= 10 ** 5
        monkeypatch.setattr(averages, "POINT_CAP", 5 ** 2)
        samples = on("nilres", HEIS_FLOW, observable=COS_2D)
        # COS_2D (F = 1) and three alphas: a mesh of 5^2 points
        mesh = on("nilres", PLANE, observable=COS_2D)
        assert validate_config({**samples, "params": {**samples["params"], "n_samples": 25}}) == []
        assert validate_config({**mesh, "params": {**mesh["params"], "alphas": [1, 2, 3]}}) == []
        diags = validate_config({**samples, "params": {**samples["params"], "n_samples": 26}})
        assert diags == ["params: 26 samples, above the correlation's cap of 25"]
        monkeypatch.setattr(averages, "POINT_CAP", 5 ** 2 - 1)
        assert validate_config({**mesh, "params": {**mesh["params"], "alphas": [1, 2, 3]}}) == [
            "params: 25 mesh points (5^2), above the correlation's cap of 24"]
        # average builds a mesh only above the exact expansion's cap
        monkeypatch.setattr(averages, "POINT_CAP", 1)
        assert validate_config(on("average", PLANE, observable=COS_2D)) == []

    @pytest.mark.parametrize("spec, length", [
        ({"kind": "uniform", "horizon": 10.0}, lambda m: {"count": m}),
        ({"kind": "quadratic", "beta": 1.5}, lambda m: {"n_max": m}),
        ({"kind": "grid", "start": 2.0, "step": 0.5}, lambda m: {"stop": 2.0 + 0.5 * (m - 1)}),
    ], ids=["uniform", "quadratic", "grid"])
    def test_times_capped_at_the_edge(self, monkeypatch, spec, length):
        """A times spec of TIMES_CAP times validates, one more does not,
        decided before any array is made."""
        monkeypatch.setattr(cli, "TIMES_CAP", 6)
        assert validate_config(valid("suspend", times={**spec, **length(6)})) == []
        assert validate_config(valid("suspend", times={**spec, **length(7)})) == [
            "params.times: holds 7 times, above the cap of 6"]

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

    def test_sweep_writes_only_the_report(self, tmp_path, capsys):
        # each row would overwrite the last one's clouds, so a sweep writes none
        cfg = {"operation": "cube", "system": self.ROT, "params": {"x": [0.1]},
               "sweep": {"param": "params.budget", "values": [5, 6]}}
        out = tmp_path / "out" / "r.json"
        out.parent.mkdir()
        assert main(["run", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)]) == EXIT_OK
        assert sorted(out.parent.iterdir()) == [out]
        assert json.loads(out.read_text())["payload"]["artifacts"] == {}
        capsys.readouterr()

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
        assert main(["rp-certify", "--config", str(path)]) == EXIT_INTERNAL
        capsys.readouterr()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_result_exits_internal(self, tmp_path, capsys, monkeypatch, value):
        # a report is strict JSON: a NaN or an infinity in it is a breach,
        # not an Infinity token on stdout
        _, spec, rules = cli._TABLE["minimal"]
        monkeypatch.setitem(cli._TABLE, "minimal",
                            (lambda p, sysh, ctx: {"gap": value}, spec, rules))
        path = write_cfg(tmp_path, {"operation": "minimal", "system": TORUS_1_SQRT2})
        assert main(["run", "--config", str(path)]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: ValueError")

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
        # every average is exact, so no stderr is printed
        assert rep["result"]["exact"] is True and "stderr" not in rep["result"]

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


LINE = {"kind": "torus-flow", "freqs": [{"ONE": "1"}]}
ROT = {"kind": "torus-map", "freqs": [{"SQRT2": "1"}]}
HEIS_FLOW = {"kind": "heisenberg-nilflow", "alpha": {"SQRT2": "1"},
             "beta": {"SQRT3": "1"}}
COS = {"kind": "cos", "freq": [1]}
COS_2D = {"kind": "cos", "freq": [1, 0]}
POLYS = [{"coeffs": ["0", "1"]}, {"coeffs": ["0", "0", "1"]}]
GRID = {"kind": "grid", "start": 0.0, "stop": 20.0, "step": 1.0}
PLANE = {"kind": "torus-flow", "freqs": [{"ONE": "1"}, {"SQRT2": "1"}]}
SUSP = {"kind": "suspension", "base": ROT}
HEIS_MAP = {"kind": "heisenberg-nilsystem", "alpha": {"SQRT2": "1"}, "beta": {"SQRT3": "1"}}
HEIS_MAP_H = {"kind": "heisenberg-nilsystem", "alpha": {"SQRT3": "1"}, "beta": {"SQRT5": "1"}}
TORUS3_MAP = {"kind": "torus-map", "freqs": [{"ONE": "1"}, {"SQRT2": "1"}, {"SQRT3": "1"}]}
# the commutator of HEIS_MAP and HEIS_MAP_H has c = SQRT2*SQRT5 - 3, which this
# basis declares; HEIS_MAP_NEAR is HEIS_MAP with beta moved by 10^-12, so c = 10^-12 SQRT2
SQRT10_BASIS = {"symbols": [{"symbol": "SQRT10",
                             "value": "3.16227766016837933199889354443271853372"}],
                "products": [{"left": "SQRT2", "right": "SQRT5",
                              "expansion": {"SQRT10": 1}}]}
HEIS_MAP_NEAR = {**HEIS_MAP, "beta": {"SQRT3": "1", "ONE": "1/1000000000000"}}
# c = 1/2 (sqrt2 + 2) - sqrt2 / 2 = 1: the time-s and time-t maps commute iff s t is an integer
HALF_MAP = {"kind": "heisenberg-nilsystem", "alpha": {"ONE": "1/2"}, "beta": {"SQRT2": "1"}}
HALF_MAP_H = {**HALF_MAP, "beta": {"SQRT2": "1", "ONE": "2"}}
ROOT2 = {"kind": "torus-flow", "freqs": [{"SQRT2": "1"}]}
RAGGED = {"kind": "trig", "terms": [{"freq": [1]}, {"freq": [1, 2]}]}
EIGHT_TERMS = {"kind": "trig", "terms": [{"freq": [k], "re": 1.0}
                                         for k in (-4, -3, -2, -1, 1, 2, 3, 4)]}
# EIGHT_TERMS at 150000 times the frequencies: with five alphas, a mesh of
# 6 * 600000 + 1 points
WIDE_TERMS = {"kind": "trig", "terms": [{"freq": [150000 * k], "re": 1.0}
                                        for k in (-4, -3, -2, -1, 1, 2, 3, 4)]}
# potts observables of 400, 500 and 501 terms: 400 * 500 frequency tuples are
# the exact expansion's cap, 400 * 501 lie above it
TERMS_400, TERMS_500, TERMS_501 = ({"kind": "trig", "terms": [{"freq": [k], "re": 1.0}
                                                              for k in range(n)]}
                                   for n in (400, 500, 501))

# one valid config per operation; budgets stay small
VALID = {
    "minimal": {"system": TORUS_1_SQRT2},
    "exceptional": {"system": TORUS_1_SQRT2, "params": {"t": "1"}},
    "rp-certify": {"system": ROT, "params": {"x": [0.3], "y": [0.3], "delta": 0.05,
                                             "budget": 10}},
    "rp-transfer": {"system": ROT, "system_h": ROT,
                    "params": {"x": [0.3], "y": [0.3], "delta": 0.05, "budget": 10}},
    "cube": {"system": ROT, "system_h": ROT, "params": {"x": [0.1], "budget": 10}},
    "nd-compare": {"system": LINE, "system_h": LINE,
                   "params": {"x": [0.1], "alphas": [1.0, 2.0], "budget": 10}},
    "poly-density": {"system": LINE, "params": {"polys": POLYS, "x": [0.0],
                                                "budget": 10}},
    "fiber-coverage": {"system": HEIS_FLOW,
                       "params": {"projection": "heisenberg-base", "alphas": [1.0],
                                  "x": [0.0, 0.0, 0.0], "budget": 10}},
    "suspend": {"system": ROT, "params": {"x": [0.0], "times": [1.0, 4.0]}},
    "susp-rp": {"system": ROT, "params": {"x1": [0.2], "x2": [0.2], "s1": 0.4,
                                          "s2": 0.4, "delta": 0.1, "budget": 10}},
    "average": {"system": LINE, "params": {"observable": COS, "alphas": [1.0], "t": 0.3}},
    "ud": {"params": {"series": {"grid": [0.0, 1.0, 2.0], "values": [0.0, 0.5, 1.0]},
                      "windows": [[0.0, 1.0]]}},
    "density": {"system": ROT, "params": {"x": [0.0], "center": [0.0], "radius": 0.1,
                                          "time_grid": GRID, "rho": 5.0, "step": 1.0}},
    "potts": {"system": LINE, "params": {"polys": POLYS, "observables": [COS, COS],
                                         "R": 10.0, "h": 0.5}},
    "nilres": {"system": LINE, "params": {"observable": COS, "alphas": [1.0],
                                          "t_grid": GRID, "windows": [[0.0, 5.0]]}},
    "embed": {"params": {"gs": [[1, 0, 0], [0, 0, 1]], "alphas": [1.0, 2.0]}},
    "membership": {"params": {"tuple": [[1, 0, 0], [2, 0, 1]], "alphas": [1.0, 2.0],
                              "conjugate_by": [0.5, -0.3, 0.1]}},
}


def valid(op, **params):
    cfg = json.loads(json.dumps({"operation": op, **VALID[op]}))
    cfg.setdefault("params", {}).update(params)
    return cfg


def on(op, system=None, system_h=None, **params):
    """valid(op, **params) with its system and/or second system replaced."""
    cfg = valid(op, **params)
    cfg.update({k: v for k, v in (("system", system), ("system_h", system_h)) if v})
    return cfg


def without(op, key):
    cfg = valid(op)
    del cfg["params"][key]
    return cfg


def swept(op, param, values, **params):
    return {**valid(op, **params), "sweep": {"param": param, "values": values}}


class TestParameterTable:
    def test_valid_configs_cover_every_operation(self):
        assert set(VALID) == set(cli._TABLE)
        for op in VALID:
            assert validate_config(valid(op)) == [], op

    @pytest.mark.parametrize("cfg, diag", [
        (without("average", "alphas"), "params.alphas: missing"),
        (without("average", "observable"), "params.observable: missing"),
        (without("average", "t"), "params.t: missing"),
        (valid("average", t_grid=[0.0, 1.0]), "params.t: give t or t_grid, not both"),
        (without("potts", "R"), "params.R: missing"),
        (without("susp-rp", "s1"), "params.s1: missing"),
        (without("density", "radius"), "params.radius: missing"),
        (valid("density", radius=-1), "params.radius: must be positive"),
        (without("suspend", "times"), "params.times: missing"),
        (without("embed", "gs"), "params.gs: missing"),
        (without("exceptional", "t"), "params.t: missing"),
        (swept("cube", "params.budget", [5, 0]), "params.budget: must be an integer"),
        ({**valid("rp-certify"), "sweep": {"param": "params.delta"}}, "sweep.values"),
        (valid("rp-certify", budgte=10), "params.budgte: unknown parameter"),
        (valid("nilres", n_samples=0), "params.n_samples: must be an integer"),
        (valid("average", n_samples=10), "params.n_samples: unknown parameter"),
        (swept("minimal", "seed", [1, 2]), "sweep.param"),
        ({**valid("minimal"), "seed": "abc"}, "seed: must be an integer"),
        ({**valid("minimal"), "expect": [{"path": "minimal", "op": "nope"}]},
         "expect[0]: needs a string path and an op in"),
        (valid("embed", gs=[[1, 0, 0], [0, 0, 1], [0, 0, 2]]),
         "params.alphas: needs one per entry of gs (3), got 2"),
        (valid("membership", tuple=[[1, 0, 0], [2, 0, 1], [0, 0, 1]]),
         "params.tuple: needs 2 entries"),
        (valid("potts", observables=[COS, COS, COS]),
         "params.observables: needs one per entry of polys (2), got 3"),
        (valid("ud", series={"grid": [0.0, 1.0, 2.0, 3.0], "values": [0.0] * 4},
               windows=[[0.0, 10.0]]), "params.windows: window (0.0, 10.0) exceeds"),
        (valid("nilres", windows=[[0.0, 50.0]]),
         "params.windows: window (0.0, 50.0) exceeds"),
        (valid("density", rho=50.0), "params.rho: 50.0 exceeds the horizon 20.0"),
        (on("average", PLANE), "params.observable: observable frequency dimension 1"),
        (on("average", SUSP), "params.observable: observable frequency dimension 1 does not "
                             "match the rotation factor's dimension 2"),
        (on("potts", SUSP), "params.observables: observable frequency dimension 1 does not "
                             "match the rotation factor's dimension 2"),
        (on("nilres", SUSP), "params.observable: observable frequency dimension 1 does not "
                             "match the rotation factor's dimension 2"),
        (valid("embed", gs=[[1, 0, 0], [0, 0, 1], [0, 0, 2]], alphas=[1.0, 2.0, 3.0]),
         "params.gs: only k <= 2 is supported"),
        (valid("embed", gs=[[1, 0, 0], [1, 0, 1]]),
         "params.gs: component must lie in the center"),
        (valid("nilres", t_grid=[3.0, 2.0, 1.0], windows=None),
         "params.t_grid: grid must be strictly increasing"),
        (valid("average", t=None, t_grid=[3.0, 2.0, 1.0]),
         "params.t_grid: grid must be strictly increasing"),
        (valid("nilres", t_grid=[], windows=None), "params.t_grid: must hold at least one"),
        (on("poly-density", HEIS_FLOW, x=[0.0, 0.0, 0.0]),
         "system: poly-density supports isometric systems (tori and suspensions over tori), "
         "got heisenberg-nilflow"),
        (on("minimal", ROT), "system: minimal applies to torus flows"),
        (on("susp-rp", LINE), "system: suspension needs a discrete base system"),
        (on("cube", system_h=LINE), "system_h: a torus-flow cloud cannot be compared"),
        (on("nd-compare", system_h=ROT), "system_h: a torus-map cloud cannot be compared"),
        (valid("potts", polys=[{"coeffs": ["0", "1"]}, {"coeffs": ["0", "2"]}]),
         "params.polys: polynomials admit the rational dependence"),
        ({**on("rp-transfer", HEIS_MAP, HEIS_MAP_H, x=[0.1, 0.2, 0.3], y=[0.1, 0.2, 0.3],
               delta=0.3, budget=100), "basis": SQRT10_BASIS},
         "system_h: must commute with system: the commutator of the generators is "
         "central with c = -3 + 1*SQRT10, which has an irrational part"),
        (on("rp-transfer", HEIS_MAP, HEIS_MAP_NEAR, x=[0.1, 0.2, 0.3], y=[0.1, 0.2, 0.3]),
         "system_h: must commute with system: the commutator of the generators is "
         "central with c = 1/1000000000000*SQRT2, which has an irrational part"),
        (on("rp-transfer", {**HALF_MAP, "step": 1}, {**HALF_MAP_H, "step": 0.5},
            x=[0.1, 0.2, 0.3], y=[0.1, 0.2, 0.3]),
         "system_h: must commute with system: the commutator of the generators is "
         "central with c = 1, and s*t*c = 1/2 is not an integer"),
        (on("rp-transfer", TORUS3_MAP, HEIS_MAP, x=[0.1, 0.2, 0.3], y=[0.1, 0.2, 0.3]),
         "system_h: must commute with system: a heisenberg-nilsystem of dimension 3 "
         "acts on a different space than a torus-map of dimension 3"),
        (on("exceptional", SUSP), "system: exceptional applies to torus flows"),
        (valid("density", half_width=-0.3), "params.half_width: must be positive"),
        (on("fiber-coverage", SUSP, projection="identity", x=[0.0, 0.0]),
         "params.projection: 'identity' does not apply to suspension"),
        (on("rp-certify", HEIS_MAP, x=[math.inf, 0, 0], y=[0.1, 0.2, 0.3]),
         "params.x: must be finite, got [inf, 0, 0]"),
        (on("cube", HEIS_MAP, HEIS_MAP, x=[math.inf, 0, 0]), "params.x: must be finite"),
        (valid("susp-rp", s1=math.inf), "params.s1: must be finite, got inf"),
        (valid("susp-rp", s1=math.nan), "params.s1: must be finite, got nan"),
        (valid("potts", R=math.inf), "params.R: must be finite"),
        (on("rp-certify", {**HEIS_MAP, "z": math.inf}, x=[0.1, 0.2, 0.3],
            y=[0.1, 0.2, 0.3]), "system: must be finite"),
        (valid("density", horizon=math.nan), "params.horizon: must be finite"),
        ({**valid("minimal"), "basis": {"symbols": [{"symbol": "PI", "value": math.inf}]}},
         "basis: must be finite"),
        (valid("rp-certify", x=[math.nan]), "params.x: must be finite"),
        (swept("rp-certify", "params.delta", [0.1, math.inf]),
         "sweep.values: must be finite"),
        ({**valid("minimal"), "system": "torus"},
         "system: 'str' object has no attribute 'get'"),
        ({**valid("cube"), "system_h": "torus"},
         "system_h: 'str' object has no attribute 'get'"),
        (on("rp-certify", {"kind": "suspension", "base": "rotation"}, x=[0.1, 0.2],
            y=[0.1, 0.2]), "system: 'str' object has no attribute 'get'"),
        ({**valid("minimal"), "basis": "default"},
         "basis: 'str' object has no attribute 'get'"),
        (valid("potts", R="inf"), "params.R: must be finite, got 'inf'"),
        (on("rp-certify", HEIS_MAP, x=["-Infinity", 0, 0], y=[0.1, 0.2, 0.3]),
         "params.x: must be finite, got '-Infinity'"),
        (on("minimal", {**HEIS_FLOW, "step": 1.5}),
         "system.step: a heisenberg-nilflow takes real times, not a step"),
        (on("minimal", {**LINE, "step": 2}),
         "system.step: a torus-flow takes real times, not a step"),
        (on("rp-transfer", HEIS_MAP, {**HEIS_FLOW, "step": 1.5}, x=[0.1, 0.2, 0.3],
            y=[0.1, 0.2, 0.3]), "system_h.step: a heisenberg-nilflow takes real times"),
        (on("rp-certify", {**HEIS_MAP, "step": "inf"}, x=[0.1, 0.2, 0.3],
            y=[0.1, 0.2, 0.3]), "system.step: must be finite, got 'inf'"),
        (on("rp-certify", {**ROT, "step": 0}), "system.step: must be nonzero"),
        (on("rp-certify", {**ROT, "step": "fast"}),
         "system.step: could not convert string to float"),
        (on("rp-certify", {"kind": "suspension", "base": {**ROT, "step": 0.0}},
            x=[0.1, 0.2], y=[0.1, 0.2]), "system.base.step: must be nonzero"),
        (on("rp-certify", {**HEIS_MAP, "z": "nan"}, x=[0.1, 0.2, 0.3],
            y=[0.1, 0.2, 0.3]), "system.z: must be finite, got 'nan'"),
        # grids of 2^63 cells or more, which an int64 cell key cannot number
        (valid("poly-density", resolution=2 ** -10, polys=[{"coeffs": ["0", "1"]}] * 8),
         "params.resolution: resolution 0.0009765625 gives 1024^8 cells (8 axes)"),
        (valid("suspend", resolution=1e-19),
         "params.resolution: resolution 1e-19 gives 1e+19^1 cells (1 axes)"),
        (on("fiber-coverage", TORUS3_MAP, projection="torus-coord-0", d=3,
            alphas=[1.0, 2.0, 3.0], x=[0.0, 0.0, 0.0], resolution=2 ** -11),
         "params.resolution: resolution 0.00048828125 gives 2048^6 cells (6 axes)"),
        # trig observables that are not trig polynomials on one factor, and an
        # exact expansion past its cap
        (valid("average", observable=RAGGED),
         f"params.observable: cannot parse {RAGGED!r} (ValueError: needs one or more "
         "terms whose frequency tuples share one length, got [(1,), (1, 2)])"),
        (valid("nilres", observable=RAGGED), f"params.observable: cannot parse {RAGGED!r}"),
        (valid("potts", observables=[RAGGED, RAGGED]), "params.observables: cannot parse"),
        (on("average", ROOT2, observable={"kind": "exp", "freq": [0.5]}),
         "params.observable: cannot parse {'kind': 'exp', 'freq': [0.5]} "
         "(ValueError: frequencies must be integers, got 0.5)"),
        (on("nilres", ROOT2, observable={"kind": "exp", "freq": [0.5]}),
         "params.observable: cannot parse {'kind': 'exp', 'freq': [0.5]} "
         "(ValueError: frequencies must be integers, got 0.5)"),
        (valid("average", observable={"kind": "exp", "freq": [True]}),
         "params.observable: cannot parse {'kind': 'exp', 'freq': [True]} "
         "(ValueError: frequencies must be integers, got True)"),
        (on("nilres", ROOT2, observable=EIGHT_TERMS, alphas=[0.5, 1.0, 1.5, 2.0, 3.0]),
         "params.observable: factors of 8, 8, 8, 8, 8, 8 terms expand to 262144 frequency "
         "tuples, above the exact expansion's cap of 200000"),
        (valid("potts", observables=[TERMS_400, TERMS_501]),
         "params.observables: factors of 400, 501 terms expand to 200400 frequency tuples, "
         "above the exact expansion's cap of 200000"),
        # correlation points and times past their caps, checked before anything
        # is allocated
        (on("nilres", HEIS_FLOW, observable=COS_2D, n_samples=10 ** 11),
         "params: 100000000000 samples, above the correlation's cap of 1048576"),
        (on("nilres", ROOT2, observable={"kind": "exp", "freq": [600000]}),
         "params: 1200001 mesh points (1200001^1), above the correlation's cap of 1048576"),
        (on("average", ROOT2, observable=WIDE_TERMS, alphas=[0.5, 1.0, 1.5, 2.0, 3.0]),
         "params: 3600001 mesh points (3600001^1), above the correlation's cap of 1048576"),
        (valid("suspend", times={"kind": "uniform", "count": 1e11, "horizon": 10.0}),
         "params.times: holds 100000000000 times, above the cap of 1048576"),
        (valid("density", time_grid={"kind": "quadratic", "beta": 1.0, "n_max": 2 ** 40}),
         "params.time_grid: holds 1099511627776 times, above the cap of 1048576"),
        (valid("nilres", t_grid={"kind": "grid", "start": 0.0, "stop": 10.0, "step": 1e-10}),
         "params.t_grid: holds 100000000001 times, above the cap of 1048576"),
        # counts inside times and observables, and the times seed, which int()
        # used to truncate
        (valid("density", time_grid={"kind": "quadratic", "beta": 1.5, "n_max": 2.7}),
         "params.time_grid: must be an integer >= 1, got 2.7"),
        (valid("suspend", times={"kind": "uniform", "count": True, "horizon": 10.0}),
         "params.times: must be an integer >= 1, got True"),
        (valid("suspend", times={"kind": "uniform", "count": 3.9, "horizon": 10.0}),
         "params.times: must be an integer >= 1, got 3.9"),
        (valid("suspend", times={"kind": "uniform", "count": 3.9, "seed": 2.5,
                                 "horizon": 10.0}),
         "params.times: must be an integer >= 0, got 2.5"),
        (valid("suspend", times={"kind": "uniform", "count": 3, "seed": True,
                                 "horizon": 10.0}),
         "params.times: must be an integer >= 0, got True"),
        (valid("average", observable={"kind": "const", "value": 2.0, "dim": 1.5}),
         "params.observable: must be an integer >= 1, got 1.5"),
        (valid("average", observable={"kind": "const", "value": 2.0, "dim": True}),
         "params.observable: must be an integer >= 1, got True"),
        (valid("average", observable={"kind": "const", "value": 2.0, "dim": 0}),
         "params.observable: must be an integer >= 1, got 0"),
        (on("rp-certify", {**SUSP, "step": 2}, x=[0.1, 0.2], y=[0.1, 0.2]),
         "system.step: a suspension takes real times, not a step"),
        (on("rp-transfer", SUSP, {**SUSP, "step": 2}, x=[0.1, 0.2], y=[0.1, 0.2]),
         "system_h.step: a suspension takes real times, not a step"),
        ({k: v for k, v in valid("rp-transfer").items() if k != "system_h"},
         "system_h: missing second action"),
        ({**valid("minimal"), "expect": {"path": "minimal"}}, "expect: must be a list"),
        ({**valid("minimal"), "params": [1]}, "params: must be an object"),
        # validate is a subcommand that checks a config, not an operation
        ({**valid("minimal"), "operation": "validate"},
         "operation: unknown or missing ('validate')"),
        (on("minimal", {"kind": "klein-bottle"}), "system: unknown system kind 'klein-bottle'"),
        (on("minimal", {"kind": "torus-flow", "freqs": []}),
         "system: torus flow needs at least one frequency"),
    ], ids=["average-no-alphas", "average-no-observable", "average-no-t",
            "average-t-and-grid",
            "potts-no-R", "susp-rp-no-s1", "density-no-radius", "density-negative-radius",
            "suspend-no-times", "embed-no-gs", "exceptional-no-t", "swept-zero-budget",
            "sweep-no-values", "budget-typo", "zero-n-samples", "average-n-samples",
            "sweep-not-params",
            "seed-not-integer", "expect-unknown-op", "embed-alpha-per-element",
            "membership-three-tuple", "potts-observable-per-poly", "ud-window-too-wide",
            "nilres-window-too-wide", "density-rho-above-horizon",
            "average-1d-observable-on-2-torus", "average-on-suspension",
            "potts-on-suspension", "nilres-on-suspension", "embed-three-gs",
            "embed-noncentral-second", "nilres-decreasing-grid", "average-decreasing-grid",
            "nilres-empty-grid", "poly-density-on-heisenberg", "minimal-on-torus-map",
            "susp-rp-on-flow",
            "cube-mixed-kinds", "nd-compare-mixed-kinds", "potts-dependent-polys",
            "rp-transfer-noncommuting", "rp-transfer-near-commuting",
            "rp-transfer-c-one-half-step", "rp-transfer-across-spaces",
            "exceptional-on-suspension", "density-negative-half-width",
            "fiber-identity", "heisenberg-x-infinite-certify", "heisenberg-x-infinite-cube",
            "susp-rp-s1-infinite", "susp-rp-s1-nan", "potts-R-infinite",
            "heisenberg-z-infinite", "density-horizon-nan", "basis-value-infinite",
            "torus-x-nan", "sweep-value-infinite", "system-not-object",
            "system-h-not-object", "suspension-base-not-object", "basis-not-object",
            "potts-R-inf-string", "heisenberg-x-minus-infinity-string",
            "nilflow-with-step", "torus-flow-with-step", "system-h-nilflow-with-step",
            "nilsystem-step-inf-string", "map-step-zero", "map-step-not-number",
            "suspension-base-step-zero", "heisenberg-z-nan-string",
            "poly-density-cell-key-overflow", "suspend-cell-key-overflow",
            "fiber-coverage-cell-key-overflow", "average-ragged-freqs",
            "nilres-ragged-freqs", "potts-ragged-freqs", "average-half-freq",
            "nilres-half-freq", "average-bool-freq", "nilres-over-exact-cap",
            "potts-over-exact-cap",
            "nilres-samples-over-point-cap", "nilres-mesh-over-point-cap",
            "average-mesh-over-point-cap", "suspend-uniform-over-times-cap",
            "density-quadratic-over-times-cap", "nilres-grid-over-times-cap",
            "density-fractional-n-max", "suspend-bool-count", "suspend-fractional-count",
            "suspend-fractional-seed", "suspend-bool-seed", "average-fractional-dim",
            "average-bool-dim", "average-zero-dim", "suspension-with-step",
            "system-h-suspension-with-step", "rp-transfer-no-system-h", "expect-not-a-list",
            "params-not-an-object", "validate-as-operation", "unknown-system-kind",
            "torus-flow-without-freqs"])
    def test_malformed_config_exit_schema(self, tmp_path, capsys, cfg, diag):
        assert any(d.startswith(diag) for d in validate_config(cfg))
        assert main(["run", "--config", str(write_cfg(tmp_path, cfg))]) == EXIT_SCHEMA
        assert diag in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path, capsys):
        path = str(write_cfg(tmp_path, valid("cube")))
        assert main(["run", "--config", path, "--seed", "-1"]) == EXIT_SCHEMA
        assert "seed: must be an integer >= 0, got -1" in capsys.readouterr().err
        assert main(["validate", "--config", path, "--seed", "-1"]) == EXIT_OK
        diags = json.loads(capsys.readouterr().out)["payload"]["result"]["diagnostics"]
        assert diags == ["seed: must be an integer >= 0, got -1"]

    def test_null_means_default(self):
        explicit = run(valid("rp-certify", budget=None, d=None))
        default = run(without("rp-certify", "budget"))
        assert validate_config(valid("potts", h=None)) == []
        assert explicit["result"] == default["result"]

    def test_potts_at_the_tuple_cap_runs(self):
        # 400 * 500 frequency tuples are the cap itself (one more term is past
        # it: potts-over-exact-cap above); the node sums take few arrays
        cfg = valid("potts", observables=[TERMS_400, TERMS_500])
        assert validate_config(cfg) == []
        assert run(cfg)["result"]["n_time"] == 20

    def test_unknown_key_named(self):
        diags = validate_config(valid("cube", x=[0.1], alphas=[1.0, 2.0]))
        assert diags == ["params.alphas: unknown parameter"]

    def test_readme_examples_validate(self, tmp_path, capsys):
        # each example validates and runs, so its expect checks hold
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```json\n(.*?)```", section, re.S)
        assert blocks
        paths = [tmp_path / f"example-{i}.json" for i in range(len(blocks))]
        for block, path in zip(blocks, paths):
            assert validate_config(json.loads(block)) == []
            path.write_text(block)
            assert main(["run", "--config", str(path)]) == EXIT_OK, block
            capsys.readouterr()
        # and the first one as the documented command, in its own process
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "nilflow.cli", "run", "--config",
                               str(paths[0])], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["payload"]["pass"] is True


# values each parser must reject; a parser without an entry accepts everything
BAD = {
    cli._count: [0, -3, True, 2.5, "7", [1]],
    cli._positive: [0, -1.5, "abc", [0.1], math.nan, math.inf, "inf", "Infinity"],
    cli._unit: [0, 1.5, -0.05, "abc", math.nan, math.inf, "nan"],
    cli._float: ["abc", [1.0], {"v": 1}, math.nan, math.inf, "inf", "-Infinity", "nan"],
    cli._floats: ["abc", 5, {"x": 1}, ["a"], math.nan, math.inf, [math.nan],
                  [0.0, math.inf], ["inf"], [0.0, "NaN"]],
    cli._alphas: [[], [1.0, 1.0], [0.0, 1.0], ["x"], 3, ["inf"], [1.0, "nan"]],
    cli._nonzero_time: ["0", {"ONE": "0"}, 1.5, "abc", [1]],
    cli._polys: [[], [{"coeffs": [1]}], [{"c": [0, 1]}], "x"],
    cli._observable: [{"kind": "nope"}, {"kind": "exp"}, 5, "cos",
                      {"kind": "const", "value": "inf"}, {"kind": "const", "dim": 1.5},
                      {"kind": "trig", "terms": [{"freq": [1], "re": "nan"}]}],
    cli._observables: [[], [{"kind": "nope"}], 5],
    cli._times: [{"kind": "nope"}, "x", {"kind": "grid"}, ["a"], [],
                 {"kind": "grid", "start": 2.0, "stop": 1.0, "step": 0.5}, [0.0, "inf"],
                 {"kind": "grid", "start": 0.0, "stop": "inf", "step": 1.0},
                 {"kind": "quadratic", "beta": "nan", "n_max": 3},
                 {"kind": "quadratic", "beta": 1.0, "n_max": 2.7},
                 {"kind": "uniform", "count": True, "horizon": 1.0},
                 {"kind": "uniform", "count": 3, "seed": 2.5, "horizon": 1.0}],
    cli._windows: [[], [[1.0]], "x", [["a", 1.0]], [["inf", 1.0]]],
    cli._series: [{"grid": [0, 1], "values": [0]}, {"grid": [1, 0], "values": [0, 0]},
                  5, {"csv": "no-such-series.csv"}, {"grid": [0, 1], "values": [0, "inf"]}],
    cli._element: [[1, 2], "x", [1, 2, "a"], [0, 0, "nan"]],
    cli._elements: [[], [[1, 2]], 5],
    str: ["no-such-projection"],
}


@st.composite
def broken_configs(draw):
    """A valid config with one required parameter dropped, or with one
    parameter set outside its declared range: (config, parameter)."""
    op = draw(st.sampled_from(sorted(VALID)))
    spec = cli._TABLE[op][1]
    required = [k for k, entry in spec.items() if not isinstance(entry, tuple)]
    ranged = [k for k, entry in spec.items()
              if BAD.get(entry[0] if isinstance(entry, tuple) else entry)]
    assume(required or ranged)
    if required and draw(st.booleans()) or not ranged:
        key = draw(st.sampled_from(required))
        return without(op, key), key
    key = draw(st.sampled_from(ranged))
    entry = spec[key]
    bad = draw(st.sampled_from(BAD[entry[0] if isinstance(entry, tuple) else entry]))
    return valid(op, **{key: bad}), key


@settings(max_examples=200, deadline=None)
@given(case=broken_configs())
def test_broken_parameter_named_and_exits_schema(tmp_path_factory, case):
    cfg, key = case
    assert any(d.startswith(f"params.{key}:") for d in validate_config(cfg))
    path = write_cfg(tmp_path_factory.mktemp("cfg"), cfg)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["run", "--config", str(path)]) == EXIT_SCHEMA
    assert f"params.{key}" in err.getvalue()


# ---------------------------------------------------------------------------
# parsing and running agree: the cross rules are the library's own checks

ROT3 = {"kind": "torus-map", "freqs": [{"SQRT3": "1"}]}
# (system, dimension)
SYSTEMS = [(ROT, 1), (ROT3, 1), (LINE, 1), (PLANE, 2), (HEIS_FLOW, 3), (HEIS_MAP, 3),
           (SUSP, 2)]
# (system, system_h, dimension of system): one space or two, commuting or not
TRANSFER_PAIRS = [(ROT, ROT3, 1), (ROT, LINE, 1), (HEIS_MAP, HEIS_FLOW, 3),
                  (HEIS_MAP, HEIS_MAP_H, 3), (TORUS3_MAP, HEIS_MAP, 3), (ROT, HEIS_MAP, 1),
                  (SUSP, SUSP, 2), (HEIS_MAP, HEIS_MAP_NEAR, 3), (HALF_MAP, HALF_MAP_H, 3),
                  (HALF_MAP, {**HALF_MAP_H, "step": 0.5}, 3)]
POLY_POOL = [{"coeffs": ["0", "1"]}, {"coeffs": ["0", "0", "1"]}, {"coeffs": ["0", "2"]},
             {"coeffs": ["3"]}]
ELEMENTS = [[1, 0, 0], [2, 0, 1], [0, 0, 1], [1, 0, 1]]


def points(dim):
    """Coordinates that mostly fit a space of dimension dim, else miss it by one."""
    return st.sampled_from([dim] * 3 + [max(dim - 1, 1), dim + 1]).flatmap(
        lambda n: st.lists(st.sampled_from([0.1, 0.25, 0.4]), min_size=n, max_size=n))


alpha_lists = st.lists(st.sampled_from([1.0, 2.0, -0.5]), min_size=1, max_size=3)
FIVE = [0.5, 1.0, 1.5, 2.0, 3.0]
HIGH = {"kind": "exp", "freq": [600000]}


@st.composite
def cross_rule_configs(draw, ops):
    """A config whose parameters each parse, drawn around the cross rules:
    points against the systems' dimensions, d against the alphas, projection
    names, gs/alphas and polys/observables lengths, rho against the horizon,
    the products of exceptional's time in the basis, the correlation points
    of average and nilres, the frequency tuples of potts, and the system
    kinds.  Budgets stay small."""
    op = draw(st.sampled_from(ops))
    cfg = valid(op)
    system, dim = draw(st.sampled_from(SYSTEMS))
    if "system" in cfg:
        cfg["system"] = system
    p = cfg["params"]
    if op in ("rp-certify", "cube", "nd-compare", "poly-density", "fiber-coverage",
              "suspend", "density"):
        p["x"] = draw(points(dim))
    if op == "rp-certify":
        p["y"] = draw(points(dim))
    elif op == "rp-transfer":
        # x = y: the G-search finds its witness at once, so the transfer,
        # and with it the commutation check, always runs
        cfg["system"], cfg["system_h"], dim = draw(st.sampled_from(TRANSFER_PAIRS))
        p["x"] = p["y"] = draw(points(dim))
        p.update(delta=0.3, budget=10)
    elif op in ("cube", "nd-compare"):
        system_h = draw(st.sampled_from([s for s, _ in SYSTEMS] + [None] * (op == "cube")))
        cfg.pop("system_h")
        if system_h is not None:
            cfg["system_h"] = system_h
        p.update(d=draw(st.integers(1, 3)), budget=3)
        if op == "nd-compare":
            p["alphas"] = draw(st.none() | alpha_lists)
    elif op == "poly-density":
        p["polys"] = draw(st.lists(st.sampled_from(POLY_POOL), min_size=1, max_size=2))
    elif op == "fiber-coverage":
        p.update(projection=draw(st.sampled_from(
            ["identity", "torus-coord-0", "heisenberg-base", "no-such"])),
            d=draw(st.integers(1, 2)), alphas=draw(alpha_lists), budget=5)
    elif op == "susp-rp":
        p.update(x1=draw(points(dim)), x2=draw(points(dim)), budget=5)
    elif op == "exceptional":
        # SQRT5 times SQRT2 is a product the basis does not declare
        p["t"] = draw(st.sampled_from(["1", "1/3", {"SQRT2": "1"}, {"SQRT5": "1"}]))
    elif op in ("average", "nilres"):
        # EIGHT_TERMS with five alphas is past the exact expansion's cap, so
        # average takes the mesh; WIDE_TERMS there and exp(2 pi i 600000 x)
        # under nilres give meshes past the point cap, as do 10^11 samples
        observable = draw(st.sampled_from([COS, COS_2D, EIGHT_TERMS, WIDE_TERMS, HIGH]))
        p.update(observable=observable, alphas=FIVE if observable in (
            EIGHT_TERMS, WIDE_TERMS) else draw(alpha_lists))
        if op == "nilres":
            p["windows"] = draw(st.sampled_from([None, [[0.0, 5.0]], [[0.0, 50.0]]]))
            p["n_samples"] = draw(st.sampled_from([None, 100, 10 ** 11]))
    elif op == "ud":
        p["windows"] = draw(st.sampled_from([[[0.0, 1.0]], [[0.0, 5.0]], [[0.5, 0.6]]]))
    elif op == "density":
        p.update(center=draw(points(dim)), rho=draw(st.sampled_from([5.0, 25.0])),
                 horizon=draw(st.sampled_from([None, 10.0, 30.0])))
    elif op == "potts":
        # or a pair at the exact expansion's cap of frequency tuples, or above it
        p.update(polys=draw(st.lists(st.sampled_from(POLY_POOL), min_size=1, max_size=3)),
                 observables=draw(st.lists(st.sampled_from([COS, COS_2D]), min_size=1,
                                           max_size=3) | st.sampled_from(
                     [[TERMS_400, TERMS_500], [TERMS_400, TERMS_501]])))
    elif op == "embed":
        p.update(gs=draw(st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=3)),
                 alphas=draw(alpha_lists))
    elif op == "membership":
        p.update(tuple=draw(st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=3)),
                 alphas=draw(alpha_lists))
    return cfg


def library_error(cfg):
    """Run each row's operation on the parsed parameters without the
    schema gate: the library's error, or None when every row runs."""
    _, handles, rows = cli._parse(cfg)
    ctx = cli.RunContext(handles.get("system_h"), 0, None)
    try:
        for p in rows:
            cli._TABLE[cfg["operation"]][0](p, handles.get("system"), ctx)
    except ValueError as e:
        return e
    return None


def assert_parsing_agrees(cfg):
    diags = validate_config(cfg)
    assert not any(d.endswith(": missing") or "cannot parse" in d for d in diags), diags
    err = library_error(cfg)
    assert (diags == []) == (err is None), (diags, err)


def test_parsing_agrees_with_running():
    # the operation first, each in turn with an equal share of the examples,
    # then its config: one strategy over every operation drew some ten times
    # as often as others.  30 draws exhaust exceptional's 28 configs, among
    # them the two whose products the basis does not declare.
    for op in sorted(cli._TABLE):
        settings(max_examples=30, deadline=None)(
            given(cfg=cross_rule_configs(ops=(op,)))(assert_parsing_agrees))()


@settings(max_examples=200, deadline=None)
@given(cfg=cross_rule_configs(ops=("exceptional", "average", "nilres")))
@example(cfg=on("exceptional", PLANE, t={"SQRT5": "1"}))
@example(cfg=on("average", LINE, observable=EIGHT_TERMS, alphas=FIVE))
@example(cfg=on("average", LINE, observable=WIDE_TERMS, alphas=FIVE))
@example(cfg=on("nilres", LINE, observable=HIGH))
@example(cfg=on("nilres", HEIS_FLOW, observable=COS_2D, n_samples=10 ** 11))
def test_parsing_agrees_with_running_on_basis_and_point_rules(cfg):
    # the operations whose rules decide basis products and point caps, drawn
    # often enough that each rule fails and passes; the examples are an
    # undeclared product, a mesh average, and a mesh and samples past the cap
    assert_parsing_agrees(cfg)


def reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


@pytest.mark.parametrize("cfg", [
    {"operation": "rp-certify", "system": ROT,
     "params": {"x": [0.2], "y": [0.2], "d": 1, "delta": 0.05, "budget": 1000}},
    {"operation": "rp-transfer", "system": ROT,
     "system_h": {"kind": "torus-map", "freqs": [{"SQRT3": "1"}]},
     "params": {"x": [0.2], "y": [0.2], "d": 1, "delta": 0.05, "budget": 1000}},
], ids=["rp-certify", "rp-transfer"])
def test_first_candidate_witness_prints_strict_json(tmp_path, capsys, cfg):
    # no miss comes before a first-candidate witness, so no best gap exists
    assert main(["run", "--config", str(write_cfg(tmp_path, cfg))]) == EXIT_OK
    out = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    result = out["payload"]["result"]
    searches = [result] if "status" in result else [result["witness_g"], result["transfer"]]
    for res in searches:
        assert (res["status"], res["checked"], res["best_gap"]) == ("witness", 1, None)


@pytest.mark.parametrize("op", sorted(cli._TABLE))
def test_report_json_round_trips_the_report(op):
    # the report is encoded as it stands: no pass converts or rounds a value
    rep = run(valid(op))
    payload = json.loads(report_json(rep), parse_constant=reject_constant)["payload"]
    assert payload == {k: v for k, v in rep.items() if k != "wall_time_s"}


def test_numpy_numbers_in_a_config_print_as_python_numbers():
    def report_text(x, y):
        rep = run(valid("rp-certify", x=[x], y=[y]))
        del rep["wall_time_s"]
        return report_json(rep)

    assert report_text(np.int64(0), np.float32(0.25)) == report_text(0, 0.25)
    # numpy integers as counts and seeds: valid, and the plain twin's bytes
    numpy_cfg = {**valid("rp-certify", budget=np.int64(10)), "seed": np.int64(3)}
    plain_cfg = {**valid("rp-certify", budget=10), "seed": 3}
    assert validate_config(numpy_cfg) == []
    texts = []
    for cfg in (numpy_cfg, plain_cfg):
        rep = run(cfg)
        del rep["wall_time_s"]
        texts.append(report_json(rep))
    assert texts[0] == texts[1]
    assert validate_config({**plain_cfg, "seed": np.bool_(True)}) != []
    with pytest.raises(TypeError):
        report_json({"result": np.zeros(1)})  # only scalars convert


# ---------------------------------------------------------------------------
# artifacts: with an out path, each is the CSV np.savetxt writes of the
# arrays the operation computed, beside the report

T_LIST = [0.0, 0.5, 1.25, 3.0, 7.5]


def savetxt_bytes(tmp_path, rows) -> bytes:
    path = tmp_path / "expected.csv"
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")
    return path.read_bytes()


def run_with_out(tmp_path, cfg):
    """The report of cli.run with an out path, and each artifact's bytes."""
    rep = run(cfg, out_path=tmp_path / "report.json")
    return rep, {name: Path(path).read_bytes() for name, path in rep["artifacts"].items()}


def system_of(cfg, key="system"):
    return cli.build_system(cfg[key], cli.build_basis(cfg), key)


def test_average_series_artifact(tmp_path):
    cfg = on("average", PLANE, observable=COS_2D, alphas=[1.0, -0.5], t=None, t_grid=T_LIST)
    rep, arts = run_with_out(tmp_path, cfg)
    vals = multi_average_series(system_of(cfg), Observable.cosine(1, 0), [1.0, -0.5], T_LIST)
    assert rep["result"]["n_points"] == len(T_LIST)
    assert arts == {"series": savetxt_bytes(
        tmp_path, np.column_stack((T_LIST, vals.real, vals.imag)))}


@pytest.mark.parametrize("system, observable, f", [
    (LINE, COS, Observable.cosine(1)), (HEIS_FLOW, COS_2D, Observable.cosine(1, 0))],
    ids=["mesh", "samples"])
def test_nilres_residual_artifact(tmp_path, system, observable, f):
    # the samples are drawn from the config's seed
    cfg = {**on("nilres", system, observable=observable, t_grid=T_LIST, n_samples=500,
                windows=None), "seed": 4}
    _, arts = run_with_out(tmp_path, cfg)
    res = nilfunction_residual(system_of(cfg), f, [1.0], T_LIST, 500, 4).residual
    assert arts == {"residual": savetxt_bytes(
        tmp_path, np.column_stack((T_LIST, res.values.real, res.values.imag)))}


def test_cube_cloud_artifacts(tmp_path):
    cfg = {**on("cube", ROT, ROT3, x=[0.1], budget=20), "seed": 2}
    rep, arts = run_with_out(tmp_path, cfg)
    clouds = [cube_orbit_sample(s, s.from_coords([0.1]), 2, 20, 2 + i)
              for i, s in enumerate((system_of(cfg), system_of(cfg, "system_h")))]
    assert rep["result"]["cloud_g"]["n"] == clouds[0].n
    assert arts == {name: savetxt_bytes(tmp_path, c.flat())
                    for name, c in zip(("cloud_g", "cloud_h"), clouds)}


def test_nd_compare_cloud_artifacts(tmp_path):
    cfg = {**on("nd-compare", LINE, ROOT2, x=[0.1], budget=20), "seed": 5}
    rep, arts = run_with_out(tmp_path, cfg)
    clouds = [nd_sample(s, s.from_coords([0.1]), 2, 20, 5 + i, [1.0, 2.0])
              for i, s in enumerate((system_of(cfg), system_of(cfg, "system_h")))]
    assert rep["result"]["cloud_h"]["n"] == clouds[1].n
    assert arts == {name: savetxt_bytes(tmp_path, c.flat())
                    for name, c in zip(("cloud_g", "cloud_h"), clouds)}


@pytest.mark.parametrize("columns", [2, 3], ids=["real", "complex"])
def test_ud_reads_a_csv_series(tmp_path, columns):
    # a third column is the imaginary part: |cos + i sin| = 1, not |cos|
    grid = np.arange(0.0, 4.5, 0.5)
    rows = np.column_stack([grid, np.cos(grid), np.sin(grid)][:columns])
    path = tmp_path / "series.csv"
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")
    windows = [(0.0, 2.0), (1.0, 3.0)]
    values = rows[:, 1] if columns == 2 else rows[:, 1] + 1j * rows[:, 2]
    rep = run(valid("ud", series={"csv": str(path)}, windows=[list(w) for w in windows]))
    assert rep["result"]["sup"] == ud_sup(TimeSeries(grid, values), windows).sup


def test_ud_csv_series_must_be_finite(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("0,1\n1,inf\n2,0\n")
    diags = validate_config(valid("ud", series={"csv": str(path)}))
    assert len(diags) == 1 and diags[0].startswith("params.series: must be finite")


@pytest.mark.parametrize("row", ["0", "0,1,0,5"], ids=["one-column", "four-columns"])
def test_ud_csv_series_has_two_or_three_columns(tmp_path, row):
    # no column is dropped: only t, re and an optional im are read
    path = tmp_path / "series.csv"
    path.write_text(f"{row}\n{row}\n")
    n = row.count(",") + 1
    assert validate_config(valid("ud", series={"csv": str(path)})) == [
        f"params.series: a CSV must have 2 or 3 columns (t, re[, im]), got {n}"]


def test_poly_density_on_both_kinds_of_suspension():
    # a suspension over a torus map is its own rotation factor, one over the
    # Heisenberg map is not
    params = {"polys": [{"coeffs": ["0", "1"]}], "budget": 2000, "resolution": 0.1}
    assert run(on("poly-density", SUSP, x=[0.1, 0.2], **params))["result"]["coverage"] == 1.0
    cfg = on("poly-density", {"kind": "suspension", "base": HEIS_MAP}, x=[0.1, 0.2, 0.3, 0.4],
             **params)
    assert validate_config(cfg) == [
        "system: poly-density supports isometric systems (tori and suspensions over tori), "
        "got suspension"]
