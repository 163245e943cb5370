import copy
import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from conftest import GROWTH_SPELLINGS
import gfc.config
import gfc.report
from gfc.cli import main
from gfc.config import SCHEMA, ConfigFileError, load_scenario
from gfc.evolution import ConfigError, SolverConfig
from gfc.kernels import (CoagulationKernel, DaughterDistribution, FragmentationRate, GrowthRate,
                         KernelConfigError)
from gfc.presets import PRESETS, get_preset, preset_names


NAN, INF = float("nan"), float("inf")
MINI = {
    "kernels": {
        "fragmentation": {"kind": "power-law", "a0": 0.0, "gamma0": 1.0, "x0": 1.0},
        "daughter": {"kind": "uniform-binary"},
        "growth": {"kind": "constant", "r0": 0.0},
        "coagulation": {"kind": "constant", "k0": 2.0, "alpha": 0.5},
        "ball_radius": 4.0,
    },
    "grid": {"xmin": 1.0e-3, "xmax": 50.0, "cells": 64},
    "time": {"dt": 4.0e-3, "t_end": 0.2, "output_every": 0.04},
    "solver": {"scheme": "lie-split", "m": 2.0},
    "initial": {"profile": "exponential", "amplitude": 1.0, "decay": 1.0},
    "checks": {"suites": ["oracle", "mass-budget"]},
}


def write_cfg(tmp_path: Path, raw: dict, name="scenario.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


class TestPresets:
    def test_at_least_five_presets(self):
        assert len(preset_names()) >= 5

    def test_names_stable(self):
        assert preset_names() == preset_names()
        expected = {"aizenman-bak-frag", "constant-coag", "gfc-global-ii",
                    "gfc-global-i", "regularization-probe"}
        assert expected <= set(preset_names())

    @pytest.mark.parametrize("name", sorted(PRESETS.keys()))
    def test_every_preset_validates(self, name):
        sc = load_scenario(name)
        assert sc.raw["grid"]["cells"] >= 2

    def test_list_presets_command(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) >= 5


class TestConfigParsing:
    def test_unknown_key_rejected_with_path(self, tmp_path):
        raw = copy.deepcopy(MINI)
        raw["grid"]["cellz"] = 10
        with pytest.raises(ConfigFileError, match="grid.cellz"):
            load_scenario(write_cfg(tmp_path, raw))

    @pytest.mark.parametrize("key,value", [("reaction", "naive"), ("use_beta_shift", False),
                                           ("positivity_policy", "off")])
    def test_removed_solver_knobs_rejected(self, key, value):
        raw = copy.deepcopy(MINI)
        raw["solver"][key] = value
        with pytest.raises(ConfigFileError, match=rf"unknown key 'solver\.{key}'"):
            load_scenario(raw)

    @pytest.mark.parametrize("section,key,value,path", [
        ("bounds", "mode", "p-estimate", "bounds"),
        ("bounds", "phi_order", 3, "bounds"),
        ("bounds", "eps_margin", 0.5, "bounds"),
        ("solver", "cfl_safety", 0.5, "solver.cfl_safety"),
        ("solver", "picard_tol", 1e-6, "solver.picard_tol"),
        ("probe", "membership_growth_min", 1.5, "probe"),
        *[("probe", key, value, "probe") for key, value in (
            ("eta", 0.25), ("t_lo", 1e-2), ("t_hi", 1.0), ("n_times", 13),
            ("stability_tol", 0.25))],
        ("solver", "blowup_ceiling", 1e6, "solver.blowup_ceiling"),
        ("solver", "picard_max_iter", 30, "solver.picard_max_iter"),
        *[pytest.param("checks", "tolerances", {name: 0.05}, "checks.tolerances",
                       id=f"checks-tolerances-{name}") for name in (
            "coag_moment2", "cross_validation", "domination", "laplace", "m1_envelope",
            "mass_budget", "oracle", "pde_residual", "quasi_contractivity",
            "resolvent_residual")],
    ])
    def test_fixed_and_derived_values_are_not_keys(self, section, key, value, path):
        """The bound cascade's sink split is derived from the certified
        condition; the other values are constants of the code or keyword
        defaults of the check that uses them, so a file setting one fails
        at load time (a removed section is named as a whole)."""
        raw = copy.deepcopy(MINI)
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigFileError, match=rf"unknown key '{re.escape(path)}'"):
            load_scenario(raw)

    @pytest.mark.parametrize("section,cls", [
        ("fragmentation", FragmentationRate), ("daughter", DaughterDistribution),
        ("growth", GrowthRate), ("coagulation", CoagulationKernel)])
    def test_kernel_sections_are_the_dataclass_fields(self, section, cls):
        public = {f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")}
        assert SCHEMA["kernels"][section] == public

    @pytest.mark.parametrize("section,cls,kind", [
        (section, cls, kind) for section, cls, kinds in (
            ("fragmentation", FragmentationRate, ("power-law", "linear", "table")),
            ("daughter", DaughterDistribution, ("uniform-binary", "power-law", "table")),
            ("growth", GrowthRate, ("constant", "linear", "affine", "table")),
            ("coagulation", CoagulationKernel, ("constant", "product", "sum", "table")))
        for kind in kinds])
    def test_kind_only_section_builds_the_python_default(self, section, cls, kind):
        """A value left out of a file means what it means in Python: the
        section builds cls(kind) exactly, or fails with the same error."""
        def outcome(build):
            try:
                return build()
            except KernelConfigError as exc:
                return str(exc)

        raw = copy.deepcopy(MINI)
        raw["kernels"][section] = {"kind": kind}
        attr = {"fragmentation": "a", "daughter": "b", "growth": "r", "coagulation": "k"}[section]
        loaded = outcome(lambda: getattr(load_scenario(raw).kernel_set(), attr))
        assert loaded == outcome(lambda: cls(kind))

    def test_yaml_exponents_without_a_dot_load_as_floats(self, tmp_path):
        """PyYAML reads `1e-3` as a string; numeric fields are cast."""
        text = yaml.safe_dump(MINI).replace("dt: 0.004", "dt: 1e-3").replace("a0: 0.0", "a0: 1e-3")
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        assert "dt: 1e-3" in text and "a0: 1e-3" in text
        assert yaml.safe_load(text)["time"]["dt"] == "1e-3"
        sc = load_scenario(str(path))
        assert type(sc.solver_config().dt) is float and sc.solver_config().dt == 1e-3
        assert type(sc.kernel_set().a.a0) is float and sc.kernel_set().a.a0 == 1e-3
        path.write_text(text.replace("a0: 1e-3", "a0: fast"))
        with pytest.raises(ConfigFileError, match=r"'kernels\.fragmentation\.a0' must be a number"):
            load_scenario(str(path))

    def test_pure_python_yaml_loader_reads_the_same_scenario(self, tmp_path, monkeypatch):
        """Without libyaml the loader falls back to SafeLoader: same resolver,
        same scenario, and a parse error is a ConfigFileError either way."""
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(MINI).replace("dt: 0.004", "dt: 1e-3"))
        bad = tmp_path / "bad.yaml"
        bad.write_text("grid: {xmin: 1.0e-3, xmax: [50.0\n")
        fast = load_scenario(path)
        monkeypatch.setattr(gfc.config, "_YAML_LOADER", yaml.SafeLoader)
        assert load_scenario(path).raw == fast.raw
        assert fast.solver_config() == load_scenario(path).solver_config()
        for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
            monkeypatch.setattr(gfc.config, "_YAML_LOADER", loader)
            with pytest.raises(ConfigFileError, match="YAML parse error"):
                load_scenario(str(bad))

    def test_schema_size_is_pinned(self):
        """A new scenario key or solver field takes a deliberate edit here:
        a number no scenario varies belongs beside the code that uses it."""
        def settable(node) -> int:
            if node is None:
                return 1
            if isinstance(node, dict):
                return sum(settable(sub) for sub in node.values())
            return len(node)

        assert settable(SCHEMA) == 38
        assert len(dataclasses.fields(SolverConfig)) == 8

    def test_solver_config_fields_are_the_schema_keys(self):
        """Every SolverConfig field is settable from a scenario file and every
        solver/time key lands in a field; ball_radius comes from kernels."""
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        assert fields == set(SCHEMA["solver"]) | set(SCHEMA["time"]) | {"ball_radius"}

    def test_unknown_section_rejected(self, tmp_path):
        raw = copy.deepcopy(MINI)
        raw["timing"] = {}
        with pytest.raises(ConfigFileError, match="timing"):
            load_scenario(write_cfg(tmp_path, raw))

    def test_unknown_tolerance_key_rejected(self, tmp_path):
        """Tolerances live beside their checks, so a `checks.tolerances`
        block is an unknown key, spelt right or not."""
        raw = copy.deepcopy(MINI)
        for name in ("oracel", "oracle"):
            raw["checks"]["tolerances"] = {name: 1e-9}
            with pytest.raises(ConfigFileError,
                               match=r"unknown key 'checks\.tolerances' \(allowed: suites\)"):
                load_scenario(write_cfg(tmp_path, raw))

    @pytest.mark.parametrize("law,message", [
        ({"x0": 0.0}, "fragmentation threshold x0 must be > 0, got 0.0"),
        ({"x0": -1.0}, "fragmentation threshold x0 must be > 0, got -1.0"),
        ({"kind": "table", "table_x": [0.1, 1.0], "table_a": [1.0, 2.0], "x0": 0.0},
         "fragmentation threshold x0 must be > 0"),
        ({"gamma0": -0.5}, "needs gamma0 >= 0 to be locally bounded, got -0.5")])
    def test_fragmentation_law_refused_at_load(self, tmp_path, capsys, law, message):
        """x0 <= 0 and a power law that is not locally bounded fail at load,
        as one error line and exit 1 before any run, not a traceback from
        the bound cascade (x0 = 0) or certificates built on them."""
        raw = get_preset("gfc-global-i")
        raw["grid"]["cells"] = 32
        raw["kernels"]["fragmentation"].update(law)
        path = write_cfg(tmp_path, raw)
        with pytest.raises(KernelConfigError, match=re.escape(message)):
            load_scenario(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_unknown_suite_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                    command):
        """A misspelt suite name is an error line and exit 1 before anything
        is solved or written."""
        monkeypatch.setattr(gfc.report, "solve", lambda *a, **k: pytest.fail("solved"))
        raw = copy.deepcopy(MINI)
        raw["checks"]["suites"] = ["mass-budjet"]
        path = write_cfg(tmp_path, raw)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown check suite 'mass-budjet'; available: ")
        assert not (tmp_path / "out").exists()

    def test_readme_scenarios_load(self, tmp_path):
        """Every yaml block in README.md is a scenario file that loads."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.S | re.M)
        assert blocks
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.yaml"
            path.write_text(block)
            load_scenario(str(path))

    @pytest.mark.parametrize("key", ["xmin", "xmax", "cells"])
    def test_missing_grid_key_rejected(self, tmp_path, capsys, key):
        raw = copy.deepcopy(MINI)
        del raw["grid"][key]
        path = write_cfg(tmp_path, raw)
        with pytest.raises(ConfigFileError, match=f"grid.{key}"):
            load_scenario(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert f"grid.{key}" in capsys.readouterr().err

    def test_fractional_cell_count_rejected(self, tmp_path):
        """`cells: 64.7` is an error naming the key, not a 64-cell run;
        a whole count loads whether written 64 or 64.0."""
        raw = copy.deepcopy(MINI)
        for cells in (64, 64.0, "64"):
            raw["grid"]["cells"] = cells
            grid = load_scenario(write_cfg(tmp_path, raw)).grid()
            assert type(grid.cells) is int and grid.cells == 64
        for cells in (64.7, "64.5", float("inf")):
            raw["grid"]["cells"] = cells
            with pytest.raises(ConfigFileError, match=r"'grid\.cells' must be a whole number"):
                load_scenario(write_cfg(tmp_path, raw))
        with pytest.raises(ConfigFileError, match=r"'grid\.cells' must be a whole number"):
            load_scenario("constant-coag", {"grid": {"cells": 64.7}})

    @pytest.mark.parametrize("path,value,message", [
        *[(path, value, f"'{path}' must be finite") for path, value in (
            ("time.dt", NAN), ("time.t_end", INF), ("solver.m", NAN), ("grid.xmax", INF),
            ("kernels.ball_radius", NAN), ("kernels.coagulation.alpha", NAN),
            ("kernels.coagulation.k0", NAN), ("kernels.fragmentation.a0", NAN),
            ("kernels.growth.r1", NAN), ("initial.decay", NAN), ("initial.amplitude", INF))],
        ("kernels.growth", {"kind": "table", "table_x": [1e-3, 1.0, 50.0],
                            "table_r": [0.1, NAN, 0.2]}, "'table_r' must be finite"),
        ("kernels.growth", {"kind": "table", "table_x": [1e-3, 1.0, 50.0],
                            "table_r": [0.1, "fast", 0.2]},
         "'table_r' must be an array of numbers"),
        ("kernels.daughter", {"kind": "table", "table_u": [0.0, 0.5, 1.0],
                              "table_phi": [1.0, NAN, 1.0]}, "'table_phi' must be finite"),
        ("kernels.coagulation", {"kind": "table", "table_x": [1e-3, 50.0], "k0": 2.0,
                                 "table_k": [[1.0, NAN], [NAN, 1.0]]},
         "'table_k' must be finite"),
        ("kernels.fragmentation", {"kind": "table", "table_x": [1e-3, 1.0, 50.0],
                                   "table_a": [0.0, -5.0, 50.0]},
         "'table_a' must be finite and >= 0, got -5.0"),
        ("kernels.coagulation", {"kind": "table", "table_x": [1e-3, 1.0, 50.0], "k0": 2.0,
                                 "table_k": [[1.0, -3.0, 1.0], [-3.0, 1.0, 1.0],
                                             [1.0, 1.0, 1.0]]},
         "'table_k' must be finite and >= 0, got -3.0"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_non_finite_numbers_fail_at_load_naming_the_key(self, tmp_path, capsys,
                                                           path, value, message):
        """A NaN or infinite number, in a file (YAML `.nan`, `.inf`) or in a
        table, a table entry that is not a number, and a negative table entry
        (every coefficient is a nonnegative rate) fail at load with one line
        naming the key, not mid-run or with a traceback."""
        raw = get_preset("gfc-global-ii")
        *sections, key = path.split(".")
        node = raw
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
        message = re.escape(message)
        with pytest.raises((ConfigFileError, KernelConfigError), match=message):
            load_scenario(raw)
        assert main(["verify", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "o")]) == 1
        assert re.match(f"error: {message}", capsys.readouterr().err)

    # one valid table per kind: (knots key, knots, values key, values)
    TABLES = {
        "fragmentation": ("table_x", [1e-3, 1.0, 50.0], "table_a", [0.0, 1.0, 50.0]),
        "daughter": ("table_u", [0.0, 0.5, 1.0], "table_phi", [2.0, 2.0, 2.0]),
        "growth": ("table_x", [1e-3, 1.0, 50.0], "table_r", [0.1, 0.2, 0.3]),
        "coagulation": ("table_x", [1e-3, 1.0, 50.0], "table_k", [[1.0] * 3] * 3),
    }

    @pytest.mark.parametrize("defect", ["decreasing-knots", "short-values",
                                        "wrong-rank-values", "single-knot"])
    @pytest.mark.parametrize("section", ["fragmentation", "daughter", "growth", "coagulation"])
    def test_malformed_table_fails_at_load_naming_the_field(self, tmp_path, capsys,
                                                            section, defect):
        """Knots must be 1-D, strictly increasing and at least 2; values
        one per knot (per knot pair for table_k).  Each defect is one error
        line naming the field, not a run on undefined interpolation or a
        traceback."""
        knots_key, knots, values_key, values = self.TABLES[section]
        square = section == "coagulation"
        knots, values, field = {
            "decreasing-knots": (knots[::-1], values, knots_key),
            "short-values": (knots, values[:-1], values_key),
            "wrong-rank-values": (knots, values[0] if square else [values], values_key),
            "single-knot": (knots[:1], [[1.0]] if square else values[:1], knots_key),
        }[defect]
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 64
        raw["kernels"][section] = {"kind": "table", knots_key: knots, values_key: values,
                                   **({"k0": 2.0} if square else {})}
        assert main(["run", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: '{field}' ") and "Traceback" not in err

    @pytest.mark.parametrize("table_r", [[1e-3, 1e-3, 1e20], [1e20, 1e-3, 1e-3]])
    def test_growth_table_spanning_23_decades_runs(self, tmp_path, capsys, table_r):
        """A rate rising (or falling) across 23 decades has an exact R, flat in
        floating point where r is huge; R^-1 inverts it as far as float R
        resolves x, and the run closes its mass ledger."""
        import numpy as np
        from gfc.transport import Antiderivatives
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 64
        raw["kernels"]["growth"] = {"kind": "table", "table_x": [1e-3, 1e-2, 400.0],
                                    "table_r": table_r}
        raw["checks"] = {"suites": ["mass-budget", "positivity"]}
        sc = load_scenario(raw)
        ks, c = sc.kernel_set(), sc.grid().centers
        antid = Antiderivatives(ks)
        R = antid.R(c)
        assert np.all(np.isfinite(R)) and np.all(np.diff(R) >= 0)
        slack = 4.0 * ks.r(c) * np.spacing(np.abs(R))   # an ulp of R moves x by r times it
        assert np.all(np.abs(antid.R_inverse(R) - c) <= 1e-13 * c + slack)
        assert main(["run", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "o")]) == 0
        closure = re.search(r"^PASS  mass-budget/closure measured=(\S+) ",
                            capsys.readouterr().out, re.M)
        assert float(closure.group(1)) <= 1e-8

    def test_null_sections_load_as_empty(self, tmp_path, capsys):
        raw = copy.deepcopy(MINI)
        raw["solver"] = None
        sc = load_scenario(write_cfg(tmp_path, raw))
        assert sc.solver_config() == SolverConfig(dt=4e-3, t_end=0.2, output_every=0.04,
                                                  ball_radius=4.0)
        assert sc.check_suites == ["oracle", "mass-budget"]
        raw["checks"] = None
        path = write_cfg(tmp_path, raw)
        assert "checks: null" in Path(path).read_text()
        sc = load_scenario(path)
        assert sc.check_suites == []
        assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert "0 checks, 0 failures" in capsys.readouterr().out
        raw["checks"] = ["oracle"]
        with pytest.raises(ConfigFileError, match="'checks' must be a mapping"):
            load_scenario(write_cfg(tmp_path, raw))

    def test_missing_file_mentions_presets(self):
        with pytest.raises(ConfigFileError, match="preset"):
            load_scenario("/nonexistent/path.yaml")

    def test_round_trip_echo(self, tmp_path):
        sc = load_scenario(write_cfg(tmp_path, MINI))
        again = load_scenario(sc.echo())
        assert again.raw == sc.raw

    @pytest.mark.parametrize("time,match", [
        ({"output_every": 0.0}, "output_every"),
        ({"output_every": 0.5}, "output_every"),
        ({"t_end": 0.201}, "integer number of steps"),
        ({"output_every": 0.03}, r"^output_every = 0\.03 must divide t_end = 0\.2$"),
        ({"output_every": 0.05}, "output_every = 0.05 must be a whole number of steps")])
    def test_output_schedule_checked_at_load(self, time, match):
        raw = copy.deepcopy(MINI)
        raw["time"].update(time)
        with pytest.raises(ConfigError, match=match):
            load_scenario(raw)

    def test_duhamel_output_every_must_divide_t_end(self):
        raw = copy.deepcopy(MINI)
        raw["solver"]["scheme"] = "duhamel"
        raw["time"]["output_every"] = 0.03
        with pytest.raises(ConfigError, match="must divide t_end"):
            load_scenario(raw)

    def test_cross_field_validation_before_run(self, tmp_path):
        raw = copy.deepcopy(MINI)
        raw["time"]["dt"] = 0.5   # breaks dt * max(a + beta (1 + x^alpha)) <= 1
        with pytest.raises(ConfigError, match="positivity"):
            load_scenario(write_cfg(tmp_path, raw))


class TestCommands:
    def test_run_emits_csv_and_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        csv = tmp_path / "out" / "scenario_trajectory.csv"
        header = csv.read_text().splitlines()[0].split(",")
        assert header == ["t", "M0", "M1", "M2", "Mm", "norm0m", "min_density",
                          "escaped_mass"]

    def test_run_exit_one_on_config_error(self, tmp_path, capsys):
        raw = copy.deepcopy(MINI)
        raw["solver"]["scheme"] = "mystery"
        code = main(["run", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_strang_split_fails_at_load(self, tmp_path, capsys):
        """Lie is the one splitting composition: the retired name is an
        unknown scheme at load, and the message lists the two there are."""
        raw = copy.deepcopy(MINI)
        raw["solver"]["scheme"] = "strang-split"
        with pytest.raises(ConfigError, match=r"^unknown scheme 'strang-split'; "
                                              r"allowed: lie-split, duhamel$"):
            load_scenario(raw)
        code = main(["run", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err == "error: unknown scheme 'strang-split'; allowed: lie-split, duhamel\n"
        assert not (tmp_path / "out").exists()

    def test_verify_empty_checks_reports_zero_rows(self, tmp_path, capsys):
        raw = copy.deepcopy(MINI)
        raw["checks"] = {"suites": []}
        code = main(["verify", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "0 checks" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_verify_failing_check_exits_two(self, tmp_path, capsys):
        raw = copy.deepcopy(MINI)
        # a degenerate daughter distribution trips the liminf hypothesis
        raw["kernels"]["daughter"] = {"kind": "power-law", "nu": 1000.0}
        raw["checks"] = {"suites": ["kernel-validation"]}
        code = main(["verify", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_run_rejects_output_every_past_t_end(self, tmp_path, capsys):
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 64
        raw["solver"]["scheme"] = "duhamel"
        raw["time"].update(t_end=0.02, output_every=0.05)
        code = main(["run", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert re.search(r"^error: output_every = 0\.05 must lie in \(0, t_end = 0\.02\]$",
                         capsys.readouterr().err, re.M)

    def test_output_schedule_refusals_exit_one(self, tmp_path, capsys):
        """A lie-split schedule that does not divide t_end exits 1 at load; a
        Duhamel one of 12.5 steps loads, and the splitting solve its
        cross-validation needs is refused by the same rule."""
        raw = copy.deepcopy(MINI)
        raw["time"]["output_every"] = 0.03
        assert main(["run", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: output_every = 0.03 must divide t_end = 0.2\n"
        raw["time"]["output_every"] = 0.05
        raw["solver"]["scheme"] = "duhamel"
        raw["checks"] = {"suites": ["solver-cross-validation"]}
        assert main(["verify", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: output_every = 0.05 must be a whole number "
                                           "of steps dt = 0.004 under lie-split\n")
        assert not (tmp_path / "out").exists()

    def test_overrides_are_validated_with_the_file(self, tmp_path, capsys):
        """The step bound is checked on the run that executes: --dt mends a
        file whose own dt breaks it."""
        raw = copy.deepcopy(MINI)
        raw["time"]["dt"] = 0.05
        cfg = write_cfg(tmp_path, raw)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "exceeds 1; lower dt" in capsys.readouterr().err
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--dt", "1e-3"]) == 0

    def test_overrides_apply(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--cells", "32", "--dt", "0.002"])
        assert code == 0
        rows = (tmp_path / "o" / "scenario_trajectory.csv").read_text().splitlines()
        assert len(rows) > 2

    def test_seed_is_an_unknown_argument(self, tmp_path, capsys):
        """No check samples, so there is no seed to set."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", write_cfg(tmp_path, MINI), "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_too_few_cells_is_a_load_error(self, tmp_path, capsys):
        code = main(["run", "--config", "constant-coag", "--cells", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: bad 'grid' section: need at least 2 cells, got 1\n")

    @pytest.mark.parametrize("section,values,message", [
        ("grid", {"xmin": 5.0, "xmax": 1.0},
         "bad 'grid' section: need 0 < xmin < xmax, got (5.0, 1.0)"),
        ("grid", {"cells": "many"}, "'grid.cells' must be a number, got 'many'"),
        ("initial", {"amplitude": -1}, "'initial.amplitude' must be >= 0, got -1.0"),
        # refused under its own key, before the shift it feeds is computed
        ("kernels", {"ball_radius": -1}, "'kernels.ball_radius' must be >= 0, got -1.0"),
    ])
    def test_bad_grid_and_initial_values_are_load_errors(self, tmp_path, capsys,
                                                         section, values, message):
        """A bad value fails at load with one line naming its key, not a traceback."""
        raw = copy.deepcopy(MINI)
        raw[section].update(values)
        path = write_cfg(tmp_path, raw)
        with pytest.raises(ConfigFileError, match=re.escape(message)):
            load_scenario(path)
        for command in ("run", "verify"):
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("section,key", [
        ("time", "dt"), ("time", "t_end"), ("grid", "cells"), ("grid", "xmax"),
        ("kernels", "ball_radius"), ("solver", "m"), ("initial", "decay")])
    def test_null_number_is_a_load_error(self, tmp_path, capsys, section, key):
        """A YAML null in a number field that is not Optional fails at load
        with one line naming its key, not a TypeError traceback."""
        raw = copy.deepcopy(MINI)
        raw[section][key] = None
        message = f"'{section}.{key}' must be a number, got None"
        with pytest.raises(ConfigFileError, match=re.escape(message)):
            load_scenario(raw)
        path = write_cfg(tmp_path, raw)
        assert f"{key}: null" in Path(path).read_text()
        with pytest.raises(ConfigFileError, match=re.escape(message)):
            load_scenario(path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_null_number_in_a_kernel_law_is_a_load_error(self):
        with pytest.raises(ConfigFileError,
                           match=re.escape("'kernels.coagulation.k0' must be a number, got None")):
            load_scenario("gfc-global-i", {"kernels": {"coagulation": {"kind": "sum", "k0": None}}})

    def test_null_stays_legal_for_the_optional_orders(self):
        sc = load_scenario("regularization-probe", {"solver": {"n": None, "p": None}})
        assert (sc.solver_config().n, sc.solver_config().p) == (None, None)

    @pytest.mark.parametrize("profile", ["indicator", "zero"])
    def test_removed_initial_profiles_rejected(self, profile):
        raw = copy.deepcopy(MINI)
        raw["initial"] = {"profile": profile}
        with pytest.raises(ConfigFileError, match=f"unknown initial profile '{profile}'"):
            load_scenario(raw)

    @pytest.mark.parametrize("name", ["aizenman-bak-frag", "constant-coag"])
    def test_verify_twice_prints_identical_rows(self, tmp_path, capsys, name):
        """With no sampling, identical inputs give identical rows; only the
        elapsed time may differ."""
        argv = ["verify", "--config", name, "--cells", "128", "--out", str(tmp_path / "o")]
        printed = []
        for _ in range(2):
            main(argv)
            printed.append(re.sub(r"\(\d+\.\ds\)", "", capsys.readouterr().out))
        assert printed[0] == printed[1]
        assert len(re.findall(r"^(PASS|FAIL| n/a)  ", printed[0], re.M)) >= 6

    @pytest.mark.parametrize("canonical, affine", GROWTH_SPELLINGS)
    def test_growth_spellings_verify_alike(self, tmp_path, capsys, canonical, affine):
        """A growth law verifies the same under each of its spellings."""
        results = []
        for i, growth in enumerate((canonical, affine)):
            raw = get_preset("gfc-global-ii")
            raw["kernels"]["growth"] = growth
            raw["grid"]["cells"] = 64
            raw["time"]["t_end"] = 0.05
            code = main(["verify", "--config", write_cfg(tmp_path, raw, f"s{i}.yaml"),
                         "--out", str(tmp_path / f"o{i}")])
            out = capsys.readouterr().out
            results.append((code, re.findall(r"^(?:PASS|FAIL| n/a)  .*$", out, re.M)))
        assert results[0] == results[1]
        assert len(results[0][1]) >= 40

    def test_bit_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "scenario_trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "scenario_trajectory.csv").read_bytes()
        assert a == b

    def test_csv_full_precision(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI)
        main(["run", "--config", cfg, "--out", str(tmp_path / "p")])
        text = (tmp_path / "p" / "scenario_trajectory.csv").read_text()
        row = text.splitlines()[1].split(",")
        m0 = float(row[1])
        assert f"{m0:.17g}" == row[1]

    def test_probe_command(self, tmp_path, capsys):
        raw = get_preset("regularization-probe")
        raw["grid"]["cells"] = 128
        raw["grid"]["xmax"] = 128.0
        raw["time"]["dt"] = 4.0e-3
        code = main(["probe-regularization", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "regularization-probe" in capsys.readouterr().out

    def test_bounds_command(self, tmp_path, capsys):
        raw = {
            "kernels": {
                "fragmentation": {"kind": "power-law", "a0": 1.0, "gamma0": 1.0, "x0": 1.0},
                "daughter": {"kind": "uniform-binary"},
                "growth": {"kind": "linear", "r1": 0.25},
                "coagulation": {"kind": "sum", "k0": 0.5, "alpha": 0.5},
                "ball_radius": 1.0,
            },
            "grid": {"xmin": 1.0e-2, "xmax": 30.0, "cells": 96},
            "time": {"dt": 2.0e-3, "t_end": 0.3, "output_every": 0.05},
            "solver": {"scheme": "lie-split", "m": 2.0},
            "initial": {"profile": "mass-exponential", "amplitude": 0.1, "decay": 1.0},
        }
        code = main(["bounds", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "certified condition: (ii)" in out
        # the domination rows print in the verify line format, rule included
        assert re.search(r"^PASS  moment-domination/M0 +measured=\S+ <= 1\.05$", out, re.M)
        header = (tmp_path / "out" / "scenario_trajectory.csv").read_text().splitlines()[0]
        assert "bound_0" in header and "bound_m" in header

    @pytest.mark.parametrize("preset,alpha,m,refusal", [
        ("constant-coag", 0.5, 2.0, "fragmentation sink surrogate is nonpositive"),
        ("gfc-global-i", 1.0, 3.0, "needs alpha < gamma0")])
    def test_refused_bound_cascade_is_one_failing_row(self, tmp_path, capsys, preset, alpha,
                                                      m, refusal):
        """The conditions hold but the cascade is refused: run and verify print
        every row, the refusal in a failing bound-system row; bounds, whose
        whole output is the cascade, is an error."""
        raw = get_preset(preset)
        raw["kernels"]["coagulation"]["alpha"] = alpha
        raw["solver"]["m"] = m
        raw["grid"]["cells"] = 64
        raw["time"].update(t_end=0.05, output_every=0.025)
        raw["checks"] = {"suites": ["kernel-validation", "moment-domination"]}
        cfg = write_cfg(tmp_path, raw)
        for command in ("run", "verify"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
            out = capsys.readouterr().out
            assert "PASS  moment-domination/condition" in out
            assert re.search(r"^FAIL  moment-domination/bound-system +measured=nan >= 0  "
                             rf"\[no bound system: .*{refusal}", out, re.M)
            assert "kernel-validation/daughter-liminf" in out
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "bounds")]) == 1
        assert refusal in capsys.readouterr().err

    @pytest.mark.parametrize("command,preset,scheme,message", [
        ("run", "gfc-global-ii", "duhamel", "the mild formulation needs alpha = 0.5 < gamma0 = 0"),
        ("probe-regularization", "regularization-probe", "lie-split",
         "the probe's (m - n)/gamma0 needs gamma0 > 0, got 0")])
    def test_gamma0_zero_is_an_error_line(self, tmp_path, capsys, command, preset, scheme,
                                          message):
        """gamma0 = 0 is an admissible rate, but the mild formulation needs
        alpha < gamma0, and the probe's exponent (m - n)/gamma0 needs
        gamma0 > 0."""
        raw = get_preset(preset)
        raw["grid"]["cells"] = 64
        raw["solver"]["scheme"] = scheme
        raw["kernels"]["fragmentation"]["gamma0"] = 0.0
        assert main([command, "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_bounds_without_coagulation_need_no_alpha_below_gamma0(self, tmp_path, capsys):
        """alpha < gamma0 is a premise of the coagulation term alone: with
        coagulation off and alpha = gamma0 the cascade is built and holds."""
        raw = get_preset("gfc-global-i")
        raw["grid"]["cells"] = 64
        raw["kernels"]["coagulation"] = {"kind": "constant", "k0": 0, "alpha": 1}
        raw["checks"] = {"suites": ["moment-domination"]}
        assert raw["kernels"]["fragmentation"]["gamma0"] == 1.0
        assert main(["run", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "PASS  moment-domination/M2 " in out and "FAIL" not in out


class TestOneSetUpPerScenario:
    """A scenario's parts are built once, at load, and shared."""

    def test_context_holds_the_parts_sc_built(self):
        from gfc.report import ScenarioContext
        sc = load_scenario("gfc-global-ii", {"grid": {"cells": 32}})
        ctx = ScenarioContext(sc)
        assert ctx.ks is sc.kernel_set() and ctx.grid is sc.grid()
        assert ctx.cfg is sc.solver_config() and ctx.f0 is sc.initial_field(sc.grid())
        assert ScenarioContext(sc).f0 is ctx.f0
        assert not ctx.f0.values.flags.writeable

    def test_initial_field_on_another_grid(self):
        import numpy as np
        from gfc.grid import SizeGrid, project
        sc = load_scenario(MINI)
        grid = SizeGrid.geometric(1e-2, 20.0, 16)
        f = sc.initial_field(grid)
        assert f.grid == grid and f is sc.initial_field(grid)
        np.testing.assert_array_equal(f.values, project(lambda x: np.exp(-x), grid).values)

    def test_overflowing_initial_profile_is_a_load_error(self, tmp_path, capsys):
        """e^(20 x) overflows past x = 35 on gfc-global-ii's grid: refused at
        load, naming 'initial', not as a non-finite field in the first step."""
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 64
        raw["initial"] = {"profile": "exponential", "amplitude": 1, "decay": -20}
        with pytest.raises(ConfigFileError, match="^'initial' is not finite"):
            load_scenario(raw)
        assert main(["run", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'initial' is not finite") and "Traceback" not in err
        assert len(err.splitlines()) == 1


class TestOneSolvePerScenario:
    @staticmethod
    def counting(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_run_loads_the_scenario_once(self, tmp_path, monkeypatch):
        import gfc.cli
        loads = self.counting(monkeypatch, gfc.cli, "load_scenario")
        assert main(["run", "--config", write_cfg(tmp_path, MINI), "--out", str(tmp_path / "o"),
                     "--cells", "32", "--dt", "0.002"]) == 0
        assert len(loads) == 1

    def test_run_solves_twice_and_bounds_once(self, tmp_path, monkeypatch):
        import gfc.moment_bounds
        import gfc.report
        raw = get_preset("gfc-global-i")
        raw["grid"]["cells"] = 64
        raw["time"].update(t_end=0.05, output_every=0.025)
        raw["checks"] = {"suites": ["moment-domination", "determinism"]}
        cfg = write_cfg(tmp_path, raw)
        solves = self.counting(monkeypatch, gfc.report, "solve")
        cascades = self.counting(monkeypatch, gfc.moment_bounds, "bound_system")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        # the shipped trajectory plus the determinism suite's fresh solve
        assert len(solves) == 2
        assert len(cascades) == 1
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "verify")]) == 0
        header = (tmp_path / "verify" / "scenario_trajectory.csv").read_text().splitlines()[0]
        assert header.split(",")[-4:] == ["bound_0", "bound_1", "bound_2", "bound_m"]

    def test_bounds_refuses_before_solving(self, tmp_path, monkeypatch, capsys):
        """Neither global-existence condition holds for a superlinear
        fragmentation rate under affine growth: bounds says so without solving."""
        import gfc.report
        raw = get_preset("gfc-global-i")
        raw["grid"]["cells"] = 64
        raw["kernels"]["fragmentation"]["gamma0"] = 2.0
        raw["time"]["dt"] = 2e-4
        solves = self.counting(monkeypatch, gfc.report, "solve")
        assert main(["bounds", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: neither global-existence condition is certified\n")
        assert solves == []

    def test_refused_cascade_is_assembled_once(self, tmp_path, monkeypatch, capsys):
        """The CSV writer and the moment-domination suite both ask for the
        bounds; a refusal is kept, so the parameters are assembled once."""
        import gfc.moment_bounds
        raw = get_preset("constant-coag")
        raw["grid"]["cells"] = 64
        raw["time"].update(t_end=0.05, output_every=0.025)
        raw["checks"] = {"suites": ["moment-domination"]}
        assemblies = self.counting(monkeypatch, gfc.moment_bounds, "assemble_bound_params")
        assert main(["run", "--config", write_cfg(tmp_path, raw),
                     "--out", str(tmp_path / "run")]) == 2
        assert len(assemblies) == 1
        captured = capsys.readouterr()
        assert "bounds unavailable: order 2: fragmentation sink surrogate" in captured.err
        assert "FAIL  moment-domination/bound-system" in captured.out

    @pytest.mark.parametrize("scheme", ["lie-split", "duhamel"])
    def test_coagulation_tables_built_once(self, tmp_path, monkeypatch, scheme):
        import gfc.evolution
        import gfc.report
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 64
        raw["solver"]["scheme"] = scheme
        raw["time"].update(t_end=0.05, output_every=0.025)
        raw["checks"] = {"suites": ["positivity", "solver-cross-validation", "determinism"]}
        cfg = write_cfg(tmp_path, raw)
        builds = [self.counting(monkeypatch, module, "build_coag_tables")
                  for module in (gfc.report, gfc.evolution)]
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        # the context's tables serve the shipped solve, the cross-validation
        # solves and the determinism suite's fresh solve
        assert [len(b) for b in builds] == [1, 0]

    def test_duhamel_scenario_ships_the_duhamel_trajectory(self, tmp_path, capsys):
        import numpy as np
        from gfc.evolution import duhamel_solve
        from gfc.report import trajectory_csv_text
        raw = get_preset("gfc-global-ii")
        raw["grid"]["cells"] = 64
        raw["solver"]["scheme"] = "duhamel"
        raw["time"].update(t_end=0.1, output_every=0.025)
        raw["checks"] = {"suites": ["positivity", "mass-budget"]}
        cfg = write_cfg(tmp_path, raw)
        sc = load_scenario(raw)
        traj, _ = duhamel_solve(sc.initial_field(sc.grid()), sc.solver_config(), sc.kernel_set())
        for command in ("run", "verify"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
            out = capsys.readouterr().out
            assert ("duhamel:" in out) == (command == "run")
            # the suites check the Duhamel trajectory, and the CSV ships it
            row = next(line for line in out.splitlines() if "positivity/min-cell" in line)
            assert f"measured={np.min(traj.min_density):.6g} " in row
            assert "n/a  mass-budget/closure" in out
            written = (tmp_path / command / "scenario_trajectory.csv").read_text()
            assert written == trajectory_csv_text(traj)
