import copy
import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from gfc.cli import main
from gfc.config import SCHEMA, ConfigFileError, load_scenario
from gfc.evolution import ConfigError, SolverConfig
from gfc.kernels import (CoagulationKernel, DaughterDistribution, FragmentationRate, GrowthRate,
                         KernelConfigError)
from gfc.presets import PRESETS, get_preset, preset_names


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
    "solver": {"scheme": "strang-split", "m": 2.0},
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

    @pytest.mark.parametrize("key", ["xmin", "xmax", "cells"])
    def test_missing_grid_key_rejected(self, tmp_path, capsys, key):
        raw = copy.deepcopy(MINI)
        del raw["grid"][key]
        path = write_cfg(tmp_path, raw)
        with pytest.raises(ConfigFileError, match=f"grid.{key}"):
            load_scenario(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert f"grid.{key}" in capsys.readouterr().err

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
        ({"t_end": 0.201}, "integer number of steps")])
    def test_output_schedule_checked_at_load(self, time, match):
        raw = copy.deepcopy(MINI)
        raw["time"].update(time)
        with pytest.raises(ConfigError, match=match):
            load_scenario(raw)

    def test_cross_field_validation_before_run(self, tmp_path):
        raw = copy.deepcopy(MINI)
        raw["kernels"]["growth"] = {"kind": "constant", "r0": 1.0}
        raw["time"]["dt"] = 0.5   # violates the advective CFL
        with pytest.raises(Exception, match="CFL"):
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
    ])
    def test_bad_grid_and_initial_values_are_load_errors(self, tmp_path, capsys,
                                                         section, values, message):
        """A bad value fails at load with one line naming its key, not a traceback."""
        raw = copy.deepcopy(MINI)
        raw[section].update(values)
        path = write_cfg(tmp_path, raw)
        with pytest.raises(ConfigFileError):
            load_scenario(path)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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
            "solver": {"scheme": "strang-split", "m": 2.0},
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

    @pytest.mark.parametrize("scheme", ["strang-split", "duhamel"])
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
