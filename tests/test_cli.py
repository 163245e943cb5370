import copy
import re
from pathlib import Path

import pytest
import yaml

from gfc.cli import main
from gfc.config import ConfigFileError, load_scenario
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
    "seed": 0,
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

    def test_unknown_section_rejected(self, tmp_path):
        raw = copy.deepcopy(MINI)
        raw["timing"] = {}
        with pytest.raises(ConfigFileError, match="timing"):
            load_scenario(write_cfg(tmp_path, raw))

    def test_unknown_tolerance_key_rejected(self, tmp_path):
        raw = copy.deepcopy(MINI)
        raw["checks"]["tolerances"] = {"oracel": 1e-9}
        with pytest.raises(ConfigFileError, match="checks.tolerances.oracel"):
            load_scenario(write_cfg(tmp_path, raw))
        raw["checks"]["tolerances"] = {"oracle": 1e-9}
        assert load_scenario(write_cfg(tmp_path, raw)).tolerance("oracle", 0.01) == 1e-9

    def test_null_sections_load_as_empty(self, tmp_path, capsys):
        raw = copy.deepcopy(MINI)
        raw["checks"]["tolerances"] = None
        sc = load_scenario(write_cfg(tmp_path, raw))
        assert sc.tolerance("oracle", 0.01) == 0.01
        assert sc.check_suites == ["oracle", "mass-budget"]
        raw["checks"] = None
        path = write_cfg(tmp_path, raw)
        assert "checks: null" in Path(path).read_text()
        sc = load_scenario(path)
        assert sc.check_suites == [] and sc.tolerance("oracle", 0.01) == 0.01
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

    def test_overrides_apply(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--cells", "32", "--dt", "0.002", "--seed", "7"])
        assert code == 0
        rows = (tmp_path / "o" / "scenario_trajectory.csv").read_text().splitlines()
        assert len(rows) > 2

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
        raw["probe"]["n_times"] = 7
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
            "seed": 0,
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
