"""Configuration parsing, builtin registry, and the command line."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rbmsens import cli
from rbmsens.cli import main
from rbmsens.config import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    emit_config,
    parse_config,
)
from rbmsens.errors import ConfigError
from rbmsens.estimators import gradient_check, stationary_estimate
from rbmsens.geometry import (drift_stability_check, perturbed_model,
                              validate_cone)
from rbmsens.sim import simulate_joint, simulate_rbm

from conftest import paired_five_face_model, rho97_model

MINIMAL = """\
[geometry]
dimension = 2
normals = 1
reflections = 1 -0.3; -0.3 1

[coefficients]
drift = -1
dispersion = 1
drift_deriv = 1 0

[sim]
name = testcase
dt = 0.01
horizon = 5
seed = 3

[functional]
kind = linear
coefficients = 1 1
"""


class TestParseConfig:
    def test_minimal_parses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.name == "testcase"
        assert cfg.model.dim == 2
        np.testing.assert_allclose(cfg.model.reflections,
                                   [[1.0, -0.3], [-0.3, 1.0]])
        np.testing.assert_allclose(cfg.model.drift, [-1.0, -1.0])
        assert cfg.sim.dt == 0.01
        assert cfg.sim.seed == 3
        np.testing.assert_allclose(cfg.x0, [0.0, 0.0])

    def test_scalar_matrix_is_identity_multiple(self):
        cfg = parse_config(MINIMAL)
        np.testing.assert_allclose(cfg.model.dispersion, np.identity(2))

    def test_flat_matrix_rows(self):
        text = MINIMAL.replace("reflections = 1 -0.3; -0.3 1",
                               "reflections = 1 -0.3 -0.3 1")
        cfg = parse_config(text)
        np.testing.assert_allclose(cfg.model.reflections,
                                   [[1.0, -0.3], [-0.3, 1.0]])

    def test_error_carries_line_number(self):
        text = MINIMAL.replace("drift = -1", "drift = -1 0 0")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any("drift" in p and "line" in p for p in info.value.problems)

    def test_all_errors_collected(self):
        text = MINIMAL.replace("drift = -1", "drift = bogus").replace(
            "dt = 0.01", "dt = fast")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        joined = "\n".join(info.value.problems)
        assert "drift" in joined
        assert "dt" in joined

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "velocity = 3\n")

    def test_duplicate_key_rejected(self):
        text = MINIMAL + "\n[sim]\n"  # reopening a section is fine...
        text += "dt = 0.02\n"         # ...but redefining a key is not
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_missing_required_rejected(self):
        text = MINIMAL.replace("drift = -1\n", "")
        with pytest.raises(ConfigError, match="drift"):
            parse_config(text)

    def test_geometry_rejection_surfaces_as_config_error(self):
        text = MINIMAL.replace("reflections = 1 -0.3; -0.3 1",
                               "reflections = -1 0; 0 1")
        with pytest.raises(ConfigError, match="geometry"):
            parse_config(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL.replace(
            "dt = 0.01", "dt = 0.01  # mesh")
        cfg = parse_config(text)
        assert cfg.sim.dt == 0.01

    def test_no_partial_config_on_error(self):
        # a file with any problem must raise, not return defaults
        with pytest.raises(ConfigError):
            parse_config("[geometry]\ndimension = 2\n")

    def test_log1p_functional_choice(self):
        text = MINIMAL.replace("kind = linear", "kind = log1p_sum").replace(
            "coefficients = 1 1\n", "")
        cfg = parse_config(text)
        assert cfg.functional().name == "log1p_sum"

    def test_log1p_with_coefficients_rejected(self):
        text = MINIMAL.replace("kind = linear", "kind = log1p_sum")
        with pytest.raises(ConfigError, match="coefficients"):
            parse_config(text)


class TestEmitRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_round_trip(self, name):
        cfg = builtin_scenario(name)
        text = emit_config(cfg)
        back = parse_config(text)
        assert back.name == cfg.name
        assert back.sim == cfg.sim
        assert back.fd_epsilon == cfg.fd_epsilon
        assert back.sweep_offsets == cfg.sweep_offsets
        assert back.functional_kind == cfg.functional_kind
        np.testing.assert_array_equal(back.x0, cfg.x0)
        np.testing.assert_array_equal(back.j0, cfg.j0)
        for field in ("normals", "reflections", "drift", "dispersion",
                      "drift_deriv", "dispersion_deriv", "reflection_deriv"):
            np.testing.assert_array_equal(getattr(back.model, field),
                                          getattr(cfg.model, field))

    def test_emit_is_stable(self):
        cfg = builtin_scenario("hr2d")
        once = emit_config(cfg)
        twice = emit_config(parse_config(once))
        assert once == twice


class TestBuiltins:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_every_builtin_accepted_and_stable(self, name):
        cfg = builtin_scenario(name)
        assert validate_cone(cfg.model).accepted
        stable, _ = drift_stability_check(cfg.model)
        assert stable

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_every_builtin_functional_gradient(self, name):
        cfg = builtin_scenario(name)
        assert gradient_check(cfg.functional(), cfg.model.dim) <= 1e-5

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="available"):
            builtin_scenario("nope")


class TestCli:
    def test_check_accepts_builtin(self, capsys):
        code = main(["--config", "builtin:hr2d", "--command", "check"])
        captured = capsys.readouterr()
        assert code == 0
        assert "accepted" in captured.out

    def test_check_rejects_expansive_reflection(self, tmp_path, capsys):
        bad = MINIMAL.replace("reflections = 1 -0.3; -0.3 1",
                              "reflections = 1 -2; -2 1")
        path = tmp_path / "bad.cfg"
        path.write_text(bad)
        code = main(["--config", str(path), "--command", "check"])
        captured = capsys.readouterr()
        assert code == 3
        assert "rejected" in captured.out

    def test_check_accepts_zero_row_five_face_cone(self, tmp_path, capsys):
        sc = replace(builtin_scenario("ortho2d"), model=paired_five_face_model(),
                     x0=np.zeros(5), j0=np.zeros(5),
                     functional_coefficients=np.ones(5))
        path = tmp_path / "five.cfg"
        path.write_text(emit_config(sc))
        code = main(["--config", str(path), "--command", "check"])
        captured = capsys.readouterr()
        assert code == 0, captured.out + captured.err
        assert captured.out.endswith("accepted\n")

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("[geometry]\ndimension = nope\n")
        code = main(["--config", str(path), "--command", "check"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("drift", "nan"), ("dt", "nan"), ("horizon", "inf"),
        ("face_tol", "nan"), ("fd_epsilon", "nan")])
    def test_numbers_that_are_not_finite_exit_2(self, tmp_path, capsys, key,
                                                value):
        text = MINIMAL.replace("seed = 3\n",
                               "seed = 3\nface_tol = 1e-9\nfd_epsilon = 0.05\n")
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        code = main(["--config", str(path), "--command", "stationary"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"] {key}: expected a finite number" in err
        assert "Traceback" not in err

    def test_rho97_cone_runs(self, tmp_path, capsys):
        # rho(Q) = 0.97: at the corner the fixed point w <- (Q w - q)^+
        # contracts by only 0.97 per update; the active-set solve is
        # exact after two passes
        sc = replace(builtin_scenario("hr2d"), model=rho97_model(),
                     fd_epsilon=0.01)
        sc = replace(sc, sim=replace(sc.sim, horizon=2.0, burn_in=0.5,
                                     n_paths=2))
        path = tmp_path / "rho97.cfg"
        path.write_text(emit_config(sc))
        for command in ("check", "stationary", "sensitivity"):
            code = main(["--config", str(path), "--command", command,
                         "--out", str(tmp_path / f"{command}.out")])
            assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("reflections", ["1 -2; -2 1", "1 -1; -1 1"])
    def test_couplings_outside_the_regime_exit_3(self, tmp_path, capsys,
                                                 reflections):
        # rho(Q) = 2 and rho(Q) = 1: the reflection solve would return a
        # negative push or hit a singular matrix, so every simulating
        # command refuses the cone before the first step
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL.replace("1 -0.3; -0.3 1", reflections))
        for command in ("simulate", "stationary", "sensitivity", "lyapunov"):
            code = main(["--config", str(path), "--command", command,
                         "--out", str(tmp_path / f"{command}.out")])
            err = capsys.readouterr().err
            assert code == 3, err
            assert "Traceback" not in err

    def test_missing_file_exit_code(self, capsys):
        code = main(["--config", "/does/not/exist.cfg", "--command", "check"])
        assert code == 2

    def test_simulate_writes_csv_per_path(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["--config", "builtin:hr2d", "--command", "simulate",
                     "--out", str(out), "--dt", "0.01", "--paths", "2"])
        assert code == 0
        body = out.read_text().splitlines()
        assert body[1] == "t,Z_1,Z_2,J_1,J_2,L_1,L_2,faces"
        sibling = tmp_path / "traj_p1.csv"
        assert sibling.exists()

    def test_simulate_byte_identical_bodies(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            code = main(["--config", "builtin:hr2d", "--command", "simulate",
                         "--out", str(out), "--dt", "0.01"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stationary_report(self, tmp_path):
        out = tmp_path / "stat.csv"
        code = main(["--config", "builtin:halfline", "--command", "stationary",
                     "--out", str(out), "--dt", "0.01"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("method,estimate,stderr")
        assert lines[1].startswith("stationary,")

    def test_sensitivity_report_has_ipa_and_fd_rows(self, tmp_path):
        sc = builtin_scenario("hr2d")
        from rbmsens.config import emit_config
        text = emit_config(sc).replace("dt = 0.0005", "dt = 0.005").replace(
            "horizon = 200", "horizon = 30").replace(
            "burn_in = 20", "burn_in = 3").replace("n_paths = 8",
                                                   "n_paths = 2")
        path = tmp_path / "quick.cfg"
        path.write_text(text)
        out = tmp_path / "sens.csv"
        code = main(["--config", str(path), "--command", "sensitivity",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["ipa", "fd-crn", "fd-crn"]
        eps_values = [line.split(",")[7] for line in lines[1:]]
        assert eps_values[0] == ""
        assert float(eps_values[2]) == pytest.approx(float(eps_values[1]) / 2)

    @pytest.mark.parametrize("name", ["hr2d", "hr2d_refl"])
    def test_sensitivity_rows_equal_per_path_rebuild(self, tmp_path, name):
        # Rebuilds each row from separate single-model runs, as the
        # benchmark's check does: the one-pass report must carry their
        # per-path mean and standard error.
        sc = builtin_scenario(name)
        sc = replace(sc, sim=replace(sc.sim, dt=0.005, horizon=10.0,
                                     burn_in=1.0, n_paths=3))
        path = tmp_path / "sens.cfg"
        path.write_text(emit_config(sc))
        out = tmp_path / "sens.csv"
        assert main(["--config", str(path), "--command", "sensitivity",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        sim, func = sc.sim, sc.functional()

        def tail_mean(traj, series):
            return series[traj.times > sim.burn_in].mean()

        joint = simulate_joint(sc.model, sim, x0=sc.x0, j0=sc.j0)
        per_path = [np.array([tail_mean(t, np.einsum(
            "kj,kj->k", func.f_prime(t.z), t.jac)) for t in joint])]
        for eps in (sc.fd_epsilon, sc.fd_epsilon / 2.0):
            plus, minus = (simulate_rbm(perturbed_model(sc.model, a), sim,
                                        x0=sc.x0) for a in (eps, -eps))
            per_path.append(np.array([
                tail_mean(p, func.f(p.z) - func.f(m.z)) / (2.0 * eps)
                for p, m in zip(plus, minus)]))
        for row, values in zip(rows, per_path, strict=True):
            want = (values.mean(), values.std(ddof=1) / math.sqrt(values.size))
            got = (float(row[1]), float(row[2]))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_sweep_rows_match_per_offset_runs(self, tmp_path):
        sc = builtin_scenario("hr2d")
        sc = replace(sc, sim=replace(sc.sim, dt=0.005, horizon=10.0,
                                     burn_in=1.0, n_paths=3))
        path = tmp_path / "sweep.cfg"
        path.write_text(emit_config(sc))
        out = tmp_path / "sweep.csv"
        assert main(["--config", str(path), "--command", "sweep",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == list(sc.sweep_offsets)
        for row, offset in zip(rows, sc.sweep_offsets, strict=True):
            trajs = simulate_rbm(perturbed_model(sc.model, offset), sc.sim,
                                 x0=sc.x0)
            want = stationary_estimate(sc.functional(), trajs,
                                       burn_in=sc.sim.burn_in)
            assert (float(row[2]), float(row[3])) == pytest.approx(
                want, rel=1e-12)

    def test_sweep_validates_every_offset_before_running(self, tmp_path,
                                                         monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before validating every offset")

        monkeypatch.setattr(cli, "simulate_variants", no_run)
        # on hr2d_refl an offset of 5 tilts d_1 so far that rho(Q) > 1
        sc = builtin_scenario("hr2d_refl")
        sc = replace(sc, sweep_offsets=(0.0, 0.1, 5.0))
        path = tmp_path / "sweep.cfg"
        path.write_text(emit_config(sc))
        assert main(["--config", str(path), "--command", "sweep"]) == 3
        assert "sweep offset 5" in capsys.readouterr().err

    def test_contraction_table(self, tmp_path):
        out = tmp_path / "contr.csv"
        code = main(["--config", "builtin:hr2d", "--command", "contraction",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# delta0 = ")
        assert float(lines[0].split("=")[1]) == pytest.approx(0.3)
        assert lines[1] == "sequence,norm"
        assert len(lines) > 3

    def test_lyapunov_value(self, tmp_path):
        sc = builtin_scenario("halfline")
        from rbmsens.config import emit_config
        text = emit_config(sc).replace("x0 = 0", "x0 = 2")
        path = tmp_path / "lyap.cfg"
        path.write_text(text)
        out = tmp_path / "lyap.csv"
        code = main(["--config", str(path), "--command", "lyapunov",
                     "--out", str(out)])
        assert code == 0
        value = float(out.read_text().splitlines()[1])
        assert value == pytest.approx(2.0, abs=2e-3)

    def test_sweep_rows(self, tmp_path):
        sc = builtin_scenario("halfline")
        from rbmsens.config import emit_config
        text = emit_config(sc).replace("dt = 0.001", "dt = 0.01").replace(
            "horizon = 2000", "horizon = 20").replace(
            "burn_in = 200", "burn_in = 2")
        text = "\n".join("sweep_offsets = -0.2 0 0.2"
                         if line.startswith("sweep_offsets")
                         else line for line in text.splitlines()) + "\n"
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        out = tmp_path / "sweep.csv"
        code = main(["--config", str(path), "--command", "sweep",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("alpha,method")
        alphas = [float(line.split(",")[0]) for line in lines[1:]]
        assert alphas == [-0.2, 0.0, 0.2]
        # positive offsets weaken the drift, raising the stationary mean
        means = [float(line.split(",")[2]) for line in lines[1:]]
        assert means[0] < means[2]

    def test_seed_override_changes_output(self, tmp_path):
        bodies = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            main(["--config", "builtin:hr2d", "--command", "simulate",
                  "--out", str(out), "--dt", "0.01", "--seed", seed])
            bodies.append(out.read_text())
        assert bodies[0] != bodies[1]
