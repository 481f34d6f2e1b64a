"""Tests for the command-line front end: argument handling, exit codes,
the seed override, and the files a run leaves behind.

Most tests call main() in-process for speed.  One subprocess test builds
the console-script launcher that pyproject.toml's [project.scripts] declares
for eks-lab and runs it, as its own process, against the source tree.
"""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eks_lab.cli import (
    EXIT_BAND_FAILURE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    main,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, doc, name="study.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def sample_doc(**over):
    doc = {"kind": "sample", "seed": 11,
           "sde": {"j_particles": 16, "n_steps": 5, "h": 0.05}}
    doc.update(over)
    return doc


class TestExitCodes:
    def test_validate_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "validate", "seed": 3})
        code = main(["validate", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] all_checks_passed" in out
        assert "check rerun_determinism: ok" in out
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "validate.csv").exists()

    def test_band_failure_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sample_doc(bands={"mean_error": 1e-12}))
        code = main(["sample", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_BAND_FAILURE
        captured = capsys.readouterr()
        assert "[FAIL] mean_error" in captured.out
        assert "acceptance bands failed" in captured.err
        # the report is still written so the failure can be inspected
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["sample", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_corrupt_config_leaves_no_output(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "sample",,}')
        out_dir = tmp_path / "out"
        code = main(["sample", "--config", str(path), "--out", str(out_dir)])
        assert code == EXIT_USAGE
        assert "invalid JSON" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_kind_must_match_subcommand(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "validate"})
        code = main(["sample", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "does not match subcommand" in capsys.readouterr().err

    def test_malformed_number_exits_two_without_traceback(self, tmp_path,
                                                          capsys):
        cfg = write_cfg(tmp_path, sample_doc(sde={"h": "abc",
                                                  "j_particles": 16}))
        code = main(["sample", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'sde.h' must be a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, doc, message", [
        ("study-j", {"kind": "study-j", "sde": {"n_steps": 5},
                     "sweep": {"j_values": 5}},
         "'sweep.j_values' must be a list"),
        ("study-time", {"kind": "study-time", "with_particles": True,
                        "sde": {"h": 0, "j_particles": 8},
                        "sweep": {"t_checkpoints": [0.0, 0.2]}},
         "'sde.h' > 0"),
        ("sample", sample_doc(sde={"h": 0.9, "j_particles": 16,
                                   "n_steps": 5}),
         "'sde.h': h must lie in [0, 0.5]"),
        ("study-time", {"kind": "study-time",
                        "sde": {"h": 0.01, "j_particles": 8},
                        "sweep": {"t_checkpoints": [0.0, 0.2]}},
         "config field 'sde' does not apply to study-time studies unless "
         "with_particles is true"),
    ], ids=["j_values_not_a_list", "particles_with_zero_h", "h_too_large",
            "sde_without_particles"])
    def test_malformed_config_exits_two_without_traceback(
            self, tmp_path, capsys, command, doc, message):
        cfg = write_cfg(tmp_path, doc)
        out_dir = tmp_path / "out"
        code = main([command, "--config", cfg, "--out", str(out_dir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, doc, message", [
        ("study-j", {"kind": "study-j", "sde": {"n_steps": 5},
                     "sweep": {"j_values": [8, 16, 32]},
                     "bands": {"slope_j": 0.5}},
         "band 'slope_j' must be [lo, hi]"),
        ("sample", sample_doc(bands={"mean_error": [0, 1]}),
         "band 'mean_error' must be a number"),
    ], ids=["interval_given_a_number", "max_given_an_interval"])
    def test_wrong_shaped_band_exits_two_before_running(
            self, tmp_path, capsys, command, doc, message):
        cfg = write_cfg(tmp_path, doc)
        out_dir = tmp_path / "out"
        code = main([command, "--config", cfg, "--out", str(out_dir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("doc, message", [
        (sample_doc(problem={"path": 5}), "'problem.path'"),
        (sample_doc(problem={"a": [[1.0, 0.0], [0.0, 2.0]],
                             "gamma": [[1.0, 0.0], [0.0, 1.0]],
                             "gamma0": [[1.0, 0.0], [0.0, 1.0]],
                             "y": [1.0, 1.0], "u0": [0.0, 0.0],
                             "nonlinear": 5}),
         "problem field 'nonlinear' must be an object"),
        (sample_doc(share_noise=False),
         "config field 'share_noise' does not apply to sample studies, only "
         "to study-coupling"),
        (sample_doc(seed=2 ** 70), "'seed'"),
        (sample_doc(repeat=3), "'repeat': did you mean 'repeats'?"),
        (sample_doc(problem={"a": [[1.0, 0.0], [0.0, 2.0]],
                             "gamma": [[1.0, 0.0], [0.0, 1.0]],
                             "gamma0": [[1.0, 0.0], [0.0, 1.0]],
                             "y": [1.0, 1.0], "u0": [0.0, 0.0],
                             "nonlinear": {"seed_direction": [1.0, 0.0],
                                           "frequency": [1.0, 0.0],
                                           "amplitude": 1.0}}),
         "invalid problem: seed_direction lies inside the range of A"),
        (sample_doc(rho0={"mean": [0.0, 0.0],
                          "cov": [[1.0, 2.0], [2.0, 1.0]]}),
         "config field 'rho0.cov' must be a finite positive semidefinite"),
    ], ids=["problem_path_not_a_string", "nonlinear_not_an_object",
            "key_of_another_kind", "seed_beyond_64_bits", "misspelled_key",
            "degenerate_perturbation", "indefinite_rho0_cov"])
    def test_malformed_value_exits_two_before_running(self, tmp_path, capsys,
                                                      doc, message):
        out_dir = tmp_path / "out"
        code = main(["sample", "--config", write_cfg(tmp_path, doc),
                     "--out", str(out_dir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err
        assert message in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_overflowing_rho0_cov_exits_two_without_a_numpy_warning(
            self, tmp_path):
        # finite entries whose symmetrized sum overflows; a process of its
        # own, so that a warning numpy prints would reach its stderr
        doc = sample_doc(rho0={"mean": [0.0, 0.0],
                               "cov": [[1e308, 1e308], [1e308, 1e308]]})
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(PYPROJECT.parent / "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from eks_lab.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "sample", "--config", write_cfg(tmp_path, doc),
             "--out", str(out_dir)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "config field 'rho0.cov' must be a finite positive " \
               "semidefinite" in proc.stderr
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize("a, y, named", [
        # A^T gamma^-1 A overflows
        ([[1e200, 0.0], [0.0, 1.0]], [0.0, 0.0],
         "posterior precision A^T gamma^-1 A + gamma0^-1 overflowed: a is "
         "too large for gamma"),
        # A^T gamma^-1 y overflows too, and r is checked first
        ([[1e154, 0.0], [0.0, 1.0]], [1e155, 0.0],
         "r = A^T gamma^-1 y + gamma0^-1 u0 overflowed: a, gamma and y")],
        ids=["precision", "precision_and_r"])
    def test_overflowing_forward_map_exits_two_without_a_numpy_warning(
            self, tmp_path, a, y, named):
        # finite entries whose products in InverseProblem overflow; a
        # process of its own, so that a warning numpy prints would reach
        # its stderr, with run_study replaced by an exit 97
        eye = [[1.0, 0.0], [0.0, 1.0]]
        doc = sample_doc(problem={"a": a, "gamma": eye, "gamma0": eye,
                                  "y": y, "u0": [0.0, 0.0]})
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(PYPROJECT.parent / "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from eks_lab import cli; "
             "cli.run_study = lambda *args, **kwargs: sys.exit(97); "
             "sys.exit(cli.main(sys.argv[1:]))",
             "sample", "--config", write_cfg(tmp_path, doc),
             "--out", str(out_dir)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(
            "eks-lab: config error: invalid problem: " + named), lines[0]
        assert not out_dir.exists()

    def test_non_boolean_flag_exits_two_without_traceback(self, tmp_path,
                                                          capsys):
        doc = {"kind": "study-coupling", "seed": 4, "share_noise": "false",
               "sde": {"n_steps": 5, "h": 0.05},
               "sweep": {"j_values": [8, 16]}}
        out_dir = tmp_path / "out"
        code = main(["study-coupling", "--config", write_cfg(tmp_path, doc),
                     "--out", str(out_dir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'share_noise' must be true or false, got 'false'" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_runtime_error_exits_three_without_traceback(self, tmp_path,
                                                         capsys):
        # a valid problem whose first step throws the particles to ~1e299:
        # the next forward evaluation overflows
        doc = sample_doc(problem={"a": [[1e150]], "gamma": [[1.0]],
                                  "gamma0": [[1.0]], "y": [0.0],
                                  "u0": [0.0]})
        code = main(["sample", "--config", write_cfg(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert EXIT_RUNTIME not in (EXIT_OK, EXIT_BAND_FAILURE, EXIT_USAGE)
        captured = capsys.readouterr()
        assert "eks-lab: NonFinite:" in captured.err
        assert "Traceback" not in captured.err
        assert "[PASS]" not in captured.out

    def test_memory_error_exits_three_on_one_line(self, tmp_path, capsys,
                                                  monkeypatch):
        # raised, not allocated: a host that overcommits memory might
        # grant a real oversized array
        from eks_lab import cli

        def run_study(*args, **kw):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(cli, "run_study", run_study)
        code = main(["sample", "--config", write_cfg(tmp_path, sample_doc()),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "eks-lab: MemoryError: Unable to allocate 14.6 TiB for an "
            "array\n")

    def test_diverging_ensemble_exits_three_naming_divergence(self, tmp_path,
                                                               capsys):
        # five particles in L = 8 under a strong misfit: the spread grows
        # until the implicit system is numerically singular
        rng = np.random.default_rng(0)
        a = 3 * rng.normal(size=(10, 8))
        doc = sample_doc(
            sde={"j_particles": 5, "n_steps": 20, "h": 0.05},
            problem={"a": a.tolist(), "gamma": (0.1 * np.eye(10)).tolist(),
                     "gamma0": np.eye(8).tolist(),
                     "y": rng.normal(size=10).tolist(), "u0": [0.0] * 8})
        code = main(["sample", "--config", write_cfg(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "eks-lab: Diverged: step" in err
        assert "(stepsize too large?)" in err
        assert "Traceback" not in err

    def test_help_lists_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["sample", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "2 usage or config error, 3 runtime error" in out

    def test_invalid_band_value_fails_validation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "study-j", "repeats": -2,
                                   "sde": {"n_steps": 5},
                                   "sweep": {"j_values": [8, 16, 32]}})
        code = main(["study-j", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "'repeats': repeats must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, message", [
        ("study-j", {"kind": "study-j", "sde": {"h": 0.01, "n_steps": 2},
                     "sweep": {"j_values": [8, 16, 5000]}},
         "config field 'sweep.j_values': J = 5000 exceeds the "
         "exact-assignment guard 4096"),
        ("study-coupling", {"kind": "study-coupling",
                            "sde": {"h": 0, "n_steps": 2},
                            "sweep": {"j_values": [8, 16, 32]}},
         "study-coupling requires config field 'sde.h' > 0"),
        ("demo-nonlinear", dict(
            json.loads((CONFIGS / "demo_nonlinear.json").read_text()),
            sde={"h": 0, "n_steps": 2, "j_particles": 50}, repeats=2),
         "demo-nonlinear requires config field 'sde.h' > 0"),
        # particle arrays of 2^63 bytes or more, which no host can hold
        ("sample", sample_doc(sde={"j_particles": 10 ** 20}),
         "config field 'sde.j_particles': J = 100000000000000000000 "
         "particles of dimension 2 need 2^63 bytes or more"),
        ("sample", sample_doc(sde={"j_particles": 2 ** 62}),
         "config field 'sde.j_particles': J = 4611686018427387904 "
         "particles of dimension 2 need 2^63 bytes or more"),
        ("study-coupling", {"kind": "study-coupling",
                            "sde": {"h": 0.01, "n_steps": 2},
                            "sweep": {"j_values": [8, 16, 2 ** 62]}},
         "config field 'sweep.j_values': J = 4611686018427387904 "
         "particles of dimension 2 need 2^63 bytes or more"),
    ], ids=["j_above_assignment_guard", "coupling_at_zero_h",
            "demo_at_zero_h", "j_1e20", "j_2_62", "j_values_2_62"])
    def test_sweep_that_fails_only_after_running_exits_two_before_running(
            self, tmp_path, capsys, monkeypatch, command, doc, message):
        from eks_lab import cli
        ran = []
        monkeypatch.setattr(cli, "run_study",
                            lambda *args, **kw: ran.append(args))
        out_dir = tmp_path / "out"
        code = main([command, "--config", write_cfg(tmp_path, doc),
                     "--out", str(out_dir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"eks-lab: config error: {message}" in err
        assert "Traceback" not in err
        assert ran == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("below", ["", "sub"],
                             ids=["is_a_file", "below_a_file"])
    def test_out_that_cannot_be_a_directory_exits_two(self, tmp_path, capsys,
                                                      monkeypatch, below):
        from eks_lab import cli
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out_dir = blocker / below if below else blocker
        ran = []
        monkeypatch.setattr(cli, "run_study",
                            lambda *args, **kw: ran.append(args))
        code = main(["sample", "--config", write_cfg(tmp_path, sample_doc()),
                     "--out", str(out_dir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(
            f"eks-lab: cannot create output directory {str(out_dir)!r}")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        # refused before any compute; the file in the way is left alone
        assert ran == []
        assert blocker.read_text() == "not a directory\n"


class TestArgparse:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "eks-lab" in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["study-h", "--config", "x", "--out", "y"])
        assert exc.value.code == 2

    def test_retired_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        """Studies run on the calling thread; a stale script that still
        passes --threads fails in argparse rather than running."""
        cfg = write_cfg(tmp_path, sample_doc())
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--config", cfg,
                  "--out", str(tmp_path / "out"), "--threads", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSeedOverride:
    def test_seed_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, sample_doc())
        main(["sample", "--config", cfg, "--out", str(tmp_path / "a"),
              "--seed", "1"])
        main(["sample", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed", "2"])
        ens_a = (tmp_path / "a" / "ensemble.csv").read_bytes()
        ens_b = (tmp_path / "b" / "ensemble.csv").read_bytes()
        assert ens_a != ens_b

    def test_seed_override_equals_config_seed(self, tmp_path):
        cfg_one = write_cfg(tmp_path, sample_doc(seed=11), "one.json")
        cfg_two = write_cfg(tmp_path, sample_doc(seed=99), "two.json")
        main(["sample", "--config", cfg_two, "--out", str(tmp_path / "a"),
              "--seed", "11"])
        main(["sample", "--config", cfg_one, "--out", str(tmp_path / "b")])
        ens_a = (tmp_path / "a" / "ensemble.csv").read_bytes()
        ens_b = (tmp_path / "b" / "ensemble.csv").read_bytes()
        assert ens_a == ens_b

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sample_doc())
        code = main(["sample", "--config", cfg,
                     "--out", str(tmp_path / "out"), "--seed", "-4"])
        assert code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_seed_beyond_64_bits_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sample_doc())
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", str(2 ** 64)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--seed" in err and "'seed'" in err
        assert not (tmp_path / "out").exists()

    def test_seed_override_shows_in_the_echo(self, tmp_path):
        cfg = write_cfg(tmp_path, sample_doc(seed=99))
        main(["sample", "--config", cfg, "--out", str(tmp_path / "out"),
              "--seed", str(2 ** 64 - 1)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["base_seed"] == report["config"]["seed"] == 2 ** 64 - 1


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def write_console_script(bin_dir, name, target):
    """Write the launcher an installer writes for the console script
    ``name = "module:attr"``: import the target, call it and exit with its
    return value (the entry-points specification's wrapper)."""
    module, _, attr = target.partition(":")
    launcher = bin_dir / name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n")
    launcher.chmod(launcher.stat().st_mode | stat.S_IXUSR)
    return launcher


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        meta = tomllib.loads(PYPROJECT.read_text())
        target = meta["project"]["scripts"]["eks-lab"]
        roots = [str(PYPROJECT.parent / where) for where in
                 meta["tool"]["setuptools"]["packages"]["find"]["where"]]
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        exe = write_console_script(bin_dir, "eks-lab", target)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            roots + [p for p in [env.get("PYTHONPATH")] if p])
        cfg = write_cfg(tmp_path, sample_doc())

        def launch(*extra):
            return subprocess.run(
                [str(exe), "sample", "--config", cfg,
                 "--out", str(tmp_path / "out"), *extra],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=120)

        proc = launch()
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "out" / "ensemble.csv").exists()
        assert (tmp_path / "out" / "sample.csv").exists()
        # main()'s return code must reach the process exit status: a
        # negative seed is refused by main itself, not by argparse
        proc = launch("--seed", "-1")
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "config error: --seed" in proc.stderr
