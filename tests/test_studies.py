"""Tests for the study drivers and their config/report plumbing.

Configs are built as plain dicts (or JSON files on disk for the loader
tests) and fed through parse_config, so every test exercises the same
validation path the CLI uses.  Determinism tests compare files byte for
byte; the single tolerated difference is the "generated" header line of
report.json.
"""

import json
import platform
import re
import threading

import numpy as np
import pytest
import scipy

from eks_lab import dynamics, studies
from eks_lab.cli import EXIT_RUNTIME, main
from eks_lab.dynamics import SdeConfig, sample_gaussian
from eks_lab.ensemble import Ensemble, load_csv, particle_moments
from eks_lab.errors import Diverged, EksError, NonFinite
from eks_lab.metrics import gaussian_w2
from eks_lab.model import GaussianMoments, posterior_moments, precision_matrix
from eks_lab.noise import derive_seed
from eks_lab.reference import MomentFlow
from eks_lab.spd import lambda_min
from eks_lab.studies import (
    ConfigError,
    load_config,
    parse_config,
    run_study,
    write_report,
)


def sample_doc(**over):
    doc = {"kind": "sample", "seed": 11,
           "sde": {"j_particles": 16, "n_steps": 5, "h": 0.05}}
    doc.update(over)
    return doc


def demo_doc(amplitude=2.0, **over):
    doc = {
        "kind": "demo-nonlinear",
        "seed": 5,
        "problem": {
            "a": [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
            "gamma": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]],
            "gamma0": [[1.0, 0.0], [0.0, 1.0]],
            "y": [1.0, 1.0, 1.5],
            "u0": [0.0, 0.0],
            "nonlinear": {"seed_direction": [0.0, 0.0, 1.0],
                          "frequency": [0.7, -0.4],
                          "amplitude": amplitude},
        },
        "sde": {"j_particles": 300, "n_steps": 100, "h": 0.01},
        "repeats": 2,
    }
    doc.update(over)
    return doc


def sweep_doc(kind, share=True, **over):
    doc = {"kind": kind, "seed": 17, "sweep": {"j_values": [8, 16, 32]},
           "sde": {"h": 0.05, "n_steps": 6}, "repeats": 2}
    if kind == "study-coupling":
        doc["share_noise"] = share
    doc.update(over)
    return doc


def time_doc(**over):
    doc = {"kind": "study-time", "sweep": {"t_checkpoints": [0.0, 0.2]}}
    doc.update(over)
    return doc


# a small valid config of each kind
KIND_DOCS = {
    "sample": sample_doc,
    "study-j": lambda: sweep_doc("study-j"),
    "study-coupling": lambda: sweep_doc("study-coupling"),
    "study-time": time_doc,
    "demo-nonlinear": demo_doc,
    "validate": lambda: {"kind": "validate", "seed": 3},
}


try:
    from numpy._core import _multiarray_umath as UMATH
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as UMATH


@pytest.fixture
def fresh_environment():
    """Drop report.json's per-process environment stamp before and after
    a test that patches what it reads."""
    studies._environment.cache_clear()
    yield
    studies._environment.cache_clear()


def split_generated(text):
    """Split a report.json into (the generated line, every other line)."""
    lines = text.splitlines()
    gen = [ln for ln in lines if ln.lstrip().startswith('"generated"')]
    rest = [ln for ln in lines if not ln.lstrip().startswith('"generated"')]
    assert len(gen) == 1
    return gen[0], rest


# ------------------------------------------------------------- parsing


class TestParseConfig:
    def test_documented_defaults_resolve(self):
        cfg = parse_config({"kind": "sample", "sde": {"j_particles": 8}})
        assert cfg.h == 0.01
        assert cfg.seed == 0
        cfg = parse_config({"kind": "study-coupling", "sde": {"n_steps": 1},
                            "sweep": {"j_values": [8]}})
        assert cfg.repeats == 1
        assert cfg.share_noise is True
        cfg = parse_config(time_doc())
        assert cfg.fit_t_min == 1.0
        assert cfg.with_particles is False

    def test_default_problem_and_rho0(self):
        cfg = parse_config({"kind": "sample", "problem": "default",
                            "sde": {"j_particles": 8}})
        assert np.array_equal(cfg.problem.a, [[1.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(cfg.rho0.mean, [2.0, -2.0])
        assert np.array_equal(cfg.rho0.cov, np.eye(2))

    def test_rho0_falls_back_to_prior_for_custom_problem(self):
        doc = sample_doc(problem={"a": [[1.0]], "gamma": [[1.0]],
                                  "gamma0": [[4.0]], "y": [0.0],
                                  "u0": [3.0]})
        cfg = parse_config(doc)
        assert np.array_equal(cfg.rho0.mean, [3.0])
        assert np.array_equal(cfg.rho0.cov, [[4.0]])

    def test_explicit_rho0(self):
        doc = sample_doc(rho0={"mean": [1.0, 1.0],
                               "cov": [[2.0, 0.0], [0.0, 3.0]]})
        cfg = parse_config(doc)
        assert np.array_equal(cfg.rho0.mean, [1.0, 1.0])
        assert cfg.rho0.cov[1, 1] == 3.0

    def test_rho0_dimension_mismatch(self):
        doc = sample_doc(rho0={"mean": [0.0, 0.0, 0.0], "cov": np.eye(3).tolist()})
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="'kind'"):
            parse_config({"kind": "study-h"})

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config([1, 2, 3])

    def test_sweep_must_be_sorted(self):
        doc = {"kind": "study-j", "sweep": {"j_values": [64, 32]},
               "sde": {"n_steps": 5}}
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config(doc)

    def test_sweep_must_be_nonempty(self):
        doc = {"kind": "study-j", "sweep": {"j_values": []},
               "sde": {"n_steps": 5}}
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(doc)

    def test_sweep_requires_two_particles(self):
        doc = {"kind": "study-j", "sweep": {"j_values": [1, 64]},
               "sde": {"n_steps": 5}}
        with pytest.raises(ConfigError, match=">= 2"):
            parse_config(doc)

    def test_sweep_study_requires_steps(self):
        doc = {"kind": "study-coupling", "sweep": {"j_values": [16, 32]}}
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config(doc)

    def test_repeats_must_be_positive(self):
        with pytest.raises(ConfigError, match="repeats"):
            parse_config(sample_doc(repeats=0))

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(sample_doc(seed=-1))

    def test_sample_requires_particles(self):
        with pytest.raises(ConfigError, match="j_particles"):
            parse_config({"kind": "sample"})

    def test_sde_must_be_object(self):
        with pytest.raises(ConfigError, match="'sde'"):
            parse_config({"kind": "sample", "sde": [1]})

    def test_bands_must_be_object(self):
        with pytest.raises(ConfigError, match="'bands'"):
            parse_config(sample_doc(bands=[1]))

    @pytest.mark.parametrize("bands, name", [
        ({"mean_error": [0, 1]}, "mean_error"),
        ({"mean_error": "0.1"}, "mean_error"),
        ({"cov_error": True}, "cov_error"),
        ({"decay_r_squared": None}, "decay_r_squared"),
        ({"slope_j": 0.5}, "slope_j"),
        ({"slope_coupling": [-1.0]}, "slope_coupling"),
        ({"decay_slope": [-0.7, -1.3]}, "decay_slope"),
        ({"slope_j": [-1.0, "x"]}, "slope_j"),
        ({"slope_j": [-1.0, float("nan")]}, "slope_j"),
    ], ids=["max_interval", "max_string", "max_bool", "min_null",
            "interval_number", "interval_short", "interval_reversed",
            "interval_string", "interval_nan"])
    def test_wrong_shaped_band_names_the_band(self, bands, name):
        doc = KIND_DOCS[studies.BANDS[name].kinds[0]]()
        with pytest.raises(ConfigError, match=f"band '{name}' must be"):
            parse_config(dict(doc, bands=bands))

    @pytest.mark.parametrize("doc, bands", [
        (sample_doc(), {"mean_error": 1, "cov_error": 0.5}),
        (sweep_doc("study-j"), {"slope_j": [-0.7, -0.3]}),
        (sweep_doc("study-coupling"), {"slope_coupling": [-1, -1]}),
        ({"kind": "study-time", "sweep": {"t_checkpoints": [1.0, 2.0, 3.0]}},
         {"decay_slope": [-1.0, -1.0], "decay_r_squared": 0.9}),
        (demo_doc(), {"alg2_mean_error": 0.2, "min_alg1_worse_count": 4}),
    ], ids=["sample", "study_j", "study_coupling", "study_time", "demo"])
    def test_each_kinds_own_bands_parse(self, doc, bands):
        cfg = parse_config(dict(doc, bands=bands))
        assert cfg.bands == bands
        assert cfg.echo["bands"] == bands

    @pytest.mark.parametrize("bands, message", [
        ({"slope_j": [-0.7, -0.3]},
         "band 'slope_j' does not apply to sample studies"),
        ({"min_alg1_worse_count": 4},
         "band 'min_alg1_worse_count' does not apply to sample"),
        ({"not_graded": 1.0}, "unknown band 'not_graded'"),
        ({"mean_eror": 1.0},
         "unknown band 'mean_eror': did you mean 'mean_error'?"),
    ], ids=["foreign_interval", "foreign_min", "unknown", "near_miss"])
    def test_foreign_or_unknown_band_is_rejected(self, bands, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(sample_doc(bands=bands))

    def test_demo_requires_nonlinear_section(self):
        doc = demo_doc()
        del doc["problem"]["nonlinear"]
        with pytest.raises(ConfigError, match="nonlinear"):
            parse_config(doc)

    def test_nonlinear_section_requires_all_fields(self):
        doc = demo_doc()
        del doc["problem"]["nonlinear"]["amplitude"]
        with pytest.raises(ConfigError, match="amplitude"):
            parse_config(doc)

    def test_checkpoints_must_be_nonnegative(self):
        doc = {"kind": "study-time", "sweep": {"t_checkpoints": [-1.0, 2.0]}}
        with pytest.raises(ConfigError, match=">= 0"):
            parse_config(doc)

    def test_particle_checkpoints_must_sit_on_step_grid(self):
        doc = {"kind": "study-time", "with_particles": True,
               "sde": {"h": 0.1, "j_particles": 8},
               "sweep": {"t_checkpoints": [0.0, 0.25]}}
        with pytest.raises(ConfigError, match="multiple of h"):
            parse_config(doc)

    def test_with_particles_requires_two(self):
        doc = {"kind": "study-time", "with_particles": True,
               "sde": {"h": 0.1, "j_particles": 1},
               "sweep": {"t_checkpoints": [0.0, 0.2]}}
        with pytest.raises(ConfigError, match="j_particles"):
            parse_config(doc)

    def test_invalid_problem_matrix_reported(self):
        doc = sample_doc(problem={"a": [[1.0, "x"]], "gamma": [[1.0]],
                                  "gamma0": [[1.0]], "y": [0.0], "u0": [0.0]})
        with pytest.raises(ConfigError, match="'a'"):
            parse_config(doc)

    @pytest.mark.parametrize("doc, field", [
        (sample_doc(sde={"j_particles": 8, "h": "abc"}), "sde.h"),
        (sweep_doc("study-j", repeats="x"), "repeats"),
        ({"kind": "study-j", "sde": {"n_steps": 5},
          "sweep": {"j_values": [8, "a"]}}, "sweep.j_values"),
    ], ids=["h", "repeats", "j_values"])
    def test_malformed_number_names_its_field(self, doc, field):
        with pytest.raises(ConfigError, match=f"'{field}' must be a number"):
            parse_config(doc)

    @pytest.mark.parametrize("doc, field", [
        ({"kind": "study-j", "sde": {"n_steps": 5},
          "sweep": {"j_values": 5}}, "sweep.j_values"),
        ({"kind": "study-time", "sweep": {"t_checkpoints": 2.0}},
         "sweep.t_checkpoints"),
    ], ids=["j_values", "t_checkpoints"])
    def test_sweep_list_that_is_not_a_list_names_its_field(self, doc,
                                                             field):
        with pytest.raises(ConfigError, match=f"'{field}' must be a list"):
            parse_config(doc)

    def test_sweep_must_be_an_object(self):
        doc = {"kind": "study-j", "sde": {"n_steps": 5}, "sweep": [8, 16]}
        with pytest.raises(ConfigError, match="'sweep' must be an object"):
            parse_config(doc)

    def test_particle_checkpoints_need_positive_h(self):
        doc = {"kind": "study-time", "with_particles": True,
               "sde": {"h": 0, "j_particles": 8},
               "sweep": {"t_checkpoints": [0.0, 0.2]}}
        with pytest.raises(ConfigError, match="'sde.h' > 0"):
            parse_config(doc)

    @pytest.mark.parametrize("h", [0.9, -0.01, float("nan")],
                             ids=["above", "below", "nan"])
    def test_h_outside_its_range_names_its_field(self, h):
        doc = sample_doc(sde={"j_particles": 16, "n_steps": 5, "h": h})
        with pytest.raises(ConfigError, match=r"'sde.h': h must lie in \[0, "
                                              r"0.5\]"):
            parse_config(doc)

    def test_h_range_ends_are_accepted(self):
        for h in (0.0, 0.5):
            cfg = parse_config(sample_doc(
                sde={"j_particles": 16, "n_steps": 5, "h": h}))
            assert cfg.h == h

    def test_shape_errors_become_config_errors(self):
        doc = sample_doc(problem={"a": [[1.0, 0.0]], "gamma": [[1.0]],
                                  "gamma0": [[1.0]], "y": [0.0],
                                  "u0": [0.0]})
        with pytest.raises(ConfigError, match="invalid problem"):
            parse_config(doc)

    @pytest.mark.parametrize("field", ["share_noise", "with_particles"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [],
                                       {}], ids=repr)
    def test_flag_must_be_a_json_boolean(self, field, value):
        doc = (sweep_doc("study-coupling", share=value)
               if field == "share_noise" else time_doc(with_particles=value))
        with pytest.raises(ConfigError,
                           match=f"'{field}' must be true or false"):
            parse_config(doc)

    def test_string_false_does_not_share_noise(self):
        # bool("false") is True: the negative control would run with
        # shared noise if the string were accepted
        doc = sweep_doc("study-coupling", share="false")
        with pytest.raises(ConfigError, match="'share_noise'"):
            parse_config(doc)

    @pytest.mark.parametrize("value", [True, False])
    def test_flags_accept_json_booleans(self, value):
        cfg = parse_config(sweep_doc("study-coupling", share=value))
        assert cfg.share_noise is value
        # study-time reads sde only with particles on
        sde = {"sde": {"h": 0.1, "j_particles": 8}} if value else {}
        cfg = parse_config(time_doc(with_particles=value, **sde))
        assert cfg.with_particles is value

    @pytest.mark.parametrize("doc, message", [
        (sample_doc(repeat=3),
         "unknown config field 'repeat': did you mean 'repeats'?"),
        (sample_doc(sde={"nsteps": 5, "j_particles": 16}),
         "unknown config field 'sde.nsteps': did you mean 'sde.n_steps'?"),
        (sample_doc(dt_ode=0.01), "unknown config field 'dt_ode'"),
        (sample_doc(rho0={"mean": [0, 0], "cov": [[1, 0], [0, 1]],
                          "covariance": 1}),
         "unknown config field 'rho0.covariance'"),
        (dict(demo_doc(), problem=dict(
            {k: v for k, v in demo_doc()["problem"].items()
             if k != "nonlinear"},
            nonlinar=demo_doc()["problem"]["nonlinear"])),
         "unknown problem field 'nonlinar': did you mean 'nonlinear'?"),
        (dict(demo_doc(), problem=dict(demo_doc()["problem"], nonlinear={
            "seed_direction": [0.0, 0.0, 1.0], "frequency": [0.7, -0.4],
            "amplitude": 2.0, "amplitud": 2.0})),
         "unknown problem field 'nonlinear.amplitud'"),
        ({"kind": "study-j", "sde": {"n_steps": 5},
          "sweep": {"j_values": [8, 16, 32]}, "bands": {"slope_J": [0, 1]}},
         "unknown band 'slope_J': did you mean 'slope_j'?"),
        ({"kind": "study-j", "sde": {"n_steps": 5},
          "sweep": {"j_values": [8, 16, 32], "t_checkpoints": [1.0]}},
         "'sweep.t_checkpoints' does not apply to study-j studies"),
        (sample_doc(sweep={"j_values": [8, 16, 32]}),
         "'sweep' does not apply to sample studies, only to study-j, "
         "study-coupling, study-time"),
    ], ids=["top", "sde", "dt_ode", "rho0", "problem", "nonlinear", "band",
            "sweep_key_of_another_kind", "sweep_of_a_sampler"])
    def test_unknown_keys_are_rejected_with_their_path(self, doc, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(doc)

    @pytest.mark.parametrize("doc, message", [
        (sweep_doc("study-j", repeats=2.7),
         "'repeats' must be an integer, got 2.7"),
        (sweep_doc("study-j", repeats="12"),
         "'repeats' must be a number, got '12'"),
        (sweep_doc("study-j", repeats=True),
         "'repeats' must be a number, got True"),
        (sample_doc(seed=2 ** 64), "'seed': seed must lie in [0, "),
        (sample_doc(seed=2 ** 70), "'seed': seed must lie in [0, "),
        (sample_doc(seed=1.0), "'seed' must be an integer"),
        (sample_doc(sde={"j_particles": 16.0}), "'sde.j_particles' must be "
                                                "an integer"),
        (time_doc(fit_t_min=float("nan")),
         "'fit_t_min': fit_t_min must lie in (-inf, inf), got nan"),
        (sample_doc(problem={"path": 5}), "'problem.path' must be a string"),
        (sample_doc(problem=dict(studies.DEFAULT_PROBLEM, nonlinear=5)),
         "problem field 'nonlinear' must be an object, got 5"),
        (sample_doc(problem=dict(studies.DEFAULT_PROBLEM, a=[[1.0, True]])),
         "problem field 'a' must be a list"),
    ], ids=["int_given_float", "int_given_string", "int_given_bool",
            "seed_2_64", "seed_2_70", "seed_float", "j_particles_float",
            "fit_t_min_nan", "problem_path_not_a_string",
            "nonlinear_not_an_object", "matrix_with_a_boolean"])
    def test_values_outside_their_type_or_range(self, doc, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(doc)

    def test_largest_seed_is_accepted(self):
        assert parse_config(sample_doc(seed=2 ** 64 - 1)).seed == 2 ** 64 - 1

    @pytest.mark.parametrize("kind", ["study-j", "study-coupling"])
    def test_slope_band_needs_three_sizes(self, kind):
        band = "slope_j" if kind == "study-j" else "slope_coupling"
        doc = dict(sweep_doc(kind), bands={band: [-5.0, 5.0]})
        doc["sweep"] = {"j_values": [8, 16]}
        with pytest.raises(ConfigError, match=f"band '{band}' can never be "
                                              "graded: its fit needs 3"):
            parse_config(doc)

    @pytest.mark.parametrize("fit_t_min", [2.5, 10.0])
    @pytest.mark.parametrize("band", ["decay_slope", "decay_r_squared"])
    def test_decay_band_needs_three_checkpoints_past_fit_t_min(
            self, band, fit_t_min):
        doc = {"kind": "study-time", "fit_t_min": fit_t_min,
               "sweep": {"t_checkpoints": [0.0, 1.0, 2.0, 3.0]},
               "bands": {band: [-2.0, 0.0] if band == "decay_slope"
                         else 0.9}}
        with pytest.raises(ConfigError, match=f"band '{band}' can never be "
                                              "graded"):
            parse_config(doc)
        doc["fit_t_min"] = 1.0
        assert parse_config(doc).bands == doc["bands"]

    @pytest.mark.parametrize("cov, error", [
        ([[1.0, 2.0], [2.0, 1.0]], "eigenvalue -1.000e+00 below"),
        ([[1.0, 0.0], [0.0, -1e-11]], "eigenvalue -1.000e-11 below"),
        ([[1.0, 0.0], [0.0, -1e-13]], None),
        ([[1.0, 1.0], [1.0, 1.0]], None),
        ([[1e308, 1e308], [1e308, 1e308]], "non-finite entries"),
    ], ids=["indefinite", "below_tolerance", "within_tolerance", "singular",
            "overflowing"])
    def test_rho0_cov_must_be_positive_semidefinite(self, cov, error):
        # spd_sqrt's rule: an eigenvalue below -1e-12 lam_max is indefinite
        doc = sample_doc(rho0={"mean": [0.0, 0.0], "cov": cov})
        if error is None:
            assert parse_config(doc).echo["rho0"]["cov"] == cov
        else:
            with np.errstate(over="ignore"), pytest.raises(
                    ConfigError, match=re.escape(
                    "config field 'rho0.cov' must be a finite positive "
                    "semidefinite matrix: ") + ".*" + re.escape(error)):
                parse_config(doc)

    def test_moment_bands_need_a_linear_problem(self):
        doc = dict(demo_doc(), kind="sample", bands={"mean_error": 1.0})
        del doc["repeats"]
        with pytest.raises(ConfigError, match="band 'mean_error' can never "
                                              "be graded"):
            parse_config(doc)

    def test_echo_is_the_resolved_config_in_table_order(self):
        cfg = parse_config(sample_doc(bands={"cov_error": 2}))
        assert list(cfg.echo) == ["kind", "seed", "problem", "rho0", "sde",
                                  "bands"]
        assert cfg.echo["sde"] == {"h": 0.05, "n_steps": 5,
                                   "j_particles": 16}
        assert cfg.echo["problem"] == studies.DEFAULT_PROBLEM
        assert cfg.echo["rho0"] == studies.DEFAULT_RHO0
        # a band is echoed in the number type it was written in
        assert json.dumps(cfg.echo["bands"]) == '{"cov_error": 2}'


class TestLoadConfig:
    def test_bad_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "kind": sample\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.json")

    def test_problem_by_path_resolves_relative_to_config(self, tmp_path):
        (tmp_path / "prob.json").write_text(json.dumps({
            "a": [[2.0]], "gamma": [[1.0]], "gamma0": [[1.0]],
            "y": [1.0], "u0": [0.0]}))
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(
            sample_doc(problem={"path": "prob.json"})))
        cfg = load_config(cfg_path)
        assert cfg.problem.a[0, 0] == 2.0

    def test_problem_path_missing_file(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(
            sample_doc(problem={"path": "nowhere.json"})))
        with pytest.raises(ConfigError, match="problem file"):
            load_config(cfg_path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_literals_are_rejected(self, tmp_path, literal):
        # json.loads accepts these; a NaN fit_t_min used to leave a failing
        # decay band ungraded
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(
            '{"kind": "study-time", "fit_t_min": %s, "sweep": '
            '{"t_checkpoints": [0.0, 1.0, 2.0, 3.0]}, '
            '"bands": {"decay_slope": [5.0, 6.0]}}' % literal)
        with pytest.raises(ConfigError, match="'fit_t_min'"):
            load_config(cfg_path)


# -------------------------------------------------------------- sample


class TestRunSample:
    def test_zero_steps_returns_drawn_initial(self, tmp_path):
        doc = sample_doc()
        doc["sde"]["n_steps"] = 0
        cfg = parse_config(doc)
        run_study(cfg, out_dir=tmp_path)
        written = load_csv(tmp_path / "ensemble.csv")
        drawn = sample_gaussian(cfg.rho0, 16, derive_seed(cfg.seed, "init"))
        assert np.array_equal(written.particles, drawn.particles)
        assert written.time == 0.0

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = parse_config(sample_doc())
        run_study(cfg, out_dir=tmp_path / "a")
        run_study(cfg, out_dir=tmp_path / "b")
        ens_a = (tmp_path / "a" / "ensemble.csv").read_bytes()
        ens_b = (tmp_path / "b" / "ensemble.csv").read_bytes()
        assert ens_a == ens_b
        diag_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        assert diag_a == (tmp_path / "b" / "diagnostics.csv").read_bytes()

    def test_diagnostics_csv_unchanged_by_the_cached_lambda_min(
            self, tmp_path, monkeypatch):
        # lambda_min(B) is taken once per problem; the condition column
        # must keep the bits of taking it afresh at every recorded step
        doc = sample_doc()
        doc["sde"]["n_steps"] = 20
        cfg = parse_config(doc)
        run_study(cfg, out_dir=tmp_path / "cached")
        monkeypatch.setattr(
            dynamics, "condition_check",
            lambda problem, rho: (lambda_min(precision_matrix(problem))
                                  * lambda_min(rho.cov)))
        run_study(cfg, out_dir=tmp_path / "afresh")
        cached = (tmp_path / "cached" / "diagnostics.csv").read_bytes()
        assert cached == (tmp_path / "afresh" / "diagnostics.csv").read_bytes()
        assert len(cached.splitlines()) == 22

    def test_report_differs_only_in_generated_line(self, tmp_path):
        cfg = parse_config(sample_doc())
        run_study(cfg, out_dir=tmp_path / "a")
        run_study(cfg, out_dir=tmp_path / "b")
        gen_a, rest_a = split_generated(
            (tmp_path / "a" / "report.json").read_text())
        gen_b, rest_b = split_generated(
            (tmp_path / "b" / "report.json").read_text())
        assert rest_a == rest_b

    def test_moment_cells_and_bands(self, tmp_path):
        doc = sample_doc(seed=3, bands={"mean_error": 2.0, "cov_error": 2.0})
        doc["sde"] = {"j_particles": 400, "n_steps": 300, "h": 0.01}
        report = run_study(parse_config(doc), out_dir=tmp_path)
        metrics = {c.metric: c.value for c in report.cells}
        assert set(metrics) == {"mean_error_vs_posterior",
                                "cov_error_vs_posterior"}
        assert report.flags == {"mean_error": True, "cov_error": True}
        assert report.passed

    def test_forward_map_evaluated_once_per_step(self, monkeypatch):
        # the moment errors at the end read particle moments only
        from eks_lab import ensemble
        calls = []
        forward = ensemble.apply_forward_batch

        def counted(problem, u):
            calls.append(u.shape[0])
            return forward(problem, u)

        monkeypatch.setattr(ensemble, "apply_forward_batch", counted)
        cfg = parse_config(sample_doc())
        report = run_study(cfg)
        assert len(calls) == cfg.n_steps
        assert len(report.cells) == 2

    def test_band_failure_flips_flag(self):
        doc = sample_doc(bands={"mean_error": 1e-12})
        report = run_study(parse_config(doc))
        assert report.flags["mean_error"] is False
        assert not report.passed

    def test_csv_row_format(self, tmp_path):
        run_study(parse_config(sample_doc()), out_dir=tmp_path)
        lines = (tmp_path / "sample.csv").read_text().splitlines()
        assert lines[0] == "study,J,t,repeat,seed,metric_name,value,wall_ms"
        first = lines[1].split(",")
        assert first[0] == "sample"
        assert first[1] == "16"
        float(first[6])          # value parses
        float(first[7])          # wall_ms parses


# ------------------------------------------------------------- study-j


class TestStudyJ:
    def small_doc(self, j_values, repeats, seed=21):
        return {"kind": "study-j", "seed": seed,
                "sweep": {"j_values": j_values},
                "sde": {"h": 0.05, "n_steps": 10}, "repeats": repeats}

    def test_single_j_gives_values_but_no_fit(self):
        report = run_study(parse_config(self.small_doc([64], 2)))
        assert report.fits == {}
        values = [c for c in report.cells if c.metric == "w2_vs_mean_field"]
        assert len(values) == 2
        assert all(c.value > 0 for c in values)

    def test_every_value_cell_carries_its_seed(self):
        report = run_study(parse_config(self.small_doc([16, 32], 2)))
        for cell in report.cells:
            if cell.metric == "w2_vs_mean_field":
                expected = derive_seed(21, "study-j", cell.j, cell.repeat)
                assert cell.seed == expected

    def test_three_sizes_produce_slope_fit(self):
        report = run_study(parse_config(self.small_doc([16, 32, 64], 3)))
        assert "w2_vs_j" in report.fits
        assert report.fits["w2_vs_j"].slope < 0

    def test_repeats_extend_not_reshuffle(self):
        """Cell seeds depend only on (J, repeat), so a longer study
        reproduces a shorter one as its prefix."""
        short = run_study(parse_config(self.small_doc([32], 3)))
        long = run_study(parse_config(self.small_doc([32], 9)))
        vals_short = [c.value for c in short.cells
                      if c.metric == "w2_vs_mean_field"]
        vals_long = [c.value for c in long.cells
                     if c.metric == "w2_vs_mean_field"]
        assert vals_long[:3] == vals_short

    def test_more_repeats_shrink_standard_error(self):
        """Standard error of the per-J mean falls like 1/sqrt(repeats):
        quadrupling the repeat count should halve it, within the sampling
        noise of the std estimates themselves."""
        report = run_study(parse_config(self.small_doc([32], 48, seed=9)))
        vals = np.array([c.value for c in report.cells
                         if c.metric == "w2_vs_mean_field"])
        se_12 = np.std(vals[:12], ddof=1) / np.sqrt(12)
        se_48 = np.std(vals, ddof=1) / np.sqrt(48)
        assert 1.3 < se_12 / se_48 < 3.0

    def test_slope_band_graded(self):
        doc = self.small_doc([16, 32, 64], 3)
        doc["bands"] = {"slope_j": [-5.0, 5.0]}
        report = run_study(parse_config(doc))
        assert report.flags == {"slope_j": True}


# ---------------------------------------------------------- study-time


class TestStudyTime:
    def test_single_checkpoint_single_point(self):
        doc = {"kind": "study-time", "sweep": {"t_checkpoints": [0.0]}}
        report = run_study(parse_config(doc))
        assert len(report.cells) == 1
        assert report.fits == {}
        cell = report.cells[0]
        assert cell.t == 0.0

    def test_t_zero_equals_initial_distance(self):
        doc = {"kind": "study-time", "sweep": {"t_checkpoints": [0.0, 1.0]}}
        cfg = parse_config(doc)
        report = run_study(cfg)
        target = posterior_moments(cfg.problem)
        expected = gaussian_w2(cfg.rho0, target)
        assert report.cells[0].value == pytest.approx(expected, abs=1e-12)

    def test_decay_fit_on_default_problem(self):
        doc = {"kind": "study-time",
               "sweep": {"t_checkpoints": [float(t) for t in
                                           np.arange(0.0, 5.5, 0.5)]},
               "bands": {"decay_slope": [-1.3, -0.7],
                         "decay_r_squared": 0.95}}
        report = run_study(parse_config(doc))
        fit = report.fits["log_w2_vs_t"]
        assert report.flags["decay_slope"]
        assert report.flags["decay_r_squared"]
        assert fit.slope == pytest.approx(-1.0, abs=0.3)

    def test_endpoint_tiny_for_unit_precision_problem(self):
        # A = I, Gamma = Gamma0 = 2I gives total precision I, so the
        # distance to equilibrium at t=8 is essentially e^{-8}|m0 - u*|
        doc = {"kind": "study-time",
               "problem": {"a": [[1.0, 0.0], [0.0, 1.0]],
                           "gamma": [[2.0, 0.0], [0.0, 2.0]],
                           "gamma0": [[2.0, 0.0], [0.0, 2.0]],
                           "y": [0.0, 0.0], "u0": [0.0, 0.0]},
               "rho0": {"mean": [1.0, 1.0],
                        "cov": [[2.0, 0.0], [0.0, 2.0]]},
               "sweep": {"t_checkpoints": [0.0, 8.0]}}
        report = run_study(parse_config(doc))
        assert report.cells[-1].value <= 1e-3

    def test_particle_checkpoints(self):
        doc = {"kind": "study-time", "with_particles": True, "seed": 4,
               "sde": {"h": 0.05, "j_particles": 64},
               "sweep": {"t_checkpoints": [0.0, 0.5, 1.0]}}
        report = run_study(parse_config(doc))
        particle = [c for c in report.cells
                    if c.metric == "w2_particles_vs_posterior"]
        reference = [c for c in report.cells
                     if c.metric == "w2_reference_vs_posterior"]
        assert len(particle) == 3 and len(reference) == 3
        assert all(np.isfinite(c.value) and c.value >= 0 for c in particle)
        assert [c.t for c in particle] == [0.0, 0.5, 1.0]

    def test_particle_checkpoints_equal_one_continuous_run(self):
        """The study steps its particles in segments between checkpoints;
        each checkpoint's value is bitwise that of one run of n steps
        from step 0, from the cell's init seed on its run seed."""
        doc = {"kind": "study-time", "with_particles": True, "seed": 4,
               "sde": {"h": 0.05, "j_particles": 32},
               "sweep": {"t_checkpoints": [0.0, 0.1, 0.25, 0.5]}}
        cfg = parse_config(doc)
        report = run_study(cfg)
        particle = [c for c in report.cells
                    if c.metric == "w2_particles_vs_posterior"]
        cell_seed = derive_seed(cfg.seed, "time-particles")
        initial = sample_gaussian(cfg.rho0, cfg.j_particles,
                                  derive_seed(cell_seed, "init"))
        target = posterior_moments(cfg.problem)
        assert [(c.t, c.seed) for c in particle] == [
            (t, cell_seed) for t in cfg.t_checkpoints]
        for cell, n in zip(particle, (0, 2, 5, 10)):
            sde = SdeConfig(h=cfg.h, n_steps=n, j_particles=cfg.j_particles,
                            seed=derive_seed(cell_seed, "run"))
            final = dynamics.run(initial, cfg.problem, sde, "eks").final
            mean_u, cov_uu = particle_moments(final)
            assert cell.value == gaussian_w2(
                GaussianMoments(mean=mean_u, cov=cov_uu), target)

    @pytest.mark.parametrize("with_particles", [None, False],
                             ids=["default", "false"])
    def test_sde_without_particles_is_rejected(self, with_particles):
        doc = time_doc(sde={"h": 0.01, "j_particles": 512})
        if with_particles is not None:
            doc["with_particles"] = with_particles
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == ("config field 'sde' does not apply to "
                                  "study-time studies unless with_particles "
                                  "is true")

    def test_echo_without_particles_leaves_sde_out(self):
        cfg = parse_config(time_doc())
        assert "sde" not in cfg.echo and cfg.with_particles is False
        assert cfg.h is None and cfg.j_particles is None
        text = json.dumps(cfg.echo)
        assert json.dumps(parse_config(json.loads(text)).echo) == text


# ------------------------------------------------------- study-coupling


class TestStudyCoupling:
    def small_doc(self, share=True):
        return {"kind": "study-coupling", "seed": 13,
                "sweep": {"j_values": [16, 32]},
                "sde": {"h": 0.05, "n_steps": 8},
                "repeats": 2, "share_noise": share}

    def test_smoke_and_summary(self):
        report = run_study(parse_config(self.small_doc()))
        assert report.fits == {}            # two sizes, no fit
        vals = [c for c in report.cells if c.metric == "sq_coupling_error"]
        assert len(vals) == 4
        assert all(c.value > 0 for c in vals)
        assert report.summary["share_noise"] is True
        assert set(report.summary["mean_sq_error"]) == {"16", "32"}

    def test_independent_noise_control_is_larger(self):
        shared = run_study(parse_config(self.small_doc(True)))
        control = run_study(parse_config(self.small_doc(False)))
        m_shared = shared.summary["mean_sq_error"]["32"]
        m_control = control.summary["mean_sq_error"]["32"]
        assert m_control > m_shared


# --------------------------------------------------------- sweep driver


class TestSweepDriver:
    @pytest.mark.parametrize("kind, share", [
        ("study-j", True), ("study-coupling", True),
        ("study-coupling", False)],
        ids=["study_j", "coupling_shared", "coupling_independent"])
    def test_report_bodies_identical_at_threads_1_2_3(self, tmp_path, kind,
                                                      share):
        """run_study accepts and ignores threads=: the benchmark passes it
        to every study and compares threads=1 with threads=2."""
        cfg = parse_config(sweep_doc(kind, share))
        bodies = []
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}"
            run_study(cfg, out_dir=out, threads=threads)
            bodies.append(split_generated(
                (out / "report.json").read_text())[1])
        assert bodies[0] == bodies[1] == bodies[2]

    @pytest.mark.parametrize("share", [True, False],
                             ids=["shared", "independent"])
    def test_coupling_cells_equal_cells_run_alone(self, share):
        cfg = parse_config(sweep_doc("study-coupling", share))
        report = run_study(cfg)
        flow = MomentFlow(problem=cfg.problem, m0=cfg.rho0.mean,
                          c0=cfg.rho0.cov)
        cells = [c for c in report.cells if c.metric == "sq_coupling_error"]
        assert [(c.j, c.repeat) for c in cells] == [
            (j, rep) for j in (8, 16, 32) for rep in range(2)]
        for cell in cells:
            initial = sample_gaussian(cfg.rho0, cell.j,
                                      derive_seed(cell.seed, "init"))
            sde = SdeConfig(h=cfg.h, n_steps=cfg.n_steps, j_particles=cell.j,
                            seed=derive_seed(cell.seed, "run"))
            alone = dynamics.run(initial, cfg.problem, sde, "coupled",
                                 flow=flow, share_noise=share)
            assert cell.value == alone.coupling_error

    def test_coupling_study_computes_reference_once_per_step(
            self, monkeypatch):
        calls = []
        rho_at = dynamics.rho_at

        def counted(flow, t):
            calls.append(t)
            return rho_at(flow, t)

        monkeypatch.setattr(dynamics, "rho_at", counted)
        cfg = parse_config(sweep_doc("study-coupling"))
        run_study(cfg)
        assert len(calls) == cfg.n_steps

    def test_study_j_report_equals_cells_run_alone_and_measured_inline(
            self, tmp_path, monkeypatch):
        """Stepping per J group and measuring on the worker moves no bit:
        the report body equals one whose cells each ran alone through
        run() and were measured on the calling thread."""
        def cells_alone(cfg, cells, mode, measure, **run_options):
            out = []
            for seed, j in cells:
                ens, sde = studies._cell_start(cfg, seed, j, cfg.n_steps)
                res = dynamics.run(ens, cfg.problem, sde, mode,
                                   **run_options)
                out.append((res, measure(res, seed), 0.0))
            return out

        cfg = parse_config(sweep_doc("study-j"))
        threads_before = threading.active_count()
        report = run_study(cfg, out_dir=tmp_path / "grouped")
        assert threading.active_count() == threads_before
        monkeypatch.setattr(studies, "_run_cells", cells_alone)
        run_study(cfg, out_dir=tmp_path / "alone")

        bodies = [split_generated((tmp_path / name / "report.json")
                                  .read_text())[1]
                  for name in ("grouped", "alone")]
        assert bodies[0] == bodies[1]
        cells = [c for c in report.cells if c.metric == "w2_vs_mean_field"]
        assert [(c.j, c.repeat) for c in cells] == [
            (j, rep) for j in (8, 16, 32) for rep in range(2)]

    def test_measure_error_in_second_group_ends_study_and_joins_worker(
            self, tmp_path, monkeypatch, capsys):
        """A measure that raises in the second J group (J = 16, after
        J = 32) ends the study with its own error, from run_study and
        through the CLI, and leaves no worker thread behind."""
        w2 = studies.w2_ensemble_vs_gaussian

        def failing(x, g, seed):
            if x.j_particles == 16:
                raise NonFinite("measured a non-finite W2 at J = 16")
            return w2(x, g, seed)

        monkeypatch.setattr(studies, "w2_ensemble_vs_gaussian", failing)
        doc = sweep_doc("study-j")
        threads_before = threading.active_count()
        with pytest.raises(NonFinite, match="at J = 16"):
            run_study(parse_config(doc))
        assert threading.active_count() == threads_before

        path = tmp_path / "study.json"
        path.write_text(json.dumps(doc))
        code = main(["study-j", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert ("eks-lab: NonFinite: measured a non-finite W2 at J = 16"
                in capsys.readouterr().err)
        assert threading.active_count() == threads_before

    def test_stepping_error_is_the_one_lockstep_run_over_all_cells_raises(
            self):
        """Every cell of this diverging problem fails at step 3 or 4.
        The study steps J = 9 first, and its group fails at step 3 in
        its own cell 0; one run() over every cell fails at step 3 in
        cell 0, a J = 3 cell.  The study raises what that lockstep run
        raises, as if no cell were stepped ahead of another."""
        rng = np.random.default_rng(23)
        a = 3 * rng.normal(size=(10, 8))
        doc = sweep_doc("study-j", sweep={"j_values": [3, 5, 9]},
                        sde={"h": 0.05, "n_steps": 40}, problem={
                            "a": a.tolist(),
                            "gamma": (0.1 * np.eye(10)).tolist(),
                            "gamma0": np.eye(8).tolist(),
                            "y": rng.normal(size=10).tolist(),
                            "u0": [0.0] * 8})
        cfg = parse_config(doc)
        starts = [studies._cell_start(
                      cfg, derive_seed(cfg.seed, "study-j", j, rep), j,
                      cfg.n_steps)
                  for j in cfg.j_values for rep in range(cfg.repeats)]
        with pytest.raises(EksError) as lockstep:
            dynamics.run([ens for ens, _ in starts], cfg.problem,
                         [sde for _, sde in starts], "eks")
        threads_before = threading.active_count()
        with pytest.raises(EksError) as study:
            run_study(cfg)
        assert threading.active_count() == threads_before
        assert type(study.value) is type(lockstep.value) is Diverged
        assert str(study.value) == str(lockstep.value)
        assert str(study.value).startswith("step 3:")
        assert "(cell 0: J = 3, seed" in str(study.value)


class TestCellSchedule:
    """How _run_cells splits a study into run() calls, and which thread
    measures which cell."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Record the (J, run seed) cells of every run() call a study
        makes."""
        calls = []

        def recorded(initial, problem, cfg, mode, **options):
            calls.append([(c.j_particles, c.seed) for c in cfg])
            return dynamics.run(initial, problem, cfg, mode, **options)

        monkeypatch.setattr(studies, "run", recorded)
        return calls

    @staticmethod
    def run_seeds(seed, kind, cells):
        return [(j, derive_seed(derive_seed(seed, kind, j, rep), "run"))
                for j, rep in cells]

    def test_study_j_steps_the_largest_j_first_then_the_rest(self, calls):
        run_study(parse_config(sweep_doc("study-j")))
        assert calls == [
            self.run_seeds(17, "study-j", [(32, 0), (32, 1)]),
            self.run_seeds(17, "study-j",
                           [(8, 0), (8, 1), (16, 0), (16, 1)])]

    @pytest.mark.parametrize("doc, n_cells", [
        (sweep_doc("study-coupling"), 6),
        (sweep_doc("study-j", sweep={"j_values": [16]}), 2),
        (sample_doc(), 1),
        (demo_doc(sde={"j_particles": 40, "n_steps": 5, "h": 0.01}), 4)],
        ids=["study_coupling", "study_j_one_size", "sample", "demo"])
    def test_one_call_when_a_flow_is_read_or_the_cells_share_j(
            self, calls, doc, n_cells):
        run_study(parse_config(doc))
        assert [len(cells) for cells in calls] == [n_cells]

    @staticmethod
    def patch_measure(monkeypatch, doc, plan):
        """Replace study-j's measure: plan[(J, repeat)] is "fail" (raise
        NonFinite naming the cell), "hold" (wait until the calling thread
        measures the first cell in cell order, which it takes after the
        second call's other cells, then return 1.0) or absent (the real
        W2).
        The calling thread waits before its first measure until the
        worker has begun one, so the worker always measures the first
        cell queued.  Returns {(J, repeat): "worker" or "caller"}."""
        cell_of = {derive_seed(derive_seed(doc["seed"], "study-j", j, rep),
                               "reference"): (j, rep)
                   for j in doc["sweep"]["j_values"]
                   for rep in range(doc["repeats"])}
        first = (doc["sweep"]["j_values"][0], 0)
        caller = threading.current_thread()
        worker_began, release = threading.Event(), threading.Event()
        measured_by = {}
        w2 = studies.w2_ensemble_vs_gaussian

        def measure(x, g, seed):
            cell = cell_of[seed]
            here = threading.current_thread()
            measured_by[cell] = "caller" if here is caller else "worker"
            if here is caller:
                assert worker_began.wait(30)
                if cell == first:
                    release.set()
            else:
                worker_began.set()
            action = plan.get(cell)
            if action == "fail":
                raise NonFinite(f"measured a non-finite W2 at {cell}")
            if action == "hold":
                assert release.wait(30)
                return 1.0
            return w2(x, g, seed)

        monkeypatch.setattr(studies, "w2_ensemble_vs_gaussian", measure)
        return measured_by

    def test_first_failing_cell_in_cell_order_wins_across_threads(
            self, tmp_path, monkeypatch, capsys):
        """The worker fails on (32, 0), the first cell queued, at once;
        the calling thread fails on (8, 1) after two real W2 solves,
        later in time but earlier in cell order, and that is the error
        raised, from run_study and through the CLI."""
        doc = sweep_doc("study-j")
        plan = {(32, 0): "fail", (32, 1): "hold", (8, 1): "fail"}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(doc))
        threads_before = threading.active_count()

        measured_by = self.patch_measure(monkeypatch, doc, plan)
        with pytest.raises(NonFinite, match=r"at \(8, 1\)"):
            run_study(parse_config(doc))
        assert threading.active_count() == threads_before
        assert measured_by[32, 0] == "worker"
        assert measured_by[8, 1] == "caller"

        measured_by = self.patch_measure(monkeypatch, doc, plan)
        code = main(["study-j", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert ("eks-lab: NonFinite: measured a non-finite W2 at (8, 1)"
                in capsys.readouterr().err)
        assert threading.active_count() == threads_before
        assert measured_by[32, 0] == "worker"
        assert measured_by[8, 1] == "caller"

    def test_failure_on_the_calling_thread_while_the_worker_measures(
            self, monkeypatch):
        """The worker holds (32, 0) while the calling thread fails on
        (16, 1), the first cell it takes, and measures on.  The error
        leaves only once the worker is joined."""
        doc = sweep_doc("study-j")
        measured_by = self.patch_measure(
            monkeypatch, doc, {(32, 0): "hold", (16, 1): "fail"})
        threads_before = threading.active_count()
        with pytest.raises(NonFinite, match=r"at \(16, 1\)"):
            run_study(parse_config(doc))
        assert threading.active_count() == threads_before
        assert measured_by[32, 0] == "worker"
        assert measured_by[16, 1] == "caller"


# ------------------------------------------------------- demo-nonlinear


class TestDemoNonlinear:
    def test_amplitude_zero_reduces_to_linear(self, tmp_path):
        """With the perturbation switched off both steppers see the same
        linear map: their paired errors coincide and both land on the
        Gaussian posterior up to Monte-Carlo noise."""
        doc = demo_doc(amplitude=0.0)
        doc["sde"] = {"j_particles": 400, "n_steps": 300, "h": 0.01}
        report = run_study(parse_config(doc), out_dir=tmp_path)
        a1 = report.summary["alg1_mean_errors"]
        a2 = report.summary["alg2_mean_errors"]
        assert np.allclose(a1, a2, atol=1e-8)
        assert max(a1) < 0.35
        # quadrature target collapses onto the analytic posterior
        lin_doc = demo_doc(amplitude=0.0)
        del lin_doc["problem"]["nonlinear"], lin_doc["repeats"]
        lin_doc["kind"] = "sample"
        lin_doc["sde"]["j_particles"] = 4
        lin = posterior_moments(parse_config(lin_doc).problem)
        assert np.allclose(report.summary["quadrature_mean"], lin.mean,
                           atol=1e-10)

    def test_paired_runs_share_initial_conditions(self):
        report = run_study(parse_config(demo_doc()))
        reps = {c.repeat for c in report.cells}
        assert reps == {0, 1}
        for cell in report.cells:
            assert cell.seed == derive_seed(5, "demo", cell.repeat)

    def test_gradient_variant_beats_plain_on_perturbed_map(self, tmp_path):
        # long enough to equilibrate: at T=1 the shared transient would
        # still hide the plain stepper's bias
        doc = demo_doc(repeats=3)
        doc["sde"] = {"j_particles": 400, "n_steps": 300, "h": 0.01}
        doc["bands"] = {"alg2_mean_error": 0.5, "min_alg1_worse_count": 2}
        report = run_study(parse_config(doc), out_dir=tmp_path)
        assert report.summary["alg1_worse_count"] >= 2
        assert report.passed
        assert (tmp_path / "ensemble_alg1.csv").exists()
        assert (tmp_path / "ensemble_alg2.csv").exists()


# ------------------------------------------------------------ validate


class TestValidate:
    def test_fresh_checkout_all_pass(self):
        report = run_study(parse_config({"kind": "validate", "seed": 7}))
        assert report.passed
        assert report.summary["failures"] == {}
        assert all(c.value == 1.0 for c in report.cells)
        assert report.summary["n_checks"] == len(report.cells)

    def test_drift_sign_flip_is_caught(self, monkeypatch):
        """Mutation check: flipping the sign of the per-step increment must
        trip the span, agreement, and moment checks."""
        orig = dynamics.eks_step

        def flipped(ens, problem, cfg, noise):
            out = orig(ens, problem, cfg, noise)
            return Ensemble(particles=2.0 * ens.particles - out.particles,
                            time=out.time, step=out.step)

        monkeypatch.setattr(dynamics, "eks_step", flipped)
        report = run_study(parse_config({"kind": "validate", "seed": 7}))
        assert not report.passed
        failures = set(report.summary["failures"])
        assert {"linear_step_agreement", "affine_span_invariance",
                "particle_posterior_moments"} <= failures

    def test_crashing_check_counts_as_failure(self, monkeypatch):
        monkeypatch.setattr(dynamics, "eks_step",
                            lambda *a, **k: 1 / 0)
        report = run_study(parse_config({"kind": "validate"}))
        assert not report.passed
        assert any("ZeroDivisionError" in d
                   for d in report.summary["failures"].values())


# -------------------------------------------------------------- report


class TestWriteReport:
    def test_report_fields(self, tmp_path):
        cfg = parse_config(sample_doc())
        report = run_study(cfg)
        write_report(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["study"] == "sample"
        assert doc["base_seed"] == 11
        assert doc["package"].startswith("eks-lab ")
        assert isinstance(doc["passed"], bool)
        # resolved defaults are echoed, not left implicit
        assert doc["config"]["problem"] == studies.DEFAULT_PROBLEM
        # cells never carry wall times; those live in the CSV only
        assert all("wall_ms" not in cell for cell in doc["cells"])

    def test_report_names_its_environment(self, tmp_path):
        write_report(run_study(parse_config(sample_doc())), tmp_path)
        env = json.loads((tmp_path / "report.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "scipy", "machine", "blas",
                            "lapack", "cpu_dispatch"}
        assert {key: env[key] for key in ("python", "numpy", "scipy",
                                          "machine")} == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}
        # the BLAS/LAPACK builds of both libraries, without install paths
        for dep in ("blas", "lapack"):
            for lib in (np, scipy):
                built = lib.show_config(mode="dicts")["Build Dependencies"]
                assert env[dep][lib.__name__] == {
                    key: built[dep].get(key) for key in
                    ("name", "version", "openblas configuration")}
        # numpy's baseline and the dispatched targets this CPU enables
        assert env["cpu_dispatch"] == {
            "baseline": list(UMATH.__cpu_baseline__),
            "enabled": [t for t in UMATH.__cpu_dispatch__
                        if UMATH.__cpu_features__[t]]}

    def test_cpu_dispatch_level_changes_the_body(self, tmp_path, monkeypatch,
                                                 fresh_environment):
        report = run_study(parse_config(sample_doc()))
        write_report(report, tmp_path / "here")
        write_report(report, tmp_path / "again")
        # a process at another level: the first dispatched target flipped,
        # as NPY_DISABLE_CPU_FEATURES or another CPU would, and the stamp
        # taken afresh as a new process takes it
        target = UMATH.__cpu_dispatch__[0]
        monkeypatch.setattr(UMATH, "__cpu_features__", {
            **UMATH.__cpu_features__,
            target: not UMATH.__cpu_features__[target]})
        studies._environment.cache_clear()
        write_report(report, tmp_path / "elsewhere")
        bodies = {}
        for name in ("here", "again", "elsewhere"):
            doc = json.loads((tmp_path / name / "report.json").read_text())
            doc.pop("generated")
            bodies[name] = doc
        assert bodies["here"] == bodies["again"]
        assert bodies["here"] != bodies["elsewhere"]
        moved = bodies["elsewhere"]["environment"].pop("cpu_dispatch")
        assert target in (set(moved["enabled"]) ^ set(
            bodies["here"]["environment"].pop("cpu_dispatch")["enabled"]))
        assert bodies["here"] == bodies["elsewhere"]

    def test_environment_is_computed_once_per_process(self, tmp_path,
                                                      monkeypatch,
                                                      fresh_environment):
        calls = []
        dispatch = studies._cpu_dispatch
        monkeypatch.setattr(studies, "_cpu_dispatch",
                            lambda: calls.append(1) or dispatch())
        report = run_study(parse_config(sample_doc()))
        write_report(report, tmp_path / "a")
        write_report(report, tmp_path / "b")
        assert calls == [1]

    def test_fit_serialization(self, tmp_path):
        doc = {"kind": "study-j", "seed": 2,
               "sweep": {"j_values": [8, 16, 32]},
               "sde": {"h": 0.05, "n_steps": 5}, "repeats": 2}
        run_study(parse_config(doc), out_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        fit = report["fits"]["w2_vs_j"]
        assert set(fit) >= {"slope", "intercept", "r_squared", "points"}
        assert len(fit["points"]) == 3
