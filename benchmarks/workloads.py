"""The benchmark's four study workloads, generated from a seed.

Each workload is one study config handed to the public API
(parse_config -> run_study).  The seed picks the config's base seed and,
for wide-sample, the random linear problem; the same seed always gives
the same config.  Why each workload exists:

  coupling-sweep  study-coupling with shared noise on the default 2-D
                  problem.  The reference flow advances every step and no
                  W2 is computed, so the RK4 mean (reference) and the
                  per-step Python overhead (dynamics) carry the time.
  j-sweep         study-j on the same J grid.  Plain eks steps with no
                  per-step reference and one exact W2 assignment per
                  cell, so metrics does real work and reference is
                  bypassed.
  wide-sample     a sample study on a seed-generated linear problem with
                  L = 32.  The only workload where L x L statistics and
                  their memory dominate Python overhead; writes the
                  ensemble and diagnostics CSVs.
  nonlinear-pair  demo-nonlinear on the shipped perturbed 2-D problem at
                  J = 4000: the only workload that runs the gradient
                  stepper and the perturbation hooks, and the large-J
                  regime where noise and ensemble scale with J.

Bands are pre-registered here, next to the sizes they were chosen for.
The sweeps run fewer repeats than the shipped configs, so their slope
bands are wider than the shipped ones: each edge sits at least four
standard deviations of the measured slope spread away from the observed
mean (coupling: mean -1.06, sd 0.18; J-rate: mean -0.38, sd 0.036; both
at 2 repeats, over 20 independent groups), and both still exclude the
negative control's slope 0.  Two repeats keep one study short enough that
a run times several of them.  nonlinear-pair runs one repeat where the shipped demo runs
five, so plain must simply lose to gradient on it (measured mean errors
about 0.07 against 0.01 at this size).  Toy configs keep the same kinds at a fraction of the size and
only exercise code paths; their bands are wide open.
"""

import numpy as np

WORKLOADS = ("coupling-sweep", "j-sweep", "wide-sample", "nonlinear-pair")

J_GRID = [64, 128, 256, 512, 1024]

# configs/demo_nonlinear.json's problem, copied so that editing the shipped
# config cannot silently change the workload
SHIPPED_NONLINEAR_PROBLEM = {
    "a": [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
    "gamma": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]],
    "gamma0": [[1.0, 0.0], [0.0, 1.0]],
    "y": [1.0, 1.0, 1.5],
    "u0": [0.0, 0.0],
    "nonlinear": {"seed_direction": [0.0, 0.0, 1.0],
                  "frequency": [0.7, -0.4], "amplitude": 2.0},
}

# The calibration loop (calibration.py) each workload's study time is
# rescaled by, chosen by the shape of its hot loop as the trace shows it.
# Over ten runs each, rescaling by small-step cut the run-to-run spread
# of study time from 0.25-0.34 to 0.03-0.14 on the Python-bound
# workloads; small-step made wide-sample worse (0.14 raw, 0.18 rescaled),
# whose time is 85% sorted (J, L, L) reductions, and tensor tracks it.
CALIBRATION = {"coupling-sweep": "small-step", "j-sweep": "small-step",
               "wide-sample": "tensor", "nonlinear-pair": "small-step"}

# Functions each workload must call (a trace that misses one has a
# wrapper that was not installed where the name is bound) and functions
# it must bypass, as "<module>.<function>".
COMMON_CALLS = ("studies.run_study", "studies.write_report", "dynamics.run",
                "dynamics.eks_step", "ensemble.empirical_stats",
                "model.apply_forward_batch", "noise.normal_block",
                "spd.spd_sqrt", "spd.general_solve")
EXPECTED_CALLS = {
    "coupling-sweep": COMMON_CALLS + (
        "dynamics.mean_field_step", "reference.advance_mean",
        "reference.covariance_closed_form", "spd.spd_invert"),
    "j-sweep": COMMON_CALLS + (
        "metrics.empirical_w2_exact", "reference.advance_mean",
        "reference.covariance_closed_form", "spd.spd_invert"),
    "wide-sample": COMMON_CALLS + (
        "ensemble.save_csv", "reference.advance_mean",
        "reference.covariance_closed_form", "spd.spd_invert"),
    "nonlinear-pair": COMMON_CALLS + (
        "dynamics.eks_gradient_step", "model.quadrature_moments",
        "ensemble.save_csv"),
}
EXPECTED_ZERO = {
    "coupling-sweep": ("metrics.empirical_w2_exact",
                       "dynamics.eks_gradient_step"),
    "j-sweep": ("dynamics.mean_field_step", "dynamics.eks_gradient_step"),
    "wide-sample": ("metrics.empirical_w2_exact", "dynamics.mean_field_step",
                    "dynamics.eks_gradient_step"),
    "nonlinear-pair": ("reference.advance_mean", "dynamics.mean_field_step",
                       "metrics.empirical_w2_exact"),
}

# Layers predicted to carry the most self time; the traced run compares
# its ranking against these and reports any mismatch.
PREDICTED_DOMINANT = {
    "coupling-sweep": ("reference",),
    "j-sweep": ("metrics", "ensemble"),
    "wide-sample": ("ensemble",),
    "nonlinear-pair": ("ensemble", "model"),
}


def _sweep(kind, seed, toy, band_name, band, repeats, share_noise=None):
    doc = {
        "kind": kind,
        "seed": seed,
        "problem": "default",
        "sde": {"h": 0.01, "n_steps": 20 if toy else 200},
        "sweep": {"j_values": [8, 16, 32] if toy else J_GRID},
        "repeats": 1 if toy else repeats,
        "bands": {band_name: [-10.0, 10.0] if toy else band},
    }
    if share_noise is not None:
        doc["share_noise"] = share_noise
    return doc


def wide_problem(seed, dim):
    """A well-conditioned random linear problem: K = L observations
    through A = U diag(s) V^T with random orthogonal U, V and singular
    values in [0.5, 1.5], diagonal noise variances in [0.25, 0.5], and a
    standard normal prior.  The misfit drift is explicit, so h times the
    largest eigenvalue of A^T gamma^{-1} A (at most 9 here) must stay well
    below 2 for h = 0.1; with a plain Gaussian A some seeds broke that
    and the ensemble overflowed.  Returns the problem document and its
    posterior covariance, computed here independently of eks_lab."""
    rng = np.random.default_rng([seed, dim])
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    v, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    a = (u * rng.uniform(0.5, 1.5, size=dim)) @ v.T
    gamma_diag = rng.uniform(0.25, 0.5, size=dim)
    u_true = rng.normal(size=dim)
    y = a @ u_true + rng.normal(size=dim) * np.sqrt(gamma_diag)
    problem = {"a": a.tolist(), "gamma": np.diag(gamma_diag).tolist(),
               "gamma0": np.eye(dim).tolist(), "y": y.tolist(),
               "u0": [0.0] * dim}
    precision = a.T @ (a / gamma_diag[:, None]) + np.eye(dim)
    return problem, np.linalg.inv(precision)


def make_config(name, seed, toy=False):
    """The study config of workload `name` for a non-negative seed."""
    if name == "coupling-sweep":
        return _sweep("study-coupling", seed, toy, "slope_coupling",
                      [-1.85, -0.30], repeats=2, share_noise=True)
    if name == "j-sweep":
        return _sweep("study-j", seed, toy, "slope_j", [-0.70, -0.22],
                      repeats=2)
    if name == "wide-sample":
        dim, j = (4, 32) if toy else (32, 512)
        problem, post_cov = wide_problem(seed, dim)
        trace = float(np.trace(post_cov))
        # sampling error scales: mean ~ sqrt(tr C / J), cov ~ tr C / sqrt(J);
        # over 13 seeds the errors reached at most 1.4 and 1.2 of them
        return {
            "kind": "sample", "seed": seed, "problem": problem,
            "sde": {"h": 0.1, "n_steps": 10 if toy else 60,
                    "j_particles": j},
            "bands": {"mean_error": float(3.0 * np.sqrt(trace / j)),
                      "cov_error": float(2.5 * trace / np.sqrt(j))},
        }
    if name == "nonlinear-pair":
        return {
            "kind": "demo-nonlinear", "seed": seed,
            "problem": SHIPPED_NONLINEAR_PROBLEM,
            "sde": {"h": 0.02, "n_steps": 20 if toy else 300,
                    "j_particles": 64 if toy else 4000},
            "repeats": 1,
            "bands": {"alg2_mean_error": 10.0 if toy else 0.2,
                      "min_alg1_worse_count": 0 if toy else 1},
        }
    raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def particle_steps(doc):
    """Particles advanced one step, summed over every run of the study:
    J x n_steps x systems stepped, where coupled cells and the demo's
    paired steppers step two systems."""
    steps = doc["sde"]["n_steps"]
    repeats = doc.get("repeats", 1)
    kind = doc["kind"]
    if kind in ("study-j", "study-coupling"):
        systems = 2 if kind == "study-coupling" else 1
        return sum(j * steps * repeats * systems
                   for j in doc["sweep"]["j_values"])
    if kind == "demo-nonlinear":
        return doc["sde"]["j_particles"] * steps * repeats * 2
    return doc["sde"]["j_particles"] * steps
