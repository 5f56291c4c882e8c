import tracemalloc

import numpy as np
import pytest

from degenpde.degeneracy import (
    continuity_diagnostic,
    counterexample_run,
    kernel_basis,
    projection_paths,
)
from degenpde.errors import ContractViolationError, DecompositionError
from degenpde.families import constant_drift, constant_sigma, swirl_drift, zero_drift
from degenpde.montecarlo import make_rng, simulate


class TestKernelBasis:
    def test_single_noisy_coordinate(self):
        decomp = kernel_basis(np.array([[0.0], [1.0]]))
        assert decomp.m == 1
        np.testing.assert_allclose(decomp.basis, [[1.0, 0.0]], atol=1e-14)
        assert decomp.condition_number == pytest.approx(1.0, abs=1e-12)
        # M^T e_1 recovers the kernel vector
        np.testing.assert_allclose(decomp.matrix.T @ np.array([1.0, 0.0]), [1.0, 0.0], atol=1e-14)

    def test_full_rank_kernel_is_empty(self):
        decomp = kernel_basis(np.eye(2))
        assert decomp.m == 0
        assert decomp.rank == 2

    def test_three_dims_one_noise(self):
        decomp = kernel_basis(np.array([[0.0], [0.0], [1.0]]))
        assert decomp.m == 2
        span = decomp.basis.T @ decomp.basis
        expected = np.diag([1.0, 1.0, 0.0])
        np.testing.assert_allclose(span, expected, atol=1e-12)

    def test_basis_annihilated_by_sigma_transpose(self):
        rng = np.random.default_rng(6)
        col = rng.normal(size=(3, 1))
        decomp = kernel_basis(col)
        assert decomp.m == 2
        assert np.abs(col.T @ decomp.basis.T).max() <= 1e-12


class TestProjectionPaths:
    def test_degenerate_coordinate_is_frozen(self):
        sigma = constant_sigma([[0.0], [1.0]])
        decomp = kernel_basis(sigma.matrix)
        ens = simulate(sigma, zero_drift(2), [0.0, 0.0], 0.0, 1.0, 100, 400, seed=2)
        pp = projection_paths(ens, decomp, zero_drift(2), horizon=1.0)
        assert np.abs(pp.pi).max() == 0.0
        assert pp.quadratic_variation.max() <= 1e-20

    def test_constant_drift_moves_projection_linearly(self):
        sigma = constant_sigma([[0.0], [1.0]])
        decomp = kernel_basis(sigma.matrix)
        c = np.array([0.8, -0.3])
        ens = simulate(sigma, constant_drift(2, c), [0.0, 0.0], 0.0, 1.0, 250, 300, seed=3)
        pp = projection_paths(ens, decomp, constant_drift(2, c), horizon=1.0)
        expected = np.broadcast_to(ens.times * float(c @ decomp.basis[0]), pp.pi[..., 0].shape)
        np.testing.assert_allclose(pp.pi[..., 0], expected, atol=1e-12)

    def test_full_rank_projection_is_empty(self):
        sigma = constant_sigma(np.eye(2))
        decomp = kernel_basis(sigma.matrix)
        ens = simulate(sigma, zero_drift(2), [0.0, 0.0], 0.0, 1.0, 50, 100, seed=4)
        pp = projection_paths(ens, decomp, zero_drift(2), horizon=1.0)
        assert pp.m == 0

    def test_inconsistent_basis_detected(self):
        sigma = constant_sigma([[0.0], [1.0]])
        decomp = kernel_basis(sigma.matrix)
        # tamper: rotate the basis into the noisy direction
        decomp.basis[0] = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        ens = simulate(sigma, zero_drift(2), [0.0, 0.0], 0.0, 1.0, 100, 200, seed=5)
        with pytest.raises(DecompositionError):
            projection_paths(ens, decomp, zero_drift(2), horizon=1.0)


class TestContinuityDiagnostic:
    def test_atomic_law_scores_one(self):
        samples = np.zeros(5000)
        rep = continuity_diagnostic(samples)
        assert rep["atom_score"] == 1.0
        assert rep["verdict"] == "atomic"
        assert rep["heuristic"] is True

    def test_diffuse_law_near_uniform_baseline(self):
        rng = np.random.default_rng(9)
        samples = rng.normal(size=20_000)
        rep = continuity_diagnostic(samples)
        assert rep["verdict"] == "diffuse"
        assert rep["atom_score"] <= 10.0 * rep["uniform_baseline"]

    def test_swirl_drift_gives_continuous_projection(self):
        # mu = (x2, 0): the frozen coordinate integrates the Brownian one
        sigma = constant_sigma([[0.0], [1.0]])
        decomp = kernel_basis(sigma.matrix)
        mu = swirl_drift(2, 1.0)
        ens = simulate(sigma, mu, [0.0, 0.0], 0.0, 1.0, 200, 4000, seed=10)
        pp = projection_paths(ens, decomp, mu, horizon=1.0)
        rep = continuity_diagnostic(pp.pi[:, -1, :], seed=10)
        assert rep["verdict"] == "diffuse"
        assert "component_0" in rep["density"]

    def test_needs_enough_samples(self):
        with pytest.raises(ContractViolationError):
            continuity_diagnostic(np.zeros(10))

    def test_empty_projection(self):
        rep = continuity_diagnostic(np.zeros((5000, 0)))
        assert rep["empty"] is True


class TestCounterexample:
    def test_occupation_converges_to_half_horizon(self):
        rep = counterexample_run(horizon=1.0, n_paths=20_000, n_steps=400, seed=1)
        assert abs(rep.estimate - 0.5) <= 3.0 * rep.se
        assert rep.expected == 0.5

    def test_empty_window_gives_zero(self):
        rep = counterexample_run(horizon=1.0, n_paths=2_000, n_steps=50, seed=2, time_window=(0.4, 0.4))
        assert rep.estimate == 0.0

    def test_seed_determinism(self):
        r1 = counterexample_run(horizon=1.0, n_paths=3_000, n_steps=100, seed=3)
        r2 = counterexample_run(horizon=1.0, n_paths=3_000, n_steps=100, seed=3)
        assert r1.estimate == r2.estimate and r1.se == r2.se


class TestBlockedDiagnosis:
    """diagnose-degeneracy in path blocks against one unblocked pass."""

    INI = """
[model]
kind = general
dim = 2
horizon = 1.0
sigma = constant:0;1
mu = swirl:1
lambda = zero
eta = zero
value_interval = -0.5,1.5
initial = constant:0

[grid]
half_width = 6.0
nodes = 41
steps = auto

[mc]
paths = 2000
steps = 100
seed = 3
x0 = 0.0
"""
    N_PATHS, N_STEPS, SEED, ROWS = 2000, 100, 3, 500

    @pytest.fixture()
    def config(self, tmp_path):
        path = tmp_path / "deg.ini"
        path.write_text(self.INI)
        return str(path)

    def run(self, config, rows, monkeypatch, capsys, tilt=0.0):
        """(exit code, printed JSON) with ``rows`` paths per block and a basis
        tilted by ``tilt`` radians into the noisy direction."""
        import json

        from degenpde import cli, montecarlo

        # each block holds noise (1), states (2) and the projection's pi,
        # drift and residual (1 each) per path and step
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK_BYTES", rows * self.N_STEPS * 6 * 8)

        def tilted(sig):
            decomp = kernel_basis(sig)
            decomp.basis[0] = [np.cos(tilt), np.sin(tilt)]
            return decomp

        monkeypatch.setattr(cli, "kernel_basis", tilted)
        code = cli.main(["diagnose-degeneracy", "--config", config])
        captured = capsys.readouterr()
        return code, json.loads(captured.out if code == 0 else captured.err)

    def test_blocks_give_the_unblocked_report(self, config, monkeypatch, capsys):
        blocked = self.run(config, self.ROWS, monkeypatch, capsys)
        assert blocked == self.run(config, self.N_PATHS, monkeypatch, capsys)
        assert blocked[0] == 0 and blocked[1]["projection"]["n_paths"] == self.N_PATHS

    def test_each_block_reads_step_major_noise(self, config, monkeypatch, capsys):
        from degenpde import cli

        real, shapes = cli.simulate, []

        def recording(*args, increments, **kwargs):
            # each step of a block reads one contiguous row of its noise
            assert increments.flags.c_contiguous
            shapes.append(increments.shape)
            return real(*args, increments=increments, **kwargs)

        monkeypatch.setattr(cli, "simulate", recording)
        assert self.run(config, self.ROWS, monkeypatch, capsys)[0] == 0
        assert shapes == [(self.N_STEPS, self.ROWS, 1)] * (self.N_PATHS // self.ROWS)

    def test_peak_memory_is_one_block_plus_o_paths(self, config, monkeypatch, capsys):
        from degenpde import cli, montecarlo

        # an eighth of what all paths would hold: noise (1), states (2) and
        # the projection's pi, drift and residual (1 each) per path and step
        block = self.N_PATHS * self.N_STEPS * 6 * 8 // 8
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK_BYTES", block)
        run = lambda: cli.main(["diagnose-degeneracy", "--config", config])
        assert run() == 0  # the first run imports what the diagnostics need
        tracemalloc.start()
        try:
            assert run() == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 1.5 * block + 32 * self.N_PATHS * 8

    def test_check_uses_the_drift_of_all_blocks(self, config, monkeypatch, capsys):
        # With the basis tilted by e, the projected residual is sin(e) dW, so a
        # path's quadratic variation is sin(e)^2 S with S = sum dW^2, against
        # the tolerance ds^2 (1 + D)^2 for the largest drift D (T = 1).
        ds = 1.0 / self.N_STEPS
        dw = make_rng(self.SEED).standard_normal((self.N_PATHS, self.N_STEPS)) * np.sqrt(ds)
        s = np.sum(dw**2, axis=1)
        # mu = (x2, 0) and x2 is the Brownian path, read before each step
        drift = np.abs(np.cumsum(dw, axis=1)[:, :-1]).max(axis=1)
        ratio = lambda sl: s[sl].max() / (1.0 + drift[sl].max()) ** 2
        whole = ratio(slice(None))
        per_block = max(ratio(slice(lo, lo + self.ROWS)) for lo in range(0, self.N_PATHS, self.ROWS))
        assert per_block > 1.05 * whole  # a block's own tolerance is stricter
        between = np.arcsin(ds * (per_block * whole) ** -0.25)
        above = np.arcsin(ds * (0.5 * whole) ** -0.5)

        # between the two thresholds: a check per block would raise ...
        decomp = kernel_basis(np.array([[0.0], [1.0]]))
        decomp.basis[0] = [np.cos(between), np.sin(between)]
        sigma, mu = constant_sigma([[0.0], [1.0]]), swirl_drift(2, 1.0)
        raised = 0
        for lo in range(0, self.N_PATHS, self.ROWS):
            ens = simulate(
                sigma, mu, [0.0, 0.0], 0.0, 1.0, self.N_STEPS, self.ROWS,
                increments=dw[lo : lo + self.ROWS].T[:, :, None],
            )
            try:
                projection_paths(ens, decomp, mu, horizon=1.0)
            except DecompositionError:
                raised += 1
        assert raised
        # ... but the blocked run passes, as the unblocked one does
        blocked = self.run(config, self.ROWS, monkeypatch, capsys, tilt=between)
        assert blocked[0] == 0
        assert blocked == self.run(config, self.N_PATHS, monkeypatch, capsys, tilt=between)
        # above both thresholds the two raise the same error
        blocked = self.run(config, self.ROWS, monkeypatch, capsys, tilt=above)
        assert blocked[0] == 1 and blocked[1]["error"] == "decomposition_inconsistency"
        assert blocked == self.run(config, self.N_PATHS, monkeypatch, capsys, tilt=above)
