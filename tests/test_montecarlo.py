import json
import tracemalloc

import numpy as np
import pytest

from degenpde import montecarlo
from degenpde.errors import ContractViolationError, DegeneracyError, ExtrapolationError
from degenpde.families import constant_sigma, linear_drift, zero_drift
from degenpde.montecarlo import (
    GradientInterpolant,
    DualityReport,
    PricingKernel,
    draw_increments,
    girsanov_log_weight,
    make_rng,
    payoff_discounted,
    price_and_compare,
    simulate,
    stream_paths,
    weight_statistics,
)
from degenpde.reporting import dumps_json
from degenpde.solver import GridSpec, SolutionField

from conftest import make_benchmark_model


def flat_price_field(grid, value=0.0):
    vals = np.full((grid.steps + 1,) + tuple(grid.shape), float(value))
    return SolutionField(vals, grid, variable="U")


class ConstantKernel:
    """Synthetic kernel with a fixed gamma vector, for weight checks."""

    def __init__(self, gamma_vec):
        self.vec = np.atleast_1d(np.asarray(gamma_vec, dtype=float))

    def gamma(self, x, s, step=None):
        return np.broadcast_to(self.vec, (x.shape[0], len(self.vec))).copy()


class TestSimulate:
    def test_brownian_moments(self):
        sigma = constant_sigma([[1.0]])
        ens = simulate(sigma, zero_drift(1), [0.4], 0.0, 1.0, 50, 100_000, seed=12)
        terminal = ens.states[:, -1, 0]
        se = terminal.std(ddof=1) / np.sqrt(len(terminal))
        assert abs(terminal.mean() - 0.4) <= 3.0 * se
        assert abs(terminal.var(ddof=1) - 1.0) <= 0.05

    def test_deterministic_linear_drift(self):
        sigma = constant_sigma([[0.0]])
        mu = linear_drift(1, -1.0)
        n_steps = 4000
        ens = simulate(sigma, mu, [2.0], 0.0, 1.0, n_steps, 3, seed=0)
        exact = 2.0 * np.exp(-1.0)
        # Euler error for x' = -x is O(dt)
        assert abs(ens.states[0, -1, 0] - exact) <= 2.0 * exact / n_steps

    def test_zero_gradient_kernel_reproduces_physical_paths(self):
        model = make_benchmark_model()
        sigma = constant_sigma([[1.0]])
        grid = GridSpec(1, 8.0, 101, 20, 1.0)
        kernel = PricingKernel(model, flat_price_field(grid), sigma)
        p_paths = simulate(sigma, zero_drift(1), [0.0], 0.0, 1.0, 100, 500, measure="P", seed=7)
        q_paths = simulate(
            sigma, zero_drift(1), [0.0], 0.0, 1.0, 100, 500, measure="Q", kernel=kernel, seed=7
        )
        assert np.array_equal(p_paths.states, q_paths.states)

    def test_q_measure_requires_kernel(self):
        sigma = constant_sigma([[1.0]])
        with pytest.raises(ContractViolationError):
            simulate(sigma, zero_drift(1), [0.0], 0.0, 1.0, 10, 10, measure="Q")

    def test_path_major_noise_refused(self):
        sigma = constant_sigma([[1.0]])
        n_paths, n_steps = 30, 20
        with pytest.raises(ContractViolationError) as err:
            simulate(
                sigma, zero_drift(1), [0.0], 0.0, 1.0, n_steps, n_paths,
                increments=np.zeros((n_paths, n_steps, 1)),
            )
        assert err.value.details["expected"] == (n_steps, n_paths, 1)

    def test_increment_variance(self):
        sigma = constant_sigma([[1.0]])
        ens = simulate(sigma, zero_drift(1), [0.0], 0.0, 1.0, 40, 50_000, seed=3)
        ds = ens.times[1] - ens.times[0]
        var = ens.increments.var(ddof=1)
        assert abs(var - ds) <= 0.03 * ds


class TestGirsanovWeights:
    def test_zero_kernel_gives_unit_weights(self):
        sigma = constant_sigma([[1.0]])
        ens = simulate(sigma, zero_drift(1), [0.0], 0.0, 1.0, 30, 200, seed=5)
        log_w = girsanov_log_weight(ens, ConstantKernel([0.0]))
        assert np.all(log_w == 0.0)

    def test_single_step_constant_kernel_closed_form(self):
        sigma = constant_sigma([[1.0]])
        g = 0.8
        ens = simulate(sigma, zero_drift(1), [0.0], 0.0, 1.0, 1, 1000, seed=9)
        ds = 1.0
        log_w = girsanov_log_weight(ens, ConstantKernel([g]))
        expected = -g * ens.increments[0, :, 0] - 0.5 * g**2 * ds
        np.testing.assert_allclose(log_w, expected, atol=1e-14)

    def test_weight_mean_is_one(self):
        sigma = constant_sigma([[1.0]])
        ens = simulate(sigma, zero_drift(1), [0.0], 0.0, 1.0, 50, 100_000, seed=21)
        log_w = girsanov_log_weight(ens, ConstantKernel([0.5]))
        mean, se = weight_statistics(log_w)
        assert abs(mean - 1.0) <= 3.0 * se

    def test_requires_physical_measure(self):
        model = make_benchmark_model()
        sigma = constant_sigma([[1.0]])
        grid = GridSpec(1, 8.0, 101, 20, 1.0)
        kernel = PricingKernel(model, flat_price_field(grid), sigma)
        ens = simulate(sigma, zero_drift(1), [0.0], 0.0, 1.0, 10, 50, measure="Q", kernel=kernel, seed=1)
        with pytest.raises(ContractViolationError):
            girsanov_log_weight(ens, kernel)


class TestPayoff:
    def test_zero_principal(self):
        model = make_benchmark_model(amplitude=0.0)
        times = np.linspace(0.0, 1.0, 11)
        path = np.zeros((11, 1))
        assert payoff_discounted(path, times, model) == 0.0

    def test_rate_equal_coupon(self):
        model = make_benchmark_model(rate=0.06, coupon=0.06)
        times = np.linspace(0.0, 1.0, 11)
        path = np.zeros((11, 1))
        assert payoff_discounted(path, times, model) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_unit_principal(self):
        from degenpde.families import constant_field, constant_rate
        from degenpde.model import MbsModel

        model = MbsModel(
            rho=0.5,
            coupon_tau=0.06,
            rate_r=constant_rate(0.0),
            principal_h=constant_field(1, 1.0),
            horizon=1.0,
            dim=1,
        )
        times = np.linspace(0.0, 1.0, 101)
        path = np.full((101, 1), 0.3)
        assert payoff_discounted(path, times, model) == pytest.approx(0.06, rel=1e-12)

    def test_batch_matches_single(self):
        model = make_benchmark_model()
        times = np.linspace(0.0, 1.0, 21)
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(5, 21, 1))
        vals = payoff_discounted(batch, times, model)
        for i in range(5):
            assert vals[i] == pytest.approx(payoff_discounted(batch[i], times, model), abs=1e-15)


class TestInterpolant:
    def test_nodes_reproduced_exactly(self, heat_setup):
        interp = GradientInterpolant(heat_setup["field"])
        grid = heat_setup["grid"]
        xs = grid.axes[0][5:15][:, None]
        vals, _, _ = interp.evaluate(xs, grid.times[7])
        np.testing.assert_array_equal(vals, heat_setup["field"].values[7][5:15])

    def test_interpolant_within_slice_bounds(self, heat_setup):
        interp = GradientInterpolant(heat_setup["field"])
        rng = np.random.default_rng(4)
        xs = rng.uniform(-8, 8, size=(500, 1))
        theta = 0.37
        vals, _, _ = interp.evaluate(xs, theta)
        lo = heat_setup["field"].values.min()
        hi = heat_setup["field"].values.max()
        assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)

    def test_out_of_box_clamp_counted(self, heat_setup):
        interp = GradientInterpolant(heat_setup["field"])
        xs = np.array([[9.5], [0.0], [-12.0]])
        assert interp.evaluate(xs, 0.1)[2] == 2

    def test_positivity_floor_raises(self):
        model = make_benchmark_model()
        sigma = constant_sigma([[1.0]])
        grid = GridSpec(1, 8.0, 101, 20, 1.0)
        # away from the bump, h is negligible and U + h + xi dips below zero
        kernel = PricingKernel(model, flat_price_field(grid, value=-1.05), sigma)
        with pytest.raises(DegeneracyError) as err:
            kernel.gamma(np.full((4, 1), 4.0), 0.9, step=3)
        assert err.value.details["step"] == 3


class TestPriceAndCompare:
    def test_modes_agree_and_match_grid(self, bench_setup):
        reports = {}
        for mode in ("q", "pw"):
            reports[mode] = price_and_compare(
                bench_setup["model"],
                bench_setup["field"],
                bench_setup["sigma"],
                bench_setup["mu"],
                x0=[0.0],
                n_paths=20_000,
                n_steps=200,
                seed=77,
                mode=mode,
            )
        rq, rp = reports["q"], reports["pw"]
        combined = np.hypot(rq.mc_se, rp.mc_se)
        assert abs(rq.mc_mean - rp.mc_mean) <= 3.0 * combined
        assert rq.pde_value == rp.pde_value
        assert abs(rp.weight_mean - 1.0) <= 3.0 * rp.weight_se

    def test_seed_determinism(self, bench_setup):
        kwargs = dict(
            x0=[0.0], n_paths=5_000, n_steps=100, seed=123, mode="pw"
        )
        r1 = price_and_compare(
            bench_setup["model"], bench_setup["field"], bench_setup["sigma"], bench_setup["mu"], **kwargs
        )
        r2 = price_and_compare(
            bench_setup["model"], bench_setup["field"], bench_setup["sigma"], bench_setup["mu"], **kwargs
        )
        assert r1 == r2

    def test_extrapolation_refused(self, bench_setup):
        with pytest.raises(ExtrapolationError):
            price_and_compare(
                bench_setup["model"],
                bench_setup["field"],
                bench_setup["sigma"],
                bench_setup["mu"],
                x0=[7.99],
                n_paths=100,
                n_steps=10,
                seed=1,
            )

    def test_nan_pricing_point_refused(self, bench_setup):
        # a NaN coordinate fails every comparison, so the interior test is
        # written to refuse it
        with pytest.raises(ExtrapolationError):
            price_and_compare(
                bench_setup["model"], bench_setup["field"], bench_setup["sigma"], bench_setup["mu"],
                x0=[np.nan], n_paths=100, n_steps=10, seed=1,
            )

    def test_unknown_mode_rejected(self, bench_setup):
        with pytest.raises(ContractViolationError):
            price_and_compare(
                bench_setup["model"],
                bench_setup["field"],
                bench_setup["sigma"],
                bench_setup["mu"],
                x0=[0.0],
                n_paths=10,
                n_steps=5,
                seed=1,
                mode="nope",
            )

    def test_nonpositive_chunk_rejected(self, bench_setup):
        with pytest.raises(ContractViolationError):
            price_and_compare(
                bench_setup["model"],
                bench_setup["field"],
                bench_setup["sigma"],
                bench_setup["mu"],
                x0=[0.0],
                n_paths=10,
                n_steps=5,
                chunk_size=0,
            )

    def test_step_refinement_with_common_noise(self, bench_setup):
        # coarse increments are pairwise sums of the fine ones: same Brownian
        # path, so the price difference isolates the time-discretization error
        model = bench_setup["model"]
        sigma, mu = bench_setup["sigma"], bench_setup["mu"]
        kernel = PricingKernel(model, bench_setup["field"], sigma)
        n_paths, fine_steps = 100_000, 200
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
        ds_fine = 1.0 / fine_steps
        fine = draw_increments(rng, n_paths, fine_steps, 1, ds_fine)
        coarse = fine.reshape(fine_steps // 2, 2, n_paths, 1).sum(axis=1)
        prices = {}
        ses = {}
        for label, steps, incs in (("fine", fine_steps, fine), ("coarse", fine_steps // 2, coarse)):
            ens = simulate(
                sigma, mu, [0.0], 0.0, 1.0, steps, n_paths, measure="Q", kernel=kernel,
                seed=31, increments=incs,
            )
            pays = payoff_discounted(ens.states, ens.times, model)
            prices[label] = pays.mean()
            ses[label] = pays.std(ddof=1) / np.sqrt(n_paths)
        assert abs(prices["fine"] - prices["coarse"]) < max(ses["fine"], ses["coarse"])


class TestStreamedPass:
    """The streamed loop against simulate, girsanov_log_weight and payoff_discounted."""

    N_PATHS, N_STEPS, T0 = 3000, 120, 0.25

    @pytest.fixture()
    def shared(self, bench_setup):
        kernel = PricingKernel(bench_setup["model"], bench_setup["field"], bench_setup["sigma"])
        ds = (1.0 - self.T0) / self.N_STEPS
        incs = draw_increments(make_rng(11, 0), self.N_PATHS, self.N_STEPS, 1, ds)
        return dict(bench_setup, kernel=kernel, incs=incs, x0=[0.3])

    @pytest.fixture()
    def coupled(self):
        """The coupled 2-D setup: each log-weight step sums two noise terms."""
        setup = _coupled_2d_setup()
        kernel = PricingKernel(setup["model"], setup["field"], setup["sigma"])
        ds = (1.0 - self.T0) / self.N_STEPS
        incs = draw_increments(make_rng(11, 0), self.N_PATHS, self.N_STEPS, 2, ds)
        return dict(setup, kernel=kernel, incs=incs)

    def simulate(self, shared, measure):
        return simulate(
            shared["sigma"], shared["mu"], shared["x0"], self.T0, 1.0, self.N_STEPS, self.N_PATHS,
            measure=measure, kernel=shared["kernel"], increments=shared["incs"],
        )

    def stream(self, shared, measures):
        return stream_paths(shared["kernel"], measures, shared["mu"], shared["x0"], self.T0, shared["incs"])

    def test_pw_log_weights_bitwise(self, shared):
        ens = self.simulate(shared, "P")
        sums = self.stream(shared, ("P",))["P"]
        assert np.array_equal(sums.log_weight, girsanov_log_weight(ens, shared["kernel"]))
        assert np.array_equal(sums.state, ens.states[:, -1, :])

    def test_q_states_bitwise(self, shared):
        ens = self.simulate(shared, "Q")
        sums = self.stream(shared, ("Q",))["Q"]
        assert np.array_equal(sums.state, ens.states[:, -1, :])
        assert sums.log_weight is None

    @pytest.mark.parametrize("measure", ["Q", "P"])
    def test_payoffs_match_trapezoid(self, shared, measure):
        ens = self.simulate(shared, measure)
        expected = payoff_discounted(ens.states, ens.times, shared["model"], t0=self.T0)
        got = self.stream(shared, (measure,))[measure].payoff
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("measure", ["Q", "P"])
    def test_states_and_log_weights_bitwise_in_2d(self, coupled, measure):
        ens = self.simulate(coupled, measure)
        sums = self.stream(coupled, (measure,))[measure]
        assert np.array_equal(sums.state, ens.states[:, -1, :])
        if measure == "P":
            assert np.array_equal(sums.log_weight, girsanov_log_weight(ens, coupled["kernel"]))

    def test_joint_pass_equals_separate_passes(self, shared):
        both = self.stream(shared, ("Q", "P"))
        for m in ("Q", "P"):
            alone = self.stream(shared, (m,))[m]
            assert np.array_equal(both[m].state, alone.state)
            assert np.array_equal(both[m].payoff, alone.payoff)
        assert np.array_equal(both["P"].log_weight, self.stream(shared, ("P",))["P"].log_weight)

    def test_both_mode_reports_equal_separate_runs(self, bench_setup):
        kwargs = dict(x0=[0.2], price_time=0.1, n_paths=3000, n_steps=80, seed=19, chunk_size=1200)
        args = (bench_setup["model"], bench_setup["field"], bench_setup["sigma"], bench_setup["mu"])
        dual = price_and_compare(*args, mode="both", **kwargs)
        assert isinstance(dual, DualityReport)
        assert (dual.n_paths, dual.n_steps) == (3000, 80)
        for mode in ("q", "pw"):
            assert getattr(dual, mode) == price_and_compare(*args, mode=mode, **kwargs)
        agree = dual.agreement
        assert agree["combined_se"] == np.hypot(dual.q.mc_se, dual.pw.mc_se)
        assert agree["difference"] == abs(dual.q.mc_mean - dual.pw.mc_mean)

    def test_peak_memory_is_one_noise_block_plus_o_paths(self, monkeypatch):
        model = make_benchmark_model()
        sigma = constant_sigma([[1.0]])
        field = flat_price_field(GridSpec(1, 8.0, 101, 20, 1.0))
        n_paths, n_steps, chunk = 20_000, 200, 10_000
        # a budget of one eighth of a chunk's noise: the bound below is the
        # block's, far under the chunk's 16 MB
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK_BYTES", chunk * n_steps * 8 // 8)

        def run():
            return price_and_compare(
                model, field, sigma, zero_drift(1), x0=[0.0], n_paths=n_paths,
                n_steps=n_steps, seed=3, mode="both", chunk_size=chunk,
            )

        run()  # first call loads the quadrature module; keep it out of the trace
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        noise_block = montecarlo.NOISE_BLOCK_BYTES + n_steps * 8  # a lone last path joins a block
        assert peak < 1.5 * noise_block + 32 * n_paths * 8

    def test_step_major_noise_is_not_a_second_block(self):
        # one full 16 MiB block of 4194 paths, so that the noise outweighs
        # the O(paths) state: laying the block out step-major by a transposed
        # copy of a whole draw would hold two blocks (about 33 MiB)
        n_steps = 500
        n_paths = montecarlo.NOISE_BLOCK_BYTES // (n_steps * 8)
        assert len(list(montecarlo.path_blocks(n_paths, n_steps, 1))) == 1
        field = flat_price_field(GridSpec(1, 8.0, 101, 20, 1.0))

        def run():
            return price_and_compare(
                make_benchmark_model(), field, constant_sigma([[1.0]]), zero_drift(1), x0=[0.0],
                n_paths=n_paths, n_steps=n_steps, seed=3, mode="both",
            )

        run()  # first call loads the quadrature module; keep it out of the trace
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * montecarlo.NOISE_BLOCK_BYTES + 32 * n_paths * 8


@pytest.mark.parametrize("mode", ["q", "both"])
def test_degeneracy_error_holds_one_noise_block_plus_o_paths(mode):
    # U + h + xi < 0 everywhere, so every block of the one chunk fails at step 0
    grid = GridSpec(1, 8.0, 41, 20, 1.0)
    field = flat_price_field(grid, -10.0)
    n_paths = 50_000

    def run():
        with pytest.raises(DegeneracyError) as err:
            price_and_compare(
                make_benchmark_model(), field, constant_sigma([[1.0]]), zero_drift(1), x0=[0.0],
                n_paths=n_paths, n_steps=500, seed=0, mode=mode, chunk_size=n_paths,
            )
        return err.value.details

    run()  # first call loads the quadrature module; keep it out of the trace
    tracemalloc.start()
    try:
        details = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert details["step"] == 0
    assert peak < 1.5 * montecarlo.NOISE_BLOCK_BYTES + 32 * n_paths * 8


def _coupled_2d_setup():
    """A 2-D model with coupled sigma, so each noise step is a 2 x 2 matmul."""
    from degenpde.families import constant_rate, gaussian_bump_field
    from degenpde.model import MbsModel

    model = MbsModel(
        rho=0.5,
        coupon_tau=0.06,
        rate_r=constant_rate(0.03),
        principal_h=gaussian_bump_field(2, amplitude=1.0, center=0.0, width=1.0, ramp=3.0),
        horizon=1.0,
        dim=2,
    )
    grid = GridSpec(2, 4.0, 21, 10, 1.0)
    values = 0.2 + 0.1 * np.random.default_rng(1).random((11, 21, 21))
    field = SolutionField(values, grid, variable="U")
    sigma = constant_sigma([[0.7, 0.3], [-0.2, 0.9]])
    return dict(model=model, field=field, sigma=sigma, mu=linear_drift(2, -0.4), x0=[0.1, -0.2])


# seeds whose mode-both failure falls in a later block than the first
LATER_BLOCK_SEEDS = (0, 1, 4, 14)


class TestNoiseBlocks:
    """Blocked noise draws against one stream_paths call per chunk."""

    N_STEPS = 40

    @pytest.fixture(params=["1d", "2d"])
    def setup(self, request, bench_setup):
        if request.param == "2d":
            return _coupled_2d_setup()
        return dict(
            model=bench_setup["model"], field=bench_setup["field"], sigma=bench_setup["sigma"],
            mu=bench_setup["mu"], x0=[0.2],
        )

    def price(self, setup, n_paths, chunk, rows, monkeypatch, seed=5):
        d = np.asarray(setup["sigma"](0.0)).shape[1]
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK_BYTES", rows * self.N_STEPS * d * 8)
        blocks = []
        real = montecarlo.stream_paths

        def recording(kernel, measures, mu, x0, t0, increments):
            # each step of a block reads one contiguous row of its noise
            assert increments.flags.c_contiguous
            assert (increments.shape[0], increments.shape[2]) == (self.N_STEPS, d)
            blocks.append(real(kernel, measures, mu, x0, t0, increments))
            return blocks[-1]

        monkeypatch.setattr(montecarlo, "stream_paths", recording)
        rep = price_and_compare(
            setup["model"], setup["field"], setup["sigma"], setup["mu"], x0=setup["x0"],
            price_time=0.1, n_paths=n_paths, n_steps=self.N_STEPS, seed=seed, mode="both",
            chunk_size=chunk,
        )
        monkeypatch.setattr(montecarlo, "stream_paths", real)
        return rep, blocks

    def whole_chunks(self, setup, n_paths, chunk, seed=5):
        """One stream_paths call on each chunk's whole noise, as before blocking."""
        kernel = PricingKernel(setup["model"], setup["field"], setup["sigma"])
        d = np.asarray(setup["sigma"](0.0)).shape[1]
        out = []
        for stream, start in enumerate(range(0, n_paths, chunk)):
            batch = min(chunk, n_paths - start)
            incs = make_rng(seed, stream).standard_normal((batch, self.N_STEPS, d))
            incs *= np.sqrt((1.0 - 0.1) / self.N_STEPS)
            incs = np.ascontiguousarray(incs.transpose(1, 0, 2))
            out.append(stream_paths(kernel, ("Q", "P"), setup["mu"], setup["x0"], 0.1, incs))
        return out

    @pytest.mark.parametrize(
        "n_paths, chunk, rows",
        [
            (500, 150, 200),  # every chunk smaller than a block
            (1001, 700, 128),  # chunks of 5 + 2 blocks, paths not a multiple of either
            (257, 1000, 64),  # a lone last path joins the block before it
        ],
    )
    def test_blocked_sums_equal_one_block_per_chunk(self, setup, monkeypatch, n_paths, chunk, rows):
        rep, blocks = self.price(setup, n_paths, chunk, rows, monkeypatch)
        sizes = [len(b["Q"].payoff) for b in blocks]
        assert sum(sizes) == n_paths and max(sizes) <= rows + 1 and min(sizes) > 1
        if chunk > rows:
            assert len(blocks) > -(-n_paths // chunk)
        whole = self.whole_chunks(setup, n_paths, chunk)
        for m in ("Q", "P"):
            for name in ("state", "payoff"):
                got = np.concatenate([getattr(b[m], name) for b in blocks])
                want = np.concatenate([getattr(w[m], name) for w in whole])
                assert got.tobytes() == want.tobytes()
        got = np.concatenate([b["P"].log_weight for b in blocks])
        assert got.tobytes() == np.concatenate([w["P"].log_weight for w in whole]).tobytes()
        one_block, _ = self.price(setup, n_paths, chunk, n_paths + 1, monkeypatch)
        assert rep == one_block

    def test_sub_draw_size_cannot_change_a_bit(self, setup, monkeypatch):
        # blocks of 300, 300, 100 and 301 paths; sub-draws of one path, of 7
        # (which divides no block) and of a whole block against the default.
        # simulate draws 301 paths with the same sub-draws
        rep, blocks = self.price(setup, 1001, 700, 300, monkeypatch)
        assert [len(b["Q"].payoff) for b in blocks] == [300, 300, 100, 301]
        simulated = lambda: simulate(
            setup["sigma"], setup["mu"], setup["x0"], 0.1, 1.0, self.N_STEPS, 301, seed=5
        ).states.tobytes()
        states = simulated()
        for rows in (1, 7, 301):
            monkeypatch.setattr(montecarlo, "_SUB_DRAW_ROWS", rows)
            other, other_blocks = self.price(setup, 1001, 700, 300, monkeypatch)
            assert other == rep
            assert simulated() == states
            for got, want in zip(other_blocks, blocks):
                for m in ("Q", "P"):
                    assert got[m].state.tobytes() == want[m].state.tobytes()
                    assert got[m].payoff.tobytes() == want[m].payoff.tobytes()
                assert got["P"].log_weight.tobytes() == want["P"].log_weight.tobytes()

    def degeneracy_payloads(self, monkeypatch, values, mode, seed, n_steps=50):
        """Error payloads of one unblocked pass and of blocks of 64 paths."""
        grid = GridSpec(1, 8.0, 101, 20, 1.0)
        field = SolutionField(np.broadcast_to(values(grid.axes[0]), (21, 101)).copy(), grid, variable="U")
        errors = []
        for rows in (10**6, 64):
            monkeypatch.setattr(montecarlo, "NOISE_BLOCK_BYTES", rows * n_steps * 8)
            with pytest.raises(DegeneracyError) as err:
                price_and_compare(
                    make_benchmark_model(), field, constant_sigma([[1.0]]), zero_drift(1), x0=[0.0],
                    n_paths=256, n_steps=n_steps, seed=seed, mode=mode, chunk_size=200,
                )
            errors.append(err.value.payload())
        return errors

    @pytest.mark.parametrize(
        "mode, seed",
        [pytest.param("both", s, id=str(s)) for s in LATER_BLOCK_SEEDS]
        + [
            pytest.param(m, s, id=f"{m}-{s}")
            for m in ("q", "pw", "both")
            for s in range(16)
            if not (m == "both" and s in LATER_BLOCK_SEEDS)
        ],
    )
    def test_degeneracy_error_names_the_unblocked_path_and_step(self, monkeypatch, mode, seed):
        # U is -10 beyond |x| = 2.5, so some paths fail; in mode both with
        # seeds 1, 4 and 14 the first block fails at a later step than a path
        # of the second
        errors = self.degeneracy_payloads(monkeypatch, lambda x: np.where(np.abs(x) > 2.5, -10.0, 0.0), mode, seed)
        assert errors[0] == errors[1]
        if mode == "both" and seed in LATER_BLOCK_SEEDS:
            assert errors[0]["details"]["path"] >= 64  # in a later block

    def test_degeneracy_error_orders_q_before_p_within_a_step(self, monkeypatch):
        # U climbs to 3 towards a cliff at x = 2.5, so the tilt holds Q paths
        # back while their P twins jump it. With seed 88, at step 27 the first
        # block's Q path 53 fails and the third block's P path 186 fails
        # further below the floor; the unblocked pass prices Q first
        def values(x):
            ramp = np.where(x > 1.0, 2.0 * (x - 1.0), 0.0)
            return np.where((x > 2.5) | (x < -2.5), -10.0, ramp)

        errors = self.degeneracy_payloads(monkeypatch, values, "both", 88)
        assert errors[0] == errors[1]
        assert (errors[0]["details"]["step"], errors[0]["details"]["path"]) == (27, 53)

    def test_pw_weight_counters(self, bench_setup):
        rep = price_and_compare(
            bench_setup["model"], bench_setup["field"], bench_setup["sigma"], bench_setup["mu"],
            x0=[0.0], n_paths=3000, n_steps=50, seed=8, mode="pw",
        )
        payload = vars(rep)
        # (sum w)^2 / sum w^2 = n m^2 / ((n - 1) se^2 + m^2), from the mean m
        # and standard error se of the same weights
        n, m, se = 3000, payload["weight_mean"], payload["weight_se"]
        assert payload["weight_ess"] == pytest.approx(n * m**2 / ((n - 1) * se**2 + m**2), rel=1e-9)
        assert payload["weight_ess"] < n
        assert payload["max_weight"] > m
        q = price_and_compare(
            bench_setup["model"], bench_setup["field"], bench_setup["sigma"], bench_setup["mu"],
            x0=[0.0], n_paths=300, n_steps=20, seed=8, mode="q",
        )
        assert not {"weight_ess", "max_weight"} & set(json.loads(dumps_json(q)))


def _small_box_pricing(bench_setup, mode):
    # a narrow grid box forces many path evaluations onto the clamped faces
    from degenpde.model import mbs_price_problem
    from degenpde.solver import solve
    from conftest import stability_grid

    model = bench_setup["model"]
    sigma, mu = bench_setup["sigma"], bench_setup["mu"]
    problem = mbs_price_problem(model, sigma, mu, value_interval=(-0.5, 1.5))
    grid = stability_grid(1, 1.5, 61, 1.0, problem)
    field = solve(problem, lambda mesh: np.zeros(mesh.shape[:-1]), grid)
    return price_and_compare(
        model, field, sigma, mu, x0=[0.0], n_paths=4000, n_steps=100, seed=6, mode=mode
    )


def test_clamp_flag_raised_when_paths_leave_small_box(bench_setup):
    rep = _small_box_pricing(bench_setup, "q")
    assert rep.clamp_fraction > 0.01
    assert rep.clamp_flag


def test_both_mode_tallies_clamps_per_measure(bench_setup):
    # the tilted and the physical paths leave the box at different points,
    # and each measure's tally must be its own
    dual = _small_box_pricing(bench_setup, "both")
    for mode in ("q", "pw"):
        frac = getattr(dual, mode).clamp_fraction
        assert frac > 0.0
        assert frac == _small_box_pricing(bench_setup, mode).clamp_fraction
    assert dual.q.clamp_fraction != dual.pw.clamp_fraction


@pytest.mark.parametrize(
    "mode, n_blocks",
    [pytest.param(m, 1, id=m) for m in ("q", "pw", "both")]
    + [pytest.param(m, 3, id=f"{m}-3-blocks") for m in ("q", "pw", "both")],
)
def test_sigma_and_xi_evaluated_once_per_step(mode, n_blocks, bench_setup, monkeypatch):
    # one sigma for the noise width and one xi for the positivity floor, then
    # one of each per Euler step, whatever the measures and the noise blocks
    calls = {"sigma": 0, "xi": 0}
    sigma = bench_setup["sigma"]

    def counted_sigma(t):
        calls["sigma"] += 1
        return sigma(t)

    real = montecarlo.discount_and_xi

    def counted_discount_and_xi(model):
        xi, discount = real(model)

        def counted_xi(t):
            calls["xi"] += 1
            return xi(t)

        return counted_xi, discount

    monkeypatch.setattr(montecarlo, "discount_and_xi", counted_discount_and_xi)
    n_paths, n_steps = 300, 40
    if n_blocks > 1:
        monkeypatch.setattr(montecarlo, "NOISE_BLOCK_BYTES", n_paths // n_blocks * n_steps * 8)
    assert len(list(montecarlo.path_blocks(n_paths, n_steps, 1))) == n_blocks
    price_and_compare(
        bench_setup["model"], bench_setup["field"], counted_sigma, bench_setup["mu"], x0=[0.0],
        n_paths=n_paths, n_steps=n_steps, seed=2, mode=mode,
    )
    assert calls == {"sigma": 1 + n_steps, "xi": 1 + n_steps}


@pytest.mark.parametrize("variant", ["zero_principal", "rate_equals_coupon"])
def test_pricing_trivial_cases_are_exactly_zero(variant):
    from degenpde.model import mbs_price_problem
    from degenpde.solver import solve
    from conftest import make_benchmark_model, stability_grid

    if variant == "zero_principal":
        model = make_benchmark_model(amplitude=0.0)
    else:
        model = make_benchmark_model(rate=0.06, coupon=0.06)
    sigma = constant_sigma([[1.0]])
    mu = zero_drift(1)
    problem = mbs_price_problem(model, sigma, mu, value_interval=(-0.5, 1.5))
    grid = stability_grid(1, 8.0, 101, 1.0, problem)
    field = solve(problem, lambda mesh: np.zeros(mesh.shape[:-1]), grid)
    rep = price_and_compare(
        model, field, sigma, mu, x0=[0.0], n_paths=2000, n_steps=50, seed=4, mode="q"
    )
    assert rep.mc_mean == 0.0
    assert rep.pde_value == 0.0
    assert rep.z_score == 0.0
