import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusops.recipe import (
    Schedule,
    ScheduleKind,
    Stage,
    StagePlan,
    align_batch,
    build_plan,
    lr_at,
    scale_tau,
    solve_weight_decay,
    steps_from,
    tau_epoch,
    validate_stage_plan,
)

positive = st.floats(min_value=1e-8, max_value=1e15, allow_nan=False, allow_infinity=False)


class TestTauEpoch:
    def test_flagship_run_constants(self):
        # 9.8M-token batches, lr 1.5e-4, wd 0.05, 12.25T tokens -> 0.1066...
        tau = tau_epoch(9.8e6, 1.5e-4, 0.05, 12.25e12)
        assert tau == pytest.approx(0.10666666666666667, rel=1e-12)

    def test_unit_inputs(self):
        assert tau_epoch(1, 1, 1, 1) == 1

    def test_linear_in_batch(self):
        base = tau_epoch(100, 0.1, 0.01, 1e6)
        assert tau_epoch(200, 0.1, 0.01, 1e6) == pytest.approx(2 * base)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            tau_epoch(0, 1, 1, 1)
        with pytest.raises(ValueError):
            tau_epoch(1, 1, -0.1, 1)


class TestScaleTau:
    def test_identity(self):
        assert scale_tau(0.25, 20, 20) == 0.25

    def test_quadrupling_tpp_halves_tau(self):
        assert scale_tau(0.2, 10, 40) == pytest.approx(0.1, rel=1e-12)

    def test_20_to_175_tokens_per_parameter(self):
        # Frozen via independent high-precision evaluation of 0.4/sqrt(35).
        assert scale_tau(0.2, 20, 175) == pytest.approx(
            0.06761234037828133, rel=1e-12
        )

    @given(positive, positive, positive, positive)
    @settings(max_examples=150, deadline=None)
    def test_composition(self, tau, a, b, c):
        two_hops = scale_tau(scale_tau(tau, a, b), b, c)
        direct = scale_tau(tau, a, c)
        assert two_hops == pytest.approx(direct, rel=1e-9)


class TestSolveWeightDecay:
    def test_flagship_inversion(self):
        # Inverting the published timescale recovers the published decay.
        wd = solve_weight_decay(0.1066, 9.8e6, 1.5e-4, 12.25e12)
        assert wd == pytest.approx(0.05003126954346467, rel=1e-12)
        assert abs(wd - 0.05) <= 0.001

    def test_doubling_tau_halves_decay(self):
        one = solve_weight_decay(0.1, 100, 0.01, 1e9)
        two = solve_weight_decay(0.2, 100, 0.01, 1e9)
        assert two == pytest.approx(one / 2)

    @given(positive, positive, positive, positive)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_with_tau_epoch(self, tau, batch, lr, tokens):
        wd = solve_weight_decay(tau, batch, lr, tokens)
        assert tau_epoch(batch, lr, wd, tokens) == pytest.approx(tau, rel=1e-9)


class TestAlignBatch:
    def test_scaling_law_batch_to_hardware(self):
        assert align_batch(1136, 400) == 1200

    def test_exact_multiple_unchanged(self):
        assert align_batch(1200, 400) == 1200

    def test_one_rounds_to_granularity(self):
        assert align_batch(1, 400) == 400

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=200, deadline=None)
    def test_minimal_aligned_value(self, x, g):
        aligned = align_batch(x, g)
        assert aligned >= x
        assert aligned % g == 0
        assert aligned - g < x  # minimality


class TestStepsFrom:
    def test_flagship_run(self):
        assert steps_from(12.25e12, 9.8e6) == 1_250_000

    def test_equal_inputs(self):
        assert steps_from(10, 10) == 1

    def test_floor(self):
        assert steps_from(19, 10) == 1

    def test_below_one_step_errors(self):
        with pytest.raises(ValueError):
            steps_from(9, 10)


def cosine_floor_schedule(total=1000, warmup=100):
    return Schedule(
        kind=ScheduleKind.COSINE_TO_FLOOR,
        peak=1.5e-4,
        floor=1.5e-6,
        total_steps=total,
        warmup_steps=warmup,
    )


class TestLrAt:
    def test_final_rate_hits_floor_exactly(self):
        schedule = cosine_floor_schedule()
        assert lr_at(1000, schedule) == 1.5e-6

    def test_peak_at_warmup_end(self):
        schedule = cosine_floor_schedule()
        assert lr_at(100, schedule) == 1.5e-4

    def test_warmup_is_linear_from_zero(self):
        schedule = cosine_floor_schedule()
        assert lr_at(0, schedule) == 0.0
        assert lr_at(50, schedule) == pytest.approx(1.5e-4 / 2)

    def test_cosine_midpoint_symmetry(self):
        schedule = cosine_floor_schedule(total=1100, warmup=100)
        midpoint = lr_at(600, schedule)  # halfway through decay
        assert midpoint == pytest.approx((1.5e-4 + 1.5e-6) / 2, rel=1e-12)

    def test_cosine_to_zero_ends_at_zero(self):
        schedule = Schedule(
            kind=ScheduleKind.COSINE_TO_ZERO, peak=1e-3, total_steps=500
        )
        assert lr_at(500, schedule) == 0.0

    def test_linear_to_zero(self):
        schedule = Schedule(
            kind=ScheduleKind.LINEAR_TO_ZERO, peak=1e-3, total_steps=1000
        )
        assert lr_at(500, schedule) == pytest.approx(5e-4)
        assert lr_at(1000, schedule) == 0.0

    def test_constant_holds_peak(self):
        schedule = Schedule(
            kind=ScheduleKind.CONSTANT, peak=6e-6, total_steps=100, warmup_steps=10
        )
        assert lr_at(10, schedule) == 6e-6
        assert lr_at(100, schedule) == 6e-6

    def test_out_of_range_errors(self):
        schedule = cosine_floor_schedule()
        with pytest.raises(ValueError):
            lr_at(-1, schedule)
        with pytest.raises(ValueError):
            lr_at(1001, schedule)

    @pytest.mark.parametrize(
        "kind", [ScheduleKind.COSINE_TO_ZERO, ScheduleKind.COSINE_TO_FLOOR, ScheduleKind.LINEAR_TO_ZERO, ScheduleKind.CONSTANT]
    )
    def test_continuous_at_junction_and_non_increasing(self, kind):
        schedule = Schedule(
            kind=kind, peak=1e-3, floor=1e-5 if kind is ScheduleKind.COSINE_TO_FLOOR else 0.0,
            total_steps=400, warmup_steps=40,
        )
        junction_gap = abs(lr_at(40, schedule) - lr_at(39, schedule))
        assert junction_gap <= 1e-3 / 40 + 1e-15
        rates = [lr_at(s, schedule) for s in range(40, 401)]
        assert all(a >= b - 1e-18 for a, b in zip(rates, rates[1:]))


class TestBuildPlan:
    def test_solves_decay_from_timescale(self):
        plan = build_plan(
            batch_tokens=9.8e6, lr=1.5e-4, total_tokens=12.25e12, tau_target=0.1066
        )
        assert plan.weight_decay == pytest.approx(0.05, abs=1e-3)
        assert plan.steps == 1_250_000
        assert plan.tau == pytest.approx(0.1066, rel=1e-12)

    def test_requires_exactly_one_of_wd_tau(self):
        with pytest.raises(ValueError):
            build_plan(1.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            build_plan(1.0, 1.0, 10.0, weight_decay=0.1, tau_target=0.1)

    def test_tokens_per_parameter(self):
        plan = build_plan(1e6, 1e-4, 1.4e12, weight_decay=0.1, params=7e10)
        assert plan.tokens_per_parameter == pytest.approx(20.0)

    @pytest.mark.parametrize("params", [0.0, -7e10, float("nan")])
    def test_params_must_be_positive(self, params):
        with pytest.raises(ValueError, match="params must be positive"):
            build_plan(1e6, 1e-4, 1.4e12, weight_decay=0.1, params=params)


def four_stage_plan():
    # Staged context extension: 8k -> 64k -> 128k -> 512k with RoPE bases
    # 0.5M -> 1M -> 10M -> 10M; cosine first, then constant 6e-6.
    return StagePlan(
        stages=(
            Stage(8192, 1769e9, 0.5e6, 1.5e-5, 6e-6, ScheduleKind.COSINE_TO_FLOOR, 1),
            Stage(65536, 590e9, 1e6, 6e-6, 6e-6, ScheduleKind.CONSTANT, 1),
            Stage(131072, 229e9, 10e6, 6e-6, 6e-6, ScheduleKind.CONSTANT, 2),
            Stage(524288, 131e9, 10e6, 6e-6, 6e-6, ScheduleKind.CONSTANT, 8),
        )
    )


class TestValidateStagePlan:
    def test_reference_four_stage_plan_is_clean(self):
        assert validate_stage_plan(four_stage_plan()) == []

    def test_decreasing_rope_base_flagged(self):
        stages = list(four_stage_plan().stages)
        stages[2] = Stage(131072, 229e9, 0.4e6, 6e-6, 6e-6, ScheduleKind.CONSTANT, 2)
        violations = validate_stage_plan(StagePlan(stages=tuple(stages)))
        assert any("rope_base" in v for v in violations)

    def test_single_stage_is_clean(self):
        plan = StagePlan(
            stages=(Stage(8192, 1e12, 5e5, 1e-5, 1e-6, ScheduleKind.COSINE_TO_ZERO),)
        )
        assert validate_stage_plan(plan) == []

    def test_non_constant_later_stage_flagged(self):
        stages = list(four_stage_plan().stages)
        stages[3] = Stage(524288, 131e9, 10e6, 6e-6, 6e-6, ScheduleKind.COSINE_TO_ZERO, 8)
        violations = validate_stage_plan(StagePlan(stages=tuple(stages)))
        assert any("constant" in v for v in violations)

    def test_unequal_lr_bounds_flagged(self):
        stages = list(four_stage_plan().stages)
        stages[1] = Stage(65536, 590e9, 1e6, 6e-6, 3e-6, ScheduleKind.CONSTANT, 1)
        violations = validate_stage_plan(StagePlan(stages=tuple(stages)))
        assert any("max_lr == min_lr" in v for v in violations)

    def test_non_increasing_context_flagged(self):
        stages = list(four_stage_plan().stages)
        stages[1] = Stage(8192, 590e9, 1e6, 6e-6, 6e-6, ScheduleKind.CONSTANT, 1)
        violations = validate_stage_plan(StagePlan(stages=tuple(stages)))
        assert any("context length" in v for v in violations)
