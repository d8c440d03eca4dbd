"""Hyperparameter and schedule math for large pre-training runs.

Centers on the AdamW averaging timescale in epoch units,
``tau = batch_tokens / (lr * weight_decay * total_tokens)``: the knobs can
be tuned jointly by fixing a target timescale and solving for the weight
decay, and a timescale tuned at one tokens-per-parameter budget transfers
to another via the inverse-square-root law.  Also covers batch-size
alignment to hardware granularity, step counting, warmup + decay learning
rate schedules, and mid-training stage-plan validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "RecipePlan",
    "Schedule",
    "ScheduleKind",
    "Stage",
    "StagePlan",
    "align_batch",
    "build_plan",
    "lr_at",
    "scale_tau",
    "solve_weight_decay",
    "steps_from",
    "tau_epoch",
    "validate_stage_plan",
]


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def tau_epoch(
    batch_tokens: float, lr: float, weight_decay: float, total_tokens: float
) -> float:
    """AdamW averaging timescale in epochs: B / (lr * wd * total_tokens).

    Approximates the effective number of epochs over which AdamW
    exponentially averages parameter updates.
    """
    _require_positive(
        batch_tokens=batch_tokens,
        lr=lr,
        weight_decay=weight_decay,
        total_tokens=total_tokens,
    )
    return batch_tokens / (lr * weight_decay * total_tokens)


def scale_tau(tau_ref: float, tpp_ref: float, tpp_target: float) -> float:
    """Transfer a tuned timescale across tokens-per-parameter budgets.

    The optimal timescale scales as 1/sqrt(TPP), so
    tau_target = tau_ref * sqrt(tpp_ref / tpp_target).
    """
    _require_positive(tau_ref=tau_ref, tpp_ref=tpp_ref, tpp_target=tpp_target)
    return tau_ref * math.sqrt(tpp_ref / tpp_target)


def solve_weight_decay(
    tau_target: float, batch_tokens: float, lr: float, total_tokens: float
) -> float:
    """Weight decay achieving a target timescale; inverse of tau_epoch."""
    _require_positive(
        tau_target=tau_target,
        batch_tokens=batch_tokens,
        lr=lr,
        total_tokens=total_tokens,
    )
    return batch_tokens / (lr * tau_target * total_tokens)


def align_batch(theoretical_sequences: int, granularity: int) -> int:
    """Smallest multiple of ``granularity`` >= the theoretical batch size.

    Rounding is always upward so sample efficiency never drops below the
    scaling-law suggestion.
    """
    if theoretical_sequences < 1 or granularity < 1:
        raise ValueError("theoretical_sequences and granularity must be >= 1")
    return granularity * math.ceil(theoretical_sequences / granularity)


def steps_from(total_tokens: float, batch_tokens: float) -> int:
    """Training steps: floor(total_tokens / batch_tokens)."""
    _require_positive(total_tokens=total_tokens, batch_tokens=batch_tokens)
    if total_tokens < batch_tokens:
        raise ValueError("total_tokens must be >= batch_tokens")
    if isinstance(total_tokens, int) and isinstance(batch_tokens, int):
        return total_tokens // batch_tokens
    return math.floor(total_tokens / batch_tokens)


class ScheduleKind(str, Enum):
    COSINE_TO_ZERO = "cosine_to_zero"
    COSINE_TO_FLOOR = "cosine_to_floor"
    LINEAR_TO_ZERO = "linear_to_zero"
    CONSTANT = "constant"


@dataclass(frozen=True)
class Schedule:
    """Linear warmup from zero to ``peak``, then a decay shape to the end."""

    kind: ScheduleKind
    peak: float
    total_steps: int
    warmup_steps: int = 0
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.peak <= 0:
            raise ValueError("peak must be positive")
        if not 0 <= self.floor <= self.peak:
            raise ValueError("floor must satisfy 0 <= floor <= peak")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError("warmup_steps must be within [0, total_steps]")


def lr_at(step: int, schedule: Schedule) -> float:
    """Learning rate at a step in [0, total_steps].

    Warmup is linear from 0; cosine decays end exactly on the floor (or
    zero), linear decays to zero, constant holds the peak.  The curve is
    continuous at the warmup/decay junction and non-increasing afterwards.
    """
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(
            f"step {step} outside schedule range [0, {schedule.total_steps}]"
        )
    if step < schedule.warmup_steps:
        return schedule.peak * step / schedule.warmup_steps

    if schedule.kind is ScheduleKind.CONSTANT:
        return schedule.peak

    decay_steps = schedule.total_steps - schedule.warmup_steps
    if decay_steps == 0:
        return schedule.peak
    progress = (step - schedule.warmup_steps) / decay_steps

    if schedule.kind is ScheduleKind.LINEAR_TO_ZERO:
        return schedule.peak * (1 - progress)
    floor = schedule.floor if schedule.kind is ScheduleKind.COSINE_TO_FLOOR else 0.0
    return floor + (schedule.peak - floor) * (1 + math.cos(math.pi * progress)) / 2


@dataclass(frozen=True)
class RecipePlan:
    """The resolved hyperparameter bundle for one run."""

    batch_tokens: float
    lr: float
    weight_decay: float
    total_tokens: float
    steps: int
    tau: float
    params: float | None = None

    @property
    def tokens_per_parameter(self) -> float | None:
        if self.params is None:
            return None
        return self.total_tokens / self.params


def build_plan(
    batch_tokens: float,
    lr: float,
    total_tokens: float,
    weight_decay: float | None = None,
    tau_target: float | None = None,
    params: float | None = None,
) -> RecipePlan:
    """Resolve a plan from either a weight decay or a target timescale."""
    if (weight_decay is None) == (tau_target is None):
        raise ValueError("give exactly one of weight_decay or tau_target")
    if params is not None:
        _require_positive(params=params)
    if weight_decay is None:
        weight_decay = solve_weight_decay(tau_target, batch_tokens, lr, total_tokens)
    tau = tau_epoch(batch_tokens, lr, weight_decay, total_tokens)
    return RecipePlan(
        batch_tokens=batch_tokens,
        lr=lr,
        weight_decay=weight_decay,
        total_tokens=total_tokens,
        steps=steps_from(total_tokens, batch_tokens),
        tau=tau,
        params=params,
    )


@dataclass(frozen=True)
class Stage:
    """One mid-training stage row."""

    context_length: int
    tokens: float
    rope_base: float
    max_lr: float
    min_lr: float
    decay: ScheduleKind
    cp_size: int = 1


@dataclass(frozen=True)
class StagePlan:
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("stage plan needs at least one stage")


def validate_stage_plan(plan: StagePlan) -> list[str]:
    """Violations of the staged-training constraints (empty list = valid).

    Context lengths must strictly increase, RoPE base frequencies must
    never decrease, and every stage after the first must hold a constant
    learning rate (max_lr == min_lr, constant decay).
    """
    violations = []
    stages = plan.stages
    for i in range(1, len(stages)):
        prev, cur = stages[i - 1], stages[i]
        if cur.context_length <= prev.context_length:
            violations.append(
                f"stage {i}: context length {cur.context_length} does not "
                f"increase over {prev.context_length}"
            )
        if cur.rope_base < prev.rope_base:
            violations.append(
                f"stage {i}: rope_base {cur.rope_base} decreases from "
                f"{prev.rope_base}"
            )
        if cur.decay is not ScheduleKind.CONSTANT:
            violations.append(f"stage {i}: decay must be constant, got {cur.decay.value}")
        if cur.max_lr != cur.min_lr:
            violations.append(
                f"stage {i}: constant stage needs max_lr == min_lr, got "
                f"{cur.max_lr} != {cur.min_lr}"
            )
    return violations
