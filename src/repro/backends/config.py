"""One resilience/observability configuration for every entry point.

Six knobs shape a study's backends: fault plan, fault rate, fault
seed, retry budget, trace path and metrics path. :class:`StackConfig`
is their single home: one frozen dataclass, one ``add_stack_args`` /
``from_args`` pair for the ``python -m repro`` subcommands (flags read
only argv), and builders that turn the knobs into the live objects
(:class:`~repro.faults.plan.FaultPlan`,
:class:`~repro.retry.RetryPolicy`, :class:`~repro.obs.trace.Tracer`).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

from ..faults.plan import FaultPlan
from ..obs.trace import Tracer
from ..retry import DEFAULT_MASKING_POLICY, RetryPolicy

__all__ = ["StackConfig", "PLAN_FACTORIES"]

#: The named transient-fault plans an entry point can request.
PLAN_FACTORIES = {
    "net": FaultPlan.transient_net,
    "archive": FaultPlan.transient_archive,
    "everywhere": FaultPlan.transient_everywhere,
}


@dataclass(frozen=True)
class StackConfig:
    """The six cross-cutting knobs shared by every entry point.

    A rate of 0 means no injection and ``retries=0`` reproduces the
    paper's no-retry clients exactly, so the default config is the
    clean, silent stack — entry points that never expose the flags
    behave as before.
    """

    fault_plan: str = "everywhere"
    fault_rate: float = 0.0
    fault_seed: int = 0
    retries: int = 0
    trace: Path | None = None
    metrics_json: Path | None = None

    # -- construction ------------------------------------------------------------

    @staticmethod
    def add_stack_args(parser: argparse.ArgumentParser) -> None:
        """Register the shared flags on ``parser``."""
        defaults = StackConfig()
        parser.add_argument(
            "--fault-plan",
            choices=sorted(PLAN_FACTORIES),
            default=defaults.fault_plan,
            help="which transient fault channels to activate "
            "(with --fault-rate)",
        )
        parser.add_argument(
            "--fault-rate",
            type=float,
            default=defaults.fault_rate,
            help="per-key fault probability; 0 disables injection",
        )
        parser.add_argument(
            "--fault-seed",
            type=int,
            default=defaults.fault_seed,
            help="fault plan seed (replayable chaos)",
        )
        parser.add_argument(
            "--retries",
            type=int,
            default=defaults.retries,
            help="retry budget per operation; 0 reproduces the paper's "
            "no-retry clients exactly",
        )
        parser.add_argument(
            "--trace",
            type=Path,
            default=None,
            metavar="PATH",
            help="append the run's span tree as JSONL "
            "(see scripts/trace_report.py)",
        )
        parser.add_argument(
            "--metrics-json",
            type=Path,
            default=None,
            metavar="PATH",
            help="dump the run's metrics registry as JSON",
        )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "StackConfig":
        """The config an ``add_stack_args`` parser produced."""
        return cls(
            fault_plan=args.fault_plan,
            fault_rate=args.fault_rate,
            fault_seed=args.fault_seed,
            retries=args.retries,
            trace=args.trace,
            metrics_json=args.metrics_json,
        )

    # -- builders ----------------------------------------------------------------

    def build_faults(self) -> FaultPlan | None:
        """The configured fault plan, or ``None`` when the rate is 0."""
        if self.fault_rate <= 0.0:
            return None
        return PLAN_FACTORIES[self.fault_plan](
            rate=self.fault_rate, seed=self.fault_seed
        )

    def build_retry_policy(self) -> RetryPolicy | None:
        """The configured retry policy, or ``None`` for the no-retry bot.

        A non-zero budget inherits the masking policy's backoff shape
        (capped exponential) with the requested depth.
        """
        if self.retries <= 0:
            return None
        return RetryPolicy(
            max_retries=self.retries,
            base_delay_ms=DEFAULT_MASKING_POLICY.base_delay_ms,
            multiplier=DEFAULT_MASKING_POLICY.multiplier,
            max_delay_ms=DEFAULT_MASKING_POLICY.max_delay_ms,
            budget_ms=DEFAULT_MASKING_POLICY.budget_ms,
        )

    def build_tracer(self) -> Tracer | None:
        """A tracer when a trace path was requested, else ``None``."""
        return Tracer() if self.trace is not None else None
