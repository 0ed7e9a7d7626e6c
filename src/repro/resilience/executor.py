"""The resilient stage executor.

:class:`ResilientExecutor` runs a declarative list of
:class:`StageSpec` over a mutable context dict — the pipeline's
intermediate state — and owns everything the stages should not know
about:

* **Fallbacks.**  Each stage may declare an ordered ladder of fallback
  implementations (columnar kernel → python reference → physical-time
  ordering).  When a primary path raises, the pre-stage context is
  rebuilt by replay (below) and the next path runs; the stage's outcome
  records which path produced the result and why the others failed.
* **Graceful degradation.**  A stage marked ``degradable`` whose every
  path failed is skipped: the pre-stage context is rebuilt, the outcome
  says so, and the run continues to a partial result instead of losing
  the completed stages.
* **Resource guards.**  Each attempt runs under a
  :class:`~repro.resilience.guard.ResourceGuard` watch; a deadline or
  RSS breach soft-aborts the attempt (a breach on an attempt that
  completed anyway is recorded on the outcome without discarding it).
* **Checkpoints.**  With a ``checkpoint_dir``, the context is saved
  after every *successfully* completed stage (atomic replace, see
  :mod:`repro.resilience.checkpoint`); a later run with the same key
  resumes after the last completed stage, re-emitting the checkpointed
  outcomes (original status, path, and timing preserved) with their
  ``resumed`` flag set.  A skipped stage is never checkpointed — once a
  stage degrades to skipped, checkpointing stops for the rest of the
  run, so a resume always re-attempts the skipped work instead of
  presenting a partial result as complete.  A checkpoint whose outcomes
  the current ``on_error`` mode could not have produced (e.g. a
  fallback-path result resumed under ``"raise"``), or whose stage list
  is not a prefix of this run's, is refused and the run starts fresh.

Error policy (``on_error``): ``"raise"`` (default) propagates the first
stage failure unchanged — bit-for-bit the historical behavior;
``"fallback"`` walks the fallback ladder and raises only when every
path failed; ``"degrade"`` additionally skips degradable stages so the
run always produces its best partial result.

Fallback costs nothing until a stage fails: the executor keeps no copy
of the intermediate state, only the path function each completed stage
ran.  To rebuild a failed stage's input it restores the seed context
the run started from (on a resumed run, a fresh copy of the
checkpoint's) and replays those functions silently — no observer, no
warnings, no resource guard.  Stages must therefore be deterministic
and may rebind, but never mutate in place, the seed's values.
"""

from __future__ import annotations

import threading
import time as _time
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.guard import ResourceGuard, StageBreachError
from repro.resilience.report import (
    STATUS_FALLBACK,
    STATUS_OK,
    STATUS_SKIPPED,
    DegradationReport,
    StageOutcome,
)

#: Outcome statuses each on_error mode is able to produce.  A checkpoint
#: containing a status outside the current mode's set was written under
#: a laxer policy and must not be resumed into the stricter run.
_MODE_STATUSES = {
    "raise": frozenset({STATUS_OK}),
    "fallback": frozenset({STATUS_OK, STATUS_FALLBACK}),
    "degrade": frozenset({STATUS_OK, STATUS_FALLBACK}),
}

ON_ERROR_MODES = ("raise", "fallback", "degrade")

StageFn = Callable[[dict], None]

#: Serializes silent replays: ``warnings.catch_warnings`` is process-wide.
_REPLAY_LOCK = threading.Lock()


@dataclass
class StageSpec:
    """One stage of the pipeline graph.

    ``run`` mutates the context dict in place; ``inputs``/``outputs``
    document (and ``requires`` enforces) the context keys the stage
    consumes and produces.  ``fallbacks`` is an ordered ladder of
    ``(name, fn)`` alternatives tried when an earlier path raises.
    """

    name: str
    run: StageFn
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    fallbacks: Sequence[Tuple[str, StageFn]] = ()
    #: May the run continue (with a partial result) if every path fails?
    degradable: bool = False
    #: Optional predicate on the seed context deciding whether the stage
    #: runs at all for these options (a disabled stage has no outcome).
    enabled: Optional[Callable[[dict], bool]] = None
    #: Context keys that must exist before the stage can run; a missing
    #: key (an upstream stage was skipped) skips this stage too.
    requires: Tuple[str, ...] = ()


class StageError(RuntimeError):
    """Raised when a non-degradable stage failed on every declared path."""

    def __init__(self, stage: str, errors: List[str]) -> None:
        self.stage = stage
        self.errors = errors
        super().__init__(
            f"stage {stage!r} failed on every path: " + "; ".join(errors)
        )


class ResilientExecutor:
    """Run a stage list over a context dict with the declared policies."""

    def __init__(
        self,
        stages: Sequence[StageSpec],
        *,
        on_error: str = "raise",
        guard: Optional[ResourceGuard] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_key: str = "",
        observer: Optional[Callable[[str, float, dict], None]] = None,
    ) -> None:
        if on_error not in ON_ERROR_MODES:
            raise ValueError(f"unknown on_error mode {on_error!r}")
        self.stages = list(stages)
        self.on_error = on_error
        self.guard = guard if guard is not None else ResourceGuard()
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_key = checkpoint_key
        self.observer = observer

    # ------------------------------------------------------------------
    def _attempts(self, spec: StageSpec) -> List[Tuple[str, StageFn]]:
        attempts: List[Tuple[str, StageFn]] = [("primary", spec.run)]
        if self.on_error != "raise":
            attempts.extend(spec.fallbacks)
        return attempts

    def _run_stage(self, spec: StageSpec, ctx: dict,
                   rebuild: Callable[[], None],
                   ) -> Tuple[StageOutcome, Optional[StageFn]]:
        """Run ``spec``'s ladder; returns (outcome, winning path or None)."""
        errors: List[str] = []
        last_exc: Optional[BaseException] = None
        for index, (path, fn) in enumerate(self._attempts(spec)):
            if index > 0:
                # The failed path may have half-mutated the state; start
                # the fallback from the rebuilt pre-stage context.
                rebuild()
            self.guard.breach = None
            t0 = _time.perf_counter()  # repro-lint: disable=DET001 reason=per-stage timing telemetry for the degradation report
            try:
                with self.guard.watch(spec.name):
                    fn(ctx)
                seconds = _time.perf_counter() - t0  # repro-lint: disable=DET001 reason=per-stage timing telemetry for the degradation report
                if self.observer is not None:
                    # Hooks and strict verification run per attempt: a
                    # fallback result is re-checked, not waved through.
                    self.observer(spec.name, seconds, ctx)
            except Exception as exc:
                last_exc = exc
                errors.append(f"{path}: {type(exc).__name__}: {exc}")
                if self.on_error == "raise":
                    raise
                continue
            breach = self.guard.breach
            return StageOutcome(
                spec.name,
                status=STATUS_OK if index == 0 else STATUS_FALLBACK,
                path=path,
                reason="; ".join(errors),
                seconds=seconds,
                breach=breach[1] if breach is not None else "",
            ), fn
        if spec.degradable and self.on_error == "degrade":
            rebuild()
            return StageOutcome(spec.name, status=STATUS_SKIPPED, path="",
                                reason="; ".join(errors)), None
        if isinstance(last_exc, StageBreachError) or len(errors) > 1:
            raise StageError(spec.name, errors) from last_exc
        assert last_exc is not None  # the attempt loop always runs once
        raise last_exc  # single ordinary failure: propagate it unchanged

    # ------------------------------------------------------------------
    def run(self, ctx: dict) -> DegradationReport:
        """Execute the stages over ``ctx``; returns the outcome report."""
        report = DegradationReport()
        stages = [s for s in self.stages
                  if s.enabled is None or s.enabled(ctx)]
        seed = dict(ctx)
        base: Callable[[], dict] = seed.copy
        completed: List[str] = []
        replay: List[StageFn] = []  # the paths that ran since ``base``
        ckpt_dir = self.checkpoint_dir
        checkpointing = ckpt_dir is not None
        if ckpt_dir is not None:
            loaded = load_checkpoint(ckpt_dir, self.checkpoint_key)
            # Refused whole (written under a laxer on_error mode, or for
            # a diverged stage list): no part of it is trusted.
            if loaded is not None and loaded.completed == [
                s.name for s in stages[:len(loaded.completed)]
            ] and all(d.get("status") in _MODE_STATUSES[self.on_error]
                      for d in loaded.outcomes):
                ctx.clear()
                ctx.update(loaded.ctx)
                base = loaded.context
                for data in loaded.outcomes:
                    outcome = StageOutcome.from_dict(data)
                    outcome.resumed = True
                    report.outcomes.append(outcome)
                completed = list(loaded.completed)

        def rebuild() -> None:
            ctx.clear()
            ctx.update(base())
            with _REPLAY_LOCK, warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for fn in replay:
                    fn(ctx)

        for spec in stages[len(completed):]:
            missing = [k for k in spec.requires if k not in ctx]
            if missing:
                report.outcomes.append(StageOutcome(
                    spec.name, status=STATUS_SKIPPED, path="",
                    reason="missing upstream result(s): "
                           + ", ".join(missing),
                ))
                # A skipped stage is not completed work: freeze the
                # checkpoint at the last clean prefix so a resume
                # re-attempts it rather than resuming past the hole.
                checkpointing = False
                continue
            outcome, fn = self._run_stage(spec, ctx, rebuild)
            report.outcomes.append(outcome)
            if fn is None:
                checkpointing = False
                continue
            replay.append(fn)
            completed.append(spec.name)
            if checkpointing and ckpt_dir is not None:
                save_checkpoint(
                    ckpt_dir, self.checkpoint_key, completed,
                    [o.to_dict() for o in report.outcomes], ctx,
                )
        return report
