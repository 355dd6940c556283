"""Sampled verification of incremental re-plans against full re-plans.

The incremental engine is exact: it re-searches every net whose cached
maze search read a changed tile, in walk order (the read-box rule of
:mod:`repro.service.incremental`), and replays the rest. Verification
guards against bugs in that argument or its code: re-plan a sampled
fraction of jobs from scratch and compare buffering-kernel signatures.
A mismatch is logged through ``obs`` and the scheduler escalates by
adopting the full plan as the new baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import NULL_TRACER
from repro.service.engine import PlanState, full_plan


@dataclass
class VerificationResult:
    """Outcome of one incremental-vs-full comparison."""

    matched: bool
    incremental_signature: str
    full_signature: str
    reference: PlanState

    def as_dict(self) -> dict:
        return {
            "matched": self.matched,
            "incremental_signature": self.incremental_signature,
            "full_signature": self.full_signature,
        }


def verify_state(state: PlanState, tracer=None) -> VerificationResult:
    """Re-plan ``state.scenario`` from scratch and compare signatures.

    The scenario fully determines the reference plan, so equality of the
    buffering signatures (specs + ``b(v)`` grid + failed nets) means the
    incremental path reproduced the full pipeline bit for bit.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("service.verify"):
        reference = full_plan(state.scenario, state.config)
    return VerificationResult(
        matched=reference.signature == state.signature,
        incremental_signature=state.signature,
        full_signature=reference.signature,
        reference=reference,
    )
