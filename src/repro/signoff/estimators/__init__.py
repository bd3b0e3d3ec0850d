"""Pluggable Monte-Carlo estimators for within-die variation.

The classic flow burns one engine evaluation per draw; resolving a
3-sigma tail yield that way needs 10^5-10^6 golden simulations.  This
package supplies drop-in estimators that buy the same confidence
interval for far fewer golden evaluations, following the ISLE playbook
(importance sampling with a cheap proxy steering the draws) with the
closed-form model of PR 4 playing the stochastic-logical-effort role:

* ``"plain"`` — the historical unweighted estimator (the baseline);
* ``"importance"`` / ``"importance-sn"`` — model-guided mean shift
  with likelihood-ratio reweighting (:mod:`.importance`);
* ``"qmc"`` — scrambled-Sobol lanes through the batched model lane
  (:mod:`.qmc`);
* ``"control-variate"`` — golden + model on common random numbers,
  corrected by the model's known expectation (:mod:`.control`).

All estimators honor the determinism contract of
:mod:`repro.signoff.variation`: per-draw task streams spawned from the
root seed, auxiliary streams from labeled families
(:func:`repro.runtime.spawn_labeled_sequences`), bit-identical results
for any ``workers`` count and across worker crashes.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.signoff.estimators import control, importance, plain, qmc
from repro.signoff.estimators.base import (
    CI_Z,
    EstimatedVariationResult,
    EstimationRequest,
    EstimatorReport,
    TailEstimate,
)

#: Estimator names accepted by :func:`monte_carlo_line_delay`.
ESTIMATORS = ("plain", "importance", "importance-sn", "qmc",
              "control-variate")

#: Estimators that need the closed-form model even on the golden
#: engine (for the steering pre-pass / the control variate).
MODEL_BACKED = ("importance", "importance-sn", "control-variate")

_RUNNERS: Dict[str, Callable[[EstimationRequest],
                             EstimatedVariationResult]] = {
    "plain": plain.run,
    "importance": importance.run,
    "importance-sn": importance.run_self_normalized,
    "qmc": qmc.run,
    "control-variate": control.run,
}


def get_estimator(name: str) -> Callable[[EstimationRequest],
                                         EstimatedVariationResult]:
    """The runner for an estimator name (raises on unknown names)."""
    try:
        return _RUNNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; expected one of "
            f"{ESTIMATORS}") from None


__all__ = [
    "CI_Z",
    "ESTIMATORS",
    "MODEL_BACKED",
    "EstimatedVariationResult",
    "EstimationRequest",
    "EstimatorReport",
    "TailEstimate",
    "get_estimator",
]
