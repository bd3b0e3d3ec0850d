"""Monte-Carlo process variation on buffered interconnects.

Corners (:mod:`repro.tech.corners`) shift *every* device together —
the die-to-die component of variation.  Within-die variation perturbs
each repeater independently, and because a buffered line is a chain of
N stages, independent per-stage variations average out: the line's
delay sigma shrinks roughly as ``1/sqrt(N)`` relative to a single
stage.  Corner analysis therefore over-margins long repeated wires —
a well-known effect this module lets you measure with the golden
simulator in the loop.

Sampling model: each repeater instance draws its own multiplicative
perturbations of ``k_sat`` (drive strength) and ``vth`` from normal
distributions with configurable sigmas, using a seeded generator so
experiments are reproducible.  A draw is a *factor row* of shape
``(stages, 4)`` with columns :data:`N_DRIVE`, :data:`N_VTH`,
:data:`P_DRIVE`, :data:`P_VTH`; each engine evaluates a line as one
function of its factor rows.

Determinism contract: every Monte-Carlo draw owns an independent RNG
stream spawned from the root seed (``SeedSequence(seed).spawn``), so
the sample vector is bit-identical for any ``workers`` count — the
serial loop and a process pool walk the very same streams.

Two evaluation engines share that contract:

* ``"golden"`` (default) — the nonlinear transient simulator, one
  stage simulation per perturbed repeater; the reference.
* ``"model"`` — the closed-form proposed model, with variation mapped
  into an effective transition width through the alpha-power law
  (:func:`_effective_width`), evaluated by
  :func:`repro.kernels.variation.line_delay_batch`: every draw is one
  lane of a single stage chain (:func:`_closed_form_line_delay`).

Orthogonally to the engine, the ``estimator`` argument picks the
sampling strategy (:mod:`repro.signoff.estimators`): plain Monte
Carlo, model-steered importance sampling, scrambled-Sobol
quasi-Monte Carlo, or a model control variate — all returning the
same result type extended with a standard-error/ESS report, all
honoring the determinism contract above.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.arrays import clip
from repro.runtime import METRICS, span
from repro.signoff.extraction import ExtractedLine
from repro.signoff.golden import simulate_stages
from repro.tech.parameters import DeviceParameters, \
    TechnologyParameters

#: Default within-die sigmas (fraction of nominal).
DEFAULT_DRIVE_SIGMA = 0.05
DEFAULT_VTH_SIGMA = 0.03

#: Evaluation engines accepted by :func:`monte_carlo_line_delay`.
ENGINES = ("golden", "model")

#: Minimum gate overdrive under perturbation, as a fraction of vdd.
OVERDRIVE_FLOOR = 0.05

#: Factor-row column order, matching the per-stage draw order: nMOS
#: drive, nMOS vth, pMOS drive, pMOS vth.
N_DRIVE, N_VTH, P_DRIVE, P_VTH = range(4)


@dataclass(frozen=True)
class VariationModel:
    """Within-die variation magnitudes."""

    drive_sigma: float = DEFAULT_DRIVE_SIGMA
    vth_sigma: float = DEFAULT_VTH_SIGMA

    def __post_init__(self) -> None:
        if self.drive_sigma < 0 or self.vth_sigma < 0:
            raise ValueError("sigmas must be non-negative")

    def draw_factors(self, rng: np.random.Generator,
                     stages: int) -> np.ndarray:
        """One clipped ``(stages, 4)`` factor row (dimensionless),
        drawn stage by stage in column order."""
        from repro.signoff.estimators.engines import factor_matrix
        z = rng.standard_normal((1, 4 * stages))
        return factor_matrix(z, self, stages)[0]

    def perturb_technology(self, tech: TechnologyParameters,
                           rng: np.random.Generator
                           ) -> TechnologyParameters:
        """One device-instance view: both flavours independently drawn."""
        return _perturbed_technology(tech, self.draw_factors(rng, 1)[0])


@dataclass(frozen=True)
class VariationResult:
    """Monte-Carlo delay statistics of one buffered line."""

    samples: Tuple[float, ...]
    nominal_delay: float

    @property
    def mean(self) -> float:
        """Sample mean delay, in seconds."""
        return float(np.mean(self.samples))

    @property
    def sigma(self) -> float:
        """Sample standard deviation, in seconds."""
        return float(np.std(self.samples))

    @property
    def sigma_over_mean(self) -> float:
        """Relative spread sigma/mean, dimensionless."""
        return self.sigma / self.mean

    def three_sigma_delay(self) -> float:
        """The statistical 3-sigma timing bound, in seconds."""
        return self.mean + 3.0 * self.sigma

    def format(self) -> str:
        return (f"{len(self.samples)} samples: mean "
                f"{self.mean * 1e12:.1f} ps, sigma "
                f"{self.sigma * 1e12:.2f} ps "
                f"({self.sigma_over_mean * 100:.2f}%), 3-sigma "
                f"{self.three_sigma_delay() * 1e12:.1f} ps "
                f"(nominal {self.nominal_delay * 1e12:.1f} ps)")


def sample_line_delay(
    line: ExtractedLine,
    input_slew: float,
    variation: VariationModel,
    rng: np.random.Generator,
) -> float:
    """One Monte-Carlo draw (seconds): every repeater independently
    perturbed, the line driven with an ``input_slew``-second ramp.

    Draws the factor row first, then simulates it with
    :func:`_golden_line_delay`.
    """
    return _golden_line_delay(
        line, input_slew, variation.draw_factors(rng, len(line.stages)))


def _perturbed_technology(tech: TechnologyParameters,
                          row) -> TechnologyParameters:
    """``tech`` with one stage's four factors applied to its devices.

    The factors are applied as Python floats: the device parameters
    stay ``float``, and every channel-current evaluation of the
    perturbed devices runs on them rather than on numpy scalars.
    """
    return dataclasses.replace(
        tech,
        nmos=dataclasses.replace(
            tech.nmos, k_sat=tech.nmos.k_sat * float(row[N_DRIVE]),
            vth=tech.nmos.vth * float(row[N_VTH])),
        pmos=dataclasses.replace(
            tech.pmos, k_sat=tech.pmos.k_sat * float(row[P_DRIVE]),
            vth=tech.pmos.vth * float(row[P_VTH])),
    )


def _golden_line_delays(line: ExtractedLine, input_slew: float,
                        factors: np.ndarray
                        ) -> "List[Union[float, Exception]]":
    """Golden delay (s) of ``line`` under each ``(stages, 4)`` factor
    row of ``factors`` (shape ``(rows, stages, 4)``).

    Each stage is simulated with its own perturbed device set; slews
    propagate through the perturbed chain exactly as in the golden
    flow (no periodicity shortcut — every stage is unique here).
    Stage ``k`` of every row runs as one batch of lanes
    (:func:`repro.signoff.golden.simulate_stages`).  A row whose stage
    fails holds that exception and leaves the later batches.
    """
    rows = len(factors)
    totals = [0.0] * rows
    slews = [input_slew] * rows
    failures: "dict[int, Exception]" = {}
    live = list(range(rows))
    rising = True
    for index, stage in enumerate(line.stages):
        if not live:
            break
        timings = simulate_stages(
            [_perturbed_technology(line.tech, factors[row, index])
             for row in live],
            stage.driver_size,
            stage.wire.resistance,
            stage.wire.total_cap(line.config.delay_miller),
            line.stage_load_cap(index),
            [slews[row] for row in live],
            rising,
        )
        for row, timing in zip(live, timings):
            if isinstance(timing, Exception):
                failures[row] = timing
            else:
                totals[row] += timing.delay
                slews[row] = timing.output_slew
        live = [row for row in live if row not in failures]
        rising = not rising
    return [failures.get(row, totals[row]) for row in range(rows)]


def _golden_line_delay(line: ExtractedLine, input_slew: float,
                       factors: np.ndarray) -> float:
    """Golden delay (s) of ``line`` under one ``(stages, 4)`` factor
    row: a one-row :func:`_golden_line_delays`."""
    (delay,) = _golden_line_delays(line, input_slew,
                                   np.asarray(factors)[np.newaxis])
    if isinstance(delay, Exception):
        raise delay
    return delay


def _clip_drive(factor):
    """Clip drive-strength factors (float or array) to >= 0.5."""
    return clip(factor, 0.5)


def _clip_vth(factor):
    """Clip threshold-voltage factors (float or array) into
    [0.5, 1.5]."""
    return clip(factor, 0.5, 1.5)


def _effective_width(device: DeviceParameters, width, vdd: float,
                     drive_factor, vth_factor):
    """Effective transition width (m) of a perturbed device.

    Maps the multiplicative (drive, vth) perturbations into the
    closed-form model's width argument via the alpha-power law: drive
    current is linear in width, and the vth shift scales the gate
    overdrive (floored at ``OVERDRIVE_FLOOR * vdd``).  Widths and
    factors may be floats or arrays.  ``**`` uses NumPy's vectorized
    pow on arrays and the C library's on floats, which can differ in
    the last ulp; callers keep one convention per engine.
    """
    overdrive = clip(vdd - device.vth * vth_factor,
                     OVERDRIVE_FLOOR * vdd)
    nominal_overdrive = vdd - device.vth
    return (width * drive_factor
            * (overdrive / nominal_overdrive) ** device.alpha)


def _uniform_geometry(line: ExtractedLine) -> "Tuple[int, float]":
    """(num_repeaters, repeater_size) of a uniformly sized line.

    The closed-form engine evaluates the model's uniform-line formula,
    so every stage must share one driver size.
    """
    sizes = {stage.driver_size for stage in line.stages}
    if len(sizes) != 1:
        raise ValueError(
            "the model engine needs a uniformly sized line, got "
            f"driver sizes {sorted(sizes)}")
    return line.num_repeaters, line.stages[0].driver_size


def _closed_form_line_delay(model, length, count: int, size,
                            receiver_cap, input_slew: float,
                            factors: np.ndarray):
    """Closed-form line delay (s) under per-stage perturbation factors.

    The model's own stage chain with each stage's transition width
    mapped through :func:`_effective_width`.  ``factors`` has shape
    ``(..., count, 4)``: a ``(samples, count, 4)`` matrix gives one
    lane per sample, which is how the ``"model"`` engine evaluates
    draws (a single draw goes as a one-row matrix, so every draw takes
    the vectorized pow).  ``length``, ``size`` and ``receiver_cap`` may
    also be lane arrays.
    """
    tech = model.tech
    wire = model.wire_coefficients
    segment = length / count
    input_cap = model.repeater_model().input_capacitance(size)
    wn, wp = tech.inverter_widths(size)
    total = 0.0
    slew = input_slew
    rising = True
    inverting = model.calibration.kind.inverting
    for stage in range(count):
        next_cap = input_cap if stage + 1 < count else receiver_cap
        if rising:
            wr = _effective_width(tech.pmos, wp, tech.vdd,
                                  factors[..., stage, P_DRIVE],
                                  factors[..., stage, P_VTH])
        else:
            wr = _effective_width(tech.nmos, wn, tech.vdd,
                                  factors[..., stage, N_DRIVE],
                                  factors[..., stage, N_VTH])
        delay, slew = model.stage_delay(wire, wr, slew, segment,
                                        next_cap, rising)
        total = total + delay
        if inverting:
            rising = not rising
    return total


def _require_closed_form_model(model) -> None:
    from repro.kernels.line import array_path
    if model is None:
        raise ValueError(
            "the 'model' engine and the model-backed "
            "estimators (importance sampling, control variates) need "
            "the closed-form model; pass "
            "model=BufferedInterconnectModel(...)")
    if not array_path(model):
        raise TypeError(
            "the model engine and estimators evaluate the "
            "plain BufferedInterconnectModel formula; got "
            f"{type(model).__name__}")


#: Sample-doubling rounds a ``target_ci`` request may spend before
#: returning the best interval reached so far.
MAX_TARGET_ROUNDS = 6


def monte_carlo_line_delay(
    line: ExtractedLine,
    input_slew: float,
    samples: int = 30,
    variation: Optional[VariationModel] = None,
    seed: int = 2010,
    workers: Optional[int] = None,
    engine: str = "golden",
    model=None,
    estimator: str = "plain",
    critical_delay: Optional[float] = None,
    target_ci: Optional[float] = None,
    lanes: int = 8,
    beta: Optional[float] = None,
    prepass_samples: int = 4096,
) -> VariationResult:
    """Monte-Carlo delay distribution of a buffered line driven with
    a ramp of ``input_slew`` seconds.

    Deterministic for a given ``seed`` regardless of ``workers``:
    stream 0 of the spawned root sequence stands for the nominal delay
    (the all-ones factor row, evaluated by the same flow) and stream
    ``i`` draws row ``i``, whether it runs here or in a pool.

    ``engine`` selects the evaluator (see the module docstring);
    ``"model"`` requires the closed-form ``model`` and a uniformly
    sized ``line``.

    ``estimator`` selects the sampling strategy (see
    :mod:`repro.signoff.estimators`): ``"plain"`` reproduces the
    historical flow bit-for-bit; ``"importance"``/``"importance-sn"``
    shift the draws toward delays beyond ``critical_delay`` seconds
    (default: the model's mean + 3 sigma) with likelihood-ratio
    reweighting; ``"qmc"`` spreads ``lanes`` scrambled-Sobol lanes;
    ``"control-variate"`` corrects the mean by the model's known
    expectation with coefficient ``beta`` (``None`` = estimated).
    The model-backed estimators spend ``prepass_samples`` cheap
    model draws and therefore need ``model`` even on the golden
    engine.  The result is a :class:`VariationResult` extended with a
    standard-error / effective-sample-size report.

    ``target_ci`` (seconds) asks for a 95% confidence interval on the
    mean no wider than ``2 * target_ci``: the run doubles ``samples``
    (up to ``MAX_TARGET_ROUNDS`` times) until the half-width reaches
    the target.  Doubling re-spawns a stream prefix, so the escalation
    is as deterministic as a single run.

    Fault tolerance (the golden engine; the model engine is one
    in-process call): because every draw owns its stream, a worker
    that dies mid-sweep is survived — ``parallel_map`` re-runs the
    unfinished draws and the distribution is bit-identical to an
    undisturbed run (``faults.worker_crash`` counts the recovery). A
    draw that *fails* raises :class:`repro.runtime.TaskError` naming
    the draw's task index under the ``variation.*`` labels above.
    """
    # Validate the requested names before anything touches the line
    # geometry or the model: a typo'd estimator on a non-uniform line
    # must name the typo, not the geometry.
    from repro.signoff.estimators import (
        ESTIMATORS,
        EstimationRequest,
        MODEL_BACKED,
        get_estimator,
    )
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of "
                         f"{ENGINES}")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected "
                         f"one of {ESTIMATORS}")
    if samples < 2:
        raise ValueError("need at least two samples")
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    if prepass_samples < 2:
        raise ValueError("prepass_samples must be >= 2")
    if target_ci is not None and target_ci <= 0:
        raise ValueError("target_ci must be positive")
    if engine != "golden" or estimator in MODEL_BACKED:
        _require_closed_form_model(model)
    if variation is None:
        variation = VariationModel()

    run = get_estimator(estimator)
    request = EstimationRequest(
        line=line, input_slew=input_slew, samples=samples,
        variation=variation, seed=seed, workers=workers,
        engine=engine, model=model, critical_delay=critical_delay,
        lanes=lanes, beta=beta, prepass_samples=prepass_samples)
    with span("signoff.monte_carlo", samples=samples, seed=seed,
              stages=len(line.stages), engine=engine,
              estimator=estimator) as batch:
        with METRICS.observed("mc.batch_seconds"):
            result = run(request)
        from repro.signoff.estimators import CI_Z
        while (target_ci is not None
               and request.samples < samples * 2 ** MAX_TARGET_ROUNDS
               and CI_Z * result.standard_error > target_ci):
            request = dataclasses.replace(request,
                                          samples=request.samples * 2)
            METRICS.count("mc.target_rounds")
            with METRICS.observed("mc.batch_seconds"):
                result = run(request)
        METRICS.count(f"mc.estimator.{estimator}")
        report = result.report
        batch.annotate(nominal_delay=result.nominal_delay)
        if report is not None:
            METRICS.count("mc.ess", int(round(report.ess)))
            METRICS.count("mc.golden_evals", report.golden_evals)
            METRICS.count("mc.model_evals", report.model_evals)
            batch.annotate(standard_error=report.standard_error,
                           ess=report.ess)
    return result
