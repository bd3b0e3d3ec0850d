"""Transient analysis: MNA assembly + Newton iteration over lanes.

The solver uses the standard companion-model formulation: at each time
step the backward-Euler discretized KCL system

.. code-block:: text

    C (v1 - v0) / dt  +  G v1  +  i_mos(v1)  =  i_src(t1)

is solved for the unknown node voltages ``v1`` by Newton iteration with
the MOSFETs linearized around the current iterate.  Voltage-source nodes
are eliminated (their voltages are known functions of time), so the
linear system only spans the genuinely unknown nodes — small and dense,
which keeps the inner solve a single ``numpy.linalg.solve`` call.

Backward Euler is the one integrator: it is L-stable, so the stiff RC
ladders of extracted interconnect cannot ring numerically, at the cost
of a little extra numerical damping that the step-size default keeps
negligible.

Engine structure.  Each circuit is compiled once into a stamp plan
(:class:`_Assembly`): its constant ``G``/``C`` matrices, each MOSFET's
terminals and resolved smoothing parameter, and the ordered device
terms that land in unknown rows and (row, column) entries.  One Newton
loop (:func:`_newton`) then runs over a *lane* axis: every lane
evaluates its MOSFETs with the scalar device equations of
:mod:`repro.spice.mosfet`, while the matrix-vector products and the
linear solves are stacked (``numpy.matmul`` and ``numpy.linalg.solve``
on ``(lanes, m, m)``), and lanes drop out as they converge.
:func:`simulate_transient` is that loop with one lane;
:func:`simulate_lanes` runs several same-topology circuits (Monte-Carlo
draws of one stage) together, each with its own stop time and step
count.  Stacking changes no bit of any lane's answer: the stacked
products and solves call the same BLAS/LAPACK kernels per lane as the
two-dimensional calls, device terms accumulate in the order a dense
per-device stamp adds them, and the residual keeps the full ``n x n``
matrix-vector product.

A lane may also carry a :class:`SettleRule`: it then stops at the
first step where its sources are constant and one node is inside a
band around a target voltage, and returns its trace up to that step:
a prefix, bit for bit, of the trace the full window computes.  A lane
whose window ends with that node outside the band is run again from
its DC start with its stop time and time step both doubled, up to
:data:`MAX_SETTLE_RETRIES` times; doubling is exact in floating point,
so the retry equals a caller's own run at the doubled stop time and
step, bit for bit.  Each re-run of a lane counts one
``spice.settle_retries``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.runtime.metrics import METRICS
from repro.spice.elements import GROUND
from repro.spice.netlist import Circuit
from repro.spice.waveform import Waveform

#: Leak conductance from every node to ground; keeps the system
#: non-singular when a node is only capacitively connected.
GMIN = 1e-12

#: Newton voltage-update damping limit, in volts.
MAX_NEWTON_STEP = 0.3

#: Newton iteration budget of the DC start of a transient.
DC_START_ITERATIONS = 200

#: Times a lane whose window ends outside its settle band is re-run
#: with its stop time and time step doubled.
MAX_SETTLE_RETRIES = 3


class ConvergenceError(RuntimeError):
    """Raised when Newton iteration fails to converge, or when a lane's
    output never settles within its retries."""


@dataclass
class TransientResult:
    """Simulation output: a time axis plus per-node voltage traces."""

    times: np.ndarray
    voltages: Dict[str, np.ndarray]

    def waveform(self, node: str) -> Waveform:
        """The voltage trace of ``node`` as a measurable waveform."""
        try:
            values = self.voltages[node]
        except KeyError:
            known = ", ".join(sorted(self.voltages))
            raise KeyError(f"no trace for node {node!r}; traced: {known}")
        return Waveform(self.times, values)

    def final_voltage(self, node: str) -> float:
        """Last sample of ``node``'s trace."""
        return float(self.voltages[node][-1])


@dataclass(frozen=True)
class SettleRule:
    """When a lane may stop before its stop time.

    The lane stops at the first step at or after ``quiet_time``
    (seconds; every source of the circuit is constant from then on)
    where ``abs(v(node) - target) <= tolerance`` (volts), the check
    :meth:`~repro.spice.waveform.Waveform.settled` applies to a last
    sample.  Stopping there rests on a premise, not a proof: a node
    inside the band with its inputs quiet stays inside it, so the
    full window would end settled too.  A window that ends with the
    node outside the band is retried (see the module docstring).
    """

    node: str
    target: float
    tolerance: float
    quiet_time: float


def _index(indices: np.ndarray) -> "Union[slice, np.ndarray]":
    """A contiguous run of indices as a slice (cheaper to apply),
    anything else as the index array itself."""
    if indices.size and np.array_equal(
            indices, np.arange(indices[0], indices[0] + indices.size)):
        return slice(int(indices[0]), int(indices[0]) + indices.size)
    return indices


def _accumulate(values: List[float],
                terms: Tuple[Tuple[int, bool], ...]) -> float:
    """``0.0`` plus/minus each referenced device value, in order."""
    total = 0.0
    for index, negate in terms:
        if negate:
            total -= values[index]
        else:
            total += values[index]
    return total


class _Assembly:
    """One circuit's constant matrices and compiled stamp plan."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        n = circuit.node_count
        self.n = n
        driven = circuit.driven_nodes()
        self.driven_indices = np.array(sorted(driven), dtype=int)
        self.driven_waveforms = [driven[i] for i in sorted(driven)]
        unknown_mask = np.ones(n, dtype=bool)
        unknown_mask[self.driven_indices] = False
        self.unknown_indices = np.nonzero(unknown_mask)[0]
        self.m = self.unknown_indices.size
        self.driven = _index(self.driven_indices)
        self.unknown = _index(self.unknown_indices)
        # Position of each node in the unknown vector (-1 if driven).
        self.position = -np.ones(n, dtype=int)
        self.position[self.unknown_indices] = np.arange(self.m)

        self.G = np.zeros((n, n))
        self.C = np.zeros((n, n))
        for resistor in circuit.resistors:
            _stamp_two_terminal(self.G, resistor.node_a, resistor.node_b,
                                resistor.conductance)
        for capacitor in circuit.capacitors:
            _stamp_two_terminal(self.C, capacitor.node_a, capacitor.node_b,
                                capacitor.capacitance)
        for mosfet in circuit.mosfets:
            # Gate capacitance splits into gate-source and gate-drain
            # (the latter produces the Miller feedthrough that makes
            # intrinsic delay slew-dependent); drain diffusion
            # capacitance goes to AC ground.
            c_gate = mosfet.gate_capacitance
            _stamp_two_terminal(self.C, mosfet.gate, mosfet.source,
                                0.7 * c_gate)
            _stamp_two_terminal(self.C, mosfet.gate, mosfet.drain,
                                0.3 * c_gate)
            _stamp_two_terminal(self.C, mosfet.drain, GROUND,
                                mosfet.drain_capacitance)
        self.G[np.diag_indices(n)] += GMIN
        self._compile_plan()

    def _compile_plan(self) -> None:
        """The per-device evaluation list and the ordered device terms.

        Device ``k`` contributes four values per Newton iteration, at
        ``4k + 0..3``: ``ids``, ``gds``, ``gm`` and ``-(gm + gds)``
        (the derivatives with respect to its drain, gate and source).
        ``ids`` leaves the drain row and enters the source row, and
        each derivative lands in the drain row and, negated, the
        source row of its terminal's column.  Terms are listed in
        device order, then column order, then drain before source:
        the order in which a dense per-device stamp adds them, so
        every sum rounds exactly as that stamp would.  Only unknown
        rows and columns are kept — the rest never reach the solve.
        """
        position = self.position
        mosfets = self.circuit.mosfets
        self.devices = [(mosfet.channel(), mosfet.drain, mosfet.gate,
                         mosfet.source) for mosfet in mosfets]
        currents: List[List[Tuple[int, bool]]] = [
            [] for _ in range(self.m)]
        entries: Dict[Tuple[int, int], List[Tuple[int, bool]]] = {}

        def row_of(node: int) -> int:
            return -1 if node == GROUND else int(position[node])

        for k, mosfet in enumerate(mosfets):
            rows = ((row_of(mosfet.drain), False),
                    (row_of(mosfet.source), True))
            for row, negate in rows:
                if row >= 0:
                    currents[row].append((4 * k, negate))
            columns = ((mosfet.drain, 1), (mosfet.gate, 2),
                       (mosfet.source, 3))
            for node, kind in columns:
                column = row_of(node)
                if column < 0:
                    continue
                for row, negate in rows:
                    if row >= 0:
                        entries.setdefault((row, column), []).append(
                            (4 * k + kind, negate))
        self.current_terms = [(row, tuple(terms))
                              for row, terms in enumerate(currents)
                              if terms]
        self.jacobian_terms = [tuple(terms) for terms in entries.values()]
        self.jacobian_index = np.array(
            [row * self.m + column for row, column in entries],
            dtype=int)
        self.topology = (tuple(self.circuit.node_names()),
                         tuple(self.driven_indices.tolist()),
                         tuple((mosfet.drain, mosfet.gate, mosfet.source)
                               for mosfet in mosfets))

    def device_terms(self, voltages: List[float]
                     ) -> Tuple[List[float], List[float]]:
        """(device currents of the unknown rows, Jacobian values of
        the plan's entries) at node ``voltages`` (volts; one entry per
        node, then 0.0 for ground at index ``GROUND``)."""
        values: List[float] = []
        for channel, drain, gate, source in self.devices:
            v_source = voltages[source]
            ids, gm, gds = channel(voltages[gate] - v_source,
                                   voltages[drain] - v_source)
            values += (ids, gds, gm, -(gm + gds))
        row_currents = [0.0] * self.m
        for row, terms in self.current_terms:
            row_currents[row] = _accumulate(values, terms)
        return row_currents, [_accumulate(values, terms)
                              for terms in self.jacobian_terms]

    def driven_values(self, t: float) -> List[float]:
        return [w(t) for w in self.driven_waveforms]


def _stamp_two_terminal(matrix: np.ndarray, a: int, b: int,
                        value: float) -> None:
    """Symmetric two-terminal stamp; ground rows/columns are dropped."""
    if a != GROUND:
        matrix[a, a] += value
    if b != GROUND:
        matrix[b, b] += value
    if a != GROUND and b != GROUND:
        matrix[a, b] -= value
        matrix[b, a] -= value


def _source_currents(lanes: Sequence[_Assembly],
                     times: Sequence[float]) -> np.ndarray:
    """Independent-source currents (amperes) into every node, per lane."""
    currents = np.zeros((len(lanes), lanes[0].n))
    for row, (lane, t) in enumerate(zip(lanes, times)):
        for source in lane.circuit.current_sources:
            if source.node != GROUND:
                currents[row, source.node] += source.current(t)
    return currents


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Per-lane ``matrices[k] @ vectors[k]``, stacked."""
    return np.matmul(matrices, vectors[:, :, np.newaxis])[:, :, 0]


def _unknown_block(lanes: Sequence[_Assembly],
                   matrices: np.ndarray) -> np.ndarray:
    """The unknown-by-unknown block of each lane's matrix."""
    unknown = lanes[0].unknown_indices
    return matrices[:, unknown[:, np.newaxis], unknown]


def _solve(system: np.ndarray, rhs: np.ndarray
           ) -> Tuple[np.ndarray, Dict[int, ConvergenceError]]:
    """Stacked ``solve(system[k], rhs[k])`` and the lanes whose system
    is singular.  A singular lane sends every lane through its own
    solve, which returns the same bits as the stacked one."""
    try:
        return np.linalg.solve(system, rhs[:, :, np.newaxis])[:, :, 0], {}
    except np.linalg.LinAlgError:
        pass
    delta = np.zeros_like(rhs)
    singular: Dict[int, ConvergenceError] = {}
    for k in range(len(system)):
        try:
            delta[k] = np.linalg.solve(system[k], rhs[k])
        except np.linalg.LinAlgError as error:
            singular[k] = ConvergenceError(
                f"singular Newton system: {error}")
    return delta, singular


def _newton(lanes: Sequence[_Assembly], v: np.ndarray,
            linear: np.ndarray, linear_block: np.ndarray,
            rhs: np.ndarray, tol: float,
            max_iterations: int) -> Dict[int, ConvergenceError]:
    """Solve ``linear[k] @ v + i_dev(v) = rhs[k]`` on every lane.

    ``v`` is ``(lanes, n)``: each lane's start point with its driven
    nodes at their values; it is updated in place to the solution.  ``linear`` is ``(lanes, n, n)``,
    ``linear_block`` its unknown-by-unknown block and ``rhs``
    ``(lanes, m)`` the unknown rows of the right-hand side.  Lanes
    leave the loop as they converge.  Returns the lanes (indices into
    ``v``) that failed, with their errors.
    """
    plan = lanes[0]
    unknown, m = plan.unknown, plan.m
    failures: Dict[int, ConvergenceError] = {}
    if m == 0:
        return failures  # fully driven circuit: nothing to solve
    # The lanes still iterating: their rows of v (None while all are)
    # and compacted copies of their arrays.  Entries of the device
    # Jacobian outside the plan stay 0.0.
    where: Optional[np.ndarray] = None
    work_v = v
    work_lanes = list(lanes)
    device = np.zeros((len(lanes), m * m))
    for _ in range(max_iterations):
        currents, jacobian = [], []
        for lane, voltages in zip(work_lanes, work_v.tolist()):
            voltages.append(0.0)  # ground, at index GROUND == -1
            lane_currents, lane_jacobian = lane.device_terms(voltages)
            currents.append(lane_currents)
            jacobian.append(lane_jacobian)
        count = len(work_lanes)
        device_currents = np.array(currents)
        device[:, plan.jacobian_index] = jacobian
        device_jacobian = device.reshape(count, m, m)
        residual = (np.matmul(linear, work_v[:, :, np.newaxis])[:, unknown, 0]
                    + device_currents - rhs)
        system = linear_block + device_jacobian
        delta, singular = _solve(system, -residual)
        # Damping: limit the update magnitude for robustness on the
        # steep exponential subthreshold region.
        worst = np.abs(delta).max(axis=1)
        largest = worst.tolist()
        over = [value > MAX_NEWTON_STEP for value in largest]
        if any(over):
            delta[over] *= (MAX_NEWTON_STEP / worst[over])[:, np.newaxis]
        work_v[:, unknown] += delta
        done = [value < tol for value in largest]
        for k, error in singular.items():
            failures[k if where is None else int(where[k])] = error
            done[k] = True
        if all(done):
            if where is not None:
                v[where] = work_v
            return failures
        if any(done):
            if where is None:
                where = np.arange(count)
            else:
                v[where[done]] = work_v[done]
            keep = np.logical_not(done)
            largest = [value for value, kept in zip(largest, keep) if kept]
            where, work_v, linear, linear_block, rhs, device = (
                array[keep] for array in
                (where, work_v, linear, linear_block, rhs, device))
            work_lanes = [lane for lane, kept in zip(work_lanes, keep)
                          if kept]
    for k, value in enumerate(largest):
        failures[k if where is None else int(where[k])] = \
            ConvergenceError(
                f"Newton failed to converge within {max_iterations} "
                f"iterations (last update {value:.3e} V)")
    return failures


def _check_newton_budget(newton_tol: float, max_iterations: int) -> None:
    if not newton_tol > 0:
        raise ValueError("newton_tol must be positive")
    if max_iterations < 1:
        raise ValueError("Newton iteration limit must be >= 1")


def _assemble(circuits: Sequence[Circuit]) -> List[_Assembly]:
    """Stamp plans of same-topology circuits (one lane each)."""
    lanes = [_Assembly(circuit) for circuit in circuits]
    if not lanes:
        raise ValueError("need at least one circuit")
    if any(lane.topology != lanes[0].topology for lane in lanes[1:]):
        raise ValueError("lanes need circuits of one topology: the "
                         "same nodes, driven nodes and MOSFET terminals")
    return lanes


def _operating_points(lanes: Sequence[_Assembly], tol: float,
                      max_iterations: int
                      ) -> Tuple[np.ndarray, Dict[int, ConvergenceError]]:
    """DC solutions ``(lanes, n)`` with capacitors open, at ``t = 0``,
    and the lanes that failed."""
    v = np.zeros((len(lanes), lanes[0].n))
    v[:, lanes[0].driven] = [lane.driven_values(0.0) for lane in lanes]
    conductance = np.array([lane.G for lane in lanes])
    rhs = _source_currents(lanes, [0.0] * len(lanes))[:, lanes[0].unknown]
    failures = _newton(lanes, v, conductance,
                       _unknown_block(lanes, conductance), rhs, tol,
                       max_iterations)
    return v, failures


def simulate_transient(
    circuit: Circuit,
    stop_time: float,
    time_step: Optional[float] = None,
    record: Optional[Iterable[str]] = None,
    newton_tol: float = 1e-6,
    max_newton_iterations: int = 60,
    settle: Optional[SettleRule] = None,
) -> TransientResult:
    """Run a backward-Euler transient simulation from a DC start.

    Parameters
    ----------
    circuit:
        The netlist to simulate.
    stop_time:
        Simulation end time in seconds.
    time_step:
        Fixed step in seconds; defaults to ``stop_time / 1500``.
    record:
        Node names to record; defaults to all nodes.
    newton_tol:
        Newton convergence threshold on the update, in volts (> 0).
    max_newton_iterations:
        Newton iteration limit per time step (>= 1).
    settle:
        Stop at the first step that meets this rule (see
        :class:`SettleRule`) instead of at ``stop_time``; the result
        is then the full run's result cut after that step.  A window
        that ends outside the rule's band is run again with its stop
        time and time step doubled, up to :data:`MAX_SETTLE_RETRIES`
        times.

    Raises :class:`ConvergenceError` when a Newton solve fails or the
    output never settles.
    """
    (result,) = simulate_lanes(
        [circuit], [stop_time],
        None if time_step is None else [time_step], record=record,
        newton_tol=newton_tol,
        max_newton_iterations=max_newton_iterations,
        settle=None if settle is None else [settle])
    if isinstance(result, ConvergenceError):
        raise result
    return result


def simulate_lanes(
    circuits: Sequence[Circuit],
    stop_times: Sequence[float],
    time_steps: Optional[Sequence[float]] = None,
    record: Optional[Iterable[str]] = None,
    newton_tol: float = 1e-6,
    max_newton_iterations: int = 60,
    settle: Optional[Sequence[SettleRule]] = None,
) -> List[Union[TransientResult, ConvergenceError]]:
    """Transient simulations of same-topology circuits as lanes of one
    Newton loop.

    Lane ``k`` simulates ``circuits[k]`` to ``stop_times[k]`` seconds
    with step ``time_steps[k]`` (default ``stop_times[k] / 1500``), or
    until it meets ``settle[k]``, and returns exactly what
    :func:`simulate_transient` returns for it alone, settle retries
    included.  The circuits must share node names, driven nodes and
    MOSFET terminals; element values, device parameters and source
    waveforms are free.  A lane that fails holds its
    :class:`ConvergenceError` in the returned list; the other lanes
    run to their end.  The remaining parameters are those of
    :func:`simulate_transient`.
    """
    if len(stop_times) != len(circuits):
        raise ValueError("need one stop time per circuit")
    if time_steps is None:
        time_steps = [stop_time / 1500.0 for stop_time in stop_times]
    elif len(time_steps) != len(circuits):
        raise ValueError("need one time step per circuit")
    if settle is not None and len(settle) != len(circuits):
        raise ValueError("need one settle rule per circuit")
    for stop_time, time_step in zip(stop_times, time_steps):
        if stop_time <= 0:
            raise ValueError("stop_time must be positive")
        if time_step <= 0 or time_step > stop_time:
            raise ValueError("time_step must lie in (0, stop_time]")
    _check_newton_budget(newton_tol, max_newton_iterations)

    lanes = _assemble(circuits)
    recorded = [(name, _node_index(circuits[0], name))
                for name in (circuits[0].node_names() if record is None
                             else record)]
    rules: List[Optional[Tuple[SettleRule, int]]] = [None] * len(lanes)
    if settle is not None:
        rules = [(rule, _node_index(circuits[0], rule.node))
                 for rule in settle]
        if any(node == GROUND for _, node in rules):
            raise ValueError("a settle rule needs a node other than ground")

    stop_times, time_steps = list(stop_times), list(time_steps)
    results, pending = _run(lanes, stop_times, time_steps, recorded,
                            rules, newton_tol, max_newton_iterations)
    for _ in range(MAX_SETTLE_RETRIES):
        if not pending:
            break
        METRICS.count("spice.settle_retries", len(pending))
        for k in pending:
            stop_times[k] *= 2.0
            time_steps[k] *= 2.0
        rerun, unsettled = _run(
            [lanes[k] for k in pending], [stop_times[k] for k in pending],
            [time_steps[k] for k in pending], recorded,
            [rules[k] for k in pending], newton_tol,
            max_newton_iterations)
        for k, result in zip(pending, rerun):
            results[k] = result
        pending = [pending[i] for i in unsettled]
    for k in pending:
        results[k] = ConvergenceError(
            f"circuit {circuits[k].name!r}: node {settle[k].node!r} never "
            f"settled within {MAX_SETTLE_RETRIES} retries (last stop "
            f"time {stop_times[k]:.3e} s)")
    return results


def _node_index(circuit: Circuit, name: str) -> int:
    """The index of ``circuit``'s node ``name``; unlike
    :meth:`Circuit.node`, a missing name is an error, not a new
    node."""
    if not circuit.has_node(name):
        raise ValueError(f"circuit {circuit.name!r} has no node {name!r}")
    return circuit.node(name)


def _run(lanes: Sequence[_Assembly], stop_times: Sequence[float],
         time_steps: Sequence[float], recorded: Sequence[Tuple[str, int]],
         rules: Sequence[Optional[Tuple[SettleRule, int]]],
         newton_tol: float, max_newton_iterations: int
         ) -> Tuple[List[Union[TransientResult, ConvergenceError]],
                    List[int]]:
    """One window of every lane: the results, and the lanes (indices
    into ``lanes``) whose window ended outside their settle band.

    ``recorded`` holds the (name, index) of each node to record;
    ``rules[k]`` is lane ``k``'s settle rule with its node's index, or
    None for a lane that runs its whole window.
    """
    plan = lanes[0]
    # Recorded ground traces are 0.0; the other recorded nodes are
    # sampled every step into a time-major history.
    nodes = np.array([node for _, node in recorded if node != GROUND],
                     dtype=int)

    steps = [int(np.ceil(stop_time / time_step))
             for stop_time, time_step in zip(stop_times, time_steps)]
    times = [np.linspace(0.0, count * time_step, count + 1)
             for count, time_step in zip(steps, time_steps)]
    time_lists = [axis.tolist() for axis in times]

    # Initial DC solution at t = 0 (capacitors open).
    v, failures = _operating_points(lanes, newton_tol,
                                    DC_START_ITERATIONS)
    history = np.empty((max(steps) + 1, len(lanes), nodes.size))
    history[0] = v[:, nodes]

    c_over_dt = (np.array([lane.C for lane in lanes])
                 / np.array(time_steps)[:, np.newaxis, np.newaxis])
    linear = np.array([lane.G for lane in lanes]) + c_over_dt
    linear_block = _unknown_block(lanes, linear)
    unknown, driven = plan.unknown, plan.driven

    # The lanes still stepping, their rows of the history (all of them
    # until one ends or fails), their compacted arrays, and the step
    # after which the set next shrinks.
    live = list(range(len(lanes)))
    rows: "Union[slice, List[int]]" = slice(None)
    work_lanes = list(lanes)
    failed = 0
    last = min(steps)
    unsettled: List[int] = []
    for step in range(1, max(steps) + 1):
        if step > last or len(failures) > failed:
            keep = np.array([k not in failures and steps[k] >= step
                             for k in live])
            live = [k for k, kept in zip(live, keep) if kept]
            if not live:
                break
            rows = live
            work_lanes = [lanes[k] for k in live]
            v, c_over_dt, linear, linear_block = (
                array[keep] for array in
                (v, c_over_dt, linear, linear_block))
            failed = len(failures)
            last = min(steps[k] for k in live)
        now = [time_lists[k][step] for k in live]
        v_next = v.copy()
        v_next[:, driven] = [lane.driven_values(t)
                             for lane, t in zip(work_lanes, now)]
        rhs = (_source_currents(work_lanes, now)
               + _matvec(c_over_dt, v))[:, unknown]
        for k, error in _newton(work_lanes, v_next, linear, linear_block,
                                rhs, newton_tol,
                                max_newton_iterations).items():
            failures[live[k]] = error
        v = v_next
        history[step, rows] = v[:, nodes]
        # A lane that meets its rule ends at this step; one that
        # reaches its last step outside the band is unsettled.
        for i, k in enumerate(live):
            if rules[k] is None:
                continue
            rule, node = rules[k]
            if (now[i] >= rule.quiet_time
                    and abs(v[i, node] - rule.target) <= rule.tolerance):
                steps[k] = last = step
            elif (step == steps[k]
                  and not abs(v[i, node] - rule.target) <= rule.tolerance):
                unsettled.append(k)

    results: List[Union[TransientResult, ConvergenceError]] = []
    for k, count in enumerate(steps):
        if k in failures:
            results.append(failures[k])
            continue
        traces = iter(history[:count + 1, k].T.copy())
        voltages = {name: (np.zeros(count + 1) if node == GROUND
                           else next(traces))
                    for name, node in recorded}
        results.append(TransientResult(times=times[k][:count + 1],
                                       voltages=voltages))
    return results, [k for k in unsettled if k not in failures]
