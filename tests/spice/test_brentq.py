"""The in-repo Brent solver against its reference, scipy's ``brentq``.

:func:`repro.spice.mosfet._brentq` transcribes the loop of scipy's
``brentq.c``, so every answer must be ``==`` to scipy's and every
failure must raise the same exception type.  Only this test imports
``scipy.optimize``; the program itself never does.
"""

import inspect
import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.signoff.variation import VariationModel, _perturbed_technology
from repro.spice import mosfet
from repro.spice.mosfet import _brentq, subthreshold_smoothing
from repro.tech import available_nodes, get_technology

#: Seeded perturbed device sets per node, on top of the nominal one.
DRAWS = 1000


def _outcome(solver, f, a, b, xtol):
    """``solver``'s root (with its type) or its exception type."""
    try:
        root = solver(f, a, b, xtol=xtol)
    except (ValueError, RuntimeError) as error:
        return type(error)
    return root, type(root)


def _smoothings(devices):
    """:func:`subthreshold_smoothing` of each ``(flavour, vdd)``,
    bypassing its memo."""
    return [subthreshold_smoothing.__wrapped__(parameters, vdd)
            for parameters, vdd in devices]


@pytest.mark.parametrize("node", available_nodes())
def test_smoothing_equals_scipy_on_every_perturbed_device(node,
                                                          monkeypatch):
    tech = get_technology(node)
    rows = VariationModel().draw_factors(np.random.default_rng(2004),
                                         DRAWS)
    devices = [(parameters, draw.vdd)
               for draw in [tech] + [_perturbed_technology(tech, row)
                                     for row in rows]
               for parameters in (draw.nmos, draw.pmos)]
    ours = _smoothings(devices)
    assert all(type(s) is float for s in ours)

    solves = []

    def scipy_brentq(f, a, b, xtol):
        solves.append(a)
        return brentq(f, a, b, xtol=xtol)

    monkeypatch.setattr(mosfet, "_brentq", scipy_brentq)
    assert _smoothings(devices) == ours
    assert len(solves) > DRAWS  # the solver ran, not the range clamps


def _generic_brackets():
    """Seeded ``(f, a, b, xtol)`` cases over smooth, flat, steep and
    discontinuous functions, either bracket orientation."""
    families = [
        lambda c: lambda x: x**3 - c,
        lambda c: lambda x: math.tanh(x - c),
        lambda c: lambda x: math.exp(x) - c - 1.0,
        lambda c: lambda x: (x - c) * abs(x - c)**0.3,
        lambda c: lambda x: math.sin(3.0 * x) - c / 10.0,
        lambda c: lambda x: x - c,
        lambda c: lambda x: 1.0 / (x - c) if x != c else 1.0,
    ]
    tolerances = (5e-324, 2e-12, 1e-6, 1e-3)
    rng = np.random.default_rng(25)
    cases = []
    for index in range(3000):
        c = rng.uniform(-2.0, 2.0)
        a, b = rng.uniform(-4.0, 0.5), rng.uniform(-0.5, 4.0)
        if rng.random() < 0.5:
            a, b = b, a
        xtol = tolerances[rng.integers(len(tolerances))]
        cases.append((families[index % len(families)](c), a, b, xtol))
    # A root exactly at either endpoint, also with a same-signed
    # other end, and one the loop lands on exactly.
    cases += [(lambda x: x - 1.0, 1.0, 2.0, 1e-6),
              (lambda x: x - 1.0, 0.0, 1.0, 1e-6),
              (lambda x: x * x, 0.0, 1.0, 1e-6),
              (lambda x: x, -1.0, 1.0, 1e-6)]
    return cases


def test_generic_brackets_equal_scipy():
    for f, a, b, xtol in _generic_brackets():
        assert _outcome(_brentq, f, a, b, xtol) == \
            _outcome(brentq, f, a, b, xtol), (a, b, xtol)


def _lines_run(cases):
    """Source lines of :func:`_brentq` that solving ``cases`` ran."""
    code = _brentq.__code__
    lines = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        for f, a, b, xtol in cases:
            _outcome(_brentq, f, a, b, xtol)
    finally:
        sys.settrace(previous)
    return lines


#: A statement of :func:`_brentq` per branch of its loop; every line
#: that holds one must run.
BRANCHES = {
    "interpolation": "stry = -fcur * (xcur - xpre) / (fcur - fpre)",
    "inverse-quadratic extrapolation":
        "dpre = (fpre - fcur) / (xpre - xcur)",
    "short step taken": "spre, scur = scur, stry",
    "both bisection fallbacks": "spre = scur = sbis",
    "minimum step": "xcur += delta if sbis > 0 else -delta",
    "root at the first endpoint": "return xpre",
    "root at the second endpoint, and converged": "return xcur",
}


def test_generic_brackets_reach_every_branch():
    source, first = inspect.getsourcelines(_brentq)
    run = _lines_run(_generic_brackets())
    for branch, statement in BRANCHES.items():
        lines = {first + offset for offset, line in enumerate(source)
                 if line.strip() == statement}
        assert lines, f"no {statement!r} in _brentq"
        assert lines <= run, branch


@pytest.mark.parametrize("f, a, b, error", [
    (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),      # same sign
    (lambda x: math.nan, 0.0, 1.0, ValueError),          # NaN at a
    (lambda x: x - 0.5 if abs(x - 0.5) > 0.1 else math.nan,
     0.0, 1.0, ValueError),                              # NaN inside
    (lambda x: 1.0 if x > 1.0 / 3.0 else -1.0,
     -1e20, 1e20, RuntimeError),                         # maxiter
])
def test_failures_raise_what_scipy_raises(f, a, b, error):
    assert _outcome(brentq, f, a, b, 2e-12) is error
    assert _outcome(_brentq, f, a, b, 2e-12) is error
