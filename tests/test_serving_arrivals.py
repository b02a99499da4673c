"""Arrival-trace input validation: request times have defined behaviour.

A request whose arrival time is not finite, or whose SLO is NaN, would
carry ``NaN``/``Infinity`` into the canonical event log (not valid
JSON) and poison every deadline comparison, so :class:`Request`
rejects it at construction.  ``inf`` stays the best-effort SLO.
"""

import math

import pytest

from repro.serving import ArrivalTrace, Request

pytestmark = pytest.mark.serving

NAN = float("nan")


@pytest.mark.parametrize("kwargs", [
    {"t_arrival": NAN},
    {"t_arrival": math.inf},
    {"t_arrival": -math.inf},
    {"t_arrival": -1.0},
    {"slo_latency_s": NAN},
    {"slo_latency_s": 0.0},
    {"slo_latency_s": -math.inf},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_rejects_undefined_request_times(kwargs):
    fields = {"request_id": 0, "t_arrival": 0.0, "model": "resnet18"}
    fields.update(kwargs)
    with pytest.raises(ValueError):
        Request(**fields)


@pytest.mark.parametrize("t_arrival,slo", [
    (0.0, math.inf),
    (0.0, 1e-9),
    (1e9, 10.0),
])
def test_accepts_finite_times_and_best_effort_slo(t_arrival, slo):
    request = Request(0, t_arrival, "resnet18", slo_latency_s=slo)
    assert request.deadline == t_arrival + slo
    # A one-request trace has nothing to sort against, so the request's
    # own check is the only one standing between NaN and the event log.
    assert len(ArrivalTrace("poisson", 0, (request,))) == 1
