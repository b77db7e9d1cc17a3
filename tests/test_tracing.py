"""The servicebench tracer finds every layer it names.

``servicebench/tracing.py`` wraps engine methods by name and skips one it
cannot find, and its ``_stat`` reads a missing stats attribute or dict key
as 0, so renaming a layer in ``src/`` would silently zero a per-layer
metric.  These tests only read ``servicebench``: every method ``install``
asks for must exist and be wrapped, and every counter ``counters`` reads
must be positive once a small durable service has served each kind of
request.
"""

from repro.query import figure4_query, parse_query
from repro.service import INLINE, QUEUED, CertaintyService
from repro.workloads import figure1_database, figure1_query
from servicebench import tracing


def test_install_wraps_every_method_it_asks_for():
    tracer = tracing.Tracer()
    requested = []

    def recording(method):
        def wrap(owner, attr, *args, **kwargs):
            before = getattr(owner, attr, None)
            method(owner, attr, *args, **kwargs)
            requested.append((owner.__name__, attr, getattr(owner, attr, None) is not before))

        return wrap

    tracer.wrap = recording(tracer.wrap)
    tracer.wrap_handoff = recording(tracer.wrap_handoff)
    try:
        tracing.install(tracer)
    finally:
        tracer.uninstall()
    assert requested
    assert [(owner, attr) for owner, attr, wrapped in requested if not wrapped] == []


def test_counters_read_every_layer(tmp_path):
    facts = figure1_database().facts
    open_fo = parse_query("C(x, y | 'Rome'), R(x | 'A')", free=["x"])
    with CertaintyService(max_workers=1, durability_dir=tmp_path) as service:
        service.create_tenant("t", facts=facts)
        outcomes = [
            service.submit("t", query) for query in (figure1_query(), figure1_query(), figure4_query())
        ]
        for ticket in outcomes:
            ticket.result(timeout=60)
        assert [ticket.outcome for ticket in outcomes] == [INLINE, INLINE, QUEUED]
        service.apply("t", [("discard", next(iter(facts)))])
        service.tenant("t").view_answers(open_fo)
        counters = tracing.counters(service)
    positive = (
        "admission.inline_served",
        "admission.queued",
        "plan.hits",
        "plan.compiles",
        "views.full_refreshes",
        "durable.log_bytes",
        "store.bytes",
        "store.intern_constants",
        "store.facts",
    )
    assert {key: counters[key] for key in positive if not counters[key] > 0} == {}
