"""Unit tests for the Request model."""

import pickle

import pytest

from repro.core import request as request_module
from repro.core.request import Request, RequestPhase, restart_seqnos

from conftest import make_request


class TestRequestBasics:
    def test_defaults(self):
        r = Request(tenant_id="A", cost=2.0)
        assert r.tenant_id == "A"
        assert r.cost == 2.0
        assert r.api == "default"
        assert r.weight == 1.0
        assert r.phase == RequestPhase.QUEUED
        assert r.thread_id == -1

    def test_seqnos_monotonic(self):
        a, b, c = (make_request() for _ in range(3))
        assert a.seqno < b.seqno < c.seqno

    def test_key_groups_by_tenant_and_api(self):
        r = make_request(tenant="T1", api="G")
        assert r.key == ("T1", "G")

    def test_repr_mentions_tenant_and_api(self):
        r = make_request(tenant="T9", api="K", cost=123.0)
        text = repr(r)
        assert "T9" in text and "K" in text and "123" in text


class TestRequestTimings:
    def test_latency_after_completion(self):
        r = make_request()
        r.arrival_time = 1.0
        r.dispatch_time = 2.5
        r.completion_time = 4.0
        assert r.latency == pytest.approx(3.0)
        assert r.queueing_delay == pytest.approx(1.5)

    def test_latency_before_completion_raises(self):
        r = make_request()
        r.arrival_time = 1.0
        with pytest.raises(ValueError):
            _ = r.latency

    def test_queueing_delay_before_dispatch_raises(self):
        r = make_request()
        r.arrival_time = 1.0
        with pytest.raises(ValueError):
            _ = r.queueing_delay

    def test_latency_before_arrival_raises(self):
        r = make_request()
        r.completion_time = 5.0
        with pytest.raises(ValueError):
            _ = r.latency


class TestSlottedRequest:
    def test_restart_seqnos_numbers_from_zero_again(self, monkeypatch):
        # Restored after the test: other tests' requests keep counting.
        monkeypatch.setattr(request_module, "_SEQUENCE", request_module._SEQUENCE)
        restart_seqnos()
        assert [make_request().seqno for _ in range(3)] == [0, 1, 2]
        restart_seqnos()
        assert make_request().seqno == 0

    def test_explicit_seqno_is_honoured(self):
        assert Request(tenant_id="A", cost=1.0, seqno=41).seqno == 41

    def test_unknown_attribute_raises(self):
        r = make_request()
        with pytest.raises(AttributeError):
            r.priority = 3

    def test_repr_and_pickle_round_trip(self):
        r = Request("T1", 2.5, "G", arrival_time=1.0, weight=2.0, seqno=7)
        r.phase = RequestPhase.RUNNING
        r.charged_cost = 2.0
        r.thread_id = 3
        assert repr(r) == "Request(T1/G#7 cost=2.5 phase=running)"
        copy = pickle.loads(pickle.dumps(r))
        assert repr(copy) == repr(r)
        assert [getattr(copy, name) for name in Request.__slots__] == [
            getattr(r, name) for name in Request.__slots__
        ]
