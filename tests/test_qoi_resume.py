"""A service's QoI calls resume kept decode state, and replay the
iterations earlier calls answered, without changing any answer.

:meth:`~repro.core.service.RetrievalService.retrieve_qoi` keeps one
reconstructor per variable across calls, so a call decodes only the
plane groups no earlier call has, and records each iteration's outcome,
so an iteration that plans what an earlier one did and cannot end the
call replays it. Each call still plans as a fresh call would, so over
any sequence of tolerances — tightening, loosening, repeating — every
call must equal a fresh :func:`~repro.qoi.retrieval.retrieve_qoi` on
eagerly loaded fields, field for field and bit for bit, and keep the
Fig. 13 invariant (actual QoI error <= estimate <= tolerance).
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reconstruct import Reconstructor
from repro.core.refactor import RefactorConfig, refactor
from repro.core.service import RetrievalService
from repro.core.store import MemoryStore, load_field, store_field
from repro.data import generators as gen
from repro.qoi import (
    EB_METHODS,
    QoI,
    actual_qoi_error,
    const,
    retrieval,
    retrieve_qoi,
    sqrt,
    square,
    v_total,
    var,
)
from repro.qoi.expressions import _memo_key

NAMES = ("Vx", "Vy", "Vz")
QOI = v_total(NAMES)
TOLERANCES = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 1e-4]
CONFIGS = [(dtype, encoding) for dtype in (np.float32, np.float64)
           for encoding in ("sign_magnitude", "negabinary")]


@pytest.fixture(scope="module")
def stores():
    """Per (dtype, signed encoding): a store of the three velocity
    components, the same fields loaded eagerly, and the original data."""
    out = {}
    for dtype, encoding in CONFIGS:
        data = dict(zip(NAMES, gen.turbulence_velocity(
            (10, 11, 12), seed=4, dtype=dtype)))
        store = MemoryStore()
        for name, values in data.items():
            store_field(store, refactor(values, RefactorConfig(
                signed_encoding=encoding), name=name))
        eager = {name: load_field(store, name) for name in NAMES}
        original = {k: v.astype(np.float64) for k, v in data.items()}
        out[dtype, encoding] = store, eager, original
    return out


def _same_answer(got, want) -> None:
    assert sorted(got.values) == sorted(want.values)
    for name in want.values:
        assert got.values[name].tobytes() == want.values[name].tobytes()
    assert got.qoi_values.tobytes() == want.qoi_values.tobytes()
    for attr in ("estimated_error", "tolerance", "iterations",
                 "fetched_bytes", "num_elements", "method"):
        assert getattr(got, attr) == getattr(want, attr), attr
    # The history's cold_bytes is real traffic, which differs: eager
    # fields read nothing, and a resumed call reads less.
    assert [dataclasses.replace(h, cold_bytes=0) for h in got.history] == [
        dataclasses.replace(h, cold_bytes=0) for h in want.history]


# Initial bounds a call may pass: None (the default, 0.05 x range), or
# one bound for every variable, loose or tight.
INITIAL_BOUNDS = [None, 0.5, 1e-3]


@settings(max_examples=30, deadline=None)
@given(config=st.sampled_from(CONFIGS), method=st.sampled_from(EB_METHODS),
       tolerances=st.lists(st.sampled_from(TOLERANCES), min_size=1,
                           max_size=5),
       initial=st.sampled_from(INITIAL_BOUNDS),
       max_iterations=st.sampled_from([200, 1, 2, 3]))
def test_service_calls_equal_fresh_calls(stores, config, method,
                                         tolerances, initial,
                                         max_iterations):
    """Every call equals a fresh one, whatever the service's kept decode
    state and recorded iteration outcomes, under every estimator, with
    or without initial bounds, and when the iteration cap ends a call."""
    store, eager, original = stores[config]
    kwargs = dict(method=method, max_iterations=max_iterations,
                  initial_bounds=initial and {n: initial for n in NAMES})
    with RetrievalService(store) as service:
        for tol in tolerances:
            got = service.retrieve_qoi(QOI, tol, **kwargs)
            want = retrieve_qoi(eager, QOI, tol, **kwargs)
            _same_answer(got, want)
            actual = actual_qoi_error(QOI, original, got.values)
            assert actual <= got.estimated_error
            if max_iterations == 200:
                assert got.estimated_error <= tol


class _Spy:
    """Counts ``Reconstructor.decode_step`` and Algorithm 3's estimator
    calls."""

    def __init__(self, monkeypatch):
        self.decodes = self.estimates = 0
        decode_step, estimate = Reconstructor.decode_step, retrieval._estimate

        def counted_decode(recon, *args, **kwargs):
            self.decodes += 1
            return decode_step(recon, *args, **kwargs)

        def counted_estimate(*args):
            self.estimates += 1
            return estimate(*args)

        monkeypatch.setattr(Reconstructor, "decode_step", counted_decode)
        monkeypatch.setattr(retrieval, "_estimate", counted_estimate)

    def take(self) -> tuple[int, int]:
        counts = self.decodes, self.estimates
        self.decodes = self.estimates = 0
        return counts


class TestReplayedIterations:
    """A service records each iteration's outcome by (QoI, plan groups)
    and replays an iteration that cannot end the call."""

    def test_a_replay_that_cannot_end_the_call_runs_nothing(
            self, stores, monkeypatch):
        store, eager, _ = stores[CONFIGS[0]]
        with RetrievalService(store) as service:
            first = service.retrieve_qoi(QOI, 1e-4)
            assert first.iterations >= 2
            spy = _Spy(monkeypatch)
            again = service.retrieve_qoi(QOI, 1e-4)
            # Only the last iteration, whose values are the answer,
            # decodes and estimates; every earlier one is replayed.
            assert spy.take() == (len(NAMES), 1)
            assert service.stats()["qoi"]["memo_hits"] == (
                first.iterations - 1)
        _same_answer(again, first)
        _same_answer(again, retrieve_qoi(eager, QOI, 1e-4))

    def test_a_replay_that_would_end_the_call_decodes(self, stores,
                                                      monkeypatch):
        store, eager, _ = stores[CONFIGS[1]]
        with RetrievalService(store) as service:
            tight = service.retrieve_qoi(QOI, 1e-4)
            # A call whose tolerance the recorded first iteration
            # already meets plans that iteration again (both start from
            # 0.05 x range), finds it, and decodes it: it is the answer.
            loose_tol = tight.history[0].estimated_error
            assert loose_tol > 1e-4
            spy = _Spy(monkeypatch)
            loose = service.retrieve_qoi(QOI, loose_tol)
            assert loose.iterations == 1
            assert spy.take() == (len(NAMES), 1)
            assert service.stats()["qoi"]["memo_hits"] == 0
        _same_answer(loose, retrieve_qoi(eager, QOI, loose_tol))

    def test_a_service_qoi_pass_replays_four_of_ten_iterations(
            self, monkeypatch):
        """The end-to-end ``service_qoi`` workload's shape: five
        tightening calls over 16^3 float32 velocity components."""
        data = gen.turbulence_velocity((16, 16, 16), seed=7)
        store = MemoryStore()
        for name, values in zip(NAMES, data):
            store_field(store, refactor(values, name=name))
        spy = _Spy(monkeypatch)
        with RetrievalService(store) as service:
            results = [service.retrieve_qoi(QOI, 10.0 ** -k)
                       for k in range(1, 6)]
            assert sum(r.iterations for r in results) == 10
            assert service.stats()["qoi"] == {"memo_entries": 6,
                                              "memo_hits": 4}
        assert spy.take() == (18, 6)  # 30 and 10 without the memo

    def test_structurally_equal_qois_share_entries(self, stores):
        store, _, _ = stores[CONFIGS[0]]
        with RetrievalService(store) as service:
            service.retrieve_qoi(v_total(NAMES), 1e-4)
            entries = service.stats()["qoi"]["memo_entries"]
            # A rebuilt V_total is the same expression: it hits.
            service.retrieve_qoi(v_total(NAMES), 1e-4)
            stats = service.stats()["qoi"]
            assert stats["memo_hits"] > 0
            assert stats["memo_entries"] == entries
            # A different expression over the same variables plans the
            # same first iteration but shares no entry.
            other = sqrt(square(var("Vx")) + square(var("Vy")))
            service.retrieve_qoi(other, 1e-4)
            assert service.stats()["qoi"]["memo_hits"] == stats["memo_hits"]
            assert service.stats()["qoi"]["memo_entries"] > entries

    def test_an_opaque_qoi_keys_by_identity_and_is_held(self, stores):
        store, eager, _ = stores[CONFIGS[0]]

        class Opaque(QoI):
            """A user expression the memo cannot see into."""

            def evaluate(self, values):
                return QOI.evaluate(values)

            def interval(self, values, bounds):
                return QOI.interval(values, bounds)

            def variables(self):
                return QOI.variables()

        with RetrievalService(store) as service:
            opaque = Opaque()
            held = weakref.ref(opaque)
            first = service.retrieve_qoi(opaque, 1e-4)
            del opaque
            assert held() is not None  # its recorded outcomes hold it
            service.retrieve_qoi(Opaque(), 1e-4)  # another object: no hit
            assert service.stats()["qoi"]["memo_hits"] == 0
            service.retrieve_qoi(held(), 1e-4)
            assert service.stats()["qoi"]["memo_hits"] == (
                first.iterations - 1)
        assert held() is None  # close() dropped the outcomes

    def test_stats_reset_on_close(self, stores):
        store, _, _ = stores[CONFIGS[0]]
        service = RetrievalService(store)
        assert service.stats()["qoi"] == {"memo_entries": 0, "memo_hits": 0}
        for _ in range(2):
            service.retrieve_qoi(QOI, 1e-4)
        stats = service.stats()["qoi"]
        assert stats["memo_entries"] > 0 and stats["memo_hits"] > 0
        service.close()
        assert service.stats()["qoi"] == {"memo_entries": 0, "memo_hits": 0}
        # A closed service replays only within a call, and keeps nothing.
        service.retrieve_qoi(QOI, 1e-4)
        assert service.stats()["qoi"] == {"memo_entries": 0, "memo_hits": 0}

    def test_the_memo_is_a_bounded_lru(self):
        memo = retrieval._IterationMemo()
        for i in range(retrieval.MEMO_ENTRIES + 1):
            memo.put(i, i)
            if i == 1:
                assert memo.get(0) == 0  # 0 is now the newest
        assert len(memo) == retrieval.MEMO_ENTRIES
        assert memo.get(1) is None and memo.get(0) == 0


def test_constant_keys_tell_signed_zeros_apart():
    x = var("Vx")
    assert _memo_key(v_total(NAMES)) == _memo_key(v_total(NAMES))
    assert _memo_key(x + const(0.0)) != _memo_key(x + const(-0.0))
    assert _memo_key(x - 1.0) != _memo_key(x + 1.0)
    assert _memo_key(x * 2.0) == _memo_key(x * const(2))
