"""A service's QoI calls resume kept decode state without changing any
answer.

:meth:`~repro.core.service.RetrievalService.retrieve_qoi` keeps one
reconstructor per variable across calls, so a call decodes only the
plane groups no earlier call has. Each call still plans as a fresh call
would, so over any sequence of tolerances — tightening, loosening,
repeating — every call must equal a fresh
:func:`~repro.qoi.retrieval.retrieve_qoi` on eagerly loaded fields,
field for field and bit for bit, and keep the Fig. 13 invariant
(actual QoI error <= estimate <= tolerance).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refactor import RefactorConfig, refactor
from repro.core.service import RetrievalService
from repro.core.store import MemoryStore, load_field, store_field
from repro.data import generators as gen
from repro.qoi import EB_METHODS, actual_qoi_error, retrieve_qoi, v_total

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


@settings(max_examples=30, deadline=None)
@given(config=st.sampled_from(CONFIGS), method=st.sampled_from(EB_METHODS),
       tolerances=st.lists(st.sampled_from(TOLERANCES), min_size=1,
                           max_size=5))
def test_service_calls_equal_fresh_calls(stores, config, method,
                                         tolerances):
    store, eager, original = stores[config]
    with RetrievalService(store) as service:
        for tol in tolerances:
            got = service.retrieve_qoi(QOI, tol, method=method)
            want = retrieve_qoi(eager, QOI, tol, method=method)
            _same_answer(got, want)
            actual = actual_qoi_error(QOI, original, got.values)
            assert actual <= got.estimated_error <= tol

