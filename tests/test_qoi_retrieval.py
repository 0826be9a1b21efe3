"""Tests for Algorithm 3 and the CP/MA/MAPE error-bound methods."""

import numpy as np
import pytest

from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.core.service import RetrievalService
from repro.core.store import MemoryStore, store_field
from repro.data import generators as gen
from repro.qoi import (
    EB_METHODS,
    actual_qoi_error,
    retrieve_qoi,
    v_total,
)
from repro.qoi.eb_methods import next_group_bound
from repro.qoi import retrieval
from repro.qoi.expressions import const, var


@pytest.fixture(scope="module")
def velocity_fields():
    dims = (12, 12, 12)
    vx, vy, vz = gen.turbulence_velocity(dims, seed=3, dtype=np.float64)
    original = {"vx": vx, "vy": vy, "vz": vz}
    fields = {k: refactor(v, name=k) for k, v in original.items()}
    return original, fields


class TestRetrieveQoI:
    @pytest.mark.parametrize("method", EB_METHODS)
    def test_tolerance_guaranteed(self, velocity_fields, method):
        original, fields = velocity_fields
        tol = 1e-2
        result = retrieve_qoi(fields, v_total(), tol, method=method)
        assert result.estimated_error <= tol
        actual = actual_qoi_error(v_total(), original, result.values)
        assert actual <= result.estimated_error

    @pytest.mark.parametrize("method", EB_METHODS)
    @pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3])
    def test_fig13_invariant(self, velocity_fields, method, tol):
        """max actual <= max estimated <= requested tolerance."""
        original, fields = velocity_fields
        result = retrieve_qoi(fields, v_total(), tol, method=method)
        actual = actual_qoi_error(v_total(), original, result.values)
        assert actual <= result.estimated_error <= tol

    def test_ma_bitrate_not_worse_than_cp(self, velocity_fields):
        """MA fetches at the finest granularity — it should not fetch
        more than CP's over-preserving decay (the Tables 2/3 ordering)."""
        _, fields = velocity_fields
        tol = 1e-2
        ma = retrieve_qoi(fields, v_total(), tol, method="ma")
        cp = retrieve_qoi(fields, v_total(), tol, method="cp")
        assert ma.bitrate <= cp.bitrate + 1e-9

    def test_cp_iterations_not_more_than_ma(self, velocity_fields):
        _, fields = velocity_fields
        tol = 1e-3
        ma = retrieve_qoi(fields, v_total(), tol, method="ma")
        cp = retrieve_qoi(fields, v_total(), tol, method="cp")
        assert cp.iterations <= ma.iterations

    def test_mape_between(self, velocity_fields):
        """MAPE's bitrate and iterations land between (or equal to) CP's
        and MA's — the tradeoff the paper reports."""
        _, fields = velocity_fields
        tol = 1e-3
        ma = retrieve_qoi(fields, v_total(), tol, method="ma")
        cp = retrieve_qoi(fields, v_total(), tol, method="cp")
        mape = retrieve_qoi(fields, v_total(), tol, method="mape",
                            switch_threshold=10.0)
        assert mape.bitrate <= cp.bitrate + 1e-9
        assert mape.iterations <= ma.iterations

    def test_history_recorded(self, velocity_fields):
        _, fields = velocity_fields
        result = retrieve_qoi(fields, v_total(), 1e-2, method="ma")
        assert len(result.history) == result.iterations
        ests = [h.estimated_error for h in result.history]
        assert ests[-1] <= 1e-2
        fetched = [h.fetched_bytes for h in result.history]
        assert all(a <= b for a, b in zip(fetched, fetched[1:]))

    def test_tighter_tolerance_more_bytes(self, velocity_fields):
        _, fields = velocity_fields
        loose = retrieve_qoi(fields, v_total(), 1e-1, method="mape")
        tight = retrieve_qoi(fields, v_total(), 1e-3, method="mape")
        assert tight.fetched_bytes >= loose.fetched_bytes

    def test_missing_variable_rejected(self, velocity_fields):
        _, fields = velocity_fields
        partial = {"vx": fields["vx"]}
        with pytest.raises(ValueError, match="missing"):
            retrieve_qoi(partial, v_total(), 1e-2)

    def test_invalid_method(self, velocity_fields):
        _, fields = velocity_fields
        with pytest.raises(ValueError):
            retrieve_qoi(fields, v_total(), 1e-2, method="oracle")

    def test_invalid_tolerance(self, velocity_fields):
        _, fields = velocity_fields
        with pytest.raises(ValueError):
            retrieve_qoi(fields, v_total(), 0.0)

    def test_invalid_switch_threshold(self, velocity_fields):
        _, fields = velocity_fields
        with pytest.raises(ValueError):
            retrieve_qoi(fields, v_total(), 1e-2, method="mape",
                         switch_threshold=0.5)

    def test_custom_initial_bounds(self, velocity_fields):
        _, fields = velocity_fields
        result = retrieve_qoi(
            fields, v_total(), 1e-2, method="mape",
            initial_bounds={k: 0.5 for k in fields},
        )
        assert result.estimated_error <= 1e-2

    def test_qoi_values_shape(self, velocity_fields):
        original, fields = velocity_fields
        result = retrieve_qoi(fields, v_total(), 1e-2)
        assert result.qoi_values.shape == original["vx"].shape
        assert result.num_elements == original["vx"].size

    def test_qoi_without_variables_fetches_nothing(self, velocity_fields):
        _, fields = velocity_fields
        result = retrieve_qoi(fields, const(2.0), 1e-2)
        assert (result.iterations, result.fetched_bytes) == (1, 0)
        assert result.estimated_error == 0.0 and result.qoi_values == 2.0


@pytest.fixture(scope="module")
def mixed_fields(velocity_fields):
    """The velocity fields plus a field ``w`` of another shape."""
    _, fields = velocity_fields
    w = gen.turbulence_velocity((8, 12, 12), seed=3, dtype=np.float64)[0]
    return {**fields, "w": refactor(w, name="w")}


@pytest.fixture(scope="module")
def mixed_store(mixed_fields):
    store = MemoryStore()
    for field in mixed_fields.values():
        store_field(store, field)
    return store


# (QoI, keyword arguments, what the ValueError must name)
BAD_CALLS = [
    (v_total(), dict(initial_bounds={"vx": 0.5, "vz": 0.5}),
     r"initial_bounds .*'vy'"),
    (v_total(), dict(initial_bounds={"vx": 0.5, "vy": np.nan, "vz": 0.5}),
     r"initial_bounds\['vy'\]"),
    (v_total(), dict(initial_bounds={"vx": 0.5, "vy": 0.5, "vz": np.inf}),
     r"initial_bounds\['vz'\]"),
    (v_total(), dict(max_iterations=0), "max_iterations"),
    (v_total(), dict(tolerance=np.nan), "tolerance"),
    (var("vx") + var("w"), {}, "shape"),
]


class TestArgumentsCheckedFirst:
    """Both entry points reject a bad argument with a ValueError naming
    it, before any segment is fetched or decoded."""

    @pytest.fixture
    def untouched(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fetched or decoded before validating")

        monkeypatch.setattr(retrieval, "fetch_fields", refuse)
        monkeypatch.setattr(Reconstructor, "decode_step", refuse)

    @pytest.mark.parametrize("qoi, kwargs, names", BAD_CALLS)
    def test_retrieve_qoi(self, mixed_fields, untouched, qoi, kwargs,
                          names):
        kwargs = {"tolerance": 1e-2, **kwargs}
        with pytest.raises(ValueError, match=names):
            retrieve_qoi(mixed_fields, qoi, **kwargs)

    @pytest.mark.parametrize("qoi, kwargs, names", BAD_CALLS)
    def test_service(self, mixed_store, untouched, qoi, kwargs, names):
        kwargs = {"tolerance": 1e-2, **kwargs}
        with RetrievalService(mixed_store) as service:
            with pytest.raises(ValueError, match=names):
                service.retrieve_qoi(qoi, **kwargs)
            stats = service.stats()
            assert stats["sessions"]["decode_state_bytes"] == 0
            assert stats["qoi"]["memo_entries"] == 0

    def test_extra_initial_bounds_are_ignored(self, velocity_fields):
        _, fields = velocity_fields
        bounds = {k: 0.5 for k in fields}
        want = retrieve_qoi(fields, v_total(), 1e-2, initial_bounds=bounds)
        got = retrieve_qoi(fields, v_total(), 1e-2,
                           initial_bounds={**bounds, "p": 1.0})
        assert got.qoi_values.tobytes() == want.qoi_values.tobytes()
        assert got.history == want.history


class TestNextGroupBound:
    def test_bound_decreases(self, velocity_fields):
        _, fields = velocity_fields
        f = fields["vx"]
        start = [0] * len(f.levels)
        base = sum(
            w * lv.error_bound_for_groups(0)
            for w, lv in zip(f.level_weights, f.levels)
        )
        nb = next_group_bound(f, start)
        assert nb < base

    def test_exhausted_returns_current(self, velocity_fields):
        _, fields = velocity_fields
        f = fields["vx"]
        full = f.max_groups()
        current = sum(
            w * lv.error_bound_for_groups(g)
            for w, lv, g in zip(f.level_weights, f.levels, full)
        )
        assert next_group_bound(f, full) == current
