"""Incremental plane-group decode engine + planner/result integrity.

The central property: walking a tolerance staircase with the
incremental engine is *bit-identical* to a from-scratch full decode
(the ``oracles.full_decode`` oracle) at every step — for eager and
store-backed lazy fields, tolerance-driven and explicit-plan stepping,
and service sessions — while decoding
only the newly fetched plane groups (asserted via the instrumented
decode counters). Plus regression tests for the four verified
state/validation bugs fixed alongside it.
"""

import numpy as np
import pytest
from oracles.full_decode import full_decode

from repro.bitplane.encoding import (
    apply_planes,
    begin_decode_state,
    decode_bitplanes,
    decode_bitplanes_incremental,
    encode_bitplanes,
    finalize_decode,
)
from repro.core.planner import plan_greedy, plan_round_robin
from repro.core.reconstruct import Reconstructor, reconstruct
from repro.core.refactor import RefactorConfig, refactor
from repro.core.service import RetrievalService
from repro.core.store import (
    MemoryStore,
    open_field,
    open_tiled_field,
    store_field,
)
from repro.core.tiling import TiledReconstructor
from repro.data import generators as gen

STAIRCASE = [1e-1, 1e-2, 1e-3, 1e-4]


@pytest.fixture(scope="module")
def field_f64():
    data = gen.gaussian_random_field((16, 17, 18), -2.5, seed=2,
                                     dtype=np.float64)
    return refactor(data), data


@pytest.fixture(scope="module")
def field_nega():
    data = gen.gaussian_random_field((12, 13, 11), -2.0, seed=5,
                                     dtype=np.float32)
    cfg = RefactorConfig(signed_encoding="negabinary")
    return refactor(data, cfg), data


def _lazy_copy(field):
    store = MemoryStore()
    store_field(store, field)
    return open_field(store, field.name)


# ---------------------------------------------------------------------
# Codec level: resumable decode == full decode, bit for bit
# ---------------------------------------------------------------------
class TestResumableCodec:
    @pytest.mark.parametrize("design", ["register_block", "locality_block"])
    @pytest.mark.parametrize("encoding", ["sign_magnitude", "negabinary"])
    def test_chained_resume_matches_full_decode(self, design, encoding):
        rng = np.random.default_rng(11)
        data = rng.standard_normal(777).astype(np.float64)
        stream = encode_bitplanes(
            data, num_bitplanes=20, design=design, signed_encoding=encoding
        )
        checkpoints = [0, 1, 2, 7, 13, stream.num_planes]
        state = None
        for k in checkpoints:
            values, state = decode_bitplanes_incremental(stream, k, state)
            reference = decode_bitplanes(stream, k)
            assert np.array_equal(values, reference)
            assert state.planes_applied == k

    def test_single_plane_steps_match(self):
        rng = np.random.default_rng(3)
        data = (rng.standard_normal(65) * 40).astype(np.float32)
        stream = encode_bitplanes(data, num_bitplanes=12)
        state = None
        for k in range(stream.num_planes + 1):
            values, state = decode_bitplanes_incremental(stream, k, state)
            assert np.array_equal(values, decode_bitplanes(stream, k))

    def test_finalize_leaves_state_reusable(self):
        data = np.linspace(-1, 1, 50)
        stream = encode_bitplanes(data, num_bitplanes=16)
        _, state = decode_bitplanes_incremental(stream, 4)
        first = finalize_decode(state)
        second = finalize_decode(state)  # idempotent, no state mutation
        assert np.array_equal(first, second)
        values, _ = decode_bitplanes_incremental(
            stream, stream.num_planes, state
        )
        assert np.array_equal(values, decode_bitplanes(stream))

    def test_apply_planes_requires_contiguous_resume(self):
        stream = encode_bitplanes(np.arange(9.0), num_bitplanes=8)
        state = begin_decode_state(
            num_elements=stream.num_elements,
            num_bitplanes=stream.num_bitplanes,
            exponent=stream.exponent,
            max_abs=stream.max_abs,
            dtype=stream.dtype,
            layout=stream.layout,
            warp_size=stream.warp_size,
        )
        with pytest.raises(ValueError, match="resume at plane 0"):
            apply_planes(state, stream.planes[2:4], 2)

    def test_apply_planes_rejects_overflow(self):
        stream = encode_bitplanes(np.arange(9.0), num_bitplanes=8)
        _, state = decode_bitplanes_incremental(stream)
        with pytest.raises(ValueError, match="stored planes"):
            apply_planes(state, stream.planes[:1], state.planes_applied)

    def test_resume_cannot_go_backwards(self):
        stream = encode_bitplanes(np.arange(9.0), num_bitplanes=8)
        _, state = decode_bitplanes_incremental(stream, 5)
        with pytest.raises(ValueError, match="fresh state"):
            decode_bitplanes_incremental(stream, 3, state)

    def test_state_stream_mismatch_rejected(self):
        a = encode_bitplanes(np.arange(9.0), num_bitplanes=8)
        b = encode_bitplanes(np.arange(10.0), num_bitplanes=8)
        _, state = decode_bitplanes_incremental(a, 3)
        with pytest.raises(ValueError, match="does not match"):
            decode_bitplanes_incremental(b, 5, state)

    def test_state_dtype_mismatch_rejected(self):
        # Same geometry, different output dtype: resuming would
        # silently break bit-identity with decode_bitplanes.
        a = encode_bitplanes(np.arange(9.0, dtype=np.float32),
                             num_bitplanes=8)
        b = encode_bitplanes(np.arange(9.0, dtype=np.float64),
                             num_bitplanes=8)
        _, state = decode_bitplanes_incremental(a, 3)
        with pytest.raises(ValueError, match="does not match"):
            decode_bitplanes_incremental(b, 5, state)

    def test_empty_apply_is_identity(self):
        stream = encode_bitplanes(np.arange(33.0), num_bitplanes=8)
        _, state = decode_bitplanes_incremental(stream, 3)
        assert apply_planes(state, [], 3) is state

    def test_state_nbytes_counts_retained_arrays(self):
        stream = encode_bitplanes(np.arange(100.0), num_bitplanes=8)
        _, state = decode_bitplanes_incremental(stream, 2)
        assert state.nbytes == state.words.nbytes + state.signs.nbytes


# ---------------------------------------------------------------------
# Reconstructor: staircases are bit-identical to from-scratch decodes
# ---------------------------------------------------------------------
class TestIncrementalReconstructor:
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_staircase_bit_identical_tolerance_driven(
        self, field_f64, lazy
    ):
        field, data = field_f64
        inc_field = _lazy_copy(field) if lazy else field
        ful_field = _lazy_copy(field) if lazy else field
        inc = Reconstructor(inc_field)
        for tol in STAIRCASE:
            ri = inc.reconstruct(tolerance=tol)
            rf = full_decode(ful_field, inc.fetched_groups)
            assert np.array_equal(ri.data, rf)
            # A fresh session at the same cumulative plan.
            scratch = Reconstructor(
                _lazy_copy(field) if lazy else field
            ).reconstruct(plan=ri.plan)
            assert np.array_equal(ri.data, scratch.data)
            err = float(np.max(np.abs(ri.data - data)))
            assert err <= ri.error_bound

    def test_staircase_bit_identical_negabinary(self, field_nega):
        field, data = field_nega
        inc = Reconstructor(field)
        for tol in STAIRCASE:
            ri = inc.reconstruct(tolerance=tol, relative=True)
            rf = full_decode(field, inc.fetched_groups)
            assert np.array_equal(ri.data, rf)
            err = float(np.max(np.abs(
                ri.data.astype(np.float64) - data.astype(np.float64)
            )))
            assert err <= ri.error_bound

    def test_explicit_plan_staircase(self, field_f64):
        field, _ = field_f64
        plans = [plan_greedy(field, tol) for tol in STAIRCASE]
        inc = Reconstructor(field)
        for plan in plans:
            ri = inc.reconstruct(plan=plan)
            scratch = Reconstructor(field).reconstruct(plan=plan)
            assert np.array_equal(ri.data, scratch.data)

    def test_refinement_decodes_only_increment(self, field_f64):
        field, _ = field_f64
        recon = Reconstructor(field)
        prev = [0] * len(field.levels)
        for tol in STAIRCASE:
            r = recon.reconstruct(tolerance=tol)
            new_groups = sum(
                g - p for g, p in zip(recon.fetched_groups, prev)
            )
            assert r.decoded_groups == new_groups
            prev = recon.fetched_groups
        # Re-asking for an already-met tolerance does no decode work.
        before = recon.counters()
        r = recon.reconstruct(tolerance=STAIRCASE[-1])
        assert r.decoded_groups == 0 and r.decoded_planes == 0
        delta = recon.counters() - before
        assert delta.groups_decoded == 0 and delta.planes_decoded == 0
        assert delta.level_reuses == len(field.levels)

    def test_lazy_refinement_fetches_only_new_segments(self, field_f64):
        field, _ = field_f64
        lazy = _lazy_copy(field)
        recon = Reconstructor(lazy)
        recon.reconstruct(tolerance=STAIRCASE[0])
        reads_after_first = lazy.io_counters.segment_reads
        r = recon.reconstruct(tolerance=STAIRCASE[-1])
        new_reads = lazy.io_counters.segment_reads - reads_after_first
        assert new_reads == r.decoded_groups  # one segment per new group

    def test_decode_state_bytes_reported(self, field_f64):
        field, _ = field_f64
        recon = Reconstructor(field)
        assert recon.decode_state_bytes() == 0
        recon.reconstruct(tolerance=1e-2)
        assert recon.decode_state_bytes() > 0


# ---------------------------------------------------------------------
# Bug 1: non-finite tolerances must be rejected, not silently planned
# ---------------------------------------------------------------------
class TestNonFiniteTolerance:
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_planners_reject(self, field_f64, bad):
        field, _ = field_f64
        with pytest.raises(ValueError, match="finite"):
            plan_greedy(field, bad)
        with pytest.raises(ValueError, match="finite"):
            plan_round_robin(field, bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_reconstruct_rejects(self, field_f64, bad):
        field, _ = field_f64
        recon = Reconstructor(field)
        with pytest.raises(ValueError, match="finite"):
            recon.reconstruct(tolerance=bad)
        with pytest.raises(ValueError, match="finite"):
            recon.reconstruct(tolerance=bad, relative=True)


# ---------------------------------------------------------------------
# Bug 2: malformed explicit plans fail at the API boundary
# ---------------------------------------------------------------------
class TestPlanValidation:
    def test_short_plan_rejected(self, field_f64):
        field, _ = field_f64
        plan = plan_greedy(field, 1e-2)
        plan.groups_per_level = plan.groups_per_level[:1]
        with pytest.raises(ValueError, match="levels"):
            Reconstructor(field).reconstruct(plan=plan)

    def test_long_plan_rejected(self, field_f64):
        field, _ = field_f64
        plan = plan_greedy(field, 1e-2)
        plan.groups_per_level = plan.groups_per_level + [1]
        with pytest.raises(ValueError, match="levels"):
            Reconstructor(field).reconstruct(plan=plan)

    def test_out_of_range_group_count_rejected(self, field_f64):
        field, _ = field_f64
        plan = plan_greedy(field, 1e-2)
        plan.groups_per_level = list(plan.groups_per_level)
        plan.groups_per_level[0] = field.levels[0].num_groups + 3
        with pytest.raises(ValueError, match="outside"):
            Reconstructor(field).reconstruct(plan=plan)
        plan.groups_per_level[0] = -1
        with pytest.raises(ValueError, match="outside"):
            Reconstructor(field).reconstruct(plan=plan)


# ---------------------------------------------------------------------
# Bug 3: relative results record the resolved absolute tolerance
# ---------------------------------------------------------------------
class TestRelativeToleranceRecording:
    def test_absolute_request_records_no_fraction(self, field_f64):
        field, _ = field_f64
        r = reconstruct(field, tolerance=1e-2)
        assert r.tolerance == 1e-2
        assert r.relative_tolerance is None

    def test_relative_request_records_resolved_absolute(self, field_f64):
        field, _ = field_f64
        r = reconstruct(field, tolerance=1e-2, relative=True)
        assert r.tolerance == pytest.approx(1e-2 * field.value_range)
        assert r.relative_tolerance == 1e-2
        # The comparison users actually write is now meaningful.
        assert r.error_bound <= r.tolerance

    def test_near_lossless_records_nan(self, field_f64):
        field, _ = field_f64
        r = reconstruct(field)
        assert np.isnan(r.tolerance)
        assert r.relative_tolerance is None

    @pytest.mark.parametrize("engine", ["untiled", "tiled"])
    def test_relative_without_tolerance_is_rejected(self, field_f64, engine):
        # Both engines agree: near-lossless has no fraction to scale.
        field, _ = field_f64
        store = MemoryStore()
        store_field(store, field)
        recon = (Reconstructor(open_field(store, field.name))
                 if engine == "untiled"
                 else TiledReconstructor(open_tiled_field(store, field.name)))
        with pytest.raises(ValueError, match="requires a tolerance"):
            recon.reconstruct(tolerance=None, relative=True)


# ---------------------------------------------------------------------
# Bug 4: failed fetch/decode must not commit progressive state
# ---------------------------------------------------------------------
class _FlakyStore:
    """Segment reader that fails the next *fail_times* segment gets."""

    def __init__(self, store, fail_times=0):
        self._store = store
        self.fail_times = fail_times

    def get(self, key):
        if ".G" in key and self.fail_times > 0:
            self.fail_times -= 1
            raise OSError(f"transient store failure on {key}")
        return self._store.get(key)

    def size_of(self, key):
        return self._store.size_of(key)

    def keys(self):
        return self._store.keys()

    def __contains__(self, key):
        return key in self._store


class TestCommitOnlyAfterDecode:
    def _flaky_field(self, field, fail_times=0):
        store = MemoryStore()
        store_field(store, field)
        flaky = _FlakyStore(store, fail_times)
        return flaky, open_field(flaky, field.name)

    def test_failed_first_step_leaves_session_clean(self, field_f64):
        field, _ = field_f64
        flaky, lazy = self._flaky_field(field, fail_times=1)
        recon = Reconstructor(lazy)
        with pytest.raises(OSError):
            recon.reconstruct(tolerance=1e-3)
        assert recon.fetched_groups == [0] * len(field.levels)
        assert recon.fetched_bytes == 0
        assert recon.decode_state_bytes() == 0
        assert recon.counters().groups_decoded == 0
        # Retry succeeds and is bit-identical to an untroubled session.
        r = recon.reconstruct(tolerance=1e-3)
        clean = Reconstructor(field).reconstruct(tolerance=1e-3)
        assert np.array_equal(r.data, clean.data)
        assert r.fetched_bytes == clean.fetched_bytes

    def test_failed_refinement_keeps_prior_step_state(self, field_f64):
        field, _ = field_f64
        flaky, lazy = self._flaky_field(field)
        recon = Reconstructor(lazy)
        first = recon.reconstruct(tolerance=1e-1)
        groups_before = recon.fetched_groups
        bytes_before = recon.fetched_bytes
        state_before = recon.decode_state_bytes()
        flaky.fail_times = 1
        with pytest.raises(OSError):
            recon.reconstruct(tolerance=1e-4)
        assert recon.fetched_groups == groups_before
        assert recon.fetched_bytes == bytes_before
        assert recon.decode_state_bytes() == state_before
        # The session still refines correctly once the store recovers.
        r = recon.reconstruct(tolerance=1e-4)
        clean = Reconstructor(field)
        clean.reconstruct(tolerance=1e-1)
        ref = clean.reconstruct(tolerance=1e-4)
        assert np.array_equal(r.data, ref.data)
        assert r.fetched_bytes == ref.fetched_bytes
        assert first.fetched_bytes == bytes_before


# ---------------------------------------------------------------------
# Bug 5 (+doc): relative tolerance on a constant field
# ---------------------------------------------------------------------
class TestConstantFieldRelative:
    @pytest.fixture(scope="class")
    def constant_field(self):
        data = np.full((12, 13), 5.0, dtype=np.float64)
        return refactor(data), data

    def test_short_circuits_to_near_lossless(self, constant_field):
        field, data = constant_field
        assert field.value_range == 0.0
        r = reconstruct(field, tolerance=0.05, relative=True)
        # Deliberate near-lossless retrieval, with honest bookkeeping:
        # the resolved absolute tolerance is 0 and the full stream is
        # planned (same plan as tolerance=None), not an accident.
        assert r.tolerance == 0.0
        assert r.relative_tolerance == 0.05
        assert r.plan.groups_per_level == field.max_groups()
        assert float(np.max(np.abs(r.data - data))) <= r.error_bound

    def test_negative_relative_tolerance_still_rejected(
        self, constant_field
    ):
        # The short-circuit must not bypass sign validation (a negative
        # fraction on a constant field previously slipped through to
        # plan_full without any error).
        field, _ = constant_field
        with pytest.raises(ValueError, match=">= 0"):
            reconstruct(field, tolerance=-0.5, relative=True)

    def test_staircase_on_constant_field_is_stable(self, constant_field):
        field, _ = constant_field
        recon = Reconstructor(field)
        r1 = recon.reconstruct(tolerance=1e-1, relative=True)
        r2 = recon.reconstruct(tolerance=1e-3, relative=True)
        assert np.array_equal(r1.data, r2.data)
        assert r2.incremental_bytes == 0  # already fully fetched
        assert r2.decoded_groups == 0


# ---------------------------------------------------------------------
# Service integration: sessions expose decode-state residency
# ---------------------------------------------------------------------
class TestServiceDecodeState:
    def test_stats_report_session_decode_state(self, field_f64):
        field, _ = field_f64
        store = MemoryStore()
        store_field(store, field)
        service = RetrievalService(store)
        with service.session(field.name) as session:
            assert service.stats()["sessions"]["open"] == 1
            assert session.decode_state_bytes == 0
            session.reconstruct(tolerance=1e-2)
            stats = service.stats()
            assert stats["sessions"]["decode_state_bytes"] > 0
            assert (session.stats()["decode_state_bytes"]
                    == session.decode_state_bytes)
        # close() unregisters the session.
        assert service.stats()["sessions"]["open"] == 0
        service.close()

    def test_session_staircase_matches_full_decode(self, field_f64):
        field, _ = field_f64
        store = MemoryStore()
        store_field(store, field)
        service = RetrievalService(store)
        with service.session(field.name) as session:
            for tol in STAIRCASE:
                r = session.reconstruct(tolerance=tol)
                [recon] = session.reconstructor.touched_reconstructors()
                ref = full_decode(field, recon.fetched_groups)
                assert np.array_equal(r.data, ref)
        service.close()
