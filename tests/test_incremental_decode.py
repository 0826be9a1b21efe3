"""Incremental plane-group decode engine + planner/result integrity.

The central property: walking a tolerance staircase with the
incremental engine is *bit-identical* to a from-scratch full decode
(the ``oracles.full_decode`` oracle over the per-plane one-shot decoder
of ``oracles.bitplane_decode``) at every step — for eager and
store-backed lazy fields, a fresh session stepping straight to the same
groups, and service sessions — while decoding only the newly fetched
plane groups (asserted via the instrumented decode counters). Plus
regression tests for the verified state/validation bugs fixed
alongside it.
"""

import dataclasses

import numpy as np
import pytest
from oracles.bitplane_decode import decode_reference
from oracles.full_decode import full_decode

from repro.bitplane.encoding import (
    apply_planes,
    begin_decode_state,
    encode_bitplanes,
    finalize_decode,
    finalize_many,
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
def field_f32():
    data = gen.gaussian_random_field((14, 15, 13), -2.0, seed=8,
                                     dtype=np.float32)
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


def _resume(stream, k=None, state=None):
    """Planes ``[state.planes_applied, k)`` of *stream* injected into
    *state* (a fresh one when ``None``): ``(values, state)`` through
    ``begin_decode_state`` / ``apply_planes`` / ``finalize_decode``."""
    if state is None:
        state = begin_decode_state(
            num_elements=stream.num_elements,
            num_bitplanes=stream.num_bitplanes,
            exponent=stream.exponent,
            max_abs=stream.max_abs,
            dtype=stream.dtype,
            layout=stream.layout,
            warp_size=stream.warp_size,
            signed_encoding=stream.signed_encoding,
        )
    k = stream.num_planes if k is None else k
    state = apply_planes(
        state, stream.planes[state.planes_applied:k], state.planes_applied
    )
    return finalize_decode(state), state


def _fresh_step(field, groups):
    """A fresh session's one step straight to *groups* per level."""
    recon = Reconstructor(field)
    step = dataclasses.replace(recon.plan_step(), groups=list(groups))
    recon.fetch_step(step)
    return recon.decode_step(step)


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
            values, state = _resume(stream, k, state)
            reference = decode_reference(stream, k)
            assert np.array_equal(values, reference)
            assert state.planes_applied == k

    def test_single_plane_steps_match(self):
        rng = np.random.default_rng(3)
        data = (rng.standard_normal(65) * 40).astype(np.float32)
        stream = encode_bitplanes(data, num_bitplanes=12)
        state = None
        for k in range(stream.num_planes + 1):
            values, state = _resume(stream, k, state)
            assert np.array_equal(values, decode_reference(stream, k))

    def test_finalize_leaves_state_reusable(self):
        data = np.linspace(-1, 1, 50)
        stream = encode_bitplanes(data, num_bitplanes=16)
        _, state = _resume(stream, 4)
        first = finalize_decode(state)
        second = finalize_decode(state)  # idempotent, no state mutation
        assert np.array_equal(first, second)
        values, _ = _resume(stream, stream.num_planes, state)
        assert np.array_equal(values, decode_reference(stream))

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
        _, state = _resume(stream)
        with pytest.raises(ValueError, match="stored planes"):
            apply_planes(state, stream.planes[:1], state.planes_applied)

    def test_empty_apply_is_identity(self):
        stream = encode_bitplanes(np.arange(33.0), num_bitplanes=8)
        _, state = _resume(stream, 3)
        assert apply_planes(state, [], 3) is state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("encoding", ["sign_magnitude", "negabinary"])
    @pytest.mark.parametrize("layout", ["locality_block", "register_block"])
    def test_prefix_finalizes_as_a_fresh_decode(self, dtype, encoding,
                                                layout):
        """A state holding q planes cut to p <= q finalizes bit for bit
        as a fresh decode of the first p planes, p = 0 included (no
        signs, so no −0.0), alone or batched with other cuts."""
        rng = np.random.default_rng(17)
        data = (rng.standard_normal(301) * 3).astype(dtype)
        data[::7] = 0.0
        data[1::11] *= -1e-3
        stream = encode_bitplanes(data, num_bitplanes=23, design=layout,
                                  signed_encoding=encoding)
        for q in (0, 1, 2, 9, stream.num_planes):
            _, held = _resume(stream, q)
            cuts, fresh = [], []
            for p in range(q + 1):
                cut = held.prefix(p)
                want, state = _resume(stream, p)
                assert cut.planes_applied == p
                assert finalize_decode(cut).tobytes() == want.tobytes()
                assert finalize_decode(cut).tobytes() == (
                    decode_reference(stream, p).tobytes())
                cuts.append(cut)
                fresh.append(state)
            assert finalize_many(cuts).tobytes() == (
                finalize_many(fresh).tobytes())
            assert held.prefix(q) is held
            with pytest.raises(ValueError, match="prefix"):
                held.prefix(q + 1)

    def test_state_nbytes_counts_retained_arrays(self):
        stream = encode_bitplanes(np.arange(100.0), num_bitplanes=8)
        _, state = _resume(stream, 2)
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
            scratch = _fresh_step(_lazy_copy(field) if lazy else field,
                                  ri.plan.groups_per_level)
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

    @pytest.mark.parametrize("which", ["field_f64", "field_nega"])
    def test_steps_below_committed_answer_a_fresh_decode(self, which,
                                                         request):
        """Steps to arbitrary group vectors, some levels below what the
        session committed, two sessions per batch: each answers the
        data and bound of a fresh session's step to the same groups,
        decodes only groups it never had, and commits the running
        maximum."""
        field, _ = request.getfixturevalue(which)
        rng = np.random.default_rng(23)
        recons = [Reconstructor(_lazy_copy(field)) for _ in range(2)]
        for _ in range(12):
            targets = [[int(rng.integers(0, m + 1))
                        for m in field.max_groups()] for _ in recons]
            before = [r.fetched_groups for r in recons]
            steps = [dataclasses.replace(r.plan_step(), groups=list(g))
                     for r, g in zip(recons, targets)]
            for r, step in zip(recons, steps):
                r.fetch_step(step)
            got = Reconstructor.decode_steps(
                [(r, step, None) for r, step in zip(recons, steps)])
            for r, g, had, result in zip(recons, targets, before, got):
                want = _fresh_step(field, g)
                assert result.data.tobytes() == want.data.tobytes()
                assert result.error_bound == want.error_bound
                assert result.plan.groups_per_level == g
                assert r.fetched_groups == list(map(max, had, g))
                assert result.decoded_groups == sum(
                    max(0, b - a) for a, b in zip(had, g))

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
# The in-place body: narrow words, inject into committed words, undo
# ---------------------------------------------------------------------
def _snapshot(recon):
    """Bytes of everything a step may commit: words, signs, cached
    values (``None`` where absent) and the counters."""
    def raw(a):
        return None if a is None else (a.dtype.str, a.tobytes())
    return ([(raw(st.words), raw(st.signs), st.planes_applied)
             if st is not None else None for st in recon._states],
            [raw(v) for v in recon._values],
            dataclasses.astuple(recon.counters()), recon.fetched_groups)


class _FinalizeFault(Exception):
    pass


class TestInPlaceBody:
    @pytest.mark.parametrize("encoding, bits, word", [
        ("sign_magnitude", 1, np.uint32), ("sign_magnitude", 32, np.uint32),
        ("sign_magnitude", 33, np.uint64), ("negabinary", 8, np.uint64),
    ])
    def test_words_are_uint32_where_they_fit(self, encoding, bits, word):
        state = begin_decode_state(
            num_elements=5, num_bitplanes=bits, exponent=0, max_abs=1.0,
            dtype=np.float32, signed_encoding=encoding)
        assert state.words.dtype == word

    @pytest.mark.parametrize("encoding", ["sign_magnitude", "negabinary"])
    def test_apply_planes_leaves_its_input_unchanged(self, encoding):
        data = np.random.default_rng(4).standard_normal(301)
        stream = encode_bitplanes(data.astype(np.float32), 32,
                                  signed_encoding=encoding)
        _, held = _resume(stream, 5)
        words, signs = held.words.tobytes(), held.signs
        signs = None if signs is None else signs.tobytes()
        values, state = _resume(stream, 20, held)
        assert held.words.tobytes() == words and held.planes_applied == 5
        assert (held.signs is None if signs is None
                else held.signs.tobytes() == signs)
        assert not np.shares_memory(state.words, held.words)
        assert values.tobytes() == decode_reference(stream, 20).tobytes()

    def test_a_step_injects_into_the_committed_words(self, field_f64):
        field, _ = field_f64
        recon = Reconstructor(field)
        recon.reconstruct(tolerance=1e-1)
        before = [st.words for st in recon._states]
        applied = [st.planes_applied for st in recon._states]
        recon.reconstruct(tolerance=1e-4)
        refined = [i for i, st in enumerate(recon._states)
                   if st.planes_applied > applied[i] > 0]
        assert refined
        assert all(recon._states[i].words is before[i] for i in refined)

    @pytest.mark.parametrize("which", ["field_f32", "field_nega"])
    @pytest.mark.parametrize("fail_at", ["first", "last"])
    def test_failed_finalize_rolls_back_the_inject(self, which, fail_at,
                                                   request, monkeypatch):
        """Finalize raises after the planes went into the committed
        words (on the first or the last refined level): words, signs,
        cached values and counters are as they were, bit for bit, and a
        retry equals a fresh session."""
        import repro.core.reconstruct as rc

        field, _ = request.getfixturevalue(which)
        recon = Reconstructor(field)
        recon.reconstruct(tolerance=1e-1)
        committed = _snapshot(recon)
        step = recon.plan_step(1e-4)
        refined = sum(g > h for g, h in zip(step.groups,
                                            recon.fetched_groups))
        assert refined >= 2
        calls = []

        def failing(states):
            calls.append(states)
            if fail_at == "first" or len(calls) == refined:
                raise _FinalizeFault
            return finalize_many(states)

        monkeypatch.setattr(rc, "finalize_many", failing)
        with pytest.raises(_FinalizeFault):
            recon.reconstruct(tolerance=1e-4)
        monkeypatch.undo()
        assert _snapshot(recon) == committed
        again = recon.reconstruct(tolerance=1e-4)
        fresh = Reconstructor(field)
        fresh.reconstruct(tolerance=1e-1)
        want = fresh.reconstruct(tolerance=1e-4)
        assert again.data.tobytes() == want.data.tobytes()
        assert _snapshot(recon) == _snapshot(fresh)

    def test_a_later_batch_failing_rolls_back_the_earlier_ones(
            self, field_f32, field_nega, monkeypatch):
        """Two geometries in one ``decode_steps`` call decode as two
        batches; the second one's failure takes the first one's planes
        back out of its committed words."""
        import repro.core.reconstruct as rc

        recons = [Reconstructor(f) for f, _ in (field_f32, field_nega)]
        for recon in recons:
            recon.reconstruct(tolerance=1e-1)
        committed = [_snapshot(r) for r in recons]
        victim = recons[1].field.levels[0].num_elements

        def failing(states):
            if states[0].num_elements == victim:
                raise _FinalizeFault
            return finalize_many(states)

        items = [(r, r.plan_step(1e-4), None) for r in recons]
        for recon, step, _ in items:
            recon.fetch_step(step)
        monkeypatch.setattr(rc, "finalize_many", failing)
        with pytest.raises(_FinalizeFault):
            Reconstructor.decode_steps(items)
        assert [_snapshot(r) for r in recons] == committed

    def test_f32_state_is_13_bytes_per_element(self, field_f32):
        """uint32 words, one sign byte and the float64 values cached per
        level: 13 B per element (17 with uint64 words)."""
        field, data = field_f32
        recon = Reconstructor(field)
        recon.reconstruct()
        assert recon.decode_state_bytes() == 13 * data.size


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
