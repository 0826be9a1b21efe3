"""Progressive reconstruction: stream + tolerance → field.

The :class:`Reconstructor` is stateful: it remembers which plane groups
it already "fetched", so successive calls at tighter tolerances only pay
for the increment — the defining behaviour of progressive retrieval.
Since PR 4 that statefulness extends to *compute*: each level's decoded
integer partials are retained between steps
(:class:`~repro.bitplane.encoding.PartialDecodeState`), so a refinement
step decompresses and injects only the plane groups added since the
previous step instead of re-decoding everything from plane 0 (the
incremental-decode behaviour of HPDR, arXiv:2503.06322). Every result
carries a rigorous L∞ ``error_bound`` that the actual error provably
does not exceed (tested property).

A step runs one way: :meth:`Reconstructor.plan_step` (metadata only) →
:meth:`Reconstructor.fetch_step` (the only place a step reads the
store) → :meth:`Reconstructor.decode_step` (a plain per-level loop,
recompose, commit). :meth:`Reconstructor.reconstruct` is those three
calls; the tiled engine's sequential, pipelined and process routes call
the same three, only on different threads. An untiled reconstructor is
serial — the execution backend applies to refactorers and to the tiled
engine, whose unit of parallel work is a tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitplane.encoding import (
    PartialDecodeState,
    apply_planes,
    decode_bitplanes,
    finalize_decode,
)
from repro.core.errors import StoreError
from repro.core.planner import RetrievalPlan, plan_full, plan_greedy
from repro.core.stream import RefactoredField
from repro.decompose import MultilevelTransform
from repro.util.validation import check_on_fault, check_tolerance


@dataclass
class ReconstructionResult:
    """One progressive retrieval step's output.

    ``tolerance`` is always the *absolute* L∞ tolerance the step
    resolved to (NaN for near-lossless ``tolerance=None`` retrieval);
    when the step was requested with ``relative=True`` the original
    fraction is kept in ``relative_tolerance``, so
    ``error_bound <= tolerance`` is a meaningful check either way.

    ``cold_bytes`` / ``cache_hit_bytes`` split this step's actual segment
    traffic into backing-store reads versus shared-cache hits. They are
    populated only for store-backed lazy fields (see
    :func:`repro.core.store.open_field`); for in-memory eager fields the
    data never crosses an I/O boundary and both stay 0.

    ``decoded_groups`` / ``decoded_planes`` count the plane groups and
    bitplanes this step actually decompressed and injected — on the
    incremental engine a refinement step reports only the increment.

    ``degraded`` marks a step answered from the session's last
    *committed* refinement because the storage tier faulted and the
    caller asked for ``on_fault="degrade"``; ``failed_groups`` then
    records the per-level group counts the aborted plan wanted, and
    ``error_bound``/``plan`` describe what was actually returned. A
    follow-up call retries exactly the missing increment (session
    state never committed the failed step).
    """

    data: np.ndarray
    error_bound: float
    tolerance: float
    fetched_bytes: int  # cumulative bytes fetched so far
    incremental_bytes: int  # bytes newly fetched by this step
    plan: RetrievalPlan
    cold_bytes: int = 0  # this step's bytes read from the backing store
    cache_hit_bytes: int = 0  # this step's bytes served by a shared cache
    relative_tolerance: float | None = None  # requested fraction, if any
    decoded_groups: int = 0  # plane groups decompressed by this step
    decoded_planes: int = 0  # bitplanes injected by this step
    degraded: bool = False  # answered from the last committed refinement
    failed_groups: list[int] | None = None  # aborted plan's group counts

    @property
    def bitrate(self) -> float:
        """Cumulative bits per element — the retrieval-efficiency metric."""
        return 8.0 * self.fetched_bytes / self.data.size


@dataclass
class StepPlan:
    """One progressive step's resolved plan, before any decode work.

    Produced by :meth:`Reconstructor.plan_step` from pure metadata
    (tolerance resolution + planner output merged with the session's
    committed fetch progress); consumed by
    :meth:`Reconstructor.fetch_step` (which resolves exactly the
    segments the step needs, levels ascending, groups ascending) and
    :meth:`Reconstructor.decode_step` (which runs the decode pass and
    commits). Splitting the phases is what lets the pipelined runtime
    (:mod:`repro.pipeline.retrieval`) overlap one tile's fetch with
    another's decode while staying bit-identical to
    :meth:`Reconstructor.reconstruct`, which is literally
    ``plan_step`` → ``fetch_step`` → ``decode_step``.

    ``io_before`` snapshots the field's I/O counters at plan time, so a
    step whose fetch stage ran ahead on another thread still reports
    the whole step's cold/cached traffic in its result.
    """

    tolerance: float | None  # resolved absolute tolerance (None = all)
    relative_tolerance: float | None  # requested fraction, if any
    groups: list[int]  # per-level targets, merged with fetch progress
    incremental_bytes: int  # payload bytes the step newly requires
    io_before: object | None = None  # IOCounters snapshot at plan time


@dataclass
class DecodeCounters:
    """Cumulative decode-work accounting of one :class:`Reconstructor`.

    The instrumentation behind the incremental-decode guarantee: tests
    and benchmarks assert that a refinement step's deltas cover only the
    newly planned plane groups.
    """

    groups_decoded: int = 0
    planes_decoded: int = 0
    level_decodes: int = 0  # level decode jobs that did any work
    level_reuses: int = 0  # levels served verbatim from cached values

    def snapshot(self) -> "DecodeCounters":
        return DecodeCounters(
            self.groups_decoded, self.planes_decoded,
            self.level_decodes, self.level_reuses,
        )

    def since(self, earlier: "DecodeCounters") -> "DecodeCounters":
        """Counter deltas accumulated after *earlier* was snapshotted."""
        return DecodeCounters(
            self.groups_decoded - earlier.groups_decoded,
            self.planes_decoded - earlier.planes_decoded,
            self.level_decodes - earlier.level_decodes,
            self.level_reuses - earlier.level_reuses,
        )


class Reconstructor:
    """Tolerance-driven, incremental reconstruction of one variable.

    ``incremental=True`` (the default) retains each level's partial
    integer coefficients between steps and decodes only newly planned
    plane groups; ``incremental=False`` keeps the full re-decode of
    every fetched group on every step — the pre-incremental reference
    path, retained for equivalence tests and as the benchmark baseline
    (both paths are bit-identical at every step of a staircase).

    Levels decode in a plain loop on the calling thread: the finest
    level holds 7/8 of a 3-D field's coefficients, so a per-level
    fan-out measured slower than this loop; parallelism lives one layer
    up, across tiles (:class:`~repro.core.tiling.TiledReconstructor`).

    ``transform`` lets a caller managing many same-geometry fields
    (the tiled engine: hundreds of identical-shape tiles) share one
    :class:`~repro.decompose.MultilevelTransform` across their
    reconstructors instead of rebuilding the grid geometry per field;
    it must match the field's shape/levels/mode. The transform is
    read-only during reconstruction, so sharing it is safe even when
    tiles decode concurrently.
    """

    def __init__(
        self,
        field: RefactoredField,
        incremental: bool = True,
        transform: MultilevelTransform | None = None,
    ) -> None:
        self.field = field
        self.incremental = bool(incremental)
        if transform is None:
            transform = MultilevelTransform(
                field.shape,
                num_levels=field.num_levels,
                mode=field.mode,
                min_size=field.min_size,
            )
        elif (
            transform.shape != tuple(field.shape)
            or transform.num_levels != field.num_levels
            or transform.mode != field.mode
            or transform.geometry.min_size != field.min_size
        ):
            raise ValueError(
                f"shared transform geometry (shape={transform.shape}, "
                f"num_levels={transform.num_levels}, "
                f"mode={transform.mode!r}, "
                f"min_size={transform.geometry.min_size}) does not match "
                f"the field (shape={tuple(field.shape)}, "
                f"num_levels={field.num_levels}, mode={field.mode!r}, "
                f"min_size={field.min_size})"
            )
        self.transform = transform
        self._fetched = [0] * len(field.levels)
        self._fetched_bytes = 0
        # Per-level retained decode state: integer partials + the last
        # finalized float values. Committed only after a whole step
        # succeeds, so a failed fetch/decode leaves the session able to
        # retry the same increment.
        self._states: list[PartialDecodeState | None] = (
            [None] * len(field.levels)
        )
        self._values: list[np.ndarray | None] = [None] * len(field.levels)
        self.decode_counters = DecodeCounters()

    @property
    def fetched_groups(self) -> list[int]:
        """Cumulative per-level group counts fetched so far."""
        return list(self._fetched)

    @property
    def fetched_bytes(self) -> int:
        return self._fetched_bytes

    def decode_state_bytes(self) -> int:
        """Resident bytes of retained per-level decode state.

        Counts the integer partials (magnitude/negabinary words + sign
        bits) and the cached finalized level values the incremental
        engine keeps between steps; 0 until the first step (and always
        for ``incremental=False`` sessions).
        """
        total = 0
        for state in self._states:
            if state is not None:
                total += state.nbytes
        for values in self._values:
            if values is not None:
                total += int(values.nbytes)
        return total

    def _validate_plan(self, plan: RetrievalPlan) -> None:
        """Reject malformed explicit plans at the API boundary.

        A wrong-length ``groups_per_level`` previously zip-truncated
        silently (too long) or died deep in ``assemble_levels`` (too
        short); out-of-range group counts failed inside the codec.
        """
        groups = plan.groups_per_level
        levels = self.field.levels
        if len(groups) != len(levels):
            raise ValueError(
                f"plan has {len(groups)} per-level group counts but the "
                f"field has {len(levels)} levels"
            )
        for idx, (g, lv) in enumerate(zip(groups, levels)):
            if not 0 <= int(g) <= lv.num_groups:
                raise ValueError(
                    f"plan group count {g} for level {idx} is outside "
                    f"[0, {lv.num_groups}]"
                )

    def reconstruct(
        self,
        tolerance: float | None = None,
        relative: bool = False,
        plan: RetrievalPlan | None = None,
        on_fault: str = "raise",
    ) -> ReconstructionResult:
        """Reconstruct to *tolerance* (L∞), fetching only the increment.

        ``relative=True`` interprets the tolerance as a fraction of the
        original value range (the SZ/MGARD convention used in the
        paper's evaluation); on a constant field (``value_range == 0``)
        any fraction resolves to 0, so the call short-circuits to the
        documented near-lossless path instead of silently demanding an
        unreachable bound. ``tolerance=None`` retrieves everything
        (near-lossless). An explicit ``plan`` overrides planning. Session
        state (fetch progress and retained decode partials) commits only
        after the whole step decodes successfully, so a failed lazy-store
        fetch can simply be retried.

        ``on_fault`` controls what a storage-tier failure
        (:class:`~repro.core.errors.StoreError` — a missing segment,
        exhausted retries, persistent corruption) does: ``"raise"``
        (default) propagates it; ``"degrade"`` falls back to the
        session's last committed refinement — the result carries
        ``degraded=True``, ``failed_groups`` (the aborted plan), and
        the honest (looser) ``error_bound`` of what was returned.
        Because the failed step never committed, simply calling again
        resumes exactly where the fault hit.
        """
        check_on_fault(on_fault)
        step = self.plan_step(tolerance, relative=relative, plan=plan)
        fetch_error = None
        try:
            self.fetch_step(step)
        except StoreError as exc:
            fetch_error = exc
        return self.decode_step(
            step, on_fault=on_fault, fetch_error=fetch_error
        )

    def plan_step(
        self,
        tolerance: float | None = None,
        relative: bool = False,
        plan: RetrievalPlan | None = None,
    ) -> StepPlan:
        """Resolve one step's tolerance and per-level group targets.

        Pure metadata: tolerance resolution, planning, and the merge
        with the session's committed fetch progress touch no segment
        payloads (lazy fields plan from :class:`~repro.core.stream.
        SegmentRef` sizes alone). The returned :class:`StepPlan` feeds
        :meth:`fetch_step`, then :meth:`decode_step`.
        """
        # Store-backed lazy fields track actual segment traffic; snapshot
        # before planning (a pre-metadata index can force fetches there)
        # to report this step's cold vs. cached split.
        io = getattr(self.field, "io_counters", None)
        io_before = io.snapshot() if io is not None else None
        requested = check_tolerance(tolerance, allow_none=True)
        relative_requested = requested if relative else None
        resolved = requested
        if relative and requested is not None:
            resolved = requested * self.field.value_range
        if plan is not None:
            self._validate_plan(plan)
        elif requested is None:
            plan = plan_full(self.field)
        elif relative and self.field.value_range == 0.0:
            # Constant field: value_range is 0, so every relative
            # fraction resolves to absolute 0 — fetch everything
            # deliberately (the documented near-lossless path) rather
            # than silently asking the planner for an unreachable bound.
            plan = plan_full(self.field)
        else:
            plan = plan_greedy(self.field, resolved, start=self._fetched)
        # Progressive: never un-fetch; merge with what we already have.
        groups = [
            max(have, int(want))
            for have, want in zip(self._fetched, plan.groups_per_level)
        ]
        incremental = sum(
            lv.bytes_for_groups(g) - lv.bytes_for_groups(have)
            for lv, g, have in zip(self.field.levels, groups, self._fetched)
        )
        return StepPlan(
            tolerance=resolved,
            relative_tolerance=relative_requested,
            groups=groups,
            incremental_bytes=incremental,
            io_before=io_before,
        )

    def fetch_step(self, step: StepPlan) -> None:
        """Fetch stage of one step: resolve every segment it needs.

        The one place a step reads the store. Touches the (possibly
        lazy) group sequences levels ascending, groups ascending over
        ``[committed, planned)`` within each, so a seeded fault schedule
        (:class:`~repro.core.faults.FaultInjectingStore` keys its
        deterministic draws on per-key access counts) replays
        identically whether fetch runs inline or on a pipeline's fetch
        stage. Successful fetches memoize on the field, so
        :meth:`decode_step` finds them resident without touching the
        store; a partial fetch before a fault stays memoized, and the
        retry pays only for the rest. Eager in-memory fields no-op
        (plain list indexing). Raises
        :class:`~repro.core.errors.StoreError` at the first failing
        segment; the caller hands that error to :meth:`decode_step` (as
        ``fetch_error``) rather than retrying, which would shift access
        counts.
        """
        for lv, have, want in zip(
            self.field.levels, self._fetched, step.groups
        ):
            for g in range(have, want):
                lv.groups[g]  # memoizing touch; lazy sequences fetch here

    def decode_step(
        self,
        step: StepPlan,
        on_fault: str = "raise",
        fetch_error: BaseException | None = None,
    ) -> ReconstructionResult:
        """Decode/recompose/commit one planned step.

        The decode phase of :meth:`reconstruct`: decodes ``step.groups``
        level by level from the segments :meth:`fetch_step` memoized (so
        it reads nothing from the store), assembles and recomposes, and
        commits session state. ``fetch_error`` is the
        :class:`~repro.core.errors.StoreError` the fetch stage raised,
        if any: it is re-raised here so ``on_fault`` decides in one
        place — ``"raise"`` propagates it, ``"degrade"`` falls back to
        the committed refinement, which is store-free by construction.
        """
        check_on_fault(on_fault)
        resolved = step.tolerance
        relative_requested = step.relative_tolerance
        io_before = step.io_before
        groups = list(step.groups)
        incremental = step.incremental_bytes

        decode_level = (
            self._decode_level_incremental if self.incremental
            else self._decode_level_full
        )
        degraded = False
        failed_groups: list[int] | None = None
        try:
            if fetch_error is not None:
                raise fetch_error
            outcomes = [
                decode_level(idx, want) for idx, want in enumerate(groups)
            ]
        except StoreError:
            if on_fault != "degrade":
                raise
            # Fall back to the last committed refinement: every group in
            # [0, have) is already memoized in the (lazy) field and every
            # committed level value is cached, so this decode pass
            # touches no store and cannot fault again.
            degraded = True
            failed_groups = groups
            groups = list(self._fetched)
            incremental = 0
            outcomes = [
                decode_level(idx, want) for idx, want in enumerate(groups)
            ]

        level_values = [values for values, _, _ in outcomes]
        coeffs = self.transform.assemble_levels(level_values)
        # assemble_levels only reads the level arrays and returns a fresh
        # owned float64 buffer, so the cached values survive the step and
        # the recompose can run in place on the assembly (and the result
        # is ours to hand out without a defensive copy).
        data = self.transform.recompose(coeffs, overwrite=True).astype(
            self.field.dtype, copy=False
        )
        bound = sum(
            w * lv.error_bound_for_groups(g)
            for w, lv, g in zip(
                self.field.level_weights, self.field.levels, groups
            )
        )
        # Commit session state only now that every level decoded: a
        # failed fetch/decode above leaves fetch progress and retained
        # partials exactly as before the call (tested property).
        step_groups = step_planes = 0
        for idx, (values, state, decoded) in enumerate(outcomes):
            if state is not None:
                self._states[idx] = state
                self._values[idx] = values
            d_groups, d_planes = decoded
            step_groups += d_groups
            step_planes += d_planes
            if d_groups or d_planes:
                self.decode_counters.level_decodes += 1
            else:
                self.decode_counters.level_reuses += 1
        self.decode_counters.groups_decoded += step_groups
        self.decode_counters.planes_decoded += step_planes
        self._fetched = groups
        self._fetched_bytes += incremental

        if io_before is not None:
            io_step = self.field.io_counters.since(io_before)
            cold_bytes = io_step.cold_bytes
            cache_hit_bytes = io_step.cache_hit_bytes
        else:
            cold_bytes = cache_hit_bytes = 0
        return ReconstructionResult(
            data=data,
            error_bound=bound,
            tolerance=float("nan") if resolved is None else float(resolved),
            fetched_bytes=self._fetched_bytes,
            incremental_bytes=incremental,
            cold_bytes=cold_bytes,
            cache_hit_bytes=cache_hit_bytes,
            relative_tolerance=relative_requested,
            decoded_groups=step_groups,
            decoded_planes=step_planes,
            degraded=degraded,
            failed_groups=failed_groups,
            plan=RetrievalPlan(
                groups_per_level=groups,
                error_bound=bound,
                fetched_bytes=sum(
                    lv.bytes_for_groups(g)
                    for lv, g in zip(self.field.levels, groups)
                ),
            ),
        )

    # -- per-level decode engines -----------------------------------------
    def _decode_level_incremental(
        self, idx: int, want: int
    ) -> tuple[np.ndarray, PartialDecodeState | None, tuple[int, int]]:
        """Decode only groups ``[have, want)`` into the retained state.

        Reads (but never mutates) the session's committed state, so a
        failure anywhere in the step leaves it retryable; returns the
        advanced state for the caller to commit.
        """
        lv = self.field.levels[idx]
        state = self._states[idx]
        if state is None:
            state = lv.empty_decode_state(np.dtype(np.float64))
        have = self._fetched[idx]
        if want > have:
            planes = lv.decompress_group_range(have, want)
            state = apply_planes(state, planes, state.planes_applied)
            return finalize_decode(state), state, (want - have, len(planes))
        values = self._values[idx]
        if values is None:  # first step and this level planned 0 groups
            values = finalize_decode(state)
        return values, state, (0, 0)

    def _decode_level_full(
        self, idx: int, want: int
    ) -> tuple[np.ndarray, None, tuple[int, int]]:
        """Pre-incremental reference: re-decode every fetched group."""
        lv = self.field.levels[idx]
        values = decode_bitplanes(
            lv.to_bitplane_stream(
                want, np.dtype(np.float64), self.field.design
            ),
            lv.planes_in_groups(want),
        )
        return values, None, (want, lv.planes_in_groups(want))

    def progressive(
        self,
        tolerances: list[float],
        relative: bool = False,
        on_fault: str = "raise",
    ) -> list[ReconstructionResult]:
        """Reconstruct at a decreasing tolerance schedule.

        Returns one result per tolerance; ``incremental_bytes`` of each
        step is the extra data movement that step required — the series
        plotted in Fig. 8(b). ``on_fault="degrade"`` lets a faulting
        staircase keep walking: failed steps return the last committed
        refinement (marked ``degraded``) and later steps retry the
        missing increments.
        """
        return [
            self.reconstruct(tolerance=t, relative=relative,
                             on_fault=on_fault)
            for t in tolerances
        ]


def reconstruct(
    field: RefactoredField,
    tolerance: float | None = None,
    relative: bool = False,
) -> ReconstructionResult:
    """One-shot convenience wrapper around :class:`Reconstructor`."""
    return Reconstructor(field).reconstruct(tolerance, relative=relative)
