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
:meth:`Reconstructor.fetch_step` (the only store read) →
:meth:`Reconstructor.decode_step` (decode, recompose, commit).
:meth:`Reconstructor.reconstruct` is those three calls. The decode is
the one-step call of :meth:`Reconstructor.decode_steps`, the batch body
the tiled engine runs over a batch of tiles on every route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitplane.encoding import (
    PartialDecodeState,
    apply_planes_many,
    finalize_many,
    withdraw_planes,
)
from repro.bitplane.register_block import stored_order_targets
from repro.core.errors import StoreError
from repro.core.planner import (
    RetrievalPlan, greedy_table, plan_at, plan_full, plan_greedy_many)
from repro.core.stream import Counters, RefactoredField
from repro.decompose import transform_for
from repro.lossless.hybrid import decompress_group_lists
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
    committed fetch progress); consumed by the fetch stage (exactly the
    segments the step needs) and the decode stage (decode and commit).
    Splitting the phases lets a pipelined
    :class:`~repro.core.tiling.TiledReconstructor` step overlap one
    tile batch's fetch with another's decode, bit-identically.

    ``before`` is :meth:`Reconstructor.counters` at plan time, so a
    step whose fetch stage ran ahead on another thread still reports
    the whole step's traffic and decode work in its result.
    """

    tolerance: float | None  # resolved absolute tolerance (None = all)
    relative_tolerance: float | None  # requested fraction, if any
    groups: list[int]  # per-level targets; may lie below committed
    incremental_bytes: int  # payload bytes the step newly requires
    before: Counters  # the reconstructor's counters at plan time


class Reconstructor:
    """Tolerance-driven, incremental reconstruction of one variable.

    Each level's partial integer coefficients are retained between
    steps, so a step decodes only the plane groups newly planned since
    the previous one — bit-identical to a from-scratch decode of the
    same groups. This is the per-tile step engine: a service session
    runs it through :class:`~repro.core.tiling.TiledReconstructor`
    (an untiled variable is a one-tile field there).

    Levels decode in a plain loop on the calling thread; parallelism and
    batching live one layer up, across tiles
    (:class:`~repro.core.tiling.TiledReconstructor`).

    The grid transform comes from
    :func:`~repro.decompose.transform_for`, so every reconstructor of a
    geometry shares the process's one (read-only during reconstruction,
    so safe even when tiles decode concurrently).
    """

    def __init__(self, field: RefactoredField) -> None:
        self.field = field
        self.transform = transform_for(
            field.shape, field.num_levels, field.mode, field.min_size)
        self._fetched = [0] * len(field.levels)
        # Committed bytes and decode work; a lazy field counts its own
        # segment traffic, and counters() sums the two.
        self._counters = Counters()
        self._io = getattr(field, "io_counters", None) or Counters()
        # Per-level retained decode state: integer partials + the last
        # finalized float values. Committed only after a whole step
        # succeeds, so a failed fetch/decode leaves the session able to
        # retry the same increment.
        self._states: list[PartialDecodeState | None] = (
            [None] * len(field.levels)
        )
        self._values: list[np.ndarray | None] = [None] * len(field.levels)
        self._plan_table = None

    @property
    def fetched_groups(self) -> list[int]:
        """Cumulative per-level group counts fetched so far."""
        return list(self._fetched)

    @property
    def fetched_bytes(self) -> int:
        return self._counters.fetched_bytes

    def counters(self) -> Counters:
        """This session's :class:`~repro.core.stream.Counters`: committed
        bytes and decode work, the field's segment traffic (zero for an
        eager field), and the :meth:`decode_state_bytes` gauge."""
        total = self._counters + self._io
        total.decode_state_bytes = self.decode_state_bytes()
        return total

    def decode_state_bytes(self) -> int:
        """Resident bytes of retained per-level decode state.

        Counts the integer partials (magnitude/negabinary words + sign
        bits) and the cached finalized level values the incremental
        engine keeps between steps; 0 until the first step.
        """
        total = 0
        for state in self._states:
            if state is not None:
                total += state.nbytes
        for values in self._values:
            if values is not None:
                total += int(values.nbytes)
        return total

    def reconstruct(
        self,
        tolerance: float | None = None,
        relative: bool = False,
        on_fault: str = "raise",
    ) -> ReconstructionResult:
        """Reconstruct to *tolerance* (L∞), fetching only the increment.

        ``relative=True`` interprets the tolerance as a fraction of the
        original value range (the SZ/MGARD convention used in the
        paper's evaluation); on a constant field (``value_range == 0``)
        any fraction resolves to 0, so the call short-circuits to the
        documented near-lossless path instead of silently demanding an
        unreachable bound. ``tolerance=None`` retrieves everything
        (near-lossless); with ``relative=True`` it is rejected, as in
        :class:`~repro.core.tiling.TiledReconstructor`. Session state
        (fetch progress and retained decode partials) commits only
        after the whole step decodes successfully, so a failed
        lazy-store fetch can simply be retried.

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
        step = self.plan_step(tolerance, relative=relative)
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
    ) -> StepPlan:
        """Resolve one step's tolerance and per-level group targets.

        Pure metadata: tolerance resolution, planning, and the merge
        with the session's committed fetch progress touch no segment
        payloads (lazy fields plan from the sizes and plane counts of
        their :class:`~repro.core.stream.SegmentRef` s). The returned
        :class:`StepPlan` feeds :meth:`fetch_step`, then
        :meth:`decode_step`. The K = 1 call of :meth:`plan_steps`.
        """
        return self.plan_steps([self], tolerance, relative)[0]

    @staticmethod
    def plan_steps(recons, tolerance=None, relative=False) -> list:
        """:meth:`plan_step` of K sessions at one tolerance, their greedy
        plans from one :func:`~repro.core.planner.plan_greedy_many`."""
        if relative and tolerance is None:
            raise ValueError(
                "relative=True requires a tolerance; near-lossless "
                "retrieval (tolerance=None) has no value range to scale"
            )
        requested = check_tolerance(tolerance, allow_none=True)
        resolved = [requested * recon.field.value_range
                    if relative and requested is not None else requested
                    for recon in recons]
        # Near-lossless, or a constant field (every relative fraction
        # resolves to 0): the documented full plan.
        full = [requested is None or (
            relative and recon.field.value_range == 0.0) for recon in recons]
        # Progressive: never un-fetch; plan on from what we already have.
        return _plan_from(recons, resolved, [r._fetched for r in recons],
                          full, requested if relative else None)

    def fetch_step(self, step: StepPlan) -> None:
        """Fetch stage of one step — the one place a step reads the store.

        One request for the keys of groups ``[committed, planned)``,
        levels then groups ascending, so a seeded fault schedule replays
        identically on every route; what arrived before a fault stays
        memoized. Raises the first failing key's
        :class:`~repro.core.errors.StoreError`, which the caller hands
        to :meth:`decode_step` as ``fetch_error`` (never retried: that
        would shift per-key access counts).
        """
        self.field.fetch_groups(list(zip(self._fetched, step.groups)))

    def decode_step(
        self,
        step: StepPlan,
        on_fault: str = "raise",
        fetch_error: BaseException | None = None,
    ) -> ReconstructionResult:
        """Decode, recompose and commit one planned step: the K = 1
        call of :meth:`decode_steps`, reading nothing from the store."""
        return self.decode_steps([(self, step, fetch_error)], on_fault)[0]

    @staticmethod
    def decode_steps(items, on_fault: str = "raise") -> list:
        """The decode body: K planned steps, each stage once per level.

        *items* are ``(reconstructor, step, fetch_error)`` in job order.
        The steps' new groups are resolved first (a lazy group's
        ``StoreError`` is its step's fault), then decoded by one
        :func:`~repro.lossless.hybrid.decompress_group_lists` call; per
        level, injection and finalization run over the ``(K, n)`` stack
        of same-geometry steps (exponent, dropped planes and signs per
        row) and scatter into a ``(K, *shape)`` stack that one recompose
        serves — the arithmetic per element of K one-step calls. A level
        whose target lies below its committed count (a QoI call resuming
        a kept reconstructor) finalizes a prefix of the committed state,
        which stays committed: the answer is a fresh decode's. A fault
        is per step: ``"degrade"`` answers it from its committed
        refinement (nothing to decode, so nothing to fault again);
        ``"raise"`` commits the steps before it, then raises it.
        Anything else raised before a step commits first withdraws the
        planes the body ORed into that step's committed words.
        """
        check_on_fault(on_fault)
        rows, failure = [], None
        for recon, step, fault in items:
            try:
                if fault is not None:
                    raise fault
                rows.append((recon, step, list(step.groups), None, [
                    lv.group_range(have, want) if want > have else None
                    for lv, have, want in zip(
                        recon.field.levels, recon._fetched, step.groups)
                ]))
            except StoreError as exc:
                if on_fault != "degrade":
                    failure = exc
                    break
                rows.append((recon, step, list(recon._fetched),
                             list(step.groups), [None] * len(step.groups)))
        planes = iter(decompress_group_lists([
            groups for row in rows for groups in row[4] if groups]))
        rows = [(*row[:4], [groups and next(planes) for groups in row[4]])
                for row in rows]
        batches: dict[tuple, list[int]] = {}
        for r, (recon, *_) in enumerate(rows):
            batches.setdefault((recon.transform, recon.field.dtype, *(
                (lv.num_bitplanes, lv.signed_encoding, lv.layout,
                 lv.warp_size) for lv in recon.field.levels)), []).append(r)
        decoded: list = [None] * len(rows)
        injected: list = []
        try:
            for (transform, dtype, *_), members in batches.items():
                batch = [rows[r] for r in members]
                for r, out in zip(members, _decode_rows(
                        transform, dtype, batch, injected)):
                    decoded[r] = out
            results = [recon._commit(step, groups, failed, *out) for (
                recon, step, groups, failed, _), out in zip(rows, decoded)]
        except BaseException:
            _withdraw(injected)
            raise
        if failure is not None:
            raise failure
        return results

    def _commit(self, step, groups, failed_groups, data, outcomes):
        """Commit one decoded step (only now: a failed step leaves the
        session exactly as it was) and describe it as a result."""
        plan = plan_at(self.field, groups)
        c = self._counters
        for idx, (values, state, (d_groups, d_planes)) in enumerate(outcomes):
            self._states[idx] = state
            self._values[idx] = values
            c.groups_decoded += d_groups
            c.planes_decoded += d_planes
            c.level_decodes += bool(d_groups or d_planes)
            c.level_reuses += not (d_groups or d_planes)
        incremental = step.incremental_bytes if failed_groups is None else 0
        self._fetched = [max(have, g) for have, g in zip(self._fetched, groups)]
        c.fetched_bytes += incremental
        spent = self.counters() - step.before
        return ReconstructionResult(
            data=data,
            error_bound=plan.error_bound,
            tolerance=(float("nan") if step.tolerance is None
                       else float(step.tolerance)),
            fetched_bytes=c.fetched_bytes,
            incremental_bytes=incremental,
            cold_bytes=spent.cold_bytes,
            cache_hit_bytes=spent.cache_hit_bytes,
            relative_tolerance=step.relative_tolerance,
            decoded_groups=spent.groups_decoded,
            decoded_planes=spent.planes_decoded,
            degraded=failed_groups is not None,
            failed_groups=failed_groups,
            plan=plan,
        )


def _plan_from(recons, tolerances, starts, full=None,
               relative_tolerance=None) -> list[StepPlan]:
    """:class:`StepPlan` s of K sessions, each reaching its own tolerance
    from its own *starts*, the greedy plans from one
    :func:`~repro.core.planner.plan_greedy_many` (``full[i]``: plan
    everything instead).

    A step's targets are ``max(start, planned)``. A session step starts
    from the committed counts; a QoI call starts from the counts it has
    planned itself, so a target may lie below the committed count: the
    decode body answers that level from a prefix of the committed state.
    """
    full = full or [False] * len(recons)
    plans = [plan_full(recon.field) if f else None
             for recon, f in zip(recons, full)]
    greedy = [i for i, p in enumerate(plans) if p is None]
    for i in greedy:  # built on a session's first greedy plan
        if recons[i]._plan_table is None:
            recons[i]._plan_table = greedy_table(recons[i].field)
    for i, found in zip(greedy, plan_greedy_many(
            [recons[i].field for i in greedy],
            [tolerances[i] for i in greedy],
            [starts[i] for i in greedy],
            [recons[i]._plan_table for i in greedy])):
        plans[i] = found
    steps = []
    for recon, p, tol, start in zip(recons, plans, tolerances, starts):
        groups = [max(have, int(want))
                  for have, want in zip(start, p.groups_per_level)]
        steps.append(StepPlan(tol, relative_tolerance, groups, sum(
            lv.bytes_for_groups(max(g, have)) - lv.bytes_for_groups(have)
            for lv, g, have in zip(recon.field.levels, groups,
                                   recon._fetched)), recon.counters()))
    return steps


_FLOAT64 = np.dtype(np.float64)


def _withdraw(injected) -> None:
    """Undo the in-place injections of a step that raised: each
    ``(recon, level, state)`` whose words are still the committed
    state's loses the planes it gained (a fresh or stacked state owns
    its words, and a committed step's state is the committed one)."""
    for recon, idx, state in injected:
        committed = recon._states[idx]
        if (committed is not None and committed is not state
                and committed.words is state.words):
            withdraw_planes(state, committed.planes_applied)


def _targets(transform, idx, level) -> np.ndarray:
    """Where level *idx*'s values, in their stored order, land in the
    flat coefficient grid: its natural indices, composed with the tile
    permutation for a ``warp`` level."""
    index = transform.level_indices()[idx]
    if level.layout != "warp":
        return index
    return stored_order_targets(index, (transform.geometry, idx),
                                level.num_bitplanes, level.warp_size)


def _decode_rows(transform, dtype, rows, injected) -> list[tuple]:
    """:meth:`Reconstructor.decode_steps` over same-geometry rows:
    ``(data, outcomes)`` per row, ``outcomes[level] = (values, state,
    (groups, planes))``, the level's state and values to commit. One
    row stacks nothing: its ``(1, n)`` operands are views of its own
    arrays, and its planes are ORed into its committed words (each
    injected state goes on *injected*, for :func:`_withdraw`). Values
    stay in stored order; one scatter per row puts them in place. A
    level whose target lies below the committed count is answered from
    the committed state's prefix and commits it unchanged.
    """
    k = len(rows)
    coeffs = np.empty((k, *transform.shape))  # the levels partition it
    flat = coeffs.reshape(k, -1)
    recons = [row[0] for row in rows]
    outcomes: list[list] = [[] for _ in rows]
    for idx, level in enumerate(recons[0].field.levels):
        planes = [row[4][idx] for row in rows]
        states = [recon._states[idx] or recon.field.levels[idx]
                  .empty_decode_state(_FLOAT64) for recon in recons]
        new = [r for r, p in enumerate(planes) if p is not None]
        if new:
            for r, state in zip(new, apply_planes_many(
                    [states[r] for r in new], [planes[r] for r in new])):
                injected.append((recons[r], idx, state))
                states[r] = state
        cut = {r: states[r].prefix(recon.field.levels[idx].planes_in_groups(
            row[2][idx])) for r, (recon, row) in enumerate(zip(recons, rows))
            if row[2][idx] < recon._fetched[idx]}
        # An unchanged level reuses its cached values.
        values = [recon._values[idx] if p is None and r not in cut else None
                  for r, (recon, p) in enumerate(zip(recons, planes))]
        stale = [r for r, v in enumerate(values) if v is None]
        if stale:  # refined, cut, or never finalized (0 groups planned)
            for r, v in zip(stale, finalize_many(
                    [cut.get(r, states[r]) for r in stale])):
                values[r] = v
        targets = _targets(transform, idx, level)
        for row_coeffs, v in zip(flat, values):
            row_coeffs[targets] = v  # 1-D scatters beat one 2-D one
        for r, (out, recon, row, p, v, state) in enumerate(zip(
                outcomes, recons, rows, planes, values, states)):
            out.append((recon._values[idx] if r in cut else v, state,
                        (0, 0) if p is None else (
                            row[2][idx] - recon._fetched[idx], len(p))))
    # The stack is ours: recompose in place, and hand out row views.
    data = transform.recompose(coeffs[0] if k == 1 else coeffs,
                               overwrite=True).astype(dtype, copy=False)
    return list(zip(data[None] if k == 1 else data, outcomes))


def reconstruct(
    field: RefactoredField,
    tolerance: float | None = None,
    relative: bool = False,
) -> ReconstructionResult:
    """One-shot convenience wrapper around :class:`Reconstructor`."""
    return Reconstructor(field).reconstruct(tolerance, relative=relative)
