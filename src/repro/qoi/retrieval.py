"""Algorithm 3: progressive retrieval with guaranteed QoI error control.

The driver alternates fetching/recomposing each variable toward its
current error bound (memory operations, pipelined in the paper) with the
vectorized QoI error estimation kernel (compute), updating bounds via
CP / MA / MAPE until the estimated supremum error meets the tolerance.
Because the estimate is rigorous (interval arithmetic over rigorous
per-variable L∞ bounds), the returned data *provably* satisfies the QoI
tolerance — the Fig. 13 invariant.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.core.reconstruct import Reconstructor, _plan_from
from repro.core.stream import Counters, RefactoredField, fetch_fields
from repro.qoi.eb_methods import (
    EB_METHODS,
    cp_update,
    ma_update,
    mape_update,
)
from repro.qoi.expressions import QoI, _estimate, _memo_key
from repro.util.validation import check_tolerance


@dataclass
class QoIIterationRecord:
    """Telemetry for one Algorithm 3 iteration.

    ``cold_bytes`` is the cumulative backing-store traffic after this
    iteration; it stays 0 for in-memory eager fields (see
    :class:`~repro.core.reconstruct.ReconstructionResult`).
    """

    iteration: int
    error_bounds: dict[str, float]
    estimated_error: float
    fetched_bytes: int
    cold_bytes: int = 0


@dataclass
class QoIRetrievalResult:
    """Output of :func:`retrieve_qoi`.

    For store-backed lazy fields (:func:`repro.core.store.open_field`,
    typically via :meth:`repro.core.service.RetrievalService.retrieve_qoi`)
    ``cold_bytes``/``cache_hit_bytes`` split the segment traffic this call
    caused into backing-store reads versus shared-cache hits; both stay 0
    for in-memory eager fields.
    """

    values: dict[str, np.ndarray]
    qoi_values: np.ndarray
    estimated_error: float
    tolerance: float
    iterations: int
    fetched_bytes: int
    num_elements: int
    method: str
    history: list[QoIIterationRecord] = dc_field(default_factory=list)
    cold_bytes: int = 0
    cache_hit_bytes: int = 0

    @property
    def bitrate(self) -> float:
        """Fetched bits per grid point, summed over all variables —
        the metric of Tables 2 and 3 (lower is better)."""
        return 8.0 * self.fetched_bytes / self.num_elements


def retrieve_qoi(
    fields: dict[str, RefactoredField],
    qoi: QoI,
    tolerance: float,
    method: str = "mape",
    switch_threshold: float = 10.0,
    initial_bounds: dict[str, float] | None = None,
    max_iterations: int = 200,
) -> QoIRetrievalResult:
    """Retrieve just enough bitplanes for ``|QoI error| ≤ tolerance``.

    Parameters mirror Algorithm 3: ``fields`` maps variable names to
    refactored streams (names must match the QoI's variables, and the
    variables must share one shape), ``method`` selects the
    next-error-bound estimator, and ``switch_threshold`` is MAPE's
    ``c``. Initial bounds default to 5% of each variable's value range
    (at least the tolerance) — loose enough that the loop genuinely
    iterates, as in the paper; given, they must name every variable
    with a finite bound > 0. A bad argument raises ``ValueError``
    naming it before anything is fetched or decoded.
    """
    missing = qoi.variables() - set(fields)
    if missing:
        raise ValueError(f"missing refactored variables: {sorted(missing)}")
    return _retrieve(
        {name: Reconstructor(fields[name]) for name in qoi.variables()},
        _IterationMemo(), qoi, tolerance, method, switch_threshold,
        initial_bounds, max_iterations,
    )


# Entries an iteration memo keeps, least recently used evicted first.
# An entry is a few floats per variable.
MEMO_ENTRIES = 256


@dataclass(frozen=True)
class _Outcome:
    """What one Algorithm 3 iteration found, bar the decoded values:
    each variable's achieved bound, the QoI error estimate, and each
    variable's value at the estimate's worst point (CP's next bounds).
    ``qoi`` is held so that an identity-keyed expression outlives its
    key."""

    qoi: QoI
    bounds: dict[str, float]
    estimated: float
    worst: dict[str, float]


class _IterationMemo:
    """Algorithm 3 iteration outcomes by ``(QoI key, plan groups)``.

    Over a fixed set of opened fields an outcome is a function of the
    expression and each variable's planned group counts alone, so an
    iteration that plans what an earlier one did can replay its outcome
    instead of fetching, recomposing and estimating again. ``hits``
    counts the iterations replayed. Not thread-safe: its owner
    serializes the calls that use it.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key) -> _Outcome | None:
        outcome = self._entries.get(key)
        if outcome is not None:
            self._entries.move_to_end(key)
        return outcome

    def put(self, key, outcome: _Outcome) -> None:
        self._entries[key] = outcome
        self._entries.move_to_end(key)
        if len(self._entries) > MEMO_ENTRIES:
            self._entries.popitem(last=False)


def _retrieve(
    recons: dict[str, Reconstructor],
    memo: _IterationMemo,
    qoi: QoI,
    tolerance: float,
    method: str = "mape",
    switch_threshold: float = 10.0,
    initial_bounds: dict[str, float] | None = None,
    max_iterations: int = 200,
) -> QoIRetrievalResult:
    """Algorithm 3 on one :class:`Reconstructor` per QoI variable.

    The call plans as a fresh call would, from its own group counts
    (zero at the start), and asks the reconstructors for exactly those
    groups: a reconstructor that earlier calls left further along
    answers a level from a prefix of its committed state and decodes
    only the groups it never had. An iteration whose plan *memo*
    already holds, and which cannot end the call (its estimate is above
    the tolerance, its plan is not exhausted and iterations remain),
    replays the recorded outcome: no fetch, decode or estimate. An
    iteration that may end the call always decodes, since its values
    are the answer. So every answer is bit-identical to a fresh call's,
    and ``fetched_bytes`` is its plan's bytes, while ``cold_bytes`` /
    ``cache_hit_bytes`` count the segments this call really read.
    """
    names = sorted(recons)
    kept = [recons[name] for name in names]
    fields = {name: recons[name].field for name in names}
    tolerance, bounds = _check_call(
        fields, tolerance, method, switch_threshold, initial_bounds,
        max_iterations)
    groups = {name: [0] * len(fields[name].levels) for name in names}
    qoi_key = _memo_key(qoi)

    def counters() -> Counters:
        return sum((r.counters() for r in kept), Counters())

    # Lazy fields count cumulative traffic: subtract where they stood,
    # so this call reports only the traffic it caused itself.
    start = counters()
    history: list[QoIIterationRecord] = []
    values: dict[str, np.ndarray] = {}
    iteration = 0
    while True:
        iteration += 1
        # Fetch + recompose every variable to its current bound (the
        # pipelined memory/compute phase of Algorithm 3): one plan and
        # one store request for all variables.
        steps = _plan_from(kept, [bounds[name] for name in names],
                           [groups[name] for name in names])
        groups = {name: step.groups for name, step in zip(names, steps)}
        exhausted = all(
            groups[name] == fields[name].max_groups() for name in names)
        final = exhausted or iteration >= max_iterations
        key = (qoi_key, tuple(tuple(groups[name]) for name in names))
        outcome = memo.get(key)
        if outcome is None or final or outcome.estimated <= tolerance:
            outcome, center = _answer(qoi, names, kept, steps, values)
            memo.put(key, outcome)
        else:
            memo.hits += 1
        history.append(
            QoIIterationRecord(
                iteration=iteration,
                error_bounds=dict(outcome.bounds),
                estimated_error=outcome.estimated,
                fetched_bytes=_plan_bytes(fields, groups),
                cold_bytes=(counters() - start).cold_bytes,
            )
        )
        if final or outcome.estimated <= tolerance:
            break  # met τ, or nothing more to fetch or no iteration left
        bounds = _next_bounds(method, qoi, outcome, fields, groups,
                              tolerance, switch_threshold)
    spent = counters() - start
    return QoIRetrievalResult(
        values=values,
        qoi_values=center,
        estimated_error=outcome.estimated,
        tolerance=tolerance,
        iterations=iteration,
        fetched_bytes=_plan_bytes(fields, groups),
        num_elements=int(np.size(center)),
        method=method,
        history=history,
        cold_bytes=spent.cold_bytes,
        cache_hit_bytes=spent.cache_hit_bytes,
    )


def _check_call(fields, tolerance, method, switch_threshold,
                initial_bounds, max_iterations):
    """Validate an Algorithm 3 call's arguments, naming the bad one;
    return the tolerance as a float and the initial bounds."""
    if method not in EB_METHODS:
        raise ValueError(f"method must be one of {EB_METHODS}, got {method!r}")
    tolerance = check_tolerance(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if not switch_threshold > 1.0:
        raise ValueError("switch_threshold must be > 1")
    if not max_iterations >= 1:
        raise ValueError(
            f"max_iterations must be >= 1, got {max_iterations!r}")
    shapes = {name: tuple(field.shape) for name, field in fields.items()}
    if len(set(shapes.values())) > 1:
        raise ValueError(f"QoI variables must share one shape, got {shapes}")
    if not initial_bounds:
        # Initial bounds follow the paper: derived from each variable's
        # value range rather than the tolerance, so the loop starts
        # loose and genuinely iterates toward τ (the regime Tables 2/3
        # compare).
        return tolerance, {
            name: max(tolerance, 0.05 * field.value_range or tolerance)
            for name, field in fields.items()
        }
    missing = set(fields) - set(initial_bounds)
    if missing:
        raise ValueError(f"initial_bounds has no bound for {sorted(missing)}")
    bounds = {name: float(initial_bounds[name]) for name in fields}
    for name, b in bounds.items():
        if not (math.isfinite(b) and b > 0):
            raise ValueError(
                f"initial_bounds[{name!r}] must be finite and > 0, got {b}")
    return tolerance, bounds


def _answer(qoi, names, kept, steps, values):
    """Fetch, decode and estimate one iteration's *steps* (one store
    request for all variables; each decodes on its own, since a stacked
    decode holds K variables' temporaries at once). Fills *values*;
    returns the outcome and the QoI values the estimate measured from."""
    for error in fetch_fields([(recon.field, list(zip(
            recon.fetched_groups, step.groups)))
            for recon, step in zip(kept, steps)]):
        if error is not None:
            raise error
    bounds = {}
    for name, recon, step in zip(names, kept, steps):
        result = recon.decode_step(step)
        values[name] = result.data.astype(np.float64)
        bounds[name] = result.error_bound
    estimated, center, worst = _estimate(qoi, values, bounds)
    point = {} if worst < 0 else {
        name: float(values[name].flat[worst]) for name in names}
    return _Outcome(qoi, bounds, estimated, point), center


def _plan_bytes(fields, groups) -> int:
    """Payload bytes of the plan fetching *groups* of every field."""
    return sum(lv.bytes_for_groups(g) for name, field in fields.items()
               for lv, g in zip(field.levels, groups[name]))


def _next_bounds(
    method: str,
    qoi: QoI,
    outcome: _Outcome,
    fields: dict[str, RefactoredField],
    fetched: dict[str, list[int]],
    tolerance: float,
    switch_threshold: float,
) -> dict[str, float]:
    if method == "cp":
        return cp_update(qoi, outcome.worst, outcome.bounds, tolerance)
    if method == "ma":
        return ma_update(fields, fetched, outcome.bounds)
    return mape_update(
        qoi, outcome.worst, fields, fetched, outcome.bounds, tolerance,
        outcome.estimated, switch_threshold,
    )


def actual_qoi_error(
    qoi: QoI,
    original: dict[str, np.ndarray],
    reconstructed: dict[str, np.ndarray],
) -> float:
    """Max |QoI(original) − QoI(reconstructed)| — Fig. 13's ground truth."""
    q_true = qoi.evaluate(original)
    q_rec = qoi.evaluate(reconstructed)
    return float(np.max(np.abs(q_true - q_rec)))
