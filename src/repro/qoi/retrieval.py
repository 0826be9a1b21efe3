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
from repro.qoi.expressions import QoI, _estimate


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
    refactored streams (names must match the QoI's variables), ``method``
    selects the next-error-bound estimator, and ``switch_threshold`` is
    MAPE's ``c``. Initial bounds default to the tolerance itself — loose
    enough that the loop genuinely iterates, as in the paper.
    """
    missing = qoi.variables() - set(fields)
    if missing:
        raise ValueError(f"missing refactored variables: {sorted(missing)}")
    return _retrieve(
        {name: Reconstructor(fields[name]) for name in qoi.variables()},
        qoi, tolerance, method, switch_threshold, initial_bounds,
        max_iterations,
    )


def _retrieve(
    recons: dict[str, Reconstructor],
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
    only the groups it never had. So every answer is bit-identical to a
    fresh call's, and ``fetched_bytes`` is its plan's bytes, while
    ``cold_bytes`` / ``cache_hit_bytes`` count the segments this call
    really read.
    """
    if method not in EB_METHODS:
        raise ValueError(f"method must be one of {EB_METHODS}, got {method!r}")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if switch_threshold <= 1.0:
        raise ValueError("switch_threshold must be > 1")
    names = sorted(recons)
    kept = [recons[name] for name in names]
    fields = {name: recons[name].field for name in names}
    groups = {name: [0] * len(fields[name].levels) for name in names}

    def counters() -> Counters:
        return sum((r.counters() for r in kept), Counters())

    # Lazy fields count cumulative traffic: subtract where they stood,
    # so this call reports only the traffic it caused itself.
    start = counters()

    # Initial bounds follow the paper: derived from each variable's
    # value range rather than the tolerance, so the loop starts loose
    # and genuinely iterates toward τ (the regime Tables 2/3 compare).
    bounds = dict(initial_bounds) if initial_bounds else {
        name: max(float(tolerance),
                  0.05 * fields[name].value_range or float(tolerance))
        for name in names
    }
    for name, b in bounds.items():
        if b <= 0:
            raise ValueError(f"initial bound for {name!r} must be > 0")

    history: list[QoIIterationRecord] = []
    values: dict[str, np.ndarray] = {}
    actual_bounds: dict[str, float] = {}
    estimated = float("inf")
    center = None
    iteration = 0
    while iteration < max_iterations:
        iteration += 1
        # Fetch + recompose every variable to its current bound (the
        # pipelined memory/compute phase of Algorithm 3): one plan and
        # one store request for all variables. Each decodes on its own:
        # a stacked decode holds K variables' temporaries at once.
        steps = _plan_from(kept, [bounds[name] for name in names],
                           [groups[name] for name in names])
        for error in fetch_fields([(recon.field, list(zip(
                recon.fetched_groups, step.groups)))
                for recon, step in zip(kept, steps)]):
            if error is not None:
                raise error
        for name, recon, step in zip(names, kept, steps):
            result = recon.decode_step(step)
            groups[name] = step.groups
            values[name] = result.data.astype(np.float64)
            actual_bounds[name] = result.error_bound
        estimated, center = _estimate(qoi, values, actual_bounds)
        spent = counters() - start
        history.append(
            QoIIterationRecord(
                iteration=iteration,
                error_bounds=dict(actual_bounds),
                estimated_error=estimated,
                fetched_bytes=_plan_bytes(fields, groups),
                cold_bytes=spent.cold_bytes,
            )
        )
        if estimated <= tolerance:
            break
        bounds = _next_bounds(
            method, qoi, values, fields, groups, actual_bounds, tolerance,
            estimated, switch_threshold,
        )
        exhausted = all(
            groups[name] == fields[name].max_groups() for name in names
        )
        if exhausted:
            break  # nothing more to fetch; report the achieved estimate
    qoi_values = qoi.evaluate(values) if center is None else center
    spent = counters() - start
    return QoIRetrievalResult(
        values=values,
        qoi_values=qoi_values,
        estimated_error=estimated,
        tolerance=tolerance,
        iterations=iteration,
        fetched_bytes=_plan_bytes(fields, groups),
        num_elements=int(np.size(qoi_values)),
        method=method,
        history=history,
        cold_bytes=spent.cold_bytes,
        cache_hit_bytes=spent.cache_hit_bytes,
    )


def _plan_bytes(fields, groups) -> int:
    """Payload bytes of the plan fetching *groups* of every field."""
    return sum(lv.bytes_for_groups(g) for name, field in fields.items()
               for lv, g in zip(field.levels, groups[name]))


def _next_bounds(
    method: str,
    qoi: QoI,
    values: dict[str, np.ndarray],
    fields: dict[str, RefactoredField],
    fetched: dict[str, list[int]],
    bounds: dict[str, float],
    tolerance: float,
    estimated: float,
    switch_threshold: float,
) -> dict[str, float]:
    if method == "cp":
        return cp_update(qoi, values, bounds, tolerance)
    if method == "ma":
        return ma_update(fields, fetched, bounds)
    return mape_update(
        qoi, values, fields, fetched, bounds, tolerance, estimated,
        switch_threshold,
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
