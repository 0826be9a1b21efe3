"""CP's next-bound update in its grid-wide form, the oracle of
:func:`repro.qoi.eb_methods.cp_update`.

The library's CP takes the worst point's values from the estimate that
found it. This form finds the point itself, with a pointwise-error pass
over the whole grid, then halves every bound until that point meets the
tolerance, so tests can check the two give the same bounds.

Import it with the ``tests`` directory on ``sys.path`` (pytest puts it
there for files under ``tests/``)::

    from oracles.cp_update import cp_update_grid
"""

from __future__ import annotations

import numpy as np

from repro.qoi.expressions import pointwise_qoi_error


def cp_update_grid(qoi, values, bounds, tolerance, max_halvings=60):
    """CP's bounds for full-grid *values* under achieved *bounds*."""
    pw = pointwise_qoi_error(qoi, values, bounds)
    flat_idx = int(np.argmax(pw))
    point = {name: np.asarray([np.ravel(v)[flat_idx]])
             for name, v in values.items()}
    eb = dict(bounds)
    for _ in range(max_halvings):
        if pointwise_qoi_error(qoi, point, eb)[0] <= tolerance:
            break
        eb = {k: v / 2.0 for k, v in eb.items()}
    return eb
