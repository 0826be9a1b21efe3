#!/usr/bin/env python3
"""Write-once / read-many-times workflow with a file-backed store.

Models the paper's motivating scenario on a LETKF-like weather field:
a simulation campaign refactors its output once into a directory store
of small segments (one pack file plus an offset index); later, different
analyses retrieve at different precisions, each reading only the
segments its tolerance requires. The I/O accounting charges a modeled
latency per store request (the cost behind the many-small-files effect
the paper discusses in its Fig. 14 analysis); a progressive step reads
all of its segments in one batched request, which amortises it.

Run:  python examples/climate_store_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import Reconstructor, refactor
from repro.core.store import DirectoryStore, open_field, store_field
from repro.data.generators import letkf_field


def main() -> None:
    dims = (32, 96, 96)
    print(f"Simulating a {dims} LETKF-like assimilation field ...")
    data = letkf_field(dims, seed=3, dtype=np.float32)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "campaign"
        store = DirectoryStore(root, file_open_latency_s=2e-4)

        print("Refactoring and writing segments ...")
        field = refactor(data, name="temperature")
        store_field(store, field)
        n_segments = len(store.keys()) - 1
        print(f"  wrote {n_segments} segments, "
              f"{store.total_bytes() / 1e6:.2f} MB total")

        # Three downstream consumers with different precision needs.
        analyses = [
            ("visualization", 1e-2),
            ("feature tracking", 1e-4),
            ("restart-grade", 1e-6),
        ]
        print(f"\n{'analysis':>18} {'tolerance':>10} {'segments':>9} "
              f"{'requests':>9} {'bytes read':>11} {'modeled I/O':>12} "
              f"{'max error':>10}")
        for name, tol in analyses:
            # Open lazily: planning runs on index metadata, and the
            # reconstruction fetches exactly the plane groups its
            # tolerance requires — no probe load, no second pass.
            lazy = open_field(store, "temperature")
            store.reads = store.bytes_read = store.requests = 0
            out = Reconstructor(lazy).reconstruct(tolerance=tol,
                                                  relative=True)
            actual = float(np.max(np.abs(
                out.data.astype(np.float64) - data.astype(np.float64))))
            io_t = store.io_time_estimate(bandwidth_gbps=2.0)
            print(f"{name:>18} {tol:>10.0e} {store.reads:>9} "
                  f"{store.requests:>9} "
                  f"{store.bytes_read / 1e6:>9.2f}MB {io_t * 1e3:>10.2f}ms "
                  f"{actual:>10.2e}")
            assert actual <= tol * lazy.value_range
            assert store.bytes_read == out.incremental_bytes

        print("\nEach analysis read only what its precision demanded, in "
              "one request per step: the per-request latency of the "
              "small-files effect (Fig. 14) is paid once, not per "
              "segment.")


if __name__ == "__main__":
    main()
