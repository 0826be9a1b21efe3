#!/usr/bin/env python3
"""Tiled store + region-of-interest progressive retrieval (paper Fig. 4).

A simulation campaign writes a domain larger than any consumer wants to
read: the field is refactored tile by tile (in parallel — tiles are
independent streams) into a packed directory store, and analysts then
retrieve *regions*, not domains. Only the tiles a region overlaps are
opened, fetched, and decoded; walking a tolerance staircase over the
region refines each touched tile incrementally.

Run:  python examples/tiled_roi_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.service import RetrievalService
from repro.core.store import DirectoryStore, store_tiled_field
from repro.core.tiling import TiledRefactorer
from repro.data.generators import letkf_field


def main() -> None:
    dims = (48, 96, 96)
    tile = (24, 32, 32)
    print(f"Simulating a {dims} LETKF-like assimilation field ...")
    data = letkf_field(dims, seed=5, dtype=np.float32)

    with tempfile.TemporaryDirectory() as tmp:
        store = DirectoryStore(Path(tmp) / "campaign")

        print(f"Refactoring {tile} tiles in parallel and storing ...")
        with TiledRefactorer(tile, num_workers=4) as refac:
            tiled = refac.refactor(data, name="temperature")
        store_tiled_field(store, tiled)
        print(f"  {tiled.num_tiles} tiles, {len(store.keys())} segments "
              f"in one pack, {store.total_bytes() / 1e6:.2f} MB stored, "
              f"{store.manifest_writes} manifest flush")

        # An analyst tracks one storm system: a hyperslab covering a
        # fraction of the domain, retrieved at tightening tolerances.
        service = RetrievalService(store, cache_bytes=64 << 20)
        region = (slice(12, 36), (32, 64), (48, 80))
        slices = (slice(12, 36), slice(32, 64), slice(48, 80))
        region_elems = int(np.prod([s.stop - s.start for s in slices]))
        print(f"\nRegion of interest {[(s.start, s.stop) for s in slices]}"
              f" = {region_elems / data.size:.1%} of the domain")
        print(f"{'rel tol':>9} {'tiles':>6} {'store reads':>12} "
              f"{'bytes read':>11} {'max error':>10}")
        with service.session("temperature") as session:
            for tol in (1e-1, 1e-2, 1e-3, 1e-4):
                reads0, bytes0 = store.reads, store.bytes_read
                out, bound = session.reconstruct(
                    tolerance=tol, relative=True, region=region
                )
                err = float(np.max(np.abs(
                    out.astype(np.float64)
                    - data[slices].astype(np.float64)
                )))
                print(f"{tol:>9.0e} "
                      f"{session.tiles_touched:>3}/{tiled.num_tiles:<2} "
                      f"{store.reads - reads0:>12} "
                      f"{(store.bytes_read - bytes0) / 1e3:>9.1f}kB "
                      f"{err:>10.2e}")
            stats = session.stats()

        full_bytes = store.total_bytes()
        print(f"\nRegion staircase fetched {stats['fetched_bytes'] / 1e3:.1f}"
              f"kB of payload; the full-domain store holds "
              f"{full_bytes / 1e6:.2f} MB "
              f"({stats['fetched_bytes'] / full_bytes:.1%}).")
        print(f"Retained incremental decode state: "
              f"{stats['decode_state_bytes'] / 1e3:.1f} kB across "
              f"{stats['tiles_touched']} touched tiles.")
        service.close()


if __name__ == "__main__":
    main()
