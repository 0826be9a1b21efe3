#!/usr/bin/env python3
"""Many analysts, one service: shared-cache progressive retrieval.

Models the serving scenario the lazy retrieval layer exists for: a
campaign's refactored output sits in a packed directory store, and a
retrieval service answers many concurrent tolerance queries over it.
Each session fetches only the plane groups its tolerance staircase
needs (lazy, per-segment), and all sessions share one byte-budgeted
segment cache — so the store is paid once per segment no matter how
many analysts ask.

Run:  python examples/service_sessions.py
"""

import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro import RetrievalService, refactor
from repro.core.store import DirectoryStore, store_field
from repro.data.generators import gaussian_random_field


def main() -> None:
    dims = (48, 48, 48)
    print(f"Simulating a {dims} turbulence field ...")
    data = gaussian_random_field(dims, -5.0 / 3.0, seed=21,
                                 dtype=np.float32)

    with tempfile.TemporaryDirectory() as tmp:
        store = DirectoryStore(Path(tmp) / "campaign")
        print("Refactoring and writing segments (one manifest flush) ...")
        store_field(store, refactor(data, name="vel"))
        print(f"  {len(store.keys()) - 1} segments in one pack file, "
              f"{store.total_bytes() / 1e6:.2f} MB, "
              f"{store.manifest_writes} manifest write(s)")

        service = RetrievalService(store, cache_bytes=64 << 20,
                                   prefetch=True)
        staircase = [1e-1, 1e-2, 1e-3]

        def analyst(i: int) -> tuple[int, int, int]:
            with service.session("vel") as session:
                cold = hit = 0
                for tol in staircase:
                    r = session.reconstruct(tolerance=tol, relative=True)
                    cold += r.cold_bytes
                    hit += r.cache_hit_bytes
                return i, cold, hit

        n_analysts = 8
        print(f"\nServing {n_analysts} concurrent sessions at relative "
              f"tolerances {staircase}:")
        print(f"{'session':>8} {'cold bytes':>11} {'cache-hit bytes':>16}")
        with ThreadPoolExecutor(max_workers=n_analysts) as pool:
            for i, cold, hit in pool.map(analyst, range(n_analysts)):
                print(f"{i:>8} {cold:>11} {hit:>16}")

        stats = service.stats()
        cache = stats["cache"]
        print(f"\nshared cache: {cache['entries']} entries, "
              f"{cache['current_bytes'] / 1e6:.2f} MB resident, "
              f"hit rate {cache['hit_rate']:.1%} "
              f"({cache['evictions']} evictions, "
              f"{stats['prefetch_requests']} prefetches)")
        print(f"backing store paid: {stats['store_bytes_read'] / 1e6:.2f} MB "
              f"for {n_analysts * len(staircase)} tolerance queries")
        service.close()

        print("\nEvery session after the first was served (almost) "
              "entirely from the shared segment cache — the store is "
              "paid per segment, not per analyst.")


if __name__ == "__main__":
    main()
