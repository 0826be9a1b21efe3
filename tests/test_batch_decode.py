"""The batch decode body, differentially.

``Reconstructor.decode_steps`` decodes K planned steps at once: lossless
decode per group, then per level one plane injection and one
finalization over the ``(K, n)`` stack (each row with its own exponent,
dropped planes and signs), one scatter per row, one recompose of the
``(K, *shape)`` stack. ``decode_step`` is its K = 1 call, and the tiled
engine runs it over a tile batch on every route. This suite holds the
body to the per-tile answer: for K in {1, 2, 5, 18}, with rows at
different planes (some gaining nothing), f32 and f64, warp and natural
layouts, sign-magnitude and negabinary, and a row whose scale needs the
``ldexp`` path, every row's data must equal the from-scratch oracle
(``oracles.full_decode``) bit for bit, and its data, bound and
``counters()`` must equal a twin reconstructor stepped one call at a
time. A fault in the middle of a batch degrades that row alone, or
under ``"raise"`` commits exactly the rows before it. The body's word
widths (uint32 and uint64) are held to the per-plane oracle as well.
"""

from __future__ import annotations

from dataclasses import astuple, replace

import numpy as np
import pytest
from oracles.full_decode import full_decode

from repro.core.errors import TransientStoreError
from repro.core.faults import FaultInjectingStore
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import RefactorConfig, refactor
from repro.core.store import (
    MemoryStore,
    open_fields,
    open_tiled_field,
    store_field,
    store_tiled_field,
)
from repro.core.stream import fetch_fields
from repro.core.tiling import TiledReconstructor, TiledRefactorer
from repro.data import generators as gen

SHAPE = (12, 11, 10)
K_VALUES = [1, 2, 5, 18]
#: Relative tolerances; row i walks a rotated schedule, so a batch holds
#: rows at different planes, and rows whose tolerance loosens plan no
#: new groups at all.
TOLS = [1e-1, 1e-4, 3e-2, 1e-6, 1e-3]
STEPS = 4

CONFIGS = {
    "f32-warp-sign": (np.float32, RefactorConfig()),
    "f32-natural-nega": (np.float32, RefactorConfig(
        design="locality_block", signed_encoding="negabinary")),
    "f64-warp-nega": (np.float64, RefactorConfig(
        warp_size=8, signed_encoding="negabinary")),
    "f64-natural-sign": (np.float64, RefactorConfig(design="locality_block")),
    # Row 1's values are ~1e-300: its fixed-point scale 2^(e - B) is
    # below the normal range, so finalization takes the ldexp path for
    # that row only.
    "f64-ldexp": (np.float64, RefactorConfig(warp_size=8)),
}


def _data(config_id: str, i: int) -> np.ndarray:
    dtype, _ = CONFIGS[config_id]
    data = gen.gaussian_random_field(SHAPE, -2.0, seed=100 + i, dtype=dtype)
    scale = 1e-300 if config_id == "f64-ldexp" and i % 4 == 1 else (
        10.0 ** (i % 5 - 2))
    return (data * scale).astype(dtype)


_FIELDS: dict[str, list] = {}


def _fields(config_id: str, k: int) -> list:
    """The first *k* refactored fields of *config_id* (cached)."""
    fields = _FIELDS.setdefault(config_id, [])
    _, config = CONFIGS[config_id]
    while len(fields) < k:
        fields.append(refactor(_data(config_id, len(fields)), config,
                               name=f"v{len(fields)}"))
    return fields[:k]


class _CountingStore(MemoryStore):
    """Counts batched requests: one ``settle_many`` call is one request."""

    def __init__(self):
        super().__init__()
        self.requests = 0

    def settle_many(self, keys):
        self.requests += 1
        return super().settle_many(keys)


def _open(store, fields) -> list[Reconstructor]:
    opened, errors = open_fields(store, [f.name for f in fields])
    assert not errors
    return [Reconstructor(opened[f.name]) for f in fields]


def _stored(fields, store=None):
    store = store if store is not None else _CountingStore()
    for field in fields:
        store_field(store, field)
    return store


def _batch_step(recons, tols):
    steps = [r.plan_step(t, relative=True) for r, t in zip(recons, tols)]
    errors = fetch_fields([(r.field, list(zip(r.fetched_groups, s.groups)))
                           for r, s in zip(recons, steps)])
    return steps, errors


@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("config_id", sorted(CONFIGS))
def test_batch_equals_oracle_and_one_step_calls(config_id, k):
    fields = _fields(config_id, k)
    store = _stored(fields)
    batch = _open(store, fields)
    twins = _open(_stored(fields, MemoryStore()), fields)
    for s in range(STEPS):
        tols = [TOLS[(i + s) % len(TOLS)] for i in range(k)]
        before = store.requests
        steps, errors = _batch_step(batch, tols)
        assert errors == [None] * k
        assert store.requests - before <= 1  # one request for the batch
        results = Reconstructor.decode_steps(
            [(r, step, None) for r, step in zip(batch, steps)])
        for i, (field, recon, twin, tol, got) in enumerate(
            zip(fields, batch, twins, tols, results)
        ):
            want = twin.reconstruct(tol, relative=True)
            groups = got.plan.groups_per_level
            assert groups == want.plan.groups_per_level, (i, s)
            assert got.data.dtype == field.dtype
            assert got.data.tobytes() == want.data.tobytes(), (i, s)
            assert got.data.tobytes() == full_decode(
                field, groups).tobytes(), (i, s)
            assert got.error_bound == want.error_bound
            assert (got.decoded_groups, got.decoded_planes) == (
                want.decoded_groups, want.decoded_planes)
            assert astuple(recon.counters()) == astuple(twin.counters())


def test_schedule_mixes_refining_and_idle_rows():
    """The staircase above really batches rows that gain planes with
    rows that gain none, at different plane counts."""
    fields = _fields("f32-warp-sign", 5)
    recons = _open(_stored(fields), fields)
    idle_and_busy = set()
    for s in range(STEPS):
        tols = [TOLS[(i + s) % len(TOLS)] for i in range(5)]
        steps, errors = _batch_step(recons, tols)
        before = [r.fetched_groups for r in recons]
        Reconstructor.decode_steps(list(zip(recons, steps, errors)))
        idle_and_busy |= {r.fetched_groups != b
                          for r, b in zip(recons, before)}
        assert len({tuple(r.fetched_groups) for r in recons}) > 1
    assert idle_and_busy == {True, False}


def test_ldexp_row_is_really_batched_with_normal_rows():
    fields = _fields("f64-ldexp", 5)
    shifts = [lv.exponent - lv.num_bitplanes
              for f in fields for lv in f.levels]
    assert min(shifts) < -1022 < max(shifts)


def _faulted_batch(k):
    """A k-row batch whose middle row's first planned key fails once,
    and a twin of it to step one call at a time."""
    fields = _fields("f32-warp-sign", k)
    victim = k // 2
    key = _open(_stored(fields), fields)[victim].field.levels[0].refs[0].key
    batch, twins = (
        _open(FaultInjectingStore(_stored(fields), fail_first={key: 1}),
              fields)
        for _ in range(2)
    )
    return fields, batch, twins, victim


@pytest.mark.parametrize("k", [5, 18])
def test_degrade_falls_back_the_faulted_row_only(k):
    fields, batch, twins, victim = _faulted_batch(k)
    steps, errors = _batch_step(batch, [1e-3] * k)
    assert [e is not None for e in errors] == [i == victim for i in range(k)]
    results = Reconstructor.decode_steps(
        list(zip(batch, steps, errors)), on_fault="degrade")
    for i, (recon, twin, got) in enumerate(zip(batch, twins, results)):
        want = twin.reconstruct(1e-3, relative=True, on_fault="degrade")
        assert got.degraded is (i == victim) is want.degraded
        assert got.data.tobytes() == want.data.tobytes()
        assert got.error_bound == want.error_bound
        assert got.failed_groups == want.failed_groups
        assert astuple(recon.counters()) == astuple(twin.counters())
    # the faulted row resumes: the next batch fetches its increment
    steps, errors = _batch_step(batch, [1e-3] * k)
    assert errors == [None] * k
    results = Reconstructor.decode_steps(list(zip(batch, steps, errors)))
    assert not any(r.degraded for r in results)
    assert results[victim].data.tobytes() == full_decode(
        fields[victim], results[victim].plan.groups_per_level).tobytes()


@pytest.mark.parametrize("k", [5, 18])
def test_raise_commits_the_prefix_the_sequential_route_commits(k):
    _, batch, twins, victim = _faulted_batch(k)
    steps, errors = _batch_step(batch, [1e-3] * k)
    with pytest.raises(TransientStoreError):
        Reconstructor.decode_steps(list(zip(batch, steps, errors)))
    with pytest.raises(TransientStoreError):  # step by step, in order
        for twin in twins:
            twin.reconstruct(1e-3, relative=True)
    for i, (recon, twin) in enumerate(zip(batch, twins)):
        committed = recon.fetched_groups != [0] * len(recon.fetched_groups)
        assert committed is (i < victim), i
        assert recon.fetched_groups == twin.fetched_groups
        assert recon.decode_state_bytes() == twin.decode_state_bytes()
        assert recon.fetched_bytes == twin.fetched_bytes


def _tiled_store(fail_first=None):
    data = gen.gaussian_random_field((32, 16, 16), -2.0, seed=9,
                                     dtype=np.float32)
    tiled = TiledRefactorer((8, 8, 8)).refactor(data, name="rho")
    store = MemoryStore()
    store_tiled_field(store, tiled)
    return tiled, FaultInjectingStore(store, fail_first=fail_first or {})


@pytest.mark.parametrize("pipelined", [False, True])
def test_tile_that_never_opened_degrades_alone_mid_batch(pipelined):
    """A tile whose index record fails in the middle of a batch answers
    zeros with an ``inf`` bound; its batchmates are bit-identical to a
    clean run."""
    tiled, clean = _tiled_store()
    want = TiledReconstructor(open_tiled_field(clean, "rho")).reconstruct(
        1e-3, relative=True)
    victim = tiled.num_tiles // 2
    _, store = _tiled_store({f"{tiled.fields[victim].name}.index": 1})
    recon = TiledReconstructor(open_tiled_field(store, "rho"),
                               pipelined=pipelined, backend="serial")
    got = recon.reconstruct(1e-3, relative=True, on_fault="degrade")
    assert got.failed_tiles == [victim] and got.error_bound == np.inf
    block = tiled.tiles[victim].slices()
    assert not got.data[block].any()
    mask = np.ones(tiled.shape, dtype=bool)
    mask[block] = False
    assert got.data[mask].tobytes() == want.data[mask].tobytes()
    again = recon.reconstruct(1e-3, relative=True, on_fault="degrade")
    assert not again.degraded
    assert again.data.tobytes() == want.data.tobytes()
    recon.close()


def test_tile_that_never_opened_raises_after_the_tiles_before_it():
    tiled, _ = _tiled_store()
    victim = tiled.num_tiles // 2
    _, store = _tiled_store({f"{tiled.fields[victim].name}.index": 1})
    recon = TiledReconstructor(open_tiled_field(store, "rho"),
                               backend="serial")
    with pytest.raises(TransientStoreError):
        recon.reconstruct(1e-3, relative=True)
    committed = {pos for pos, r in recon._recons.items() if any(
        r.fetched_groups)}
    assert committed == set(range(victim))


def test_process_workers_run_the_one_tile_body():
    """A process worker decodes one-tile batches of the same body: its
    staircase equals the serial route's bit for bit, counters included
    (run under ``REPRO_MP_START=spawn`` too, where nothing is
    inherited)."""
    _, store = _tiled_store()
    region = ((4, 28), (0, 16), (3, 13))
    engines = [
        TiledReconstructor(open_tiled_field(store, "rho"), backend="serial"),
        TiledReconstructor(open_tiled_field(store, "rho"), num_workers=2,
                           backend="processes:2"),
    ]
    for tol in (1e-1, 1e-3, 1e-5):
        serial, remote = (e.reconstruct(tol, relative=True, region=region)
                          for e in engines)
        assert serial.data.tobytes() == remote.data.tobytes()
        assert serial.error_bound == remote.error_bound
    assert astuple(engines[0].counters()) == astuple(engines[1].counters())
    for engine in engines:
        engine.close()


#: Plane counts at the word-width edges: uint32 words up to 32
#: sign-magnitude planes, uint64 from 33 on and for negabinary.
WORD_BITS = [8, 32, 33, 52]


@pytest.mark.parametrize("bits", WORD_BITS)
@pytest.mark.parametrize("encoding", ["sign_magnitude", "negabinary"])
@pytest.mark.parametrize("design", ["register_block", "locality_block"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_body_equals_oracle_at_every_word_width(dtype, design, encoding,
                                                bits):
    """The in-place body against the per-plane oracle: one session
    stepping alone (K = 1, its planes ORed into its committed words) and
    three same-geometry sessions stepping as one batch (K = 3, one
    stacked block), at rotated tolerances so rows sit at different
    planes, then a QoI-style step below the committed groups (a prefix
    cut). Warp tiles are 4 wide, so every level holds whole tiles."""
    config = RefactorConfig(num_bitplanes=bits, design=design,
                            signed_encoding=encoding, warp_size=4)
    fields = [refactor((gen.gaussian_random_field(
        SHAPE, -2.0, seed=300 + i, dtype=dtype) * 10.0 ** (i - 1)).astype(
            dtype), config, name=f"w{i}") for i in range(3)]
    narrow = encoding == "sign_magnitude" and bits <= 32
    alone = Reconstructor(fields[0])
    batch = _open(_stored(fields), fields)
    for s in range(STEPS):
        got = alone.reconstruct(TOLS[s], relative=True)
        assert got.data.tobytes() == full_decode(
            fields[0], got.plan.groups_per_level).tobytes(), s
        steps, errors = _batch_step(
            batch, [TOLS[(i + s) % len(TOLS)] for i in range(3)])
        for field, result in zip(fields, Reconstructor.decode_steps(
                list(zip(batch, steps, errors)))):
            assert result.data.tobytes() == full_decode(
                field, result.plan.groups_per_level).tobytes(), s
    for recon in [alone, *batch]:
        assert {state.words.dtype for state in recon._states} == {
            np.dtype(np.uint32 if narrow else np.uint64)}
    cuts = [[g // 2 for g in r.fetched_groups] for r in [alone, *batch]]
    items = [(r, replace(r.plan_step(), groups=g), None)
             for r, g in zip([alone, *batch], cuts)]
    for recon, step, _ in items:
        recon.fetch_step(step)
    results = [Reconstructor.decode_steps(items[:1])[0],
               *Reconstructor.decode_steps(items[1:])]
    for field, cut, result in zip([fields[0], *fields], cuts, results):
        assert result.data.tobytes() == full_decode(field, cut).tobytes()
