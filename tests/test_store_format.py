"""On-disk format contract of :class:`~repro.core.store.DirectoryStore`.

``tests/data/golden_store_v2/`` is a format-2 store (``segments.pack`` +
``manifest.json`` offset index) written once by the code that introduced
the packed layout. Every later layout change must keep reading it
bit-identically — the SHA-256 digests below are the baseline — and a
directory in a layout this code does *not* read must be rejected with
:class:`~repro.core.errors.StoreFormatError`, never opened as an empty
store or reported as garbled bytes.

The golden store holds :func:`golden_fields` — values that are exact in
float32, so the originals are reproducible on any platform — written
with::

    store = DirectoryStore(GOLDEN)
    store_field(store, refactor(u, name="u"))
    store_tiled_field(store, TiledRefactorer(TILE).refactor(t, name="t"))

Needs only pytest and NumPy: CI also runs this file from the
``clean-install`` job against the pip-installed package.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import SegmentCorruptionError, StoreFormatError
from repro.core.reconstruct import Reconstructor
from repro.core.store import (
    DirectoryStore,
    load_field,
    open_field,
    open_tiled_field,
)
from repro.core.tiling import TiledReconstructor

GOLDEN = Path(__file__).parent / "data" / "golden_store_v2"
FILES = ["manifest.json", "segments.pack"]
TILE = (6, 5, 6)  # 2 x 2 x 1 tiles over the (12, 10, 6) field
TOLERANCES = [1e-2, 1e-5]

#: SHA-256 of ``reconstruct(tolerance=t).data.tobytes()``, per field.
DIGESTS = {
    ("u", 1e-2):
        "66742f5fccce0ae0b45016d9a676cb55b5e75eb33e2c4fce0261604ce0314b17",
    ("t", 1e-2):
        "028522250ea3eea04d370072af7247bed2d6a5cc843d7fd3840e064fba047a57",
    ("u", 1e-5):
        "f06df63b461a36b8f33c4e7bd4b09ea9109980addf5652455a51a29d304ffe41",
    ("t", 1e-5):
        "0f597f8a787b2f636e54e2512bd402f461cdaa8b19c811d6916e752399ba377c",
}


def golden_fields() -> tuple[np.ndarray, np.ndarray]:
    """The untiled 8^3 and the tiled (12, 10, 6) float32 originals."""
    i, j, k = np.meshgrid(*map(np.arange, (8, 8, 8)), indexing="ij")
    u = ((i * 7 + j * 3 + k * 5) % 11 - 5) / 8 + i * j / 64
    i, j, k = np.meshgrid(*map(np.arange, (12, 10, 6)), indexing="ij")
    t = ((i * 5 + j * 7 + k * 3) % 13 - 6) / 16 + (i - k) * j / 128
    return u.astype(np.float32), t.astype(np.float32)


def _reconstructors(store):
    return {
        "u": Reconstructor(open_field(store, "u")),
        "t": TiledReconstructor(open_tiled_field(store, "t")),
    }


class TestGoldenStore:
    def test_layout_is_one_pack_and_a_format_2_index(self):
        assert sorted(p.name for p in GOLDEN.iterdir()) == FILES
        assert sum(p.stat().st_size for p in GOLDEN.iterdir()) < 20_000
        manifest = json.loads((GOLDEN / "manifest.json").read_text())
        assert manifest["format"] == 2
        store = DirectoryStore(GOLDEN)
        assert store.keys() == sorted(manifest["segments"])
        assert {"u.index", "t.tiles"} <= set(store.keys())
        # no dead bytes: the pack is exactly the live segments
        assert store.total_bytes() == (GOLDEN / "segments.pack").stat().st_size

    def test_reconstructions_match_recorded_digests(self):
        originals = dict(zip("ut", golden_fields()))
        recons = _reconstructors(DirectoryStore(GOLDEN))
        for tol in TOLERANCES:
            for name, recon in recons.items():
                result = recon.reconstruct(tolerance=tol)
                data, bound = result.data, result.error_bound
                assert data.dtype == np.float32
                assert data.shape == originals[name].shape
                err = float(np.max(np.abs(
                    data.astype(np.float64) - originals[name]
                )))
                assert err <= bound <= tol
                digest = hashlib.sha256(data.tobytes()).hexdigest()
                assert digest == DIGESTS[name, tol], (name, tol, digest)

    def test_every_segment_verifies_and_reading_writes_nothing(self):
        before = {p.name: p.read_bytes() for p in GOLDEN.iterdir()}
        store = DirectoryStore(GOLDEN)
        load_field(store, "u")  # CRC-checks every segment it fetches
        tiled = open_tiled_field(store, "t")
        for tile in range(len(tiled.tiles)):
            load_field(store, tiled.tile_field_names[tile])
        assert store.reads == len(store.keys())  # every blob, once
        assert store.bytes_read == store.total_bytes()
        store.close()
        assert {p.name: p.read_bytes() for p in GOLDEN.iterdir()} == before


class TestFormatVersion:
    @pytest.fixture()
    def copy(self, tmp_path):
        shutil.copytree(GOLDEN, tmp_path / "s")
        return tmp_path / "s"

    @pytest.mark.parametrize("fmt", [1, 3, "2", None])
    def test_unknown_format_is_rejected_not_misread(self, copy, fmt):
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["format"] = fmt
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError) as caught:
            DirectoryStore(copy)
        assert not isinstance(caught.value, SegmentCorruptionError)
        assert f"format {fmt}" in str(caught.value)
        assert "store_field into a new root" in str(caught.value)

    @pytest.mark.parametrize("flat", [{"u.L0.G0": 4, "u.index": 9}, {}])
    def test_pre_pack_directory_is_rejected_not_misread(self, tmp_path, flat):
        """What the one-file-per-segment code left behind: a file per
        key and a flat ``{key: size}`` manifest without ``format``."""
        root = tmp_path / "s"
        root.mkdir()
        for key, size in flat.items():
            (root / key).write_bytes(b"\0" * size)
        (root / "manifest.json").write_text(json.dumps(flat, indent=0))
        with pytest.raises(StoreFormatError) as caught:
            DirectoryStore(root)
        assert not isinstance(caught.value, SegmentCorruptionError)
        assert "one file per segment" in str(caught.value)
        assert "store_field into a new root" in str(caught.value)
        # rejected before anything was created beside the old files
        assert sorted(p.name for p in root.iterdir()) == sorted(
            [*flat, "manifest.json"]
        )
