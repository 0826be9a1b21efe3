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

The write side is pinned too: re-running that recipe must reproduce the
two golden files byte for byte, and — the golden fields being too small
to reach the Huffman coder — a 24^3 refactor must reproduce the
per-group digests recorded before the code construction was rewritten
(:data:`GROUP_DIGESTS`). A change to a code length or to a selector
decision changes stored bytes and fails here.

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
from repro.core.refactor import refactor
from repro.core.store import (
    DirectoryStore,
    load_field,
    open_field,
    open_tiled_field,
    store_field,
    store_tiled_field,
)
from repro.core.tiling import TiledReconstructor, TiledRefactorer
from repro.data.generators import lognormal_density

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

#: ``lognormal_density((24,) * 3, seed=3)`` and, per plane group of its
#: default refactor, (level, first plane, method, SHA-256 of
#: ``to_bytes()``) — recorded at the commit before the two-queue Huffman
#: construction and the histogram bound replaced the heap.
GROUP_INPUT_DIGEST = \
    "783caa3181ca31cfc8894a642e9fb8c157c2a558e5770991aec957a01eae7f99"
GROUP_DIGESTS = [
    (0,  0, "direct", 
     "7d943bbd2e4bf252778a7488a1e317fd9cc55dc91ecd8a73684c93e38872c9f8"),
    (0,  4, "direct", 
     "77448a79471b9344758f13ce81af892cb6f767dc4a9fb8d27c3dbdb16e5b79cb"),
    (0,  8, "direct", 
     "bede791ae30bea94488ab4d286cb7d3d7439cda5a789f91ab55d5a006c76b9ec"),
    (0, 12, "direct", 
     "12144c53d866c801f511f874eddd063bed6fa6b39e54b617889db60da3c0aea4"),
    (0, 16, "direct", 
     "659d6c0668d220969d57f2d53829f92431ae30c603e3ca32b6fc69b7838c51c6"),
    (0, 20, "direct", 
     "e98f439d83dac8e5e10e254b2ecba8c1ac24815439f83ddaf2b34de5ddd34812"),
    (0, 24, "direct", 
     "c5e7c3b771114b7b6af3b06ded1d832458871328ef8d038aa1bc536e2a8d9f77"),
    (0, 28, "direct", 
     "1c9c670bf3dd9caa99c7beb6c901d1552c646f9cb244afe3d8bfd866439ca73f"),
    (0, 32, "direct", 
     "f134ca8ad97bc5d2fed46707df0f2f372d788969995aa37d1dcf7891caa6f626"),
    (1,  0, "direct", 
     "60d9a8a1b51477db9e275c635d6f12a21752c6449bc050f3997de2dfd16101a2"),
    (1,  4, "direct", 
     "4af1580decc32aecb4c7c21df3bccbb81ecae996f383b4e70a18deb4af4cec13"),
    (1,  8, "direct", 
     "4a868f4081d06ca608101c70ab62ba8219253e3e96a5098f6429f8ff2f59a67d"),
    (1, 12, "direct", 
     "96f79d9103a57701b710d44d994974e5da5d149c6d8c70186c3a64bf21f21647"),
    (1, 16, "direct", 
     "0dee104b9284bc0f824967308db8d15cfedd6de9c6bd85544c26790ea25cfbff"),
    (1, 20, "direct", 
     "5b6898e4522888915a4f0850545749a885fc25f3059a6054712d44da97f04549"),
    (1, 24, "direct", 
     "675c3bb16259bd60c071340bf46270c69347f648fffc5df82ac000777bb65110"),
    (1, 28, "direct", 
     "c0a4bb6f1a69213187ed85ea979b18a029572244bc32e7591471d5b1733c06c8"),
    (1, 32, "direct", 
     "74a6388ff5f9d74f139a59d4c940e916ac2307ca28a89eb2d2e5425bb25b6f66"),
    (2,  0, "huffman",
     "992ef3c9dff793c0bfc1f15a8776343531f8409a0323d3d9ac8ecb95144e874b"),
    (2,  4, "huffman",
     "d81809cdc1832c65103434b83864fdbfe10206c8acc7e2475b1020d98c189b83"),
    (2,  8, "direct", 
     "c7ef73f75cde300a366e0b080187f5dbaca7ffe005f30cc014ab1c688b24b19f"),
    (2, 12, "direct", 
     "adc45734fc5d179895b38523ed8f6a47fa9825529b923bea565b724fca0a65ae"),
    (2, 16, "direct", 
     "05349bd43ca9d0424fc9ed418439963ff11dcab7501269647179de9cd729e0ba"),
    (2, 20, "direct", 
     "611be6bfe55c727b3ee845605031c51543437c1df29488431b8e2c19d13148c4"),
    (2, 24, "direct", 
     "837693fd84295ae833794b10bb7ee434799bfd74a8d4405cf6956bd5c38d5f3e"),
    (2, 28, "direct", 
     "2af2679386cd345a698e70329c3baa773d8aab20e77f0866841ada36fed3b1d9"),
    (2, 32, "direct", 
     "893e7893bfd2682810efd07938629f9dfb37332aa792f56ab63ab62ee1a71b3b"),
]


def golden_fields() -> tuple[np.ndarray, np.ndarray]:
    """The untiled 8^3 and the tiled (12, 10, 6) float32 originals."""
    i, j, k = np.meshgrid(*map(np.arange, (8, 8, 8)), indexing="ij")
    u = ((i * 7 + j * 3 + k * 5) % 11 - 5) / 8 + i * j / 64
    i, j, k = np.meshgrid(*map(np.arange, (12, 10, 6)), indexing="ij")
    t = ((i * 5 + j * 7 + k * 3) % 13 - 6) / 16 + (i - k) * j / 128
    return u.astype(np.float32), t.astype(np.float32)


#: Reader rows: (field name, engine over the golden store). The last row
#: opens the untiled ``u`` as a one-tile field, so it also proves that
#: layout needs no format change.
READERS = {
    "u": ("u", lambda store: Reconstructor(open_field(store, "u"))),
    "t": ("t", lambda store: TiledReconstructor(open_tiled_field(store, "t"))),
    "u-one-tile": (
        "u", lambda store: TiledReconstructor(open_tiled_field(store, "u"))
    ),
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

    @pytest.mark.parametrize("row", list(READERS))
    def test_reconstructions_match_recorded_digests(self, row):
        originals = dict(zip("ut", golden_fields()))
        name, build = READERS[row]
        recon = build(DirectoryStore(GOLDEN))
        for tol in TOLERANCES:
            result = recon.reconstruct(tolerance=tol)
            data, bound = result.data, result.error_bound
            assert data.dtype == np.float32
            assert data.shape == originals[name].shape
            err = float(np.max(np.abs(
                data.astype(np.float64) - originals[name]
            )))
            assert err <= bound <= tol
            digest = hashlib.sha256(data.tobytes()).hexdigest()
            assert digest == DIGESTS[name, tol], (row, tol, digest)

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


class TestWriteSideGolden:
    def test_recipe_reproduces_the_golden_files(self, tmp_path):
        u, t = golden_fields()
        store = DirectoryStore(tmp_path / "s")
        store_field(store, refactor(u, name="u"))
        store_tiled_field(store, TiledRefactorer(TILE).refactor(t, name="t"))
        store.close()
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == FILES
        for name in FILES:
            assert (tmp_path / "s" / name).read_bytes() \
                == (GOLDEN / name).read_bytes(), name

    def test_plane_groups_match_recorded_digests(self):
        data = lognormal_density((24,) * 3, seed=3)
        if hashlib.sha256(data.tobytes()).hexdigest() != GROUP_INPUT_DIGEST:
            pytest.skip("this platform's FFT generates a different field")
        groups = [
            (level, g.first_plane, g.method,
             hashlib.sha256(g.to_bytes()).hexdigest())
            for level, stream in enumerate(refactor(data, name="rho").levels)
            for g in stream.groups
        ]
        assert groups == GROUP_DIGESTS
        assert {g[2] for g in groups} == {"direct", "huffman"}


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
