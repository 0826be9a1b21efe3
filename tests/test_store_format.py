"""On-disk format contract of :class:`~repro.core.store.DirectoryStore`.

``tests/data/golden_store_v3/`` and ``tests/data/golden_store_v2/`` are
format-2 stores (``segments.pack`` + ``manifest.json`` offset index)
holding the same fields: v3 with binary index records (``.index`` /
``.tiles``), v2 with the JSON records written before them. Both must
keep reading bit-identically — the SHA-256 digests below are the
baseline — and a directory in a layout this code does *not* read must
be rejected with :class:`~repro.core.errors.StoreFormatError`, never
opened as an empty store or reported as garbled bytes. v2 is a
read-only fixture: nothing writes it any more.

The golden stores hold :func:`golden_fields` — values that are exact in
float32, so the originals are reproducible on any platform — and v3 is
written with::

    store = DirectoryStore(GOLDEN_V3)
    store_field(store, refactor(u, name="u"))
    store_tiled_field(store, TiledRefactorer(TILE).refactor(t, name="t"))

The write side is pinned too: re-running that recipe must reproduce
v3's two files byte for byte, every segment blob in v3 must equal
v2's (only the index records differ), and — the golden fields being
too small to reach the Huffman coder — a 24^3 refactor must reproduce
the per-group digests recorded before the code construction was
rewritten (:data:`GROUP_DIGESTS`). A change to a code length, to a
selector decision or to the Huffman chunk size changes stored bytes and
fails here.

A record that does not check out raises
:class:`~repro.core.errors.SegmentCorruptionError` naming its key:
:class:`TestMalformedRecords` edits v2's JSON records (read by the v2
converter), :class:`TestRecordFuzz` flips every bit of, and truncates
at every length, v3's binary ones, and :class:`TestTamperedLevelMetadata`
gives either version's well-formed record level metadata no encoder
writes.

Needs only pytest and NumPy: CI also runs this file from the
``clean-install`` job against the pip-installed package.
"""

import hashlib
import json
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import SegmentCorruptionError, StoreFormatError
from repro.core.reconstruct import Reconstructor
from repro.core.refactor import refactor
from repro.core.stream import RefactoredField
from repro.core.store import (
    DirectoryStore,
    MemoryStore,
    _index_record,
    _read_index,
    _read_tiled_index,
    load_field,
    open_field,
    open_tiled_field,
    store_field,
    store_tiled_field,
)
from repro.core.tiling import TiledReconstructor, TiledRefactorer
from repro.data.generators import lognormal_density

GOLDEN_V2 = Path(__file__).parent / "data" / "golden_store_v2"
GOLDEN_V3 = Path(__file__).parent / "data" / "golden_store_v3"
GOLDENS = {"v2": GOLDEN_V2, "v3": GOLDEN_V3}
RECORDS = {"u.index", "t.tiles", *(f"t.T{i}_{j}_0.index"
                                   for i in range(2) for j in range(2))}
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
#: construction and the histogram bound replaced the heap. The two
#: Huffman rows were re-recorded by the same recipe when the default
#: chunk went from 1024 to 256 symbols: same decisions, longer offset
#: tables.
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
     "7436954f19e35f18373950004b18436db1c0765ce77393b42329f35a2f965a8b"),
    (2,  4, "huffman",
     "f9867fa2b0ac1c4c0168034dec514facddd2688da00681afc33a65b6132a8389"),
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


@pytest.fixture(params=list(GOLDENS))
def golden(request):
    """Each golden store's root (v3 binary records, v2 JSON ones)."""
    return GOLDENS[request.param]


class TestGoldenStore:
    def test_layout_is_one_pack_and_a_format_2_index(self, golden):
        assert sorted(p.name for p in golden.iterdir()) == FILES
        assert sum(p.stat().st_size for p in golden.iterdir()) < 20_000
        manifest = json.loads((golden / "manifest.json").read_text())
        assert manifest["format"] == 2
        store = DirectoryStore(golden)
        assert store.keys() == sorted(manifest["segments"])
        assert RECORDS <= set(store.keys())
        # no dead bytes: the pack is exactly the live segments
        assert store.total_bytes() == (golden / "segments.pack").stat().st_size

    @pytest.mark.parametrize("row", list(READERS))
    def test_reconstructions_match_recorded_digests(self, golden, row):
        originals = dict(zip("ut", golden_fields()))
        name, build = READERS[row]
        recon = build(DirectoryStore(golden))
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

    def test_every_segment_verifies_and_reading_writes_nothing(self, golden):
        before = {p.name: p.read_bytes() for p in golden.iterdir()}
        store = DirectoryStore(golden)
        load_field(store, "u")  # CRC-checks every segment it fetches
        tiled = open_tiled_field(store, "t")
        for tile in range(len(tiled.tiles)):
            load_field(store, tiled.tile_field_names[tile])
        assert store.reads == len(store.keys())  # every blob, once
        assert store.bytes_read == store.total_bytes()
        store.close()
        assert {p.name: p.read_bytes() for p in golden.iterdir()} == before

    def test_v3_differs_from_v2_in_its_index_records_only(self):
        v2, v3 = DirectoryStore(GOLDEN_V2), DirectoryStore(GOLDEN_V3)
        assert v3.keys() == v2.keys()
        for key in v2.keys():
            if key in RECORDS:
                assert v3.get(key)[:4] in (b"MDRI", b"MDRT"), key
                assert v2.get(key)[:1] == b"{", key
                assert v3.size_of(key) * 4 < v2.size_of(key), key
            else:
                assert v3.get(key) == v2.get(key), key
        v2.close()
        v3.close()


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
                == (GOLDEN_V3 / name).read_bytes(), name

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
        shutil.copytree(GOLDEN_V2, tmp_path / "s")
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


def _segment(index):
    """The first segment entry of an ``.index`` record."""
    return index["segments"][index["groups"]["0"][0]]


#: ``.index`` record mutations: each leaves a record of another shape.
INDEX_MUTATIONS = {
    "string-bytes": lambda i: _segment(i).update(
        bytes=str(_segment(i)["bytes"])),
    "entry-not-a-dict": lambda i: i["segments"].update(
        {i["groups"]["0"][0]: list(_segment(i).values())}),
    "level-not-a-list": lambda i: i["groups"].update(
        {"0": i["groups"]["0"][0]}),
    "missing-planes": lambda i: _segment(i).pop("planes"),
    "zero-planes": lambda i: _segment(i).update(planes=0),
    "segments-a-list": lambda i: i.update(
        segments=list(i["segments"].values())),
    "string-crc32": lambda i: _segment(i).update(
        crc32=str(_segment(i)["crc32"])),
    "no-segments": lambda i: i.pop("segments"),
}

#: ``.tiles`` record mutations, each of a field read when the record opens.
TILES_MUTATIONS = {
    "junk-dtype": lambda t: t.update(dtype="junk"),
    "missing-shape": lambda t: t.pop("shape"),
    "string-value-range": lambda t: t.update(value_range="wide"),
    "missing-name": lambda t: t.pop("name"),
    "tile-field-not-a-name": lambda t: t["tiles"][0].update(field=5),
    "missing-tile-bytes": lambda t: t["tiles"][0].pop("bytes"),
}

MALFORMED = [
    pytest.param("u.index", mutate, read, id=f"index-{case}-{how}")
    for case, mutate in INDEX_MUTATIONS.items()
    for how, read in [("open_field", open_field), ("load_field", load_field)]
] + [
    pytest.param("t.tiles", mutate, open_tiled_field, id=f"tiles-{case}")
    for case, mutate in TILES_MUTATIONS.items()
]


class TestMalformedRecords:
    @pytest.fixture()
    def store(self):
        """The v2 golden store's records in memory, free to edit."""
        golden = DirectoryStore(GOLDEN_V2)
        store = MemoryStore()
        for key in golden.keys():
            store.put(key, golden.get(key))
        golden.close()
        return store

    @staticmethod
    def _edit(store, key, mutate):
        record = json.loads(store.get(key))
        mutate(record)
        store.put(key, json.dumps(record).encode())

    @pytest.mark.parametrize("key, mutate, read", MALFORMED)
    def test_malformed_record_is_typed(self, store, key, mutate, read):
        self._edit(store, key, mutate)
        with pytest.raises(SegmentCorruptionError, match=key):
            read(store, key.split(".")[0])

    def test_malformed_tile_index_degrades_only_its_tile(self, store):
        clean = TiledReconstructor(open_tiled_field(store, "t")).reconstruct(
            tolerance=1e-2)
        tiled = open_tiled_field(store, "t")
        bad = 1
        self._edit(store, f"{tiled.tile_field_names[bad]}.index",
                   lambda i: _segment(i).update(bytes="x"))
        result = TiledReconstructor(tiled).reconstruct(
            tolerance=1e-2, on_fault="degrade")
        assert result.degraded and result.failed_tiles == [bad]
        assert result.error_bound == float("inf")
        slab = tiled.tiles[bad].slices()
        assert not result.data[slab].any()
        result.data[slab] = clean.data[slab]
        np.testing.assert_array_equal(result.data, clean.data)


#: Level metadata no encoder writes, set on level 0 of ``u``.
LEVEL_TAMPERS = {
    "exponent-5000": ("exponent", 5000),
    "exponent-below-subnormal": ("exponent", -1074),
    "exponent-past-float64": ("exponent", 1025),
    "warp_size-0": ("warp_size", 0),
    "num_bitplanes-0": ("num_bitplanes", 0),
    "num_bitplanes-99": ("num_bitplanes", 99),
    "layout-bogus": ("layout", "bogus"),
    "signed_encoding-bogus": ("signed_encoding", "bogus"),
    "max_abs-nan": ("max_abs", float("nan")),
    "max_abs-inf": ("max_abs", float("inf")),
    "max_abs-negative": ("max_abs", -1.0),
}


class _KeySpy(MemoryStore):
    """A memory store that lists the keys read from it."""

    def __init__(self) -> None:
        super().__init__()
        self.read_keys = []

    def get(self, key: str) -> bytes:
        self.read_keys.append(key)
        return super().get(key)


def _tampered_index(version: str, raw: bytes, attr: str, value) -> bytes:
    """``u.index`` of record *version* with level 0's *attr* set to
    *value*, still well-formed (v3 resealed, v2 valid JSON)."""
    if version == "v2":
        record = json.loads(raw)
        template = RefactoredField.from_bytes(bytes.fromhex(record["field"]))
        setattr(template.levels[0], attr, value)
        record["field"] = template.to_bytes().hex()
        return json.dumps(record).encode()
    template, level_refs = _read_index(raw, "u.index")
    setattr(template.levels[0], attr, value)
    return _index_record(template, [
        ([r.nbytes for r in refs], [r.num_planes for r in refs],
         [r.crc32 for r in refs]) for refs in level_refs])


class TestTamperedLevelMetadata:
    """A record can parse and still carry level metadata the decoder
    cannot run. It must raise at open, naming its key, with no segment
    read — not an untyped error from a decode
    kernel or a bound at the first ``reconstruct``, and never a
    silently different decode. The error names the level value it
    rejects in both versions, also after a v2 record's re-fetch."""

    @pytest.mark.parametrize("read", [open_field, load_field],
                             ids=["open_field", "load_field"])
    @pytest.mark.parametrize("version", sorted(GOLDENS))
    @pytest.mark.parametrize("attr, value", LEVEL_TAMPERS.values(),
                             ids=list(LEVEL_TAMPERS))
    def test_raises_at_open(self, version, read, attr, value):
        golden = DirectoryStore(GOLDENS[version])
        store = _KeySpy()
        for key in golden.keys():
            store.put(key, golden.get(key))
        store.put("u.index", _tampered_index(
            version, golden.get("u.index"), attr, value))
        golden.close()
        with pytest.raises(SegmentCorruptionError, match="'u.index'") as err:
            read(store, "u")
        assert f"has {attr} " in str(err.value)
        # (A v2 record that fails to parse is re-read once, as a flip.)
        assert set(store.read_keys) == {"u.index"}


def _outcome(read, *args, key):
    """``True`` when ``read(*args)`` raises a corruption error naming
    *key*; otherwise what it did instead."""
    try:
        read(*args)
    except SegmentCorruptionError as exc:
        return repr(key) in str(exc) or f"unnamed: {exc}"
    except Exception as exc:  # any other outcome is the finding
        return f"{type(exc).__name__}: {exc}"
    return "a result"


#: v3 record -> (its parser, the reader that opens it by field name).
FUZZED = {
    "u.index": (_read_index, open_field),
    "t.tiles": (_read_tiled_index, open_tiled_field),
}


def _reseal(body: bytes) -> bytes:
    """*body* with a CRC32 trailer that matches it."""
    return body + struct.pack("<I", zlib.crc32(body))


class TestRecordFuzz:
    @pytest.fixture()
    def store(self):
        """The v3 golden store's records in memory, free to edit."""
        golden = DirectoryStore(GOLDEN_V3)
        store = MemoryStore()
        for key in golden.keys():
            store.put(key, golden.get(key))
        golden.close()
        return store

    @pytest.mark.parametrize("key", list(FUZZED))
    def test_every_bit_flip_and_truncation_is_typed(self, store, key):
        raw = store.get(key)
        flips = []
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            flips.append(bytes(flipped))
        cases = [raw[:n] for n in range(len(raw))] + flips
        parse, read = FUZZED[key]
        wrong = {}
        for i, case in enumerate(cases):
            store.put(key, case)
            for how, outcome in [
                ("parse", _outcome(parse, case, key, key=key)),
                ("read", _outcome(read, store, key.split(".")[0], key=key)),
            ]:
                if outcome is not True:
                    wrong[i, how] = outcome
        assert not wrong, dict(list(wrong.items())[:5])
        assert len(cases) == 9 * len(raw)

    RESEALED = {
        "trailing-byte": lambda body: body + b"\0",
        "short-body": lambda body: body[:-1],
        "version-2": lambda body: body[:4] + struct.pack("<H", 2) + body[6:],
        "magic-swapped": lambda body: (
            (b"MDRT" if body[:4] == b"MDRI" else b"MDRI") + body[4:]),
    }

    @pytest.mark.parametrize("case", list(RESEALED))
    @pytest.mark.parametrize("key", list(FUZZED))
    def test_sealed_record_of_another_shape_is_typed(self, store, key, case):
        """A record whose CRC32 matches but whose fields do not parse
        to its last byte (a writer bug, not a wire flip)."""
        record = _reseal(self.RESEALED[case](store.get(key)[:-4]))
        parse, read = FUZZED[key]
        store.put(key, record)
        assert _outcome(parse, record, key, key=key) is True
        assert _outcome(read, store, key.split(".")[0], key=key) is True

    def test_tile_count_must_cover_the_grid(self, store):
        body = store.get("t.tiles")[:-4]  # ..., <I count=4, <4Q bytes
        assert struct.unpack_from("<I", body, len(body) - 36) == (4,)
        record = _reseal(body[:-36] + struct.pack("<I", 3) + body[-32:-8])
        assert _outcome(_read_tiled_index, record, "t.tiles",
                        key="t.tiles") is True

    def test_zero_plane_group_is_typed(self, store):
        template, level_refs = _read_index(store.get("u.index"), "u.index")
        columns = [([r.nbytes for r in refs], [r.num_planes for r in refs],
                    [r.crc32 for r in refs]) for refs in level_refs]
        assert _read_index(_index_record(template, columns), "u.index") \
            == (template, level_refs)  # the writer's own round trip
        columns[0][1][0] = 0
        record = _index_record(template, columns)
        assert _outcome(_read_index, record, "u.index", key="u.index") is True
