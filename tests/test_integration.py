"""Cross-module integration scenarios and failure injection.

These tie together subsystems the unit suites exercise in isolation:
tiled refactoring driven through the pipelined executor, QoI retrieval
over a file-backed store, corruption detection on every stream layer,
and the portability guarantee across simulated devices.
"""

import numpy as np
import pytest

from repro.core import Reconstructor
from repro.core.refactor import RefactorConfig, refactor
from repro.core.reconstruct import reconstruct
from repro.core.stream import RefactoredField
from repro.core.store import DirectoryStore, MemoryStore, load_field, store_field
from repro.core.tiling import (
    TiledReconstructor,
    TiledRefactorer,
    _refactorer_for,
)
from repro.data import generators as gen
from repro.gpu.device import H100, MI250X
from repro.gpu.events import Task
from repro.gpu.hdem import HostDeviceModel
from repro.pipeline.executor import PipelinedExecutor
from repro.qoi import retrieve_qoi, v_total


@pytest.fixture(scope="module")
def field_data():
    return gen.gaussian_random_field((16, 18, 20), -2.5, seed=31,
                                     dtype=np.float64)


class TestExecutorDrivenTiling:
    def test_pipeline_executes_real_tile_refactoring(self, field_data):
        """Fig. 4's DAG drives the *actual* per-tile refactoring work;
        results are real, timing is modeled and validated."""
        refac = TiledRefactorer((10, 18, 20))
        tiles_data = [field_data[:10], field_data[10:]]
        model = HostDeviceModel(H100)
        tasks = []
        actions = {}
        results = {}
        for i, block in enumerate(tiles_data):
            tasks.append(Task(f"I{i}", "h2d", 1e-3))
            tasks.append(Task(f"D{i}", "compute", 2e-3, (f"I{i}",)))
            tasks.append(Task(f"O{i}", "d2h", 1e-3, (f"D{i}",)))

            def do(i=i, block=block):
                results[i] = _refactorer_for(
                    refac._refactorers, refac.config, block.shape,
                ).refactor(np.ascontiguousarray(block), name=f"t{i}")
                return i

            actions[f"D{i}"] = do
        timeline, _ = PipelinedExecutor(model).execute(tasks, actions)
        timeline.validate(tasks)
        assert set(results) == {0, 1}
        for i, block in enumerate(tiles_data):
            rec = reconstruct(results[i], tolerance=1e-4)
            assert np.max(np.abs(rec.data - block)) <= 1e-4


class TestQoIOverStore:
    def test_qoi_retrieval_from_directory_store(self, field_data, tmp_path):
        dims = (12, 12, 12)
        vx, vy, vz = gen.turbulence_velocity(dims, seed=5,
                                             dtype=np.float64)
        original = {"vx": vx, "vy": vy, "vz": vz}
        store = DirectoryStore(tmp_path / "qoi")
        for name, arr in original.items():
            store_field(store, refactor(arr, name=name))
        loaded = {name: load_field(store, name) for name in original}
        result = retrieve_qoi(loaded, v_total(), 1e-2, method="mape")
        assert result.estimated_error <= 1e-2
        truth = v_total().evaluate(original)
        assert np.max(np.abs(result.qoi_values - truth)) <= 1e-2


class TestPortabilityAcrossDevices:
    @pytest.mark.parametrize("writer,reader", [(H100, MI250X),
                                               (MI250X, H100)])
    def test_stream_decodes_identically(self, field_data, writer, reader):
        """The paper's portability property: a stream refactored with
        one device's warp width reconstructs bit-identically anywhere."""
        f_writer = refactor(
            field_data,
            RefactorConfig(warp_size=writer.warp_size),
        )
        blob = f_writer.to_bytes()
        # "Transfer" to the other system and decode there.
        f_reader = RefactoredField.from_bytes(blob)
        r1 = reconstruct(f_writer, tolerance=1e-3)
        r2 = reconstruct(f_reader, tolerance=1e-3)
        np.testing.assert_array_equal(r1.data, r2.data)


class TestFailureInjection:
    def test_corrupt_group_payload_detected(self, field_data):
        field = refactor(field_data)
        lv = field.levels[0]
        g = lv.groups[0]
        corrupted = bytearray(g.payload)
        if len(corrupted) > 16:
            corrupted[8] ^= 0xFF
        g.payload = bytes(corrupted[:-4])  # truncate + flip
        with pytest.raises(ValueError):
            Reconstructor(field).reconstruct(tolerance=1e-6)

    def test_corrupt_field_blob_detected(self, field_data):
        blob = bytearray(refactor(field_data).to_bytes())
        blob[4] = 99  # version byte
        with pytest.raises(ValueError):
            RefactoredField.from_bytes(bytes(blob))

    def test_store_missing_segment(self, field_data):
        store = MemoryStore()
        field = refactor(field_data, name="v")
        store_field(store, field)
        victim = next(k for k in store.keys() if ".L0.G0" in k)
        del store._blobs[victim]
        with pytest.raises(KeyError):
            load_field(store, "v")


class TestMixedPrecisionWorkflow:
    def test_float32_stream_reconstructs_to_float32(self):
        data = gen.gaussian_random_field((12, 12, 12), seed=2,
                                         dtype=np.float32)
        r = reconstruct(refactor(data), tolerance=1e-3)
        assert r.data.dtype == np.float32

    def test_tiled_negabinary_store_roundtrip(self, tmp_path):
        """Deepest stack: tiling + negabinary + file store."""
        data = gen.gaussian_random_field((14, 14, 14), seed=3,
                                         dtype=np.float64)
        tiled = TiledRefactorer(
            (8, 8, 8), RefactorConfig(signed_encoding="negabinary")
        ).refactor(data, name="w")
        store = DirectoryStore(tmp_path / "tiles")
        for f in tiled.fields:
            store_field(store, f)
        loaded_fields = [load_field(store, f.name) for f in tiled.fields]
        tiled.fields = loaded_fields
        out, bound = TiledReconstructor(tiled).reconstruct(tolerance=1e-4)
        assert bound <= 1e-4
        assert np.max(np.abs(out - data)) <= 1e-4
