import json

import numpy as np
import pytest

from canet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from canet.model import CanModel, ModelConfig, can_forward
from conftest import BAD_HEADERS, rewrite_header


def random_model(seed=3, **overrides) -> CanModel:
    base = dict(n_sensors=3, window=4, layers=2, heads=2, model_dim=8,
                embed_dim=4, neighbor_k=2)
    base.update(overrides)
    return CanModel(ModelConfig(**base), seed=seed)


class TestRoundtrip:
    def test_parameters_bit_exact(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, {"note": "x"})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "x"}
        for (name, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_forward_pass_bit_identical_after_reload(self, tmp_path, rng):
        model = random_model(seed=8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        a = can_forward(x, model)
        b = can_forward(x, loaded)
        assert a.y_pred.data.tobytes() == b.y_pred.data.tobytes()
        assert a.y_rec.data.tobytes() == b.y_rec.data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        model = random_model(seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, {"k": 1})
        save_checkpoint(model, p2, {"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_ablated_model_roundtrips(self, tmp_path):
        model = random_model(ablation="no-rec-decoder")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.rec_decoder is None
        assert loaded.num_parameters() == model.num_parameters()


def save_v1(model: CanModel, path) -> None:
    """Write ``model`` in the version-1 layout: one ``(width, head_dim)``
    entry ``<prefix>.w_query.<i>`` per head, likewise key and value."""
    pieces = []
    for name, param in model.named_parameters():
        if name.endswith((".w_query", ".w_key", ".w_value")):
            blocks = np.split(param.data, model.config.heads, axis=1)
            pieces += [(f"{name}.{i}", block) for i, block in enumerate(blocks)]
        else:
            pieces.append((name, param.data))
    entries, offset = [], 0
    for name, value in pieces:
        entries.append({"name": name, "shape": list(value.shape), "offset": offset})
        offset += 4 * value.size
    header = {"version": 1, "config": model.config.to_dict(), "params": entries,
              "total_bytes": offset, "extra": {"note": "v1"}}
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for _, value in pieces:
            handle.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


class TestVersion1:
    def test_v1_checkpoint_loads_and_predicts_the_same(self, tmp_path, rng):
        model = random_model(seed=11, heads=4)
        path = tmp_path / "v1.ckpt"
        save_v1(model, path)
        with open(path, "rb") as handle:
            names = {e["name"] for e in json.loads(handle.readline())["params"]}
        assert "encoder.1.attention.w_query.3" in names
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "v1"}
        x = rng.standard_normal((5, 3, 4)).astype(np.float32)
        a, b = can_forward(x, model), can_forward(x, loaded)
        np.testing.assert_allclose(b.y_pred.data, a.y_pred.data, rtol=0, atol=1e-6)
        np.testing.assert_allclose(b.y_rec.data, a.y_rec.data, rtol=0, atol=1e-6)

    def test_v1_checkpoint_missing_a_head_rejected(self, tmp_path):
        model = random_model(heads=2)
        path = tmp_path / "v1.ckpt"
        save_v1(model, path)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            blob = handle.read()
        header["params"] = [e for e in header["params"] if e["name"] != "encoder.1.attention.w_key.1"]
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "encoder.1.attention.w_key" in str(err.value)

    def test_saves_version_2(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(random_model(), path)
        with open(path, "rb") as handle:
            assert json.loads(handle.readline())["version"] == 2


class TestCorruption:
    def test_truncated_file_rejected(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"\x00\x01not json\n\xff\xff")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            blob = handle.read()
        header["version"] = 999
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "version" in str(err.value)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("edit", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
    def test_malformed_header_rejected(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        save_checkpoint(random_model(), path, {"note": "x"})
        rewrite_header(path, edit, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
