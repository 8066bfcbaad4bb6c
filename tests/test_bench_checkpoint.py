import json
import struct
import zlib

import numpy as np
import pytest

from projtune.bench.checkpoint import (
    Checkpoint,
    _collect_arrays,
    load_checkpoint,
    save_checkpoint,
)
from projtune.errors import PersistenceError
from projtune.model import MlpSpec, init_params
from projtune.numerics import SeededRng


def sample_checkpoint(seed=0):
    spec = MlpSpec(widths=(4, 6, 3), activations=("tanh",), loss="softmax_ce")
    rng = SeededRng(seed)
    values = init_params(spec, rng.derive(0))
    anchors = init_params(spec, rng.derive(1))
    return Checkpoint(
        model_spec=spec,
        iteration=17,
        values=values,
        anchors=anchors,
        prev_unconstrained={"layer0.weight": rng.derive(2).normal((6, 4))},
        gammas={"layer0.weight": {"gamma": 0.25, "m": -0.1, "v": 0.02, "t": 17,
                                  "kappa": 1.0, "mu": 0.01, "beta1": 0.9,
                                  "beta2": 0.999, "eps": 1e-8}},
        optimizer={"kind": "sgd", "tensors": {"velocity/layer0.weight": rng.derive(3).normal((6, 4))}},
        rng={"seed": seed},
        extra={"phase": "finetune", "fwd_count": 17, "bwd_count": 17},
    )


class TestRoundTrip:
    def test_bitwise_identity(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "state.ckpt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.model_spec == ckpt.model_spec
        assert back.iteration == 17
        assert back.gammas == ckpt.gammas
        assert back.extra == ckpt.extra
        for group in ("values", "anchors", "prev_unconstrained"):
            a, b = getattr(ckpt, group), getattr(back, group)
            assert set(a) == set(b)
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])
                assert b[name].dtype == np.float64
        np.testing.assert_array_equal(
            back.optimizer["tensors"]["velocity/layer0.weight"],
            ckpt.optimizer["tensors"]["velocity/layer0.weight"],
        )

    def test_save_is_deterministic(self, tmp_path):
        ckpt = sample_checkpoint()
        save_checkpoint(ckpt, tmp_path / "a.ckpt")
        save_checkpoint(ckpt, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class FailingFile:
    """A file whose second write fails, as a full disk or a crash would."""

    def __init__(self, f):
        self.f = f
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError("disk full")
        return self.f.write(data)


def test_interrupted_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    from projtune.bench import checkpoint as checkpoint_module

    path = tmp_path / "state.ckpt"
    save_checkpoint(sample_checkpoint(0), path)
    good = path.read_bytes()
    monkeypatch.setattr(checkpoint_module, "open",
                        lambda *args, **kw: FailingFile(open(*args, **kw)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(sample_checkpoint(1), path)
    monkeypatch.undo()
    assert path.read_bytes() == good
    back = load_checkpoint(path)
    np.testing.assert_array_equal(back.values["layer0.weight"],
                                  sample_checkpoint(0).values["layer0.weight"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]


class TestCorruption:
    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        blob = path.read_bytes()
        for cut in (3, 20, len(blob) - 5):
            path.write_bytes(blob[:cut])
            with pytest.raises(PersistenceError):
                load_checkpoint(path)

    def test_bitflip_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="checksum"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"ELF\x00"
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="magic"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        import struct

        path = tmp_path / "state.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="version"):
            load_checkpoint(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(PersistenceError):
            load_checkpoint(path)


def rewrite_directory(path, edit):
    """Apply ``edit`` to the array directory of ``path``, keeping the CRC valid."""
    data = path.read_bytes()
    magic, version, header_len, blob_len, _ = struct.unpack("<4sIQQI", data[:28])
    header = json.loads(data[28:28 + header_len])
    blob = data[28 + header_len:]
    edit(header["arrays"])
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    crc = zlib.crc32(blob, zlib.crc32(raw))
    path.write_bytes(struct.pack("<4sIQQI", magic, version, len(raw), blob_len, crc) + raw + blob)


def _entry(arrays, key="values/layer0.weight"):
    return next(e for e in arrays if e["key"] == key)


@pytest.mark.parametrize("edit", [
    lambda a: _entry(a).update(offset=0.5),
    lambda a: _entry(a).update(offset=-8),
    lambda a: _entry(a).update(offset=_entry(a)["offset"] + 4),
    lambda a: _entry(a).update(shape=[-1, 4]),
    lambda a: _entry(a).update(shape=[6.0, 4]),
    lambda a: _entry(a).update(offset=1 << 20),
    lambda a: _entry(a).update(offset=_entry(a, "values/layer0.bias")["offset"]),
    lambda a: a.append(dict(_entry(a))),
    lambda a: _entry(a).update(key="grads/layer0.weight"),
    lambda a: _entry(a).pop("offset"),
    lambda a: _entry(a).update(key=["values", "layer0.weight"]),
    lambda a: a.append(7),
], ids=["fractional-offset", "negative-offset", "unaligned-offset", "negative-dim",
        "float-dim", "past-payload", "overlap", "duplicate-key", "unknown-group",
        "missing-offset", "non-string-key", "non-object-entry"])
def test_bad_array_directory_is_a_persistence_error(tmp_path, edit):
    path = tmp_path / "state.ckpt"
    save_checkpoint(sample_checkpoint(), path)
    rewrite_directory(path, edit)
    with pytest.raises(PersistenceError):
        load_checkpoint(path)


class TestLoadedArrays:
    def test_writable_aligned_disjoint_float64_and_bitwise_equal(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "state.ckpt"
        save_checkpoint(ckpt, path)
        saved, loaded = _collect_arrays(ckpt), _collect_arrays(load_checkpoint(path))
        assert set(saved) == set(loaded)
        for key, arr in loaded.items():
            assert arr.dtype == np.float64
            assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
            assert arr.shape == saved[key].shape
            assert arr.tobytes() == saved[key].tobytes()
        keys = sorted(loaded)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                assert not np.shares_memory(loaded[a], loaded[b]), (a, b)

    def test_resaving_a_loaded_checkpoint_gives_the_same_bytes(self, tmp_path):
        save_checkpoint(sample_checkpoint(), tmp_path / "a.ckpt")
        save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda a: a[::-1].copy()[::-1],
                                        lambda a: np.repeat(a, 2, axis=1)[:, ::2]],
                             ids=["fortran", "reversed", "strided"])
    def test_non_contiguous_input_saves_like_its_contiguous_copy(self, tmp_path, layout):
        ckpt = sample_checkpoint()
        save_checkpoint(ckpt, tmp_path / "a.ckpt")
        weight = ckpt.values["layer0.weight"]
        ckpt.values["layer0.weight"] = layout(weight)
        assert not ckpt.values["layer0.weight"].flags.c_contiguous
        np.testing.assert_array_equal(ckpt.values["layer0.weight"], weight)
        save_checkpoint(ckpt, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
