"""Versioned binary checkpoints: JSON header plus raw float64 array payload.

Layout: ``magic(4) | version(u32) | header_len(u64) | blob_len(u64) |
crc32(u32) | header JSON | array blob``. The CRC covers header and blob, so
a truncated or bit-flipped file is rejected before any state is built.
Arrays are little-endian float64 with no transformation, which makes a
save/load round trip bit-identical and lets a resumed run continue exactly
where an uninterrupted one would be. A checkpoint is written to a sibling
temporary file and renamed over its path, so an interrupted write leaves the
previous file as it was.

A file is read once, into one payload buffer: the arrays of a loaded
checkpoint are writable, disjoint views into it, so holding any one of them
keeps the whole payload alive. Copy an array that outlives the checkpoint
(``make_managed`` and ``set_state`` do).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import PersistenceError
from ..model import MlpSpec

__all__ = ["Checkpoint", "load_checkpoint", "save_checkpoint", "spec_hash"]

MAGIC = b"PJTN"
VERSION = 1
_HEADER_FMT = "<4sIQQI"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


def spec_hash(spec: MlpSpec) -> str:
    blob = json.dumps(spec.canonical(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Checkpoint:
    model_spec: MlpSpec
    iteration: int = 0
    values: dict[str, np.ndarray] = field(default_factory=dict)
    anchors: dict[str, np.ndarray] = field(default_factory=dict)
    prev_unconstrained: dict[str, np.ndarray] = field(default_factory=dict)
    gammas: dict[str, dict] = field(default_factory=dict)      # name -> scalar state
    optimizer: dict = field(default_factory=dict)              # kind/hyper + tensor buffers
    rng: dict = field(default_factory=dict)                    # seed bookkeeping
    extra: dict = field(default_factory=dict)                  # counters, method, notes

    @property
    def spec_hash(self) -> str:
        return spec_hash(self.model_spec)


def _collect_arrays(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for group, tensors in (
        ("values", ckpt.values),
        ("anchors", ckpt.anchors),
        ("prev", ckpt.prev_unconstrained),
    ):
        for name, arr in tensors.items():
            arrays[f"{group}/{name}"] = np.asarray(arr, dtype=np.float64)
    for name, arr in ckpt.optimizer.get("tensors", {}).items():
        arrays[f"opt/{name}"] = np.asarray(arr, dtype=np.float64)
    return arrays


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    arrays = _collect_arrays(ckpt)
    directory = []
    blob_parts = []
    offset = 0
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key], dtype="<f8")
        directory.append({"key": key, "shape": list(arr.shape), "offset": offset})
        blob_parts.append(arr)
        offset += arr.nbytes
    # one copy of the payload; one write per array costs more than the copy
    # saves on checkpoints of many small arrays
    blob = b"".join(blob_parts)

    header_obj = {
        "spec": ckpt.model_spec.canonical(),
        "spec_hash": ckpt.spec_hash,
        "iteration": int(ckpt.iteration),
        "gammas": ckpt.gammas,
        "optimizer_meta": {k: v for k, v in ckpt.optimizer.items() if k != "tensors"},
        "rng": ckpt.rng,
        "extra": ckpt.extra,
        "arrays": directory,
    }
    header = json.dumps(header_obj, sort_keys=True).encode("utf-8")
    crc = zlib.crc32(blob, zlib.crc32(header))  # the crc of header + blob, without joining them
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack(_HEADER_FMT, MAGIC, VERSION, len(header), len(blob), crc))
            f.write(header)
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _split_key(key: str) -> tuple[str, str]:
    group, _, name = key.partition("/")
    return group, name


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _array_spans(directory, blob_len: int, groups) -> list[tuple[str, str, int, int, tuple]]:
    """``(group, name, start, end, shape)`` per directory entry, each checked.

    The arrays become views into one buffer, so an entry must lie inside
    the payload, start on an 8-byte boundary and share no byte with another.
    """
    spans = []
    seen = set()
    for entry in directory:
        if not (isinstance(entry, dict) and entry.keys() >= {"key", "shape", "offset"}
                and isinstance(entry["key"], str)):
            raise PersistenceError(f"malformed checkpoint array entry {entry!r}")
        key, shape, start = entry["key"], entry["shape"], entry["offset"]
        if key in seen:
            raise PersistenceError(f"checkpoint array {key!r} listed twice")
        seen.add(key)
        group, name = _split_key(key)
        if group not in groups:
            raise PersistenceError(f"unknown array group {group!r}")
        if not _is_index(start) or start % 8:
            raise PersistenceError(f"checkpoint array {key!r} has bad offset {start!r}")
        if not isinstance(shape, list) or not all(_is_index(d) for d in shape):
            raise PersistenceError(f"checkpoint array {key!r} has bad shape {shape!r}")
        end = start + 8 * math.prod(shape)
        if end > blob_len:
            raise PersistenceError("checkpoint array directory exceeds payload")
        spans.append((group, name, start, end, tuple(shape)))
    last_end = 0
    for group, name, start, end, _ in sorted(spans, key=lambda s: (s[2], s[3])):
        if start < last_end:
            raise PersistenceError(f"checkpoint array '{group}/{name}' overlaps another")
        last_end = end
    return spans


def load_checkpoint(path) -> Checkpoint:
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise PersistenceError(f"checkpoint {path} does not exist") from None
    with f:
        fixed = f.read(_HEADER_SIZE)
        if len(fixed) < _HEADER_SIZE:
            raise PersistenceError("checkpoint truncated: missing fixed header")
        magic, version, header_len, blob_len, crc = struct.unpack(_HEADER_FMT, fixed)
        if magic != MAGIC:
            raise PersistenceError(f"not a checkpoint file (magic {magic!r})")
        if version != VERSION:
            raise PersistenceError(f"checkpoint version {version} unsupported (want {VERSION})")
        body_len = os.fstat(f.fileno()).st_size - _HEADER_SIZE
        if body_len != header_len + blob_len:
            raise PersistenceError(
                f"checkpoint size mismatch: expected {header_len + blob_len} body bytes, "
                f"got {body_len}"
            )
        header = f.read(header_len)
        blob = np.empty(blob_len, dtype=np.uint8)
        if len(header) != header_len or f.readinto(blob) != blob_len:
            raise PersistenceError("checkpoint changed size while it was read")
    if zlib.crc32(blob, zlib.crc32(header)) != crc:
        raise PersistenceError("checkpoint checksum mismatch")

    # a header that passed the CRC but is not the object save_checkpoint writes
    try:
        obj = json.loads(header.decode("utf-8"))
        spec = MlpSpec(
            widths=tuple(obj["spec"]["widths"]),
            activations=tuple(obj["spec"]["activations"]),
            loss=obj["spec"]["loss"],
        )
        ckpt = Checkpoint(
            model_spec=spec,
            iteration=int(obj["iteration"]),
            gammas={k: dict(v) for k, v in obj["gammas"].items()},
            optimizer=dict(obj["optimizer_meta"]),
            rng=dict(obj["rng"]),
            extra=dict(obj["extra"]),
        )
        if obj["spec_hash"] != ckpt.spec_hash:
            raise PersistenceError("model spec hash mismatch")
        groups = {"values": ckpt.values, "anchors": ckpt.anchors,
                  "prev": ckpt.prev_unconstrained, "opt": {}}
        for group, name, start, end, shape in _array_spans(obj["arrays"], blob_len, groups):
            groups[group][name] = blob[start:end].view("<f8").reshape(shape)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"malformed checkpoint header ({type(exc).__name__}: {exc})") from None
    ckpt.optimizer["tensors"] = groups["opt"]
    return ckpt
