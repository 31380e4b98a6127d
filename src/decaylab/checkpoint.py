"""Versioned binary checkpoint container.

Layout (little-endian):

    magic   8 bytes   b"DLABCKP1"
    hlen    u32       length of the JSON header
    header  hlen      {"version": 1, "config": {...}, "seed": int,
                       "tensors": [{"name": str, "shape": [int, ...]}, ...]}
    blobs   ...       raw float64 LE values, in header order
    digest  32 bytes  sha256 of everything before it
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict

import numpy as np

from .model import ModelConfig, _layout, config_from_dict
from .tensor import Tensor

MAGIC = b"DLABCKP1"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict, config: ModelConfig):
    """Write the checkpoint to a temporary file beside ``path`` and rename it
    over ``path``, so that a failed write leaves any earlier file intact."""
    names = sorted(params)
    header = {
        "version": VERSION,
        "config": asdict(config),
        "seed": config.seed,
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", len(hbytes))
    buf += hbytes
    for n in names:
        buf += np.ascontiguousarray(params[n].data, dtype="<f8").tobytes()
    buf += hashlib.sha256(buf).digest()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(buf)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (params, config); raises CheckpointError for a corrupt file,
    and for a malformed header, tensor data or config under a valid digest,
    including tensor names or shapes that differ from the config's layout."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 4 + 32 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    # a view, not a copy of the file: the digest and the tensors read it
    body, digest = memoryview(raw)[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch")
    hlen = struct.unpack("<I", raw[len(MAGIC): len(MAGIC) + 4])[0]
    hstart = len(MAGIC) + 4
    try:
        if hstart + hlen > len(body):
            raise ValueError(f"header length {hlen} runs past the tensor data")
        header = json.loads(raw[hstart: hstart + hlen].decode())
        if header.get("version") != VERSION:
            raise ValueError(f"unsupported version {header.get('version')}")
        config = config_from_dict(header["config"])
        params = {}
        off = hstart + hlen
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            vals = np.frombuffer(body, dtype="<f8", count=count, offset=off).reshape(shape)
            params[spec["name"]] = Tensor(vals.copy(), requires_grad=True)
            off += count * 8
        if off != len(body):
            raise ValueError("trailing or missing tensor data")
        layout = {name: shape for name, shape, _ in _layout(config)}
        found = {name: p.shape for name, p in params.items()}
        if found != layout or len(found) != len(header["tensors"]):
            wrong = sorted(n for n in layout.keys() | found.keys() if layout.get(n) != found.get(n))
            raise ValueError("tensors do not match the config: " + (", ".join(
                f"{n} {found.get(n)} (expected {layout.get(n)})" for n in wrong) or "a name repeats"))
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") from exc
    return params, config
