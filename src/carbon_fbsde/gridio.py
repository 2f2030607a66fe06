"""Binary persistence for solved grids, plus canonical hashing helpers.

The container is deliberately dumb: an 8-byte magic, a little-endian
uint64 header length, a canonical-JSON header describing the axes and
metadata, then the raw float64 payload in C order.  Writing the same
grid twice produces byte-identical files, which the artifact checks
rely on.

Only this module hashes a grid, in the pass that moves its bytes:
``write_grid`` returns the digest of what it wrote and ``read_grid``
checks a recorded one while it reads.  ``file_sha256`` is for the
other artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ArtifactError
from .pde_kernel import ValueGrid

__all__ = [
    "write_grid",
    "read_grid",
    "file_sha256",
    "canonical_json",
    "sha256_hex",
    "jsonable",
    "start_slice_csv",
]

_MAGIC = b"CFBGRID1"
_CHUNK = 1 << 20


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return jsonable(obj.tolist())
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _checked(path, sha256: Optional[str], digest: str) -> str:
    if sha256 not in (None, digest):
        raise ArtifactError(f"{path}: sha256 mismatch (recorded {sha256[:12]}..., "
                            f"file {digest[:12]}...)")
    return digest


def file_sha256(path: Union[str, Path], sha256: Optional[str] = None) -> str:
    """Digest of a file; with ``sha256`` given, a different digest raises."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_CHUNK), b""):
            h.update(block)
    return _checked(path, sha256, h.hexdigest())


def write_grid(grid: ValueGrid, path: Union[str, Path]) -> str:
    """Serialise a grid; returns the sha256 of the bytes written.

    The prefix, the header and the array's own buffer pass through one
    hasher on their way to the file; the payload is not copied.
    """
    header = {
        "times": grid.times.tolist(),
        "e_nodes": grid.e_nodes.tolist(),
        "p_nodes": None if grid.p_nodes is None else grid.p_nodes.tolist(),
        "eparam_nodes": (None if grid.eparam_nodes is None
                         else grid.eparam_nodes.tolist()),
        "rate": float(grid.rate),
        "shape": list(grid.values.shape),
        "meta": jsonable(grid.meta),
    }
    head = canonical_json(header).encode("utf-8")
    payload = np.ascontiguousarray(grid.values, dtype="<f8").reshape(-1).view(np.uint8)
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (_MAGIC, struct.pack("<Q", len(head)), head, payload):
            h.update(part)
            fh.write(part)
    return h.hexdigest()


def _parse_header(raw: bytes, path) -> tuple:
    """Payload shape and ValueGrid fields of a header whose axes fit its shape."""
    try:
        header = json.loads(raw.decode("utf-8"))
        fields = {key: None if key in ("p_nodes", "eparam_nodes") and header[key] is None
                  else np.asarray(header[key], dtype=float)
                  for key in ("times", "p_nodes", "e_nodes", "eparam_nodes")}
        axes = [nodes for nodes in fields.values() if nodes is not None]
        meta = header.get("meta", {})
        if (any(nodes.ndim != 1 for nodes in axes) or not isinstance(meta, dict)
                or list(header["shape"]) != [nodes.size for nodes in axes]):
            raise ValueError("shape, axes and meta disagree")
        fields.update(rate=float(header["rate"]), meta=meta)
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"{path}: corrupt grid header ({exc!r})") from exc
    return tuple(nodes.size for nodes in axes), fields


def read_grid(path: Union[str, Path], sha256: Optional[str] = None) -> ValueGrid:
    """Load a grid, hashing its bytes as they are read into the array.

    With ``sha256`` given, a file whose digest differs is refused.  Any
    unreadable, truncated or malformed file raises :class:`ArtifactError`.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read grid ({exc.strerror})") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(16)
        if lead[:8] != _MAGIC:
            raise ArtifactError(f"{path}: not a grid file (bad magic)")
        head_len = int.from_bytes(lead[8:], "little")
        if head_len > size - 16:
            raise ArtifactError(f"{path}: truncated before the payload")
        head = fh.read(head_len)
        shape, fields = _parse_header(head, path)
        expect = 8 * math.prod(shape)
        if size - 16 - head_len != expect:
            raise ArtifactError(
                f"{path}: payload is {size - 16 - head_len} bytes, expected {expect}"
            )
        values = np.empty(shape, dtype="<f8")
        payload = memoryview(values.reshape(-1).view(np.uint8))
        h = hashlib.sha256(lead + head)
        for at in range(0, expect, _CHUNK):
            part = payload[at:at + _CHUNK]
            if fh.readinto(part) != len(part):
                raise ArtifactError(f"{path}: file shrank while being read")
            h.update(part)
    _checked(path, sha256, h.hexdigest())
    return ValueGrid(values=values, **fields)


def start_slice_csv(grid: ValueGrid, path: Union[str, Path]) -> None:
    """Write the start-of-period slice as CSV, one row per grid node."""
    named = [(name, nodes) for name, nodes in (("p", grid.p_nodes), ("e", grid.e_nodes),
                                                ("eparam", grid.eparam_nodes))
             if nodes is not None]
    mesh = np.meshgrid(*(nodes for _, nodes in named), indexing="ij")
    data = np.column_stack([m.ravel() for m in mesh] + [grid.values[0].ravel()])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join([name for name, _ in named] + ["value"]), comments="")
