"""Binary persistence for solved grids, plus canonical hashing helpers.

The container is deliberately dumb: an 8-byte magic, a little-endian
uint64 header length, a canonical-JSON header describing the axes and
metadata, then the raw float64 payload in C order, one time slice after
another.  Writing the same grid twice produces byte-identical files,
which the artifact checks rely on.

A grid file is written a time slice at a time: a :class:`GridWriter`
takes the header before the march starts and puts each slice at its
offset as the march makes it, last slice first, into a temporary file
beside the target.  :func:`write_grid` then reads the payload back once,
slice by slice, hashing every byte and handing the slices to the
writer's ``scan`` (the structural diagnostics), and moves the file into
place; a failure before that leaves nothing behind.  ``read_grid``
checks a recorded digest in the pass that reads the file, into one array
or, with ``scan``, one slice at a time into a ring of the latest few.
Only this module hashes a grid; ``file_sha256`` is for the other
artifacts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
import struct
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .errors import ArtifactError
from .pde_kernel import SliceSink, ValueGrid

__all__ = [
    "GridWriter",
    "write_grid",
    "read_grid",
    "file_sha256",
    "read_manifest",
    "canonical_json",
    "sha256_hex",
    "jsonable",
    "start_slice_csv",
]

_log = logging.getLogger(__name__)
_MAGIC = b"CFBGRID1"
_CHUNK = 1 << 20
_SERIAL = itertools.count()


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
    try:
        with open(path, "rb", buffering=0) as fh:
            # one buffer no larger than the file: read(_CHUNK) would
            # allocate a whole chunk for every small artifact
            buf = memoryview(bytearray(min(_CHUNK, os.fstat(fh.fileno()).st_size + 1)))
            while done := fh.readinto(buf):
                h.update(buf[:done])
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read ({exc.strerror})") from exc
    return _checked(path, sha256, h.hexdigest())


def read_manifest(path: Union[str, Path], list_key: str, fields: tuple) -> tuple:
    """``(document, entries)`` of a JSON manifest.

    The document must be a JSON object whose ``list_key`` holds a list of
    objects with a string under each of ``fields``; that list is
    ``entries``.  An unreadable file or any other shape raises
    :class:`ArtifactError`.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{path}: unreadable manifest ({exc})") from exc
    entries = doc.get(list_key) if isinstance(doc, dict) else None
    if not (isinstance(entries, list) and all(
            isinstance(e, dict) and all(isinstance(e.get(k), str) for k in fields)
            for e in entries)):
        raise ArtifactError(f"{path}: manifest needs '{list_key}', a list of "
                            f"objects with string {', '.join(map(repr, fields))}")
    return doc, entries


def _prefix(grid: ValueGrid, shape: tuple) -> bytes:
    """Magic, header length and header of a grid whose values have ``shape``."""
    header = {
        "times": grid.times.tolist(),
        "e_nodes": grid.e_nodes.tolist(),
        "p_nodes": None if grid.p_nodes is None else grid.p_nodes.tolist(),
        # always null, so grid files keep their bytes; readers refuse any other value
        "eparam_nodes": None,
        "rate": float(grid.rate),
        "shape": list(shape),
        "meta": jsonable(grid.meta),
    }
    head = canonical_json(header).encode("utf-8")
    return _MAGIC + struct.pack("<Q", len(head)) + head


def _pwrite(fd: int, data, at: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, at)
        view, at = view[done:], at + done


class GridWriter(SliceSink):
    """A grid file for ``path``, written one time slice at a time.

    ``open`` writes the header to a temporary file in ``path``'s
    directory and ``put`` places each slice at its offset, in any order;
    :func:`write_grid` then finishes the file: it reads the payload back
    once, hashes it and hands it to ``scan``, whose result it keeps as
    ``scanned``, and moves the file to ``path``.  Used as a context
    manager, the writer removes its temporary file when it leaves without
    having been finished, so a failed solve leaves no partial grid.
    """

    def __init__(self, path: Union[str, Path],
                 scan: Optional[Callable[[ValueGrid], object]] = None):
        self.path = Path(path)
        self.scan = scan
        self.scanned = None
        self._fd = self._tmp = None

    def open(self, grid: ValueGrid, shape: tuple) -> None:
        prefix = _prefix(grid, shape)
        self._tmp = self.path.with_name(
            f".{self.path.name}.{os.getpid()}-{next(_SERIAL)}.tmp")
        self._fd = os.open(self._tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
        _pwrite(self._fd, prefix, 0)
        self._slice = np.empty(shape[1:], dtype="<f8")
        self._at = len(prefix)

    def put(self, it: int, cells: np.ndarray, c0: int, bound: float) -> None:
        self.whole(self._slice, cells, c0, bound)
        _pwrite(self._fd, self._slice, self._at + it * self._slice.nbytes)

    def _finish(self, path) -> str:
        os.close(self._fd)
        self._fd = None
        started = time.perf_counter()
        digest, self.scanned = _scan(self._tmp, self.scan)
        size = self._tmp.stat().st_size
        os.replace(self._tmp, path)
        self._tmp = None
        _log.debug("%s: %d bytes written, read back in %.3fs", Path(path).name,
                   size, time.perf_counter() - started)
        return digest

    def __enter__(self) -> "GridWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self._tmp is not None:
            self._tmp.unlink(missing_ok=True)
            self._tmp = None


def write_grid(grid: Union[ValueGrid, GridWriter], path: Union[str, Path]) -> str:
    """Write a grid file at ``path``; returns the sha256 of its bytes.

    ``grid`` is a :class:`ValueGrid` holding every time slice, or a
    :class:`GridWriter` for ``path`` that a solve has put every slice
    into.  Either way the payload is read back once, one slice at a time,
    into the digest and the writer's ``scan``.
    """
    writer = grid if isinstance(grid, GridWriter) else GridWriter(path)
    with writer:
        if writer is not grid:
            writer.open(grid, grid.values.shape)
            for it, values in enumerate(grid.values):
                writer.put(it, values, 0, 0.0)
        return writer._finish(path)


def _parse_header(raw: bytes, path) -> tuple:
    """Payload shape and ValueGrid fields of a header whose axes fit its shape."""
    try:
        header = json.loads(raw.decode("utf-8"))
        if header["eparam_nodes"] is not None:
            raise ArtifactError(f"{path}: a reserve-rule grid with a recorded-emissions "
                                "axis (eparam_nodes), no longer read; price it again")
        fields = {key: None if key == "p_nodes" and header[key] is None
                  else np.asarray(header[key], dtype=float)
                  for key in ("times", "p_nodes", "e_nodes")}
        axes = [nodes for nodes in fields.values() if nodes is not None]
        meta = header.get("meta", {})
        if (any(nodes.ndim != 1 for nodes in axes) or not isinstance(meta, dict)
                or list(header["shape"]) != [nodes.size for nodes in axes]):
            raise ValueError("shape, axes and meta disagree")
        fields.update(rate=float(header["rate"]), meta=meta)
        if not math.isfinite(fields["rate"]):
            raise ValueError(f"rate {fields['rate']}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"{path}: corrupt grid header ({exc!r})") from exc
    return tuple(nodes.size for nodes in axes), fields


@contextmanager
def _open_grid(path):
    """``(file, hasher, shape, fields)`` of a grid file whose header parses
    and whose payload has the header's size; the file stands at the
    payload and the hasher has taken every byte before it."""
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
        yield fh, hashlib.sha256(lead + head), shape, fields


class _Slices:
    """The time slices of an open grid file, for one pass in order.

    Slice ``k`` is read into ``out[k % len(out)]`` and goes through the
    file's hasher.  Iterating yields the slices in order; indexing with
    ``k`` reads forward to slice ``k``, which must still be one of the
    last ``len(out)`` read.
    """

    def __init__(self, fh, hasher, shape: tuple, path, out: np.ndarray):
        self.shape = shape
        self._fh, self._hasher, self._path = fh, hasher, path
        self._out = out
        self._read = 0

    def _next(self) -> np.ndarray:
        s = self._out[self._read % len(self._out)]
        view = memoryview(s.reshape(-1).view(np.uint8))
        if self._fh.readinto(view) != len(view):
            raise ArtifactError(f"{self._path}: file shrank while being read")
        self._hasher.update(view)
        self._read += 1
        return s

    def __iter__(self):
        if self._read:
            raise RuntimeError("the slices of a grid file are read once")
        while self._read < self.shape[0]:
            yield self._next()

    def __getitem__(self, k: int) -> np.ndarray:
        while self._read <= k:
            self._next()
        if k < self._read - len(self._out):
            raise RuntimeError(f"slice {k} of a grid file was read and dropped")
        return self._out[k % len(self._out)]

    def drain(self) -> None:
        while self._read < self.shape[0]:
            self._next()


def _scan(path, scan, ring: int = 1) -> tuple:
    """``(digest, result)``: one pass over a grid file, slice by slice.

    ``scan``, when given, is called with a grid whose ``values`` are the
    file's :class:`_Slices`, each slice valid until ``ring`` more are read;
    whatever it leaves unread is read and hashed after it returns.
    """
    with _open_grid(path) as (fh, hasher, shape, fields):
        slices = _Slices(fh, hasher, shape, path,
                         out=np.empty((ring,) + shape[1:], dtype="<f8"))
        result = None if scan is None else scan(ValueGrid(values=slices, **fields))
        slices.drain()
    return hasher.hexdigest(), result


def read_grid(path: Union[str, Path], sha256: Optional[str] = None,
              scan: Optional[Callable[[ValueGrid], object]] = None, ring: int = 1):
    """Load a grid, hashing its bytes as they are read into the array.

    With ``scan`` given nothing is loaded: the file is read once, one
    time slice at a time, and ``scan`` is called with a grid whose
    ``values`` yields those slices in order, or gives slice ``k`` as
    ``values[k]`` by reading forward to it; each slice stays valid until
    ``ring`` more are read.  Its result is returned.  With ``sha256``
    given, a file whose digest differs is refused once every byte is
    read.  Any unreadable, truncated or malformed file raises
    :class:`ArtifactError`.
    """
    if scan is not None:
        digest, result = _scan(path, scan, ring)
        _checked(path, sha256, digest)
        return result
    with _open_grid(path) as (fh, hasher, shape, fields):
        slices = _Slices(fh, hasher, shape, path, out=np.empty(shape, dtype="<f8"))
        slices.drain()
    _checked(path, sha256, hasher.hexdigest())
    return ValueGrid(values=slices._out, **fields)


def start_slice_csv(grid: ValueGrid, path: Union[str, Path]) -> None:
    """Write the start-of-period slice as CSV, one row per grid node."""
    has_p = grid.p_nodes is not None
    # the node columns are formatted once; each factor row is then one
    # template with a slot per value, filled by a single %
    prefixes = ["%.17g," % p for p in grid.p_nodes.tolist()] if has_p else [""]
    cells = ["%.17g,%%.17g" % e for e in grid.e_nodes.tolist()]
    values = grid.values[0].reshape(len(prefixes), -1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p,e,value\n" if has_p else "e,value\n")
        for prefix, row in zip(prefixes, values):
            template = prefix + ("\n" + prefix).join(cells) + "\n"
            fh.write(template % tuple(row.tolist()))
