"""Binary persistence for solved grids, plus canonical hashing helpers.

The container is deliberately dumb: an 8-byte magic, a little-endian
uint64 header length, a canonical-JSON header describing the axes, the
metadata and the stretch table, then the raw float64 payload.  A solve
computes only a band of each time slice's emissions columns; left of the
slice's stretch ``[c0, c1)`` every value is 0 and from ``c1`` on it is
the slice's discounted ``bound`` (``ValueGrid.stretches``).  So the
header's ``stretches`` lists ``[c0, c1, bound]`` per time slice, and the
payload holds each slice's stretch alone, ``rows x (c1 - c0)`` values in
C order, one slice after another in time order.  A reader that indexes
whole slices expands each stretch back to the whole slice, so every value
reads back bit for bit; a scan may take the stretches unexpanded
instead.  Writing the same grid twice produces byte-identical files, which
the artifact checks rely on.  Files of the first format (magic
``CFBGRID1``, whole slices and no table) are still read, as a table of
whole stretches.

A grid file is written a time slice at a time: a :class:`GridWriter`
takes the header, table included, before the march starts and puts each
slice's stretch at its offset as the march makes it, last slice first,
into a temporary file beside the target.  :func:`write_grid` then reads
the payload back once, slice by slice, hashing every byte and handing
the slices to the writer's ``scan`` (the structural diagnostics, which
read them as stretches), and moves the file into place; a failure
before that leaves nothing behind.  ``read_grid`` checks a recorded
digest in the pass that reads the file, into one array or, with
``scan``, one slice at a time into a ring of the latest few.  Only this
module hashes a grid; ``file_sha256`` is for the other artifacts.
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
from dataclasses import replace
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
_MAGIC = b"CFBGRID2"
_WHOLE_SLICES = b"CFBGRID1"  # the first format: whole slices, no stretch table
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


def _whole(shape: tuple) -> list:
    """The stretch table of slices stored whole."""
    return [(0, shape[-1], 0.0)] * shape[0]


def _prefix(grid: ValueGrid, shape: tuple, stretches: list) -> bytes:
    """Magic, header length and header of a grid whose values have ``shape``."""
    header = {
        "times": grid.times.tolist(),
        "e_nodes": grid.e_nodes.tolist(),
        "p_nodes": None if grid.p_nodes is None else grid.p_nodes.tolist(),
        "rate": float(grid.rate),
        "shape": list(shape),
        "stretches": stretches,
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

    ``open`` writes the header, with the grid's stretch table (whole
    slices for a grid without one), to a temporary file in ``path``'s
    directory and ``put`` places each slice's stretch at its offset, in
    any order; :func:`write_grid` then finishes the file: it reads the
    payload back once, hashes it and hands it to ``scan``, whose result it
    keeps as ``scanned``, and moves the file to ``path``.  Used as a
    context manager, the writer removes its temporary file when it leaves
    without having been finished, so a failed solve leaves no partial
    grid.
    """

    def __init__(self, path: Union[str, Path],
                 scan: Optional[Callable[[ValueGrid], object]] = None):
        self.path = Path(path)
        self.scan = scan
        self.scanned = None
        self._fd = self._tmp = None

    def open(self, grid: ValueGrid, shape: tuple) -> None:
        self._stretches = _whole(shape) if grid.stretches is None else grid.stretches
        prefix = _prefix(grid, shape, self._stretches)
        self._tmp = self.path.with_name(
            f".{self.path.name}.{os.getpid()}-{next(_SERIAL)}.tmp")
        self._fd = os.open(self._tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
        _pwrite(self._fd, prefix, 0)
        rows = math.prod(shape[1:-1])
        self._at = list(itertools.accumulate(
            (8 * rows * (c1 - c0) for c0, c1, _ in self._stretches), initial=len(prefix)))

    def put(self, it: int, cells: np.ndarray, c0: int, bound: float) -> None:
        s0, s1, _ = self._stretches[it]
        if not c0 <= s0 <= s1 <= c0 + cells.shape[-1]:
            raise ValueError(f"slice {it} holds columns [{c0}, {c0 + cells.shape[-1]}), "
                             f"not its stretch [{s0}, {s1})")
        # flat: a memoryview of an empty stretch with rows cannot be cast
        stretch = np.ascontiguousarray(cells[..., s0 - c0:s1 - c0], dtype="<f8").reshape(-1)
        _pwrite(self._fd, stretch, self._at[it])

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


def _kept(s: np.ndarray, stretch: tuple) -> tuple:
    """``stretch``, ``(c0, c1, bound)``, where slice ``s`` holds 0 left of
    it and its bound right of it, bit for bit; else the whole slice."""
    c0, c1, bound = stretch
    bits = np.asarray(s, dtype="<f8").view(np.uint64)
    if not bits[..., :c0].any() and np.all(bits[..., c1:] == np.float64(bound).view(np.uint64)):
        return stretch
    return (0, s.shape[-1], bound)


def write_grid(grid: Union[ValueGrid, GridWriter], path: Union[str, Path]) -> str:
    """Write a grid file at ``path``; returns the sha256 of its bytes.

    ``grid`` is a :class:`ValueGrid` holding every time slice, or a
    :class:`GridWriter` for ``path`` that a solve has put every slice
    into.  A grid's slices keep the stretches of its table where the
    values outside them are the constants it names (a solved grid's are),
    so a solve kept in memory writes the file its streamed solve writes.
    Either way the payload is read back once, one slice at a time, into
    the digest and the writer's ``scan``.
    """
    writer = grid if isinstance(grid, GridWriter) else GridWriter(path)
    with writer:
        if writer is not grid:
            values, table = grid.values, grid.stretches
            kept = (_whole(values.shape) if table is None or len(table) != len(values)
                    else [_kept(s, stretch) for s, stretch in zip(values, table)])
            writer.open(replace(grid, stretches=kept), values.shape)
            for it, values in enumerate(grid.values):
                writer.put(it, values, 0, 0.0)
        return writer._finish(path)


def _stretch_table(entries, shape: tuple) -> list:
    """The ``(c0, c1, bound)`` of each time slice, from a header's ``stretches``."""
    if not isinstance(entries, list) or len(entries) != shape[0]:
        raise ValueError(f"a stretch table for {shape[0]} time slices, not {entries!r:.60}")
    table = []
    for c0, c1, bound in entries:
        if not (type(c0) is int and type(c1) is int and 0 <= c0 <= c1 <= shape[-1]):
            raise ValueError(f"stretch [{c0!r}, {c1!r}) of {shape[-1]} columns")
        if type(bound) is not float or not math.isfinite(bound):
            raise ValueError(f"stretch bound {bound!r}")
        table.append((c0, c1, bound))
    return table


def _parse_header(raw: bytes, path, whole: bool) -> tuple:
    """Payload shape and ValueGrid fields, stretch table included, of a
    header whose axes fit its shape; ``whole`` reads a first-format header,
    whose slices are stored whole."""
    try:
        header = json.loads(raw.decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("not an object")
        if header.get("eparam_nodes") is not None:
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
        shape = tuple(nodes.size for nodes in axes)
        fields.update(rate=float(header["rate"]), meta=meta,
                      stretches=_whole(shape) if whole
                      else _stretch_table(header["stretches"], shape))
        if not math.isfinite(fields["rate"]):
            raise ValueError(f"rate {fields['rate']}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"{path}: corrupt grid header ({exc!r})") from exc
    return shape, fields


@contextmanager
def _open_grid(path):
    """``(file, hasher, shape, fields)`` of a grid file whose header parses
    and whose payload has the size its stretch table gives; the file
    stands at the payload and the hasher has taken every byte before it."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read grid ({exc.strerror})") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(16)
        if lead[:8] not in (_MAGIC, _WHOLE_SLICES):
            raise ArtifactError(f"{path}: not a grid file (bad magic)")
        head_len = int.from_bytes(lead[8:], "little")
        if head_len > size - 16:
            raise ArtifactError(f"{path}: truncated before the payload")
        head = fh.read(head_len)
        shape, fields = _parse_header(head, path, whole=lead[:8] == _WHOLE_SLICES)
        expect = 8 * math.prod(shape[1:-1]) * sum(c1 - c0 for c0, c1, _ in fields["stretches"])
        if size - 16 - head_len != expect:
            raise ArtifactError(
                f"{path}: payload is {size - 16 - head_len} bytes, expected {expect}"
            )
        yield fh, hashlib.sha256(lead + head), shape, fields


class _Slices:
    """The time slices of an open grid file, for one pass in order.

    Slice ``k``'s stretch is read into the first bytes of ``out[k %
    len(out)]`` and goes through the file's hasher.  :meth:`stretches`
    yields each slice as that stretch, ``(cells, c0, bound)``, and
    expands none; iterating yields the slices expanded in their slots to
    whole slices (:meth:`SliceSink.whole`), and indexing with ``k`` reads
    forward to slice ``k``, expanded, which must still be one of the last
    ``len(out)`` read.  One pass takes one of the three.
    """

    def __init__(self, fh, hasher, shape: tuple, stretches: list, path, out: np.ndarray):
        self.shape = shape
        self._fh, self._hasher, self._path = fh, hasher, path
        self._stretches = stretches
        self._out = out
        self._read = 0

    def _stretch(self) -> tuple:
        """``(cells, c0, bound)`` of the next slice, its stretch ``cells``
        read and hashed into the first bytes of its slot."""
        s = self._out[self._read % len(self._out)]
        c0, c1, bound = self._stretches[self._read]
        cells = s.reshape(-1)[:math.prod(s.shape[:-1]) * (c1 - c0)]
        view = memoryview(cells.view(np.uint8))
        if self._fh.readinto(view) != len(view):
            raise ArtifactError(f"{self._path}: file shrank while being read")
        self._hasher.update(view)
        self._read += 1
        return cells.reshape(s.shape[:-1] + (c1 - c0,)), c0, bound

    def _next(self) -> np.ndarray:
        s = self._out[self._read % len(self._out)]
        SliceSink.whole(s, *self._stretch())
        return s

    def stretches(self):
        """Each slice's ``(cells, c0, bound)`` in order, ``cells`` valid
        until ``len(out)`` more are read."""
        if self._read:
            raise RuntimeError("the slices of a grid file are read once")
        while self._read < self.shape[0]:
            yield self._stretch()

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
        """Read and hash the slices not read yet, expanding none."""
        while self._read < self.shape[0]:
            self._stretch()


def _scan(path, scan, ring: int = 1) -> tuple:
    """``(digest, result)``: one pass over a grid file, slice by slice.

    ``scan``, when given, is called with a grid whose ``values`` are the
    file's :class:`_Slices`, each slice valid until ``ring`` more are read;
    whatever it leaves unread is read and hashed after it returns.
    """
    with _open_grid(path) as (fh, hasher, shape, fields):
        slices = _Slices(fh, hasher, shape, fields["stretches"], path,
                         out=np.empty((ring,) + shape[1:], dtype="<f8"))
        result = None if scan is None else scan(ValueGrid(values=slices, **fields))
        slices.drain()
    return hasher.hexdigest(), result


def read_grid(path: Union[str, Path], sha256: Optional[str] = None,
              scan: Optional[Callable[[ValueGrid], object]] = None, ring: int = 1):
    """Load a grid, hashing its bytes as they are read into the array.

    With ``scan`` given nothing is loaded: the file is read once, one
    time slice at a time, and ``scan`` is called with a grid whose
    ``values`` yields those slices in order, gives slice ``k`` as
    ``values[k]`` by reading forward to it, or yields each slice's
    stretch unexpanded from ``values.stretches()``; each slice stays
    valid until ``ring`` more are read.  Its result is returned.  With
    ``sha256`` given, a file whose digest differs is refused once every
    byte is read.  Any unreadable, truncated or malformed file raises
    :class:`ArtifactError`.
    """
    if scan is not None:
        digest, result = _scan(path, scan, ring)
        _checked(path, sha256, digest)
        return result
    with _open_grid(path) as (fh, hasher, shape, fields):
        values = np.empty(shape, dtype="<f8")
        for _ in _Slices(fh, hasher, shape, fields["stretches"], path, out=values):
            pass
    _checked(path, sha256, hasher.hexdigest())
    return ValueGrid(values=values, **fields)


def start_slice_csv(grid: ValueGrid, path: Union[str, Path]) -> None:
    """Write the start-of-period slice as CSV, one row per grid node."""
    has_p = grid.p_nodes is not None
    s = grid.values[0]
    c0, c1, bound = _kept(s, grid.stretches[0]) if grid.stretches else (0, s.shape[-1], 0.0)
    # the node columns and the constants beside the stretch are formatted
    # once; each factor row is then one template with a slot per value of
    # the stretch, filled by a single %
    prefixes = ["%.17g," % p for p in grid.p_nodes.tolist()] if has_p else [""]
    fills = ["%.17g" % 0.0] * c0 + ["%.17g"] * (c1 - c0) + ["%.17g" % bound] * (s.shape[-1] - c1)
    cells = ["%.17g," % e + fill for e, fill in zip(grid.e_nodes.tolist(), fills)]
    values = s[..., c0:c1].reshape(len(prefixes), -1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p,e,value\n" if has_p else "e,value\n")
        for prefix, row in zip(prefixes, values):
            template = prefix + ("\n" + prefix).join(cells) + "\n"
            fh.write(template % tuple(row.tolist()))
