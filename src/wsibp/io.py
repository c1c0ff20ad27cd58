"""Versioned on-disk formats for datasets, models, posteriors and results.

All files are line-oriented ``key: value`` text; large numeric payloads can
be embedded as little-endian binary blocks announced by a ``binary <nbytes>``
header line. Binary blocks round-trip bit-exactly; a dataset may instead store
its features as text rows of full-precision decimal reprs. Files are read as a
stream, each binary block straight into its array. A posteriors file (version 2;
version 1 is rejected) holds one ``bag: <id>,<n>`` line per bag, then all tau
``(M, K, 2)``, all nu and all logits ``(sum n, K)`` as three float64 blocks in bag
order; each bag's arrays are views of these, checked once over all bags.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import typing
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    AppearanceModel,
    Bag,
    BagPosterior,
    CorrelationMatrix,
    DatasetError,
    FormatError,
    ModelConfig,
    VocabMismatchError,
    WeakLabels,
)
from .tasks import SegmentationMap

DATASET_MAGIC = "format: wsibp-dataset"
MODEL_MAGIC = "format: wsibp-model"
POSTERIORS_MAGIC = "format: wsibp-posteriors"
FORMAT_VERSION = 1  # of datasets and models
POSTERIORS_VERSION = 2

# fixed 20-colour palette for PPM segmentation rasters
PALETTE = [
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 190), (0, 128, 128), (230, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
]


class _BlockReader:
    """Sequential reader of an open binary file: ascii header lines and raw binary blocks."""

    def __init__(self, fh, name: str):
        self.fh, self.name, self.size = fh, name, os.fstat(fh.fileno()).st_size
        self.lines = 0  # lines read, so the number of the last one outside binary blocks
        self.blocks: list[np.ndarray] = []  # each adds its newline bytes + 1 to line numbers

    def line(self) -> str:
        raw = self.fh.readline()
        if not raw.endswith(b"\n"):
            raise FormatError(f"{self.name}: unexpected end of file")
        self.lines += 1
        try:
            return raw[:-1].decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.name}: non-ascii header line") from exc

    def error(self, why: str) -> FormatError:
        """``<path>:<line>: why`` at the physical line of the last line read."""
        line = self.lines + sum(1 + int(np.count_nonzero(b.reshape(-1).view(np.uint8) == 10))
                                for b in self.blocks)
        return FormatError(f"{self.name}:{line}: {why}")

    def parse(self, text: str, parse, what: str):
        """``parse(text)`` of the last line read; a ValueError names file, line and what."""
        try:
            return parse(text)
        except ValueError as exc:
            raise self.error(f"{what}: {exc}") from None

    def field(self, key: str, parse=int):
        """The value of the next line, ``key: value``, through ``parse``."""
        return self.parse(self.key(key), parse, key)

    def pairs(self, count: int) -> np.ndarray:
        """The next ``count`` lines, each ``a,b``, as (count, 2) ints, read in one read and
        parsed in one pass; only if that fails are they parsed again, to name the first bad
        line. The file is left at the line after them."""
        pos, rest = self.fh.tell(), self.fh.read()
        *lines, tail = rest.split(b"\n", count)
        if len(lines) < count:
            raise FormatError(f"{self.name}: unexpected end of file")
        self.fh.seek(pos + len(rest) - len(tail))
        start, self.lines = self.lines, self.lines + count
        if all(line.count(b",") == 1 for line in lines):
            with contextlib.suppress(ValueError, OverflowError):
                return np.array(list(map(int, b",".join(lines).split(b","))),
                                dtype=np.int64).reshape(-1, 2)
        out, pair = [], _fields(_int64, _int64)
        for self.lines, line in enumerate(lines, start + 1):
            out.append(self.parse(line.decode("ascii", "replace"), pair, "edge"))
        return np.array(out, dtype=np.int64).reshape(-1, 2)

    def key(self, expect: str) -> str:
        line = self.line()
        if not line.startswith(expect + ":"):
            raise self.error(f"expected {expect!r}, got {line!r}")
        return line[len(expect) + 1:].strip()

    def array(self, key: str, shape: tuple[int, ...], dtype, out=None) -> np.ndarray:
        """Read an array written by _write_array (binary or text rows); a binary block
        goes straight into ``out``, or a new aligned, writable little-endian array."""
        spec = self.key(key)
        if spec.startswith("binary"):
            nbytes = self.parse(spec, lambda s: _count(s.removeprefix("binary")), key)
            dtype = np.dtype(dtype).newbyteorder("<")
            if nbytes != (expect := math.prod(shape) * dtype.itemsize):
                raise self.error(f"{key}: block has {nbytes} bytes, expected {expect}")
            if self.size - self.fh.tell() < nbytes:
                raise self.error(f"{key}: truncated binary block")
            out = np.empty(shape, dtype) if out is None else out
            self.fh.readinto(out)
            if self.fh.read(1) != b"\n":
                raise self.error(f"{key}: missing newline after binary block")
            self.blocks.append(out)
            return out
        if spec != "text":
            raise self.error(f"{key}: unknown encoding {spec!r}")
        row = lambda s: [float(v) for v in s.split(",")] if s else []  # noqa: E731
        vals = [self.parse(self.line(), row, key) for _ in range(shape[0] if shape else 0)]
        return self.parse(vals, lambda v: np.array(v, dtype=dtype).reshape(shape), f"{key} block")


def _fields(*types):
    """A parser of a line of comma-separated values, one per type."""
    def parse(line: str) -> tuple:
        parts = line.split(",")
        if len(parts) != len(types):
            raise ValueError(f"expected {len(types)} comma-separated values, got {len(parts)}")
        return tuple(t(v) for t, v in zip(types, parts))
    return parse


def _int64(text: str) -> int:
    if not -2**63 <= (n := int(text)) < 2**63:
        raise ValueError(f"{n} does not fit int64")
    return n


def _count(text: str) -> int:
    if (n := int(text)) < 0:
        raise ValueError(f"{n} is negative")
    return n


def _name(text: str) -> str:
    """A bag id or file name, which names a file in its directory: not empty, ``.`` or
    ``..``, and without ``/`` or ``\\``."""
    if text in ("", ".", "..") or "/" in text or "\\" in text:
        raise ValueError(f"{text!r} is not a plain file name")
    return text


def _bag_lines(reader: _BlockReader, count: int, *types) -> list[tuple]:
    """The next ``count`` lines ``bag: <id>,...``, the id through ``_name`` and the rest
    through ``types``, in one pass; only if that fails are they read again one by one, to
    name the first bad line. An id named before is a FormatError at its second line."""
    pos, raw = reader.fh.tell(), b"".join([reader.fh.readline() for _ in range(count)])
    with contextlib.suppress(ValueError):  # a UnicodeDecodeError is a ValueError
        *lines, end = raw.decode("ascii").split("\n")
        cells = [line[4:].strip().split(",") for line in lines]
        if (not end and len(lines) == count and all(line[:4] == "bag:" for line in lines)
                and all(len(c) == len(types) + 1 for c in cells)):
            bags = [(_name(c[0]), *(t(v) for t, v in zip(types, c[1:]))) for c in cells]
            if len({bag[0] for bag in bags}) == count:
                reader.lines += count
                return bags
    reader.fh.seek(pos)
    seen, line = set(), _fields(_name, *types)

    def parse(text: str) -> tuple:
        if (bag := line(text))[0] in seen:
            raise ValueError(f"duplicate id {bag[0]!r}")
        seen.add(bag[0])
        return bag
    return [reader.field("bag", parse) for _ in range(count)]


def _write_lines(fh, lines: list[str]) -> None:
    fh.write(("\n".join(lines) + "\n").encode("ascii"))


def _write_array(fh, key: str, arr: np.ndarray, binary: bool) -> None:
    if binary:
        payload = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        fh.write(f"{key}: binary {payload.nbytes}\n".encode("ascii"))
        fh.write(payload)
        fh.write(b"\n")
    else:
        fh.write(f"{key}: text\n".encode("ascii"))
        rows = arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(-1, 1)
        for row in rows:
            fh.write((",".join(repr(float(v)) for v in row) + "\n").encode("ascii"))


@dataclass
class LoadedDataset:
    bags: list[Bag]
    vocab: list[str]
    k_objects: int
    k_attributes: int
    k_extra: int


def _check_version(reader: _BlockReader, magic: str, version: int = FORMAT_VERSION,
                   redo: str = "") -> None:
    first = reader.line()
    if first != magic:
        raise FormatError(f"{reader.name}: bad magic line {first!r}")
    if (found := reader.field("version")) != version:
        raise FormatError(f"{reader.name}: unknown version {found}, this reader reads "
                          f"version {version}{redo}")


def save_dataset(path: str, bags: list[Bag], vocab: list[str],
                 k_objects: int, k_attributes: int, k_extra: int,
                 binary: bool = True) -> None:
    """Write a dataset directory: manifest.txt plus one .bag file per bag."""
    if len(vocab) != k_objects + k_attributes + k_extra:
        raise VocabMismatchError("vocab length does not match factor counts")
    os.makedirs(path, exist_ok=True)
    for bag in bags:
        with open(os.path.join(path, f"{bag.id}.bag"), "wb") as fh:
            fh.write(f"id: {bag.id}\ninstances: {bag.n_instances}\n".encode("ascii"))
            _write_array(fh, "features", np.asarray(bag.features, dtype=np.float32), binary)
            fh.write(f"edges: {len(bag.edges)}\n".encode("ascii"))
            fh.write("".join(f"{a},{b}\n" for a, b in bag.edges.tolist()).encode("ascii"))
            bits = bag.labels.bits.tolist()
            annotated = [vocab[k] for k in range(k_objects + k_attributes) if bits[k] == 1.0]
            fh.write(("labels: " + ",".join(annotated) + "\n").encode("ascii"))
    with open(os.path.join(path, "manifest.txt"), "wb") as fh:
        _write_lines(fh, [
            DATASET_MAGIC, f"version: {FORMAT_VERSION}",
            f"feature_dim: {bags[0].feature_dim if bags else 0}",
            f"mode: {'binary' if binary else 'text'}", f"k_objects: {k_objects}",
            f"k_attributes: {k_attributes}", f"k_extra: {k_extra}", "vocab: " + ",".join(vocab),
            f"num_bags: {len(bags)}"] + [f"bag: {b.id},{b.n_instances},{b.id}.bag" for b in bags])


def load_dataset(path: str) -> LoadedDataset:
    manifest_path = os.path.join(path, "manifest.txt")
    with open(manifest_path, "rb") as fh:
        reader = _BlockReader(fh, manifest_path)
        _check_version(reader, DATASET_MAGIC)
        feature_dim = reader.field("feature_dim")
        reader.key("mode")
        k_objects, k_attributes, k_extra = (reader.field(key) for key in
                                            ("k_objects", "k_attributes", "k_extra"))
        vocab_line = reader.key("vocab")
        vocab = vocab_line.split(",") if vocab_line else []
        if len(vocab) != k_objects + k_attributes + k_extra:
            raise VocabMismatchError(f"{manifest_path}: vocab length {len(vocab)} does not "
                                     "match factor counts")
        entries = _bag_lines(reader, reader.field("num_bags"), int, _name)
    name_to_index = {name: k for k, name in enumerate(vocab)}
    k_annotated = k_objects + k_attributes
    k_max = len(vocab)

    bags = []
    for bag_id, n, fname in entries:
        bag_path = os.path.join(path, fname)
        with open(bag_path, "rb") as fh:
            br = _BlockReader(fh, bag_path)
            if br.key("id") != bag_id:
                raise FormatError(f"{bag_path}: id does not match manifest entry {bag_id!r}")
            if br.field("instances") != n:
                raise FormatError(f"{bag_path}: instance count mismatch with manifest")
            feats = br.array("features", (n, feature_dim), np.float32)
            edges = br.pairs(br.field("edges"))
            label_line = br.key("labels")
        bits = (np.arange(k_max) >= k_annotated).astype(np.float64)  # extra slots on
        for name in label_line.split(",") if label_line else []:
            if name not in name_to_index:
                raise VocabMismatchError(f"{bag_path}: unknown factor name {name!r}")
            k = name_to_index[name]
            if k >= k_annotated:
                raise VocabMismatchError(f"{bag_path}: {name!r} is not an annotated factor")
            bits[k] = 1.0
        bags.append(Bag(features=feats, edges=edges, labels=WeakLabels(bits), id=bag_id))
    return LoadedDataset(bags=bags, vocab=vocab, k_objects=k_objects,
                         k_attributes=k_attributes, k_extra=k_extra)


def save_model(path: str, model: AppearanceModel, correlation: CorrelationMatrix) -> None:
    """Versioned container: config snapshot (every ModelConfig field, in declared
    order), vocab, then means, variances and M as binary blocks."""
    with open(path, "wb") as fh:
        fh.write((MODEL_MAGIC + "\n").encode("ascii"))
        fh.write(f"version: {FORMAT_VERSION}\n".encode("ascii"))
        fh.write(f"feature_dim: {model.feature_dim}\n".encode("ascii"))
        for f in fields(ModelConfig):
            fh.write(f"{f.name}: {getattr(model.config, f.name)!r}\n".encode("ascii"))
        fh.write(("vocab: " + ",".join(model.vocab) + "\n").encode("ascii"))
        for key, arr in (("means", model.means), ("variances", model.variances),
                         ("correlation", correlation.m)):
            _write_array(fh, key, np.asarray(arr, dtype=np.float64), True)


def load_model(path: str) -> tuple[AppearanceModel, CorrelationMatrix]:
    with open(path, "rb") as fh:
        reader = _BlockReader(fh, path)
        _check_version(reader, MODEL_MAGIC)
        feature_dim = reader.field("feature_dim")
        types = typing.get_type_hints(ModelConfig)
        config = ModelConfig(**{f.name: reader.field(f.name, types[f.name])
                                for f in fields(ModelConfig)})
        vocab_line = reader.key("vocab")
        vocab = vocab_line.split(",") if vocab_line else []
        k = config.k_max
        if len(vocab) != k:
            raise VocabMismatchError(f"{path}: vocab length {len(vocab)} != k_max {k}")
        means = reader.array("means", (k, feature_dim), np.float64)
        variances = reader.array("variances", (k,), np.float64)
        m = reader.array("correlation", (k, k), np.float64)
    model = AppearanceModel(means=means, variances=variances, vocab=vocab, config=config)
    model.validate()
    corr = CorrelationMatrix(m)
    corr.validate()
    return model, corr


def save_posteriors(path: str, posteriors: list[tuple[str, BagPosterior]],
                    k_max: int) -> None:
    with open(path, "wb") as fh:
        _write_lines(fh, [POSTERIORS_MAGIC, f"version: {POSTERIORS_VERSION}", f"k_max: {k_max}",
                          f"num_bags: {len(posteriors)}"]
                     + [f"bag: {bag_id},{post.nu.shape[0]}" for bag_id, post in posteriors])
        for key in ("tau", "nu", "logits"):
            arrays = [getattr(post, key) for _, post in posteriors]
            fh.write(f"{key}: binary {8 * sum(a.size for a in arrays)}\n".encode("ascii"))
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
            fh.write(b"\n")


def load_posteriors(path: str, k_max: int | None = None) -> list[tuple[str, BagPosterior]]:
    """The posteriors of a file, by bag id. Every bag's tau and nu take their width from
    the file's one ``k_max:`` line, so a given ``k_max`` (the model's) is checked there."""
    with open(path, "rb") as fh:
        reader = _BlockReader(fh, path)
        _check_version(reader, POSTERIORS_MAGIC, POSTERIORS_VERSION,
                       "; re-run infer or fit --posteriors-out to write it again")
        width = reader.field("k_max", _count)
        if k_max not in (None, width):
            raise reader.error(f"k_max: the file has {width} factors, the model has {k_max}")
        num_bags = reader.field("num_bags", _count)
        bags = _bag_lines(reader, num_bags, _count)
        rows = sum(n for _, n in bags)
        shapes = {"tau": (num_bags, width, 2), "nu": (rows, width), "logits": (rows, width)}
        at = np.cumsum([0] + [math.prod(shape) for shape in shapes.values()]).tolist()
        if 8 * at[-1] > reader.size:  # checked before the allocation
            raise reader.error(f"bag: the blocks need {8 * at[-1]} bytes, the file has {reader.size}")
        # one allocation: glibc reuses it when freed, where three were trimmed and faulted in
        buf = np.empty(at[-1], "<f8")
        tau, nu, logits = (reader.array(key, shape, np.float64, buf[a:b].reshape(shape))
                           for (key, shape), a, b in zip(shapes.items(), at, at[1:]))
    ends = np.cumsum([n for _, n in bags]).tolist()
    posts = [(bag_id, BagPosterior(tau=t, nu=nu[end - n:end], logits=logits[end - n:end]))
             for (bag_id, n), t, end in zip(bags, tau, ends)]
    if _lacks(tau, nu, logits):  # walk the bags only to name the first that fails
        bag_id, bad = next((i, bad) for i, p in posts if (bad := _lacks(p.tau, p.nu, p.logits)))
        raise FormatError(f"{path}: bag {bag_id!r} needs {', '.join(bad)}")
    return posts


def _lacks(tau: np.ndarray, nu: np.ndarray, logits: np.ndarray) -> list[str]:
    """What posteriors need and these arrays lack, from their extremes (NaN fails every
    comparison, and the initial values let empty arrays pass)."""
    return [need for need, ok in (
        ("tau finite and > 0", tau.min(initial=1.0) > 0 and tau.max(initial=1.0) < np.inf),
        ("nu in [0, 1]", nu.min(initial=0.0) >= 0 and nu.max(initial=0.0) <= 1),
        ("logits finite", -np.inf < logits.min(initial=0.0) and logits.max(initial=0.0) < np.inf),
    ) if not ok]


def _uints(path: str, cells: list[tuple[int, str]], what: str) -> list[int]:
    """Each ``(line, cell)`` as an int. A cell must be a non-negative integer below 10**18,
    so that it fits int64; another is a FormatError at its line: ``what, got <cell>``."""
    for line, cell in cells:
        if not (cell.isdigit() and len(cell) < 19):
            raise FormatError(f"{path}:{line}: {what}, got {cell!r}")
    return [int(cell) for _, cell in cells]


def read_raster(path: str) -> np.ndarray:
    """A raster CSV, pixel -> instance id: rows of non-negative integers, all of one
    length, at least one; blank lines are skipped. A fault is a FormatError at its line."""
    with open(path, encoding="ascii", errors="replace") as fh:
        rows = [(line, row.split(",")) for line, row in enumerate(fh.read().splitlines(), 1)
                if row.strip()]
    if not rows:
        raise FormatError(f"{path}:1: a raster needs at least one row")
    width = len(rows[0][1])
    for line, cells in rows:
        if len(cells) != width:
            raise FormatError(f"{path}:{line}: {len(cells)} cells, the first row has {width}")
    ids = _uints(path, [(line, cell.strip()) for line, cells in rows for cell in cells],
                 "expected a non-negative integer instance id")
    return np.array(ids, dtype=np.int64).reshape(len(rows), width)


def write_segmentation(path: str, seg: SegmentationMap, vocab: list[str],
                       raster: np.ndarray | None = None) -> None:
    """Per-instance label CSV, plus an optional paletted P3 raster image at
    ``path + ".ppm"``, in the CSV's directory, made if missing. Every raster cell must be
    an instance id of the bag; that is checked before anything is made."""
    if raster is not None:
        raster = np.asarray(raster)
        if raster.min() < 0 or raster.max() >= len(seg.labels):
            raise DatasetError(f"raster references an unknown instance id: the bag has "
                               f"{len(seg.labels)} instances")
    rows = "".join(f"{j},{k},{vocab[k]},{s!r}\n"
                   for j, (k, s) in enumerate(zip(seg.labels.tolist(), seg.scores.tolist())))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("instance,label_index,label_name,score\n" + rows)
    if raster is None:
        return
    h, w = raster.shape
    colours = [" ".join(map(str, PALETTE[k % len(PALETTE)])) for k in seg.labels.tolist()]
    with open(path + ".ppm", "wb") as fh:
        _write_lines(fh, [f"P3\n{w} {h}\n255"]
                     + [" ".join(colours[i] for i in row) for row in raster.tolist()])


def read_segmentation_labels(path: str) -> np.ndarray:
    """The ``label_index`` column of a ``write_segmentation`` CSV, read in one read; blank
    lines are skipped and cells may be padded with spaces."""
    with open(path, encoding="ascii") as fh:
        header, *rows = fh.read().splitlines() or [""]
    names = [name.strip() for name in header.split(",")]
    if "label_index" not in names:
        raise FormatError(f"{path}:1: no label_index column")
    c = names.index("label_index")
    cells = [(line, (row.split(",", c + 1) + [""] * c)[c].strip())
             for line, row in enumerate(rows, 2) if row.strip()]
    return np.array(_uints(path, cells, "label_index: expected a non-negative integer"),
                    dtype=np.int64)


def save_truth(path: str, true_z: list[np.ndarray], true_pi: list[np.ndarray],
               true_a: np.ndarray, bag_ids: list[str]) -> None:
    """Ground-truth sidecar for synthetic datasets (JSON)."""
    payload = {
        "bag_ids": bag_ids,
        "true_z": [z.tolist() for z in true_z],
        "true_pi": [p.tolist() for p in true_pi],
        "true_a": true_a.tolist(),
    }
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(payload))  # json.dump takes the pure-Python encoder
