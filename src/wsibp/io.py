"""Versioned on-disk formats for datasets, models, posteriors and results.

A file is a line-oriented ascii ``key: value`` header, then blocks. A block holds one
kind of value for all bags, in bag order, as ``<key>: binary <nbytes>`` little-endian
bytes (bit-exact round trips) or ``<key>: text`` rows of comma-separated decimals;
``_write_array`` writes every block. Files are read as a stream, each binary block
straight into its array, and each bag's arrays are views of the blocks. A dataset file
(version 2; a version-1 directory is rejected) has one ``bag: <id>,<n>,<n_edges>`` line
per bag, then ``features`` (sum n x D float32), ``edges`` (sum n_edges x 2 int64) and
``labels`` (bags x annotated factors, 0/1 uint8). A posteriors file (version 2) has one
``bag: <id>,<n>`` line per bag, then ``tau`` (M x K x 2), ``nu`` and ``logits`` (sum n
x K), all float64 and checked once over all bags.
"""

from __future__ import annotations

import contextlib
import itertools
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
    ConfigError,
    CorrelationMatrix,
    DatasetError,
    DimensionMismatchError,
    FormatError,
    ModelConfig,
    VocabMismatchError,
    WeakLabels,
    validate_dataset,
)
from .inference import sweep_terms
from .tasks import SegmentationMap

DATASET_MAGIC = "format: wsibp-dataset"
MODEL_MAGIC = "format: wsibp-model"
POSTERIORS_MAGIC = "format: wsibp-posteriors"
FORMAT_VERSION = 1  # of models
DATASET_VERSION = 2
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
    """Sequential reader of an open binary file: ascii lines, and blocks of either kind."""

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
            raise self.error("non-ascii line") from exc

    def error(self, why: str) -> FormatError:
        """``<path>:<line>: why`` at the physical line of the last line read."""
        line = self.lines + sum(1 + int(np.count_nonzero(b.reshape(-1).view(np.uint8) == 10))
                                for b in self.blocks)
        return FormatError(f"{self.name}:{line}: {why}")

    def parse(self, text: str, parse, what: str):
        """``parse(text)`` of the last line read; a ValueError or OverflowError (a value
        that a dtype cannot hold) names file, line and what."""
        try:
            return parse(text)
        except (ValueError, OverflowError) as exc:
            raise self.error(f"{what}: {exc}") from None

    def field(self, key: str, parse=int):
        """The value of the next line, ``key: value``, through ``parse``."""
        return self.parse(self.key(key), parse, key)

    def key(self, expect: str) -> str:
        line = self.line()
        if not line.startswith(expect + ":"):
            raise self.error(f"expected {expect!r}, got {line!r}")
        return line[len(expect) + 1:].strip()

    def array(self, key: str, shape: tuple[int, ...], dtype, out=None) -> np.ndarray:
        """Read a block written by _write_array: a binary block goes straight into ``out``,
        or a new aligned, writable little-endian array; text rows hold ``shape[1:]`` cells
        each, floats for a float dtype and int64s otherwise."""
        spec, dtype = self.key(key), np.dtype(dtype).newbyteorder("<")
        if spec.startswith("binary"):
            nbytes = self.parse(spec, lambda s: _count(s.removeprefix("binary")), key)
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
        row = _fields(*[float if dtype.kind == "f" else _int(dtype)] * math.prod(shape[1:]))
        vals = [self.parse(self.line(), row, key) for _ in range(shape[0])]
        return self.parse(vals, lambda v: np.array(v, dtype=dtype).reshape(shape), f"{key} block")


def _fields(*types):
    """A parser of a line of comma-separated values, one per type."""
    def parse(line: str) -> tuple:
        parts = line.split(",") if line else []
        if len(parts) != len(types):
            raise ValueError(f"expected {len(types)} comma-separated values, got {len(parts)}")
        return tuple(t(v) for t, v in zip(types, parts))
    return parse


def _int(dtype: np.dtype):
    """A parser of one integer cell, which must fit ``dtype``."""
    def parse(text: str, info=np.iinfo(dtype)) -> int:
        if not info.min <= (n := int(text)) <= info.max:
            raise ValueError(f"{n} does not fit {dtype.name}")
        return n
    return parse


def _count(text: str) -> int:
    if (n := int(text)) < 0:
        raise ValueError(f"{n} is negative")
    return n


def _name(text: str) -> str:
    """A bag id, which names a file in a directory and which a ``bag:`` line carries
    as it is: printable ascii, not empty, ``.`` or ``..``, without ``/``, ``\\`` or
    ``,`` and without whitespace at either end."""
    if (text in ("", ".", "..") or "/" in text or "\\" in text or "," in text
            or text != text.strip() or not (text.isascii() and text.isprintable())):
        raise ValueError(f"{text!r} is not a plain file name")
    return text


def _new_name(seen: set):
    """``_name`` of a text not in ``seen``, which it joins; a repeat is a ValueError."""
    def name(text: str) -> str:
        if _name(text) in seen:
            raise ValueError(f"duplicate id {text!r}")
        seen.add(text)
        return text
    return name


def _check_ids(ids: list[str]) -> None:
    """The ValueError of ``_bag_lines`` for an id it rejects, for a writer to raise first."""
    name = _new_name(set())
    for bag_id in ids:
        name(bag_id)


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
    line = _fields(_new_name(set()), *types)
    return [reader.field("bag", line) for _ in range(count)]


def _write_lines(fh, lines: list[str]) -> None:
    fh.write(("\n".join(lines) + "\n").encode("ascii"))


def _write_array(fh, key: str, parts: list[np.ndarray], dtype, binary: bool) -> None:
    """The arrays ``parts``, in order, as one block of ``dtype``: little-endian bytes, or
    text rows of the cells under each leading index, as the reprs of Python numbers."""
    dtype = np.dtype(dtype).newbyteorder("<")
    if binary:
        fh.write(f"{key}: binary {dtype.itemsize * sum(p.size for p in parts)}\n".encode("ascii"))
        for part in parts:
            fh.write(np.ascontiguousarray(part, dtype=dtype))
        fh.write(b"\n")
        return
    fh.write(f"{key}: text\n".encode("ascii"))
    for part in parts:
        rows = np.asarray(part, dtype).reshape(len(part), math.prod(np.shape(part)[1:]))
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()).encode("ascii"))


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
    """Write a dataset file: the header, one ``bag: <id>,<n>,<n_edges>`` line per bag,
    then the features, edges and annotated label bits of all bags, one block each. A vocab
    of other than k_max names, ids that ``load_dataset`` rejects and bags that
    ``validate_dataset`` rejects (the first bag's dim) raise first."""
    if len(vocab) != k_objects + k_attributes + k_extra:
        raise VocabMismatchError("vocab length does not match factor counts")
    _check_ids([bag.id for bag in bags])
    dim = validate_dataset(bags, ModelConfig(k_objects, k_attributes, k_extra))
    bits = np.array([b.labels.bits for b in bags])
    with open(path, "wb") as fh:
        _write_lines(fh, [
            DATASET_MAGIC, f"version: {DATASET_VERSION}",
            f"feature_dim: {dim}", f"k_objects: {k_objects}",
            f"k_attributes: {k_attributes}", f"k_extra: {k_extra}", "vocab: " + ",".join(vocab),
            f"num_bags: {len(bags)}"]
            + [f"bag: {b.id},{b.n_instances},{len(b.edges)}" for b in bags])
        _write_array(fh, "features", [bag.features for bag in bags], np.float32, binary)
        _write_array(fh, "edges", [bag.edges for bag in bags], np.int64, binary)
        _write_array(fh, "labels", [bits[:, :k_objects + k_attributes]], np.uint8, binary)


def load_dataset(path: str) -> LoadedDataset:
    """A dataset file, each bag's features, edges and label bits views of its blocks.
    Only the format is checked here; the values are ``validate_dataset``'s."""
    if os.path.isdir(path):
        raise FormatError(f"{path}: a version-1 dataset directory; re-run synth to write a file")
    with open(path, "rb") as fh:
        reader = _BlockReader(fh, path)
        _check_version(reader, DATASET_MAGIC, DATASET_VERSION, "; re-run synth to write it")
        dim, k_objects, k_attributes, k_extra = (reader.field(key, _count) for key in (
            "feature_dim", "k_objects", "k_attributes", "k_extra"))
        vocab_line = reader.key("vocab")
        vocab = vocab_line.split(",") if vocab_line else []
        if len(vocab) != k_objects + k_attributes + k_extra:
            raise VocabMismatchError(f"{path}: vocab length {len(vocab)} does not "
                                     "match factor counts")
        entries = _bag_lines(reader, reader.field("num_bags", _count), _count, _count)
        n = [*itertools.accumulate((entry[1] for entry in entries), initial=0)]
        e = [*itertools.accumulate((entry[2] for entry in entries), initial=0)]
        features = reader.array("features", (n[-1], dim), np.float32)
        edges = reader.array("edges", (e[-1], 2), np.int64)
        labels = reader.array("labels", (len(entries), k_objects + k_attributes), np.uint8)
    bits = np.ones((len(entries), len(vocab)))  # the extra slots on
    bits[:, :k_objects + k_attributes] = labels
    bags = [Bag(features=features[n[i]:n[i + 1]], edges=edges[e[i]:e[i + 1]],
                labels=WeakLabels(bits[i]), id=entry[0]) for i, entry in enumerate(entries)]
    return LoadedDataset(bags=bags, vocab=vocab, k_objects=k_objects,
                         k_attributes=k_attributes, k_extra=k_extra)


def save_model(path: str, model: AppearanceModel, correlation: CorrelationMatrix) -> None:
    """Versioned container: config snapshot (every ModelConfig field, in declared
    order), vocab, then means, variances and M as binary blocks. A vocab, shapes or
    values that ``load_model`` rejects raise first (``_check_model``)."""
    _check_model(path, model, correlation.m)
    with open(path, "wb") as fh:
        _write_lines(fh, [MODEL_MAGIC, f"version: {FORMAT_VERSION}",
                          f"feature_dim: {model.feature_dim}"]
                     + [f"{f.name}: {getattr(model.config, f.name)!r}" for f in fields(ModelConfig)]
                     + ["vocab: " + ",".join(model.vocab)])
        for key, arr in (("means", model.means), ("variances", model.variances),
                         ("correlation", correlation.m)):
            _write_array(fh, key, [arr], np.float64, True)


def load_model(path: str) -> tuple[AppearanceModel, CorrelationMatrix]:
    """A model file. The header must hold a valid ModelConfig, the blocks their exact
    (k_max, D), (k_max,) and (k_max, k_max) sizes, and the vocab and values pass
    ``_check_model``; each fault is an error that names the path."""
    with open(path, "rb") as fh:
        reader = _BlockReader(fh, path)
        _check_version(reader, MODEL_MAGIC)
        feature_dim = reader.field("feature_dim")
        types = typing.get_type_hints(ModelConfig)
        values = {f.name: reader.field(f.name, types[f.name]) for f in fields(ModelConfig)}
        try:
            config = ModelConfig(**values)
        except ConfigError as exc:
            raise FormatError(f"{path}: {exc}") from None
        vocab_line = reader.key("vocab")
        vocab = vocab_line.split(",") if vocab_line else []
        means = reader.array("means", (config.k_max, feature_dim), np.float64)
        variances = reader.array("variances", (config.k_max,), np.float64)
        m = reader.array("correlation", (config.k_max, config.k_max), np.float64)
    model = AppearanceModel(means=means, variances=variances, vocab=vocab, config=config)
    _check_model(path, model, m)
    return model, CorrelationMatrix(m)


@np.errstate(over="ignore", invalid="ignore")  # |M - M.T| and the logit terms of huge entries
def _check_model(path: str, model: AppearanceModel, m: np.ndarray) -> None:
    """The vocab needs k_max names, the arrays (k_max, D), (k_max,) and (k_max, k_max) shapes;
    then a FormatError ``<path>: the model needs ...`` names every value rule broken: means
    finite; variances finite and > 0; M finite, symmetric, zero diagonal, >= 0; and, when
    means, variances and M are finite, finite logit terms (the coupling and quad that
    inference's ``sweep_terms`` takes). A NaN or inf is named as such, not by later rules."""
    k, means, variances = model.config.k_max, model.means, model.variances
    if len(model.vocab) != k:
        raise VocabMismatchError(f"{path}: vocab length {len(model.vocab)} != k_max {k}")
    if means.ndim != 2 or len(means) != k or variances.shape != (k,) or m.shape != (k, k):
        raise DimensionMismatchError(f"{path}: means {means.shape}, variances {variances.shape} "
                                     f"and M {m.shape} do not fit k_max {k}")
    finite_means, finite_variances, finite_m = map(_finite, (means, variances, m))
    bad = [need for need, ok in (
        ("means finite", finite_means),
        ("variances finite and > 0", finite_variances and variances.min(initial=1.0) > 0),
        ("M finite", finite_m),
        ("M symmetric", not finite_m or np.allclose(m, m.T)),
        ("M diagonal zero", not finite_m or not m.diagonal().any()),
        ("M entries >= 0", not finite_m or m.min(initial=0.0) >= 0),
        ("finite logit terms", not (finite_means and finite_variances and finite_m) or all(
            map(_finite, sweep_terms(model, CorrelationMatrix(m), model.config)))),
    ) if not ok]
    if bad:
        raise FormatError(f"{path}: the model needs {', '.join(bad)}")


def save_posteriors(path: str, posteriors: list[tuple[str, BagPosterior]],
                    k_max: int) -> None:
    """Write a posteriors file. Ids that ``load_posteriors`` rejects and tau, nu or
    logits whose width is not ``k_max`` raise first."""
    _check_ids([bag_id for bag_id, _ in posteriors])
    for bag_id, p in posteriors:
        if p.tau.shape != (k_max, 2) or p.nu.shape[1:] != (k_max,) or p.logits.shape != p.nu.shape:
            raise DimensionMismatchError(f"bag {bag_id!r}: tau, nu and logits need width {k_max}")
    with open(path, "wb") as fh:
        _write_lines(fh, [POSTERIORS_MAGIC, f"version: {POSTERIORS_VERSION}", f"k_max: {k_max}",
                          f"num_bags: {len(posteriors)}"]
                     + [f"bag: {bag_id},{post.nu.shape[0]}" for bag_id, post in posteriors])
        for key in ("tau", "nu", "logits"):
            _write_array(fh, key, [getattr(post, key) for _, post in posteriors], np.float64,
                         True)


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
        ("logits finite", _finite(logits)),
    ) if not ok]


def _finite(a: np.ndarray) -> bool:
    """Whether every value of ``a`` is finite, from its extremes (NaN fails every
    comparison, and an empty array passes)."""
    return bool(-np.inf < a.min(initial=0.0) and a.max(initial=0.0) < np.inf)


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
