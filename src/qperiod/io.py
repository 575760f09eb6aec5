"""Binary matrix/classifier files, JSON manifests, and CSV reports.

All binary payloads are little-endian with fixed magic headers so
round-trips are bit-exact and failures are diagnosable by offset. Files
written to a path are replaced atomically: a failed write leaves the
previous file as it was.
"""

import csv
import json
import os
import re
import struct
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from .classifier import MLP, LabeledUnitaryCorpus

__all__ = [
    "DataFormatError",
    "UNITARY_MAGIC",
    "MLP_MAGIC",
    "RUN_MANIFEST_KEYS",
    "write_unitary",
    "read_unitary",
    "write_mlp",
    "read_mlp",
    "write_run_manifest",
    "read_run_manifest",
    "write_corpus",
    "read_corpus",
    "write_csv",
]

UNITARY_MAGIC = b"UMAT0001"
MLP_MAGIC = b"MLPC0001"

# 8-byte magic + n_qubits, rows, cols, reserved (u32 LE each)
_UNITARY_HEADER = struct.Struct("<8sIIII")

RUN_MANIFEST_KEYS = frozenset(
    ["n", "m", "k", "target", "gaussian_sigma", "alpha", "beta1", "beta2",
     "epsilon", "epochs", "seed", "dataset", "loss_history"]
)


class DataFormatError(ValueError):
    """A persisted artifact is malformed (wrong magic, truncation, bad shape)."""


@contextmanager
def _replacing(path, mode="w", **open_kwargs):
    """File object on a fresh temp file beside `path`, moved over `path` by
    os.replace when the block ends; if the block raises, `path` keeps its
    old bytes and the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path, obj) -> None:
    """Strict JSON: a NaN or infinity raises ValueError and leaves `path`
    as it was, since strict parsers reject the NaN/Infinity tokens."""
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _read_json(path):
    """The JSON value in the file at path; text that is not JSON (or not
    UTF-8) raises DataFormatError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc


def write_unitary(path, m3, n_qubits: int) -> None:
    """UMAT0001 file: header then row-major (re, im) float64 LE pairs."""
    m3 = np.ascontiguousarray(m3, dtype=np.complex128)
    dim = 2 ** n_qubits
    if m3.shape != (dim, dim):
        raise ValueError(f"matrix shape {m3.shape} does not match n_qubits={n_qubits}")
    if not np.all(np.isfinite(m3.view(np.float64))):
        raise ValueError("refusing to write non-finite matrix entries")
    header = _UNITARY_HEADER.pack(UNITARY_MAGIC, n_qubits, dim, dim, 0)
    with _replacing(path, "wb") as fh:
        fh.write(header)
        fh.write(m3.astype("<c16", copy=False))


def read_unitary(path):
    """Returns (matrix, n_qubits); raises DataFormatError on any malformation.

    The header and the file size are checked before the payload is read,
    straight into the returned array.
    """
    with open(path, "rb") as fh:
        header = fh.read(_UNITARY_HEADER.size)
        if len(header) < _UNITARY_HEADER.size:
            raise DataFormatError(
                f"{path}: truncated header ({len(header)} bytes, need {_UNITARY_HEADER.size})"
            )
        magic, n_qubits, rows, cols, _ = _UNITARY_HEADER.unpack(header)
        if magic != UNITARY_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r} at offset 0")
        if n_qubits > 31:  # before 2 ** n_qubits: no u32 row count can match a wider one
            raise DataFormatError(f"{path}: n_qubits={n_qubits} is above 31, the u32 limit")
        if rows != cols or rows != 2 ** n_qubits:
            raise DataFormatError(
                f"{path}: header claims {rows}x{cols} for n_qubits={n_qubits}"
            )
        length = os.fstat(fh.fileno()).st_size
        expected = _UNITARY_HEADER.size + rows * cols * 16
        if length != expected:
            raise DataFormatError(f"{path}: length {length} != expected {expected}")
        m3 = np.empty((rows, cols), dtype="<c16")
        got = fh.readinto(m3)
        if got != m3.nbytes:
            raise DataFormatError(
                f"{path}: short read ({got} of {m3.nbytes} payload bytes)"
            )
    m3 = m3.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(m3.view(np.float64))):
        raise DataFormatError(f"{path}: non-finite matrix entries")
    return m3, n_qubits


def _check_mlp_dims(path, dims, error) -> None:
    """Raise error unless an MLPC0001 file may hold these layer widths: 1 to
    64 layers, every width positive, one output unit (the sigmoid)."""
    if not 2 <= len(dims) <= 65:
        raise error(f"{path}: implausible layer count {len(dims) - 1}")
    if 0 in dims or dims[-1] != 1:
        raise error(f"{path}: layer widths {tuple(dims)} must be positive and end in one output")


def write_mlp(path, net: MLP) -> None:
    """MLPC0001 file: layer count, dims, then per-layer weights and biases.
    A net that read_mlp would refuse raises ValueError before any file is made."""
    shapes = [np.shape(w) for w in net.weights]
    bias_shapes = [np.shape(b) for b in net.biases]
    if (any(len(shape) != 2 for shape in shapes) or bias_shapes != [s[1:] for s in shapes]
            or any(a[1] != b[0] for a, b in zip(shapes, shapes[1:]))):
        raise ValueError(f"{path}: weight shapes {shapes} and bias shapes {bias_shapes} "
                         "are not chained 2-D layers, each with one bias per fan-out")
    dims = [shapes[0][0] if shapes else 0] + [shape[1] for shape in shapes]
    _check_mlp_dims(path, dims, ValueError)
    if not all(np.isfinite(t).all() for t in net.weights + net.biases):
        raise ValueError(f"{path}: refusing to write non-finite weights or biases")
    with _replacing(path, "wb") as fh:
        fh.write(MLP_MAGIC)
        fh.write(struct.pack("<I", len(net.weights)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for w, b in zip(net.weights, net.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def read_mlp(path) -> MLP:
    """The net of an MLPC0001 file; raises DataFormatError on any malformation,
    including layer widths that _check_mlp_dims refuses and non-finite values."""
    blob = Path(path).read_bytes()
    if len(blob) < 12:
        raise DataFormatError(f"{path}: truncated header")
    if blob[:8] != MLP_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:8]!r} at offset 0")
    (n_layers,) = struct.unpack_from("<I", blob, 8)
    dims_end = 12 + 4 * (n_layers + 1)
    if len(blob) < dims_end:
        raise DataFormatError(f"{path}: truncated dims table")
    dims = struct.unpack_from(f"<{n_layers + 1}I", blob, 12)
    _check_mlp_dims(path, dims, DataFormatError)
    offset = dims_end
    weights, biases = [], []
    for din, dout in zip(dims[:-1], dims[1:]):
        if len(blob) < offset + 8 * (din + 1) * dout:
            raise DataFormatError(f"{path}: truncated at offset {offset}")
        w = np.frombuffer(blob, dtype="<f8", count=din * dout, offset=offset)
        weights.append(w.reshape(din, dout).copy())
        offset += 8 * din * dout
        biases.append(np.frombuffer(blob, dtype="<f8", count=dout, offset=offset).copy())
        offset += 8 * dout
    if offset != len(blob):
        raise DataFormatError(f"{path}: {len(blob) - offset} trailing bytes at offset {offset}")
    if not all(np.isfinite(t).all() for t in weights + biases):
        raise DataFormatError(f"{path}: non-finite weights or biases")
    return MLP(weights=weights, biases=biases)


def write_run_manifest(path, manifest: dict) -> None:
    """Training-run manifest with the exact documented key set."""
    keys = set(manifest)
    if keys != set(RUN_MANIFEST_KEYS):
        missing = sorted(RUN_MANIFEST_KEYS - keys)
        extra = sorted(keys - RUN_MANIFEST_KEYS)
        raise ValueError(f"run manifest keys: missing {missing}, unexpected {extra}")
    _write_json(path, manifest)


def read_run_manifest(path) -> dict:
    manifest = _read_json(path)
    if not isinstance(manifest, dict) or set(manifest) != set(RUN_MANIFEST_KEYS):
        raise DataFormatError(f"{path}: run manifest keys do not match the schema")
    return manifest


def write_corpus(out_dir, corpus: LabeledUnitaryCorpus, n_qubits: int) -> Path:
    """Persist matrices as UMAT files plus a JSON manifest; returns its path.
    Matrix files of an earlier corpus in out_dir that the new manifest does
    not name are removed; other files are left alone."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "corpus_manifest.json"
    manifest_path.unlink(missing_ok=True)  # a rewrite that fails part-way leaves none
    records = []
    counters = {0: 0, 1: 0}
    for (m3, label), prov in zip(corpus.entries, corpus.provenance):
        stem = "learned" if label == 1 else "haar"
        name = f"{stem}_{counters[label]:04d}.umat"
        counters[label] += 1
        write_unitary(out_dir / name, m3, n_qubits)
        records.append({"matrix_path": name, "label": label, "provenance": prov})
    names = {rec["matrix_path"] for rec in records}
    for path in out_dir.iterdir():
        if re.fullmatch(r"(learned|haar)_\d{4,}\.umat", path.name) and path.name not in names:
            path.unlink()
    _write_json(manifest_path, {"n_qubits": n_qubits, "entries": records})
    return manifest_path


def read_corpus(manifest_path):
    """Load a persisted corpus; returns (corpus, n_qubits)."""
    manifest_path = Path(manifest_path)
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict) or not {"entries", "n_qubits"} <= manifest.keys():
        raise DataFormatError(f"{manifest_path}: missing corpus manifest keys")
    n_qubits, records = manifest["n_qubits"], manifest["entries"]
    if type(n_qubits) is not int:
        raise DataFormatError(f"{manifest_path}: n_qubits {n_qubits!r} is not an integer")
    if not isinstance(records, list):
        raise DataFormatError(f"{manifest_path}: entries is not a list")
    if not records:
        raise DataFormatError(f"{manifest_path}: empty corpus")
    entries, provenance = [], []
    for index, rec in enumerate(records):
        for key in ("matrix_path", "label"):
            if not isinstance(rec, dict) or key not in rec:
                raise DataFormatError(f"{manifest_path}: entry {index} has no {key!r}")
        if not isinstance(rec["matrix_path"], str):
            raise DataFormatError(f"{manifest_path}: entry {index} has matrix_path "
                                  f"{rec['matrix_path']!r}, not a string")
        label = rec["label"]
        if type(label) is not int or label not in (0, 1):
            raise DataFormatError(
                f"{manifest_path}: entry {index} has label {label!r}, not 0 or 1")
        m3, file_n = read_unitary(manifest_path.parent / rec["matrix_path"])
        if file_n != n_qubits:
            raise DataFormatError(
                f"{rec['matrix_path']}: qubit count {file_n} != corpus {n_qubits}"
            )
        entries.append((m3, label))
        provenance.append(rec.get("provenance", {}))
    return LabeledUnitaryCorpus(entries=entries, provenance=provenance), n_qubits


def write_csv(target, header, rows) -> None:
    """RFC-4180-style CSV with a header row. target: path or open file."""
    opened = nullcontext(target) if hasattr(target, "write") else _replacing(target, newline="")
    with opened as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
