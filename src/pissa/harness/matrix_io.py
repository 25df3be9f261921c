"""Binary matrix formats and adapter checkpoint directories.

Dense matrices use the "PSSA" format (magic, u32 version/rows/cols little
endian, then row-major binary64). Quantized matrices use "PSQ4" (magic,
u32 version/rows/cols/block_size, per-block binary64 scales, then packed
4-bit codes, low nibble first). All writers go through a temp file and an
atomic rename so no partial binary is ever visible.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from ..adapter import AdapterPair, DecomposedLayer, _check_origin
from ..linalg import as_matrix
from ..quant import QuantizedMatrix

MATRIX_MAGIC = b"PSSA"
QUANT_MAGIC = b"PSQ4"
FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Corrupt or unsupported binary file."""


def _atomic_write(path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(path, m: np.ndarray) -> None:
    m = as_matrix(m)
    header = MATRIX_MAGIC + struct.pack("<III", FORMAT_VERSION, *m.shape)
    _atomic_write(path, header + m.astype("<f8").tobytes())


def load_matrix(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != MATRIX_MAGIC:
        raise FileFormatError(f"{path}: not a PSSA matrix file")
    version, rows, cols = struct.unpack("<III", data[4:16])
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    expected = 16 + rows * cols * 8
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes, got {len(data)}")
    m = np.frombuffer(data[16:], dtype="<f8").reshape(rows, cols).copy()
    # save_matrix never writes these; a stored NaN or Inf would flow on silently.
    if not np.isfinite(m).all():
        raise FileFormatError(f"{path}: non-finite matrix entry")
    return m


def save_quantized(path, q: QuantizedMatrix) -> None:
    codes = np.append(q.codes.ravel(), np.zeros(q.codes.size % 2, np.uint8))
    header = QUANT_MAGIC + struct.pack("<IIII", FORMAT_VERSION, *q.shape,
                                       q.block_size)
    _atomic_write(path, header + q.scales.astype("<f8").tobytes()
                  + (codes[0::2] | codes[1::2] << 4).tobytes())


def load_quantized(path) -> QuantizedMatrix:
    data = Path(path).read_bytes()
    if len(data) < 20 or data[:4] != QUANT_MAGIC:
        raise FileFormatError(f"{path}: not a PSQ4 file")
    version, rows, cols, block_size = struct.unpack("<IIII", data[4:20])
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    if block_size < 1:
        raise FileFormatError(f"{path}: invalid block_size {block_size}")
    nblocks = math.ceil(rows * cols / block_size)
    ncode_bytes = math.ceil(rows * cols / 2)
    expected = 20 + nblocks * 8 + ncode_bytes
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes, got {len(data)}")
    scales = np.frombuffer(data[20:20 + nblocks * 8], dtype="<f8").copy()
    packed = np.frombuffer(data[20 + nblocks * 8:], dtype=np.uint8)
    codes = np.stack([packed & 0x0F, packed >> 4], axis=1)
    # A NaN or infinite scale would dequantize to non-finite entries silently.
    if not (np.isfinite(scales) & (scales >= 0)).all():
        raise FileFormatError(f"{path}: negative or non-finite block scale")
    return QuantizedMatrix(codes.ravel()[:rows * cols].reshape(rows, cols),
                           scales, block_size)


def save_adapter_dir(dirpath, layer: DecomposedLayer) -> None:
    """Write A.pssa, B.pssa, the base, and a metadata file."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    save_matrix(dirpath / "A.pssa", layer.adapter.a)
    save_matrix(dirpath / "B.pssa", layer.adapter.b)
    if isinstance(layer.base, np.ndarray):
        base_file = "base.pssa"
        save_matrix(dirpath / base_file, layer.base)
    else:
        base_file = "base.psq4"
        save_quantized(dirpath / base_file, layer.base)
    meta = {
        "rank": layer.adapter.rank,
        "scale": layer.adapter.scale,
        "origin": layer.origin,
        "base_file": base_file,
    }
    _atomic_write(dirpath / "meta.json",
                  (json.dumps(meta, indent=2) + "\n").encode())


def load_adapter_dir(dirpath) -> DecomposedLayer:
    dirpath = Path(dirpath)
    meta_path = dirpath / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
        rank, scale, origin = meta["rank"], meta["scale"], meta["origin"]
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad JSON
        raise FileFormatError(
            f"{meta_path}: malformed adapter metadata: {type(exc).__name__}: {exc}"
        ) from exc
    # A JSON number only: float() would also take "2.5" and true. json reads
    # NaN, Infinity and overflowing literals such as 1e400 as floats.
    if type(scale) not in (int, float) or not 0 < scale < math.inf:
        raise FileFormatError(f"{meta_path}: malformed adapter metadata: "
                              f"scale {scale!r}")
    try:
        _check_origin(origin)
    except ValueError as exc:
        raise FileFormatError(f"{meta_path}: malformed adapter metadata: {exc}") from exc
    a = load_matrix(dirpath / "A.pssa")
    b = load_matrix(dirpath / "B.pssa")
    # A JSON integer only: a float would be truncated, and true is an int too.
    if type(rank) is not int or rank < 1 or rank != a.shape[1]:
        raise FileFormatError(f"{meta_path}: malformed adapter metadata: rank "
                              f"{rank!r} for A.pssa with {a.shape[1]} columns")
    base_file = meta.get("base_file")
    if base_file is None:
        raise FileFormatError(f"{dirpath}: checkpoint has no stored base")
    # The names save_adapter_dir writes; any other path could leave the directory.
    loaders = {"base.pssa": load_matrix, "base.psq4": load_quantized}
    if not isinstance(base_file, str) or base_file not in loaders:
        raise FileFormatError(f"{meta_path}: malformed adapter metadata: base_file "
                              f"{base_file!r} is not one of {', '.join(loaders)}")
    base = loaders[base_file](dirpath / base_file)
    if b.shape[0] != rank or base.shape != (a.shape[0], b.shape[1]):
        raise FileFormatError(f"{dirpath}: inconsistent shapes: A.pssa {a.shape}, "
                              f"B.pssa {b.shape}, {base_file} {base.shape}")
    pair = AdapterPair(a=a, b=b, rank=rank, scale=float(scale))
    return DecomposedLayer(base=base, adapter=pair, origin=origin)
