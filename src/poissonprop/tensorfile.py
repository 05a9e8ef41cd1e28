"""Minimal binary tensor file format.

Layout, all little-endian:

    bytes 0..7   magic "PSEG0001"
    byte  8      dtype code: 1 = float32, 2 = float64, 3 = uint8
    byte  9      rank
    then         rank x uint32 dims
    then         row-major payload

Loads always widen to float64; saves at dtype 2 round-trip bit-exactly.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, TruncatedPayload, UnknownDtype
from .tensor import Tensor

MAGIC = b"PSEG0001"

DTYPE_F32 = 1
DTYPE_F64 = 2
DTYPE_U8 = 3

_NUMPY_DTYPES = {
    DTYPE_F32: np.dtype("<f4"),
    DTYPE_F64: np.dtype("<f8"),
    DTYPE_U8: np.dtype("u1"),
}


def save_tensor(path, tensor, dtype_code: int = DTYPE_F64) -> None:
    """Write a Tensor (or array) to ``path`` at the given dtype code."""
    if dtype_code not in _NUMPY_DTYPES:
        raise UnknownDtype(f"unsupported dtype code {dtype_code}")
    if not isinstance(tensor, Tensor):
        tensor = Tensor(np.asarray(tensor, dtype=np.float64))
    data = tensor.data
    if dtype_code == DTYPE_U8:
        rounded = np.rint(data)
        if np.any(rounded != data) or data.min() < 0 or data.max() > 255:
            raise ValueError("uint8 save requires integral values in [0, 255]")
        payload = rounded.astype("u1").tobytes(order="C")
    else:
        with np.errstate(over="ignore"):
            narrowed = data.astype(_NUMPY_DTYPES[dtype_code])
        if not np.all(np.isfinite(narrowed)):
            raise ValueError("float32 save requires values within the float32 range")
        payload = narrowed.tobytes(order="C")
    rank = data.ndim
    header = MAGIC + struct.pack("<BB", dtype_code, rank)
    header += struct.pack(f"<{rank}I", *data.shape)
    Path(path).write_bytes(header + payload)


def load_tensor(path) -> Tensor:
    """Read a tensor file, widening the payload to float64."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 2 or blob[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"{path}: not a tensor file (bad magic)")
    dtype_code, rank = struct.unpack_from("<BB", blob, len(MAGIC))
    if dtype_code not in _NUMPY_DTYPES:
        raise UnknownDtype(f"{path}: unknown dtype code {dtype_code}")
    offset = len(MAGIC) + 2
    dims_end = offset + 4 * rank
    if len(blob) < dims_end:
        raise TruncatedPayload(f"{path}: header cut short")
    dims = struct.unpack_from(f"<{rank}I", blob, offset)
    if any(d == 0 for d in dims):
        raise ValueError(f"{path}: dims must be positive, got {dims}")
    dtype = _NUMPY_DTYPES[dtype_code]
    count = math.prod(dims)
    expected = dims_end + count * dtype.itemsize
    if len(blob) != expected:
        raise TruncatedPayload(
            f"{path}: payload is {len(blob) - dims_end} bytes, "
            f"expected {expected - dims_end}"
        )
    flat = np.frombuffer(blob, dtype=dtype, count=count, offset=dims_end)
    try:
        return Tensor(flat.astype(np.float64).reshape(dims))
    except ValueError as err:  # a non-finite payload
        raise ValueError(f"{path}: {err}") from err
