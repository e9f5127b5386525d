"""Binary layout for compressed float32 columns (§4.4 / Table 7 data).

Model-weight columns compressed with ALP-32 / ALP_rd-32 get the same
byte-exact treatment as doubles, so checkpoints can be stored and
reloaded losslessly.

Layout::

    "ALPF" magic, u16 version,
    u8  scheme (0 = ALP-32, 1 = ALP_rd-32), u32 value count
    -- ALP-32: u16 vector count, then per vector:
       u8 e, u8 f, u16 count,
       i64 ffor reference, u8 ffor width, u32 len, payload,
       u16 exc count, positions (u16), values (f32)
    -- ALP_rd-32: u8 right width, u8 dict size, entries (u16),
       u16 vector count, then per vector (shared with the 64-bit rd
       layout: left/right payloads + 16-bit exceptions)
"""

from __future__ import annotations

import numpy as np

from repro.core.alprd import AlpRdParameters
from repro.core.float32 import (
    AlpFloatVector,
    CompressedFloatColumn,
)
from repro.encodings.dictionary import SkewedDictionary
from repro.encodings.ffor import FforEncoded
from repro.storage.serializer import ByteReader, ByteWriter

MAGIC_F32 = b"ALPF"
VERSION_F32 = 1

_SCHEME_ALP32 = 0
_SCHEME_ALPRD32 = 1


def _write_float_vector(w: ByteWriter, vector: AlpFloatVector) -> None:
    w.u8(vector.exponent)
    w.u8(vector.factor)
    w.u16(vector.count)
    w.i64(vector.ffor.reference)
    w.u8(vector.ffor.bit_width)
    w.u32(len(vector.ffor.payload))
    w.raw(vector.ffor.payload)
    w.u32(vector.ffor.count)
    w.u16(vector.exc_positions.size)
    w.array(vector.exc_positions.astype("<u2"))
    w.array(vector.exc_values.astype("<f4"))


def _read_float_vector(r: ByteReader) -> AlpFloatVector:
    exponent = r.u8()
    factor = r.u8()
    count = r.u16()
    reference = r.i64()
    width = r.u8()
    payload = r.raw(r.u32())
    ffor_count = r.u32()
    n_exc = r.u16()
    exc_positions = r.array(np.dtype("<u2"), n_exc).astype(np.uint16)
    exc_values = r.array(np.dtype("<f4"), n_exc).astype(np.float32)
    return AlpFloatVector(
        ffor=FforEncoded(
            payload=payload,
            reference=reference,
            bit_width=width,
            count=ffor_count,
        ),
        exponent=exponent,
        factor=factor,
        exc_values=exc_values,
        exc_positions=exc_positions,
        count=count,
    )


def serialize_float_column(column: CompressedFloatColumn) -> bytes:
    """Serialize a compressed float32 column to bytes."""
    from repro.storage.serializer import _write_rd_vector

    w = ByteWriter()
    w.raw(MAGIC_F32)
    w.u16(VERSION_F32)
    if column.scheme == "alp":
        w.u8(_SCHEME_ALP32)
        w.u32(column.count)
        w.u16(len(column.vectors))
        for vector in column.vectors:
            _write_float_vector(w, vector)
    else:
        if column.rd_parameters is None:
            raise ValueError("ALP_rd float32 column is missing its parameters")
        w.u8(_SCHEME_ALPRD32)
        w.u32(column.count)
        w.u8(column.rd_parameters.right_bit_width)
        entries = column.rd_parameters.dictionary.entries
        w.u8(entries.size)
        w.array(entries.astype("<u2"))
        w.u16(len(column.vectors))
        for vector in column.vectors:
            _write_rd_vector(w, vector)
    return w.getvalue()


def deserialize_float_column(buffer: bytes) -> CompressedFloatColumn:
    """Inverse of :func:`serialize_float_column`."""
    from repro.storage.serializer import _read_rd_vectors

    r = ByteReader(buffer)
    if r.raw(4) != MAGIC_F32:
        raise ValueError("not an ALPF float32 column")
    version = r.u16()
    if version != VERSION_F32:
        raise ValueError(f"unsupported ALPF version {version}")
    scheme = r.u8()
    count = r.u32()
    if scheme == _SCHEME_ALP32:
        n_vectors = r.u16()
        vectors = tuple(_read_float_vector(r) for _ in range(n_vectors))
        return CompressedFloatColumn(
            scheme="alp", vectors=vectors, rd_parameters=None, count=count
        )
    if scheme == _SCHEME_ALPRD32:
        right_width = r.u8()
        n_entries = r.u8()
        entries = r.array(np.dtype("<u2"), n_entries).astype(np.uint16)
        width = max(int(entries.size - 1).bit_length(), 0)
        parameters = AlpRdParameters(
            right_bit_width=right_width,
            dictionary=SkewedDictionary(entries=entries, code_width=width),
            total_bits=32,
        )
        n_vectors = r.u16()
        rd_vectors, _ = _read_rd_vectors(buffer, r.position, n_vectors)
        return CompressedFloatColumn(
            scheme="alprd",
            vectors=rd_vectors,
            rd_parameters=parameters,
            count=count,
        )
    raise ValueError(f"unknown ALPF scheme tag {scheme}")
