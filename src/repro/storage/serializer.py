"""Exact binary layout for compressed row-groups.

Everything the in-memory dataclasses of :mod:`repro.core` carry is given
a little-endian byte layout here, so columns survive a disk round-trip
bit-exactly.  The format is deliberately simple (length-prefixed
sections, no alignment games): the benchmarks measure the *encodings*,
not the framing.

Layout of one serialized row-group::

    u8   scheme          0 = ALP, 1 = ALP_rd
    u32  value count
    -- ALP --
    u8   candidate count, then (u8 exponent, u8 factor) per candidate
    u16  vector count, then per vector:
         u8 e, u8 f, u16 count,
         i64 ffor reference, u8 ffor bit width, u32 payload len, payload,
         u32 ffor count,
         u16 exception count, positions (u16 each), values (f64 each)
    -- ALP_rd --
    u8   right bit width, u8 total bits,
    u8   dictionary size, entries (u16 each),
    u16  vector count, then per vector:
         u16 count, u32 left len, left bytes, u32 right len, right bytes,
         u16 exception count, positions (u16 each), values (u16 each)
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.core.alp import AlpVector
from repro.core.alprd import AlpRdParameters, AlpRdRowGroup, AlpRdVector
from repro.core.compressor import (
    AlpRowGroup,
    CompressedRowGroup,
    CompressionStats,
    FirstLevelResult,
)
from repro.core.sampler import ExponentFactor
from repro.encodings.bitpack import Buffer
from repro.encodings.dictionary import SkewedDictionary
from repro.encodings.ffor import FforEncoded

_SCHEME_ALP = 0
_SCHEME_ALPRD = 1


class ByteWriter:
    """Tiny append-only little-endian struct writer."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def u16(self, value: int) -> None:
        self._parts.append(struct.pack("<H", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def i64(self, value: int) -> None:
        self._parts.append(struct.pack("<q", value))

    def f64(self, value: float) -> None:
        self._parts.append(struct.pack("<d", value))

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def array(self, values: np.ndarray) -> None:
        """Raw dump of a numpy array's little-endian bytes."""
        self._parts.append(np.ascontiguousarray(values).tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Sequential little-endian struct reader over a buffer."""

    __slots__ = ("_buffer", "_pos")

    def __init__(self, buffer: bytes, offset: int = 0) -> None:
        self._buffer = buffer
        self._pos = offset

    def _take(self, fmt: str) -> Any:
        size = struct.calcsize(fmt)
        value = struct.unpack_from(fmt, self._buffer, self._pos)[0]
        self._pos += size
        return value

    def u8(self) -> int:
        return self._take("<B")

    def u16(self) -> int:
        return self._take("<H")

    def u32(self) -> int:
        return self._take("<I")

    def u64(self) -> int:
        return self._take("<Q")

    def i64(self) -> int:
        return self._take("<q")

    def f64(self) -> float:
        return self._take("<d")

    def raw(self, size: int) -> bytes:
        data = self._buffer[self._pos : self._pos + size]
        if len(data) != size:
            raise ValueError("truncated buffer")
        self._pos += size
        return data

    def array(self, dtype: np.dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        data = self.raw(dtype.itemsize * count)
        return np.frombuffer(data, dtype=dtype).copy()

    @property
    def position(self) -> int:
        return self._pos


def _write_ffor(w: ByteWriter, ffor: FforEncoded) -> None:
    w.i64(ffor.reference)
    w.u8(ffor.bit_width)
    w.u32(len(ffor.payload))
    w.raw(ffor.payload)
    w.u32(ffor.count)


def _read_ffor(r: ByteReader) -> FforEncoded:
    reference = r.i64()
    bit_width = r.u8()
    payload = r.raw(r.u32())
    count = r.u32()
    return FforEncoded(
        payload=payload, reference=reference, bit_width=bit_width, count=count
    )


def _write_alp_vector(w: ByteWriter, vector: AlpVector) -> None:
    w.u8(vector.exponent)
    w.u8(vector.factor)
    w.u16(vector.count)
    _write_ffor(w, vector.ffor)
    w.u16(vector.exc_positions.size)
    w.array(vector.exc_positions.astype("<u2"))
    w.array(vector.exc_values.astype("<f8"))


def _write_rd_vector(w: ByteWriter, vector: AlpRdVector) -> None:
    w.u16(vector.count)
    w.u32(len(vector.left_payload))
    w.raw(vector.left_payload)
    w.u32(len(vector.right_payload))
    w.raw(vector.right_payload)
    w.u16(vector.exc_positions.size)
    w.array(vector.exc_positions.astype("<u2"))
    w.array(vector.exc_values.astype("<u2"))


#: Fixed-size framing of one ALP vector around its payload: (e, f,
#: count, FFOR reference, bit width, payload length) before it, (FFOR
#: count, exception count) after it.
_ALP_HEAD = struct.Struct("<BBHqBI")
_ALP_TAIL = struct.Struct("<IH")
#: Row-group header (scheme tag, value count) and the ALP_rd
#: parameters (right width, total bits, dictionary size).
_RG_HEAD = struct.Struct("<BI")
_RD_HEAD = struct.Struct("<BBB")
#: One length prefix (ALP_rd left/right payloads) and one count.
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")

#: Shared empty exception arrays for the (common) exception-free
#: vectors; read-only, so no decoder can write through them.
_NO_U16 = np.empty(0, dtype=np.uint16)
_NO_U16.flags.writeable = False
_NO_F64 = np.empty(0, dtype=np.float64)
_NO_F64.flags.writeable = False


def _read_exceptions(
    buffer: Buffer, pos: int, n_exc: int, stored: str, native: type
) -> tuple[np.ndarray, np.ndarray, int]:
    """(positions, values, next position) of an exception block.

    One owned copy each (exception arrays outlive the buffer, which may
    be an mmap); ``frombuffer`` raises on truncation.
    """
    positions = np.frombuffer(buffer, "<u2", n_exc, pos).astype(np.uint16)
    pos += 2 * n_exc
    values = np.frombuffer(buffer, stored, n_exc, pos).astype(native)
    return positions, values, pos + values.nbytes


def _read_alp_vectors(
    buffer: Buffer, pos: int, n_vectors: int
) -> tuple[tuple[AlpVector, ...], int]:
    """Parse ``n_vectors`` ALP vectors; returns (vectors, next position).

    Each vector's fixed framing is one precompiled ``struct`` unpack on
    either side of its payload; the payload stays a slice of ``buffer``
    (a zero-copy view when ``buffer`` is a ``memoryview``).  A payload
    cut short by the end of ``buffer`` makes the framing read after it
    raise ``struct.error``.
    """
    head, tail = _ALP_HEAD.unpack_from, _ALP_TAIL.unpack_from
    head_size, tail_size = _ALP_HEAD.size, _ALP_TAIL.size
    vectors = []
    for _ in range(n_vectors):
        exponent, factor, count, reference, width, length = head(buffer, pos)
        pos += head_size
        payload = buffer[pos : pos + length]
        pos += length
        ffor_count, n_exc = tail(buffer, pos)
        pos += tail_size
        if n_exc:
            positions, values, pos = _read_exceptions(
                buffer, pos, n_exc, "<f8", np.float64
            )
        else:
            positions, values = _NO_U16, _NO_F64
        vectors.append(
            AlpVector(
                ffor=FforEncoded(
                    payload=payload,
                    reference=reference,
                    bit_width=width,
                    count=ffor_count,
                ),
                exponent=exponent,
                factor=factor,
                exc_values=values,
                exc_positions=positions,
                count=count,
            )
        )
    return tuple(vectors), pos


def _read_rd_vectors(
    buffer: Buffer, pos: int, n_vectors: int
) -> tuple[tuple[AlpRdVector, ...], int]:
    """Parse ``n_vectors`` ALP_rd vectors; returns (vectors, next position).

    As in :func:`_read_alp_vectors`, a truncated payload makes the next
    framing read raise ``struct.error``.
    """
    u16, u32 = _U16.unpack_from, _U32.unpack_from
    vectors = []
    for _ in range(n_vectors):
        (count,) = u16(buffer, pos)
        (left_len,) = u32(buffer, pos + 2)
        pos += 6
        left = buffer[pos : pos + left_len]
        pos += left_len
        (right_len,) = u32(buffer, pos)
        pos += 4
        right = buffer[pos : pos + right_len]
        pos += right_len
        (n_exc,) = u16(buffer, pos)
        pos += 2
        if n_exc:
            positions, values, pos = _read_exceptions(
                buffer, pos, n_exc, "<u2", np.uint16
            )
        else:
            positions, values = _NO_U16, _NO_U16
        vectors.append(
            AlpRdVector(
                left_payload=left,
                right_payload=right,
                exc_positions=positions,
                exc_values=values,
                count=count,
            )
        )
    return tuple(vectors), pos


def serialize_rowgroup(rowgroup: CompressedRowGroup) -> bytes:
    """Serialize one compressed row-group to bytes."""
    w = ByteWriter()
    if rowgroup.alp is not None:
        w.u8(_SCHEME_ALP)
        w.u32(rowgroup.count)
        alp = rowgroup.alp
        w.u8(len(alp.candidates))
        for candidate in alp.candidates:
            w.u8(candidate.exponent)
            w.u8(candidate.factor)
        w.u16(len(alp.vectors))
        for vector in alp.vectors:
            _write_alp_vector(w, vector)
    else:
        if rowgroup.rd is None:
            raise ValueError("row-group has neither ALP nor ALP_rd payload")
        rd = rowgroup.rd
        w.u8(_SCHEME_ALPRD)
        w.u32(rowgroup.count)
        w.u8(rd.parameters.right_bit_width)
        w.u8(rd.parameters.total_bits)
        entries = rd.parameters.dictionary.entries
        w.u8(entries.size)
        w.array(entries.astype("<u2"))
        w.u16(len(rd.vectors))
        for vector in rd.vectors:
            _write_rd_vector(w, vector)
    return w.getvalue()


def deserialize_rowgroup(
    buffer: Buffer, offset: int = 0
) -> tuple[CompressedRowGroup, int]:
    """Deserialize one row-group; returns (row-group, bytes consumed).

    Compression-time sampling statistics are not stored (they describe
    the act of compressing, not the data), so the deserialized row-group
    carries a placeholder :class:`FirstLevelResult`.
    """
    scheme, count = _RG_HEAD.unpack_from(buffer, offset)
    pos = offset + _RG_HEAD.size
    if scheme == _SCHEME_ALP:
        n_candidates = buffer[pos]
        pairs = buffer[pos + 1 : pos + 1 + 2 * n_candidates]
        candidates = tuple(
            ExponentFactor(pairs[i], pairs[i + 1])
            for i in range(0, 2 * n_candidates, 2)
        )
        pos += 1 + 2 * n_candidates
        (n_vectors,) = _U16.unpack_from(buffer, pos)
        vectors, pos = _read_alp_vectors(buffer, pos + 2, n_vectors)
        alp = AlpRowGroup(vectors=vectors, candidates=candidates, count=count)
        rowgroup = CompressedRowGroup(
            alp=alp,
            rd=None,
            first_level=FirstLevelResult(
                candidates=candidates,
                use_rd=False,
                best_estimated_bits_per_value=0.0,
            ),
            count=count,
        )
    elif scheme == _SCHEME_ALPRD:
        right_bit_width, total_bits, n_entries = _RD_HEAD.unpack_from(
            buffer, pos
        )
        pos += _RD_HEAD.size
        entries = np.frombuffer(buffer, "<u2", n_entries, pos).astype(
            np.uint16
        )
        pos += 2 * n_entries
        width = max(int(entries.size - 1).bit_length(), 0)
        parameters = AlpRdParameters(
            right_bit_width=right_bit_width,
            dictionary=SkewedDictionary(entries=entries, code_width=width),
            total_bits=total_bits,
        )
        (n_vectors,) = _U16.unpack_from(buffer, pos)
        rd_vectors, pos = _read_rd_vectors(buffer, pos + 2, n_vectors)
        rd = AlpRdRowGroup(
            parameters=parameters, vectors=rd_vectors, count=count
        )
        rowgroup = CompressedRowGroup(
            alp=None,
            rd=rd,
            first_level=FirstLevelResult(
                candidates=(ExponentFactor(0, 0),),
                use_rd=True,
                best_estimated_bits_per_value=0.0,
            ),
            count=count,
        )
    else:
        raise ValueError(f"unknown scheme tag {scheme}")
    return rowgroup, pos - offset


def empty_stats() -> CompressionStats:
    """Placeholder stats for deserialized columns."""
    return CompressionStats()
