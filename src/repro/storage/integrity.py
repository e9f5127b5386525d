"""CRC32C (Castagnoli) checksums for the on-disk column format.

Format v3 protects every section of an ALPC file — header, each
row-group payload, and the footer — with a CRC32C, the checksum used by
iSCSI, ext4 and most columnar formats (Parquet, ORC).  The polynomial's
error-detection properties matter less here than the ecosystem
compatibility: a v3 file's checksums can be re-verified with any
standard crc32c implementation.

The environment bakes in no crc32c wheel and :mod:`zlib` only provides
the plain CRC32 polynomial, so the implementation is pure Python — in
two tiers:

- **scalar slicing-by-8** (:func:`crc32c_reference`): eight 256-entry
  tables fold one 64-bit chunk per loop iteration.  This is the pinned
  oracle for the equivalence tests and the "before" arm of the
  ``kernels/io`` benchmark, and the path small buffers (headers,
  footers) take.
- **lane-parallel numpy** (the default for buffers >=
  ``PARALLEL_MIN_BYTES``): the buffer is split into K chunks of one
  power-of-two length and all K CRC states advance in lockstep with
  vectorized table gathers, so each Python-level step folds ``8 * K``
  bytes instead of 8.  The per-chunk CRCs are then merged with the
  standard GF(2) zero-extension operator (the ``crc32_combine``
  construction): the byte-update ``s' = (s >> 8) ^ T[(s ^ b) & 0xFF]``
  is affine over GF(2), so ``crc(s, a || b) = M_len(b)(crc(s, a)) ^
  crc(0, b)`` with ``M_L`` the advance-by-L-zero-bytes matrix.  The
  merge is a pairwise tree of ``log2(K)`` vectorised levels whose
  right-hand parts all have power-of-two lengths, so the few operator
  tables it needs are built once and stay cached.

Both tiers accept any C-contiguous buffer-protocol object —
``bytes``, ``bytearray``, ``memoryview`` (including slices of an
``mmap``) or a numpy byte array — without materializing an
intermediate ``bytes`` copy, which is what keeps mmap-backed payload
verification zero-copy (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Reversed Castagnoli polynomial (0x1EDC6F41 bit-reflected).
_POLY = 0x82F63B78

#: Number of slicing tables (bytes folded per main-loop iteration).
_SLICES = 8

#: Buffers at least this long take the lane-parallel numpy path; the
#: scalar tier runs at single-digit MB/s in pure Python, so the
#: threshold is set where the numpy dispatch overhead amortizes.
PARALLEL_MIN_BYTES = 4096

#: Bytes per CRC lane (doubled while the lanes would exceed
#: :data:`_MAX_LANES`).  A power of two, so the merge tree only ever
#: needs advance operators for power-of-two lengths.
_LANE_BYTES = 64

#: Upper bound on the number of parallel CRC lanes.  More lanes mean
#: fewer Python-level steps, each over a longer array; the merge is a
#: vectorised tree, so its cost grows only with ``log2(lanes)``.
_MAX_LANES = 16384


def _build_tables() -> tuple[tuple[int, ...], ...]:
    first = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        first.append(crc)
    tables = [first]
    for _ in range(1, _SLICES):
        prev = tables[-1]
        tables.append([(c >> 8) ^ first[c & 0xFF] for c in prev])
    return tuple(tuple(t) for t in tables)


_TABLES = _build_tables()
#: The same tables as one (8, 256) uint32 array for the lane kernel.
_NP_TABLES = np.array(_TABLES, dtype=np.uint32)


def _byte_view(data: object) -> "bytes | bytearray | memoryview":
    """A flat byte-indexable, copy-free view of any contiguous buffer.

    ``bytes``/``bytearray`` pass through untouched; everything else
    goes through ``memoryview(...).cast("B")``, which requires (and we
    check for, with a clear error) C-contiguity — a strided view has
    no zero-copy byte representation.
    """
    if isinstance(data, (bytes, bytearray)):
        return data
    view = data if isinstance(data, memoryview) else memoryview(data)
    if not view.c_contiguous:
        raise ValueError(
            "crc32c requires a C-contiguous buffer; got a non-contiguous "
            "memoryview (copy it with bytes(...) or np.ascontiguousarray "
            "first)"
        )
    return view.cast("B")


def _scalar_update(
    buf: "bytes | bytearray | memoryview", start: int, stop: int, crc: int
) -> int:
    """Advance the raw CRC state over ``buf[start:stop]``, slicing-by-8."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _TABLES
    length = stop - start
    aligned = start + length - (length % _SLICES)
    i = start
    while i < aligned:
        low = crc ^ (
            buf[i]
            | (buf[i + 1] << 8)
            | (buf[i + 2] << 16)
            | (buf[i + 3] << 24)
        )
        crc = (
            t7[low & 0xFF]
            ^ t6[(low >> 8) & 0xFF]
            ^ t5[(low >> 16) & 0xFF]
            ^ t4[(low >> 24) & 0xFF]
            ^ t3[buf[i + 4]]
            ^ t2[buf[i + 5]]
            ^ t1[buf[i + 6]]
            ^ t0[buf[i + 7]]
        )
        i += _SLICES
    while i < stop:
        crc = (crc >> 8) ^ t0[(crc ^ buf[i]) & 0xFF]
        i += 1
    return crc


# --- GF(2) combine machinery -------------------------------------------
#
# A 32x32 GF(2) matrix is a tuple of 32 ints: entry j is the image of
# basis vector 1<<j.  All matrices used here are powers of the single
# advance-one-zero-byte operator, so they commute and binary
# exponentiation needs no order bookkeeping.


def _mat_apply(mat: tuple[int, ...], vec: int) -> int:
    out = 0
    idx = 0
    while vec:
        if vec & 1:
            out ^= mat[idx]
        vec >>= 1
        idx += 1
    return out


def _mat_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_mat_apply(a, col) for col in b)


def _one_zero_byte_matrix() -> tuple[int, ...]:
    # s' = (s >> 8) ^ T0[s & 0xFF] applied to each basis vector.
    t0 = _TABLES[0]
    cols = []
    for i in range(32):
        e = 1 << i
        cols.append((e >> 8) ^ t0[e & 0xFF])
    return tuple(cols)


_ZERO_BYTE_MATRIX = _one_zero_byte_matrix()
_IDENTITY = tuple(1 << i for i in range(32))


@lru_cache(maxsize=256)
def _zero_advance(length: int) -> tuple[int, ...]:
    """The GF(2) operator advancing a CRC state by ``length`` zero bytes."""
    if length == 0:
        return _IDENTITY
    if length == 1:
        return _ZERO_BYTE_MATRIX
    half = _zero_advance(length // 2)
    mat = _mat_mul(half, half)
    if length & 1:
        mat = _mat_mul(_ZERO_BYTE_MATRIX, mat)
    return mat


#: The 8 bits of every byte value, for building byte tables.
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


@lru_cache(maxsize=64)
def _zero_advance_tables(length: int) -> np.ndarray:
    """The advance operator as a ``(4, 256)`` uint32 byte-table array.

    Applying a 32x32 matrix bit by bit costs ~32 ops per lane; the
    table form costs 4 lookups + 3 XORs, vectorised over every lane
    pair of a merge level.  Row ``k`` maps byte ``k`` of a state to its
    advanced contribution: the XOR of the matrix columns of its set
    bits.  Lane lengths are powers of two (see :data:`_LANE_BYTES`), so
    the few lengths ever asked for stay cached.
    """
    columns = np.array(_zero_advance(length), dtype=np.uint32).reshape(4, 1, 8)
    picked = np.where(_BYTE_BITS[None], columns, np.uint32(0))
    tables = np.bitwise_xor.reduce(picked, axis=2)
    tables.flags.writeable = False  # one cached array, shared by callers
    return tables


def _lanes_update(
    buf: "bytes | bytearray | memoryview", crc: int
) -> tuple[int, int]:
    """Advance ``crc`` over as much of ``buf`` as whole lanes cover.

    Returns ``(state, consumed)``; the caller finishes the ragged tail
    (under one lane) with :func:`_scalar_update`.  Lane 0 continues the
    incoming state, every other lane starts from 0, all lanes advance 8
    bytes per step over a zero-copy view of the buffer, and
    :func:`_merge_lanes` folds the lane CRCs.
    """
    n = len(buf)
    lane_len = _LANE_BYTES
    while n // lane_len > _MAX_LANES:
        lane_len *= 2
    lanes = n // lane_len
    arr = np.frombuffer(buf, dtype=np.uint8, count=lanes * lane_len)
    words = arr.reshape(lanes, lane_len).view("<u4")

    t0, t1, t2, t3, t4, t5, t6, t7 = _NP_TABLES
    states = np.zeros(lanes, dtype=np.uint32)
    states[0] = crc  # lane 0 continues the incoming state
    for step in range(lane_len // 8):
        low = states ^ words[:, 2 * step]
        high = words[:, 2 * step + 1]
        states = (
            t7[low & 0xFF]
            ^ t6[(low >> 8) & 0xFF]
            ^ t5[(low >> 16) & 0xFF]
            ^ t4[low >> 24]
            ^ t3[high & 0xFF]
            ^ t2[(high >> 8) & 0xFF]
            ^ t1[(high >> 16) & 0xFF]
            ^ t0[high >> 24]
        )
    return _merge_lanes(states, lane_len), lanes * lane_len


def _merge_lanes(states: np.ndarray, lane_len: int) -> int:
    """Fold lane CRCs, left to right, in ``log2(lanes)`` vector levels.

    ``crc(a || b) = M_len(b)(crc(a)) ^ crc(b)`` over GF(2) needs only the
    right part's length.  Each level pairs neighbours from the right end,
    so every right part spans exactly ``lane_len * 2**level`` bytes; an
    odd leftmost lane waits for the next level, where it is a left part.
    """
    length = lane_len
    while states.size > 1:
        head = states[: states.size % 2]
        pairs = states[head.size :].reshape(-1, 2)
        left, right = pairs[:, 0], pairs[:, 1]
        a0, a1, a2, a3 = _zero_advance_tables(length)
        merged = (
            a0[left & 0xFF]
            ^ a1[(left >> 8) & 0xFF]
            ^ a2[(left >> 16) & 0xFF]
            ^ a3[left >> 24]
            ^ right
        )
        states = np.concatenate([head, merged])
        length *= 2
    return int(states[0])


def crc32c(data: object, value: int = 0) -> int:
    """CRC32C of ``data``, optionally continuing from a prior ``value``.

    Matches the standard crc32c convention (e.g. ``crc32c(b"123456789")``
    is ``0xE3069283``); chain calls by passing the previous return value
    to checksum a logical section held in multiple buffers.  ``data``
    may be any C-contiguous buffer-protocol object; no intermediate
    copy is made.
    """
    buf = _byte_view(data)
    n = len(buf)
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    consumed = 0
    if n >= PARALLEL_MIN_BYTES:
        crc, consumed = _lanes_update(buf, crc)
    crc = _scalar_update(buf, consumed, n, crc)
    return crc ^ 0xFFFFFFFF


def crc32c_reference(data: object, value: int = 0) -> int:
    """The pinned scalar slicing-by-8 CRC32C (pre-lane-parallel path).

    Kept as the oracle for the equivalence tests and as the "before"
    arm of the ``kernels/io`` cold-read benchmark; bit-identical to
    :func:`crc32c` for every input.
    """
    buf = _byte_view(data)
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    crc = _scalar_update(buf, 0, len(buf), crc)
    return crc ^ 0xFFFFFFFF
