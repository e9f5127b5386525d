"""Vectorized bit-packing (the FastLanes "BP" primitive).

Packs arrays of unsigned integers into a dense byte buffer using a fixed
bit width per vector, and unpacks them back.  This is the workhorse under
FFOR, the skewed dictionary of ALP_rd, and the PDE baseline.

The layout is MSB-first within the buffer (value ``i`` occupies bits
``[i*w, (i+1)*w)`` of the stream).  The FastLanes C++ library uses an
interleaved transposed layout for SIMD friendliness; in numpy the plain
sequential layout vectorizes equally well and keeps the format readable,
so we use it and note the deviation here.

Both directions are *word-parallel*: the packer computes, per value, the
one or two 64-bit destination words its field straddles and combines the
shifted contributions with an OR-reduction (three to five numpy kernels
total, independent of width); the unpacker is the mirrored two-word
gather.  Byte-aligned widths short-circuit to a single dtype cast.  All
index arithmetic depends only on ``(width, count)`` and is cached, so
the steady-state cost per 1024-value ALP vector is a handful of numpy
calls on 1024-element arrays — no N x width bit matrix is ever built.
Unpacks of many vectors at once (a row-group's joined payloads) take a
third kernel, eight strided phase passes of unaligned 64-bit loads,
whose cost is a fixed sixteen numpy calls at any count.  The original
bit-matrix packer survives as :func:`pack_bits_bitmatrix`, the
reference the equivalence tests and kernel benchmarks compare against.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

from repro import obs

if sys.version_info >= (3, 12):  # pragma: no cover - version switch
    from collections.abc import Buffer
else:  # pragma: no cover - version switch
    from typing import Union

    #: Pre-3.12 stand-in for :class:`collections.abc.Buffer`: the
    #: buffer-protocol inputs the unpack kernels accept at runtime.
    Buffer = Union[bytes, bytearray, memoryview, np.ndarray]

#: Widths packable with a single dtype cast (big-endian field bytes are
#: exactly the value's low bytes in stream order).
_CAST_DTYPES = {8: np.dtype(np.uint8), 16: ">u2", 32: ">u4", 64: ">u8"}


def as_byte_buffer(buffer: Buffer) -> bytes | bytearray | memoryview:
    """A flat byte view of any C-contiguous buffer, without copying.

    ``bytes``/``bytearray`` pass through; other buffer-protocol objects
    (``memoryview`` slices of an mmap, numpy byte arrays) are wrapped in
    a ``memoryview`` and cast to unsigned bytes.  Non-contiguous views
    have no zero-copy byte representation and are rejected with a clear
    error rather than silently copied.
    """
    if isinstance(buffer, (bytes, bytearray)):
        return buffer
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    if not view.c_contiguous:
        raise ValueError(
            "expected a C-contiguous buffer; got a non-contiguous "
            "memoryview (materialize it with bytes(...) or "
            "np.ascontiguousarray first)"
        )
    return view.cast("B")


def _coerce_out(out: np.ndarray, count: int) -> np.ndarray:
    """Validate a caller-provided unpack destination buffer."""
    if not isinstance(out, np.ndarray):
        raise TypeError(f"out must be a numpy ndarray, got {type(out)!r}")
    if out.dtype != np.uint64:
        raise ValueError(f"out must have dtype uint64, got {out.dtype}")
    if out.ndim != 1 or out.size != count:
        raise ValueError(
            f"out must be a 1-D array of exactly {count} values, "
            f"got shape {out.shape}"
        )
    if not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("out must be C-contiguous and writable")
    return out


def bit_width_required(
    values: np.ndarray, known_min: int | None = None
) -> int:
    """Smallest bit width able to represent every value in ``values``.

    Values must be non-negative (unsigned).  An empty or all-zero array
    needs 0 bits — FFOR exploits this for constant vectors.

    Signed-dtype inputs are accepted but validated on their *minimum*:
    checking ``values.max() < 0`` would only reject all-negative arrays
    (and can never fire for unsigned dtypes), silently mis-sizing mixed
    arrays like ``[-1, 5]``.  Callers that already reduced the minimum
    (FOR-style encoders subtract it as the frame of reference) pass it
    via ``known_min`` so the validation does not re-scan the array.
    """
    values = np.asarray(values)
    if values.size == 0:
        return 0
    if values.dtype.kind != "u":
        minimum = int(values.min()) if known_min is None else known_min
        if minimum < 0:
            raise ValueError("bit_width_required expects non-negative values")
    return int(values.max()).bit_length()


@lru_cache(maxsize=1024)
def _pack_plan(
    width: int, count: int
) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Precomputed scatter geometry for ``count`` fields of ``width`` bits.

    Everything here depends only on (width, count), so the hot path pays
    for it once per shape.  Returns ``(n_words, n_start_words, offset,
    boundaries, straddle, s_idx, s_shift)`` where

    - ``offset[i]`` is field ``i``'s start bit inside its first word,
    - ``boundaries[w]`` is the first field starting in word ``w`` (every
      word up to the last field's start word holds at least one start,
      because ``width <= 64`` means consecutive starts are never more
      than 64 bits apart — so the OR-reduction segments are non-empty),
    - ``straddle`` marks fields crossing into the next word; at most one
      field crosses any given word boundary (fields are disjoint), so
      the spill writes at ``s_idx`` are conflict-free fancy indexing.
    """
    n_words = (count * width + 63) // 64
    starts = np.arange(count, dtype=np.uint64) * np.uint64(width)
    word_idx = (starts >> np.uint64(6)).view(np.int64)
    offset = starts & np.uint64(63)
    # A trailing word reached only by the last field's spill contains no
    # start; the OR-reduction covers words up to the last start only.
    n_start_words = int(word_idx[-1]) + 1
    boundaries = (
        np.arange(n_start_words, dtype=np.int64) * 64 + width - 1
    ) // width
    straddle = (offset + np.uint64(width)) > np.uint64(64)
    s_idx = word_idx[straddle] + 1
    s_shift = (np.uint64(64) - offset[straddle]) & np.uint64(63)
    return n_words, n_start_words, offset, boundaries, straddle, s_idx, s_shift


def pack_bits(
    values: np.ndarray, width: int, max_value: int | None = None
) -> bytes:
    """Pack ``values`` (non-negative, each < 2**width) into bytes.

    ``max_value`` lets callers that already reduced the maximum (every
    width computation does) skip the validation re-scan.

    >>> unpack_bits(pack_bits(np.array([1, 2, 3], dtype=np.uint64), 2), 2, 3)
    array([1, 2, 3], dtype=uint64)
    """
    if width < 0 or width > 64:
        raise ValueError(f"bit width must be in [0, 64], got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size:
        vmax = int(values.max()) if max_value is None else max_value
        if width == 0:
            if vmax != 0:
                raise ValueError("width 0 requires an all-zero array")
            packed = b""
        elif vmax >> width:
            raise ValueError(f"value {vmax} does not fit in {width} bits")
        else:
            packed = _pack_words(values, width)
    else:
        packed = b""
    if obs.ENABLED:
        obs.metrics.counter_add("bitpack.pack_calls", 1)
        obs.metrics.counter_add("bitpack.pack_values", int(values.size))
        obs.metrics.counter_add("bitpack.pack_bytes", len(packed))
    return packed


def _pack_words(values: np.ndarray, width: int) -> bytes:
    """Word-parallel packing core (validated inputs, width in 1..64)."""
    cast = _CAST_DTYPES.get(width)
    if cast is not None:
        # Byte-exact fast path: the field bytes *are* the value's low
        # bytes in big-endian order, so one dtype cast emits the stream.
        return values.astype(cast).tobytes()
    count = values.size
    nbytes = (count * width + 7) // 8
    if width % 8 == 0:
        # Remaining byte-aligned widths (24/40/48/56): slice the low
        # ``width // 8`` byte columns out of the big-endian value bytes.
        k = width // 8
        return (
            values.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - k :]
        ).tobytes()
    (
        n_words,
        n_start_words,
        offset,
        boundaries,
        straddle,
        s_idx,
        s_shift,
    ) = _pack_plan(width, count)
    # Left-align each field in its own 64-bit window, shift it down to
    # its in-word position, and OR together every field starting in the
    # same word.  Fields crossing a word boundary contribute their low
    # bits to the next word in a second, conflict-free pass.
    field = values << np.uint64(64 - width)
    hi = field >> offset
    words = np.zeros(n_words, dtype=np.uint64)
    np.bitwise_or.reduceat(hi, boundaries, out=words[:n_start_words])
    if s_idx.size:
        words[s_idx] |= field[straddle] << s_shift
    return words.astype(">u8").tobytes()[:nbytes]


def pack_bits_bitmatrix(values: np.ndarray, width: int) -> bytes:
    """Reference packer: expand to an N x width bit matrix, ``packbits``.

    This is the pre-word-parallel implementation, kept as the ground
    truth for the equivalence tests and as the "before" side of the
    kernel micro-benchmarks (``alp-repro bench --kernels``).  It is
    O(N x width) in both memory traffic and work; do not call it on a
    hot path.
    """
    if width < 0 or width > 64:
        raise ValueError(f"bit width must be in [0, 64], got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if width == 0:
        if values.size and int(values.max()) != 0:
            raise ValueError("width 0 requires an all-zero array")
        return b""
    if values.size and int(values.max()) >> width:
        raise ValueError(
            f"value {int(values.max())} does not fit in {width} bits"
        )
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


@lru_cache(maxsize=1024)
def _unpack_plan(
    width: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached gather geometry: (word index, in-word offset, spill shift)."""
    starts = np.arange(count, dtype=np.uint64) * np.uint64(width)
    word_idx = (starts >> np.uint64(6)).view(np.int64)
    offset = starts & np.uint64(63)
    # A shift by 64 is undefined; mask the no-spill lanes to zero instead.
    spill_shift = (np.uint64(64) - offset) & np.uint64(63)
    return word_idx, offset, spill_shift


def unpack_bits(
    buffer: Buffer, width: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Unpack ``count`` values of ``width`` bits each from ``buffer``.

    ``buffer`` may be any C-contiguous buffer-protocol object —
    ``bytes``, ``bytearray``, a ``memoryview`` slice of an mmap, or a
    numpy byte array — and is never copied whole (non-contiguous views
    are rejected, see :func:`as_byte_buffer`).  ``out``, when given,
    must be a writable C-contiguous uint64 array of exactly ``count``
    values and receives the fields in place, so batch decoders can
    unpack straight into a caller-provided column buffer.

    The generic path pads the payload to whole 64-bit words (plus one
    spill word), views it as big-endian uint64, and reconstructs each
    field from the one or two words it straddles — two gathers plus
    shifts for *every* width, the numpy analogue of FastLanes'
    branch-free unpack kernels.  Byte-aligned widths (8/16/32/64) skip
    the word gather entirely: the stream is reinterpreted with a single
    big-endian dtype cast.  The gather geometry depends only on
    ``(width, count)`` and is cached across calls.  Multi-vector counts
    (a row-group's joined payloads) take the phase kernel of
    :func:`_unpack_phases` instead, which is bit-identical and several
    times faster there.
    """
    if width < 0 or width > 64:
        raise ValueError(f"bit width must be in [0, 64], got {width}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if out is not None:
        out = _coerce_out(out, count)
    if width == 0:
        if out is not None:
            out[...] = 0
            return out
        return np.zeros(count, dtype=np.uint64)
    buffer = as_byte_buffer(buffer)
    total_bits = count * width
    available = len(buffer) * 8
    if total_bits > available:
        raise ValueError(
            f"buffer holds {available} bits, need {total_bits} "
            f"for {count} values of width {width}"
        )
    if count == 0:
        return out if out is not None else np.zeros(0, dtype=np.uint64)
    if obs.ENABLED:
        obs.metrics.counter_add("bitpack.unpack_calls", 1)
        obs.metrics.counter_add("bitpack.unpack_values", count)
        obs.metrics.counter_add("bitpack.unpack_bytes", len(buffer))
    cast = _CAST_DTYPES.get(width)
    if cast is not None:
        fields = np.frombuffer(buffer, dtype=cast, count=count)
        if out is not None:
            out[...] = fields  # widening big-endian cast, in place
            return out
        return fields.astype(np.uint64)
    if (
        count >= _PHASE_MIN_COUNT
        and count % 8 == 0
        and width <= _PHASE_MAX_WIDTH
    ):
        return _unpack_phases(buffer, width, count, out)
    nbytes = (total_bits + 7) // 8
    padded_len = ((nbytes + 7) // 8 + 1) * 8
    padded = np.zeros(padded_len, dtype=np.uint8)
    padded[:nbytes] = np.frombuffer(buffer, dtype=np.uint8, count=nbytes)
    words = padded.view(">u8").astype(np.uint64)
    word_idx, offset, spill_shift = _unpack_plan(width, count)
    hi = words[word_idx] << offset
    lo = np.where(
        offset == 0,
        np.uint64(0),
        words[word_idx + 1] >> spill_shift,
    )
    hi |= lo
    if out is not None:
        return np.right_shift(hi, np.uint64(64 - width), out=out)
    return hi >> np.uint64(64 - width)


#: Fewest values the phase kernel unpacks; below this the word gather
#: is faster (crossover near 6k values on a 2-vCPU x86-64 VM; one
#: 1,024-value vector takes ~29 us gathered against ~58 us in phases),
#: so single ALP vectors keep the gather.
_PHASE_MIN_COUNT = 8192

#: Widest field one unaligned 64-bit load always covers: a field starts
#: at most 7 bits into its first byte, and ``7 + 57 = 64``.
_PHASE_MAX_WIDTH = 57


#: Read slack the phase kernel needs past the last payload byte.
_PHASE_SLACK = bytes(8)


def join_payloads(payloads: list[Buffer]) -> memoryview:
    """Concatenate packed payloads into one stream, plus read slack.

    Vectors of one width whose counts are multiples of 8 each fill whole
    bytes, so their joined payloads are exactly the packed stream of all
    their values; the trailing 8 zero bytes let :func:`unpack_bits` run
    the phase kernel on any suffix of the result without a padded copy.
    """
    return memoryview(b"".join([*payloads, _PHASE_SLACK]))


def batchable_prefix(counts: list[int]) -> int:
    """How many leading vectors a row-group decode can batch.

    The batch is the leading run of vectors that share one count, a
    multiple of 8 (whole bytes per vector, so payloads join into one
    stream, and a ``(vectors, count)`` grid shape).  A ragged last
    vector, or a row-group of a single vector, decodes per vector: 0 is
    returned when fewer than two vectors qualify.
    """
    first = counts[0] if counts else 0
    if first <= 0 or first % 8:
        return 0
    run = next(
        (i for i, count in enumerate(counts) if count != first), len(counts)
    )
    return run if run >= 2 else 0


def _unpack_phases(
    buffer: bytes | bytearray | memoryview,
    width: int,
    count: int,
    out: np.ndarray | None,
) -> np.ndarray:
    """Multi-vector unpack: eight strided passes instead of a gather.

    Eight consecutive fields fill exactly ``width`` bytes, so field
    ``8k + p`` starts at byte ``k*width + (p*width) // 8``, ``(p*width)
    % 8`` bits in.  For each phase ``p`` the fields ``p, p+8, p+16, ...``
    are one strided array of unaligned big-endian u64 loads (stride
    ``width`` bytes) that a single shift and mask turn into values —
    sixteen numpy calls for any count, no index arrays, written to the
    ``p``-th lane of ``out`` viewed as ``(count/8, 8)``.  The last loads
    read up to 8 bytes past the payload: a buffer without that slack is
    copied once into a padded one, and callers that join payloads for
    a batch append the slack themselves so no copy is made.
    """
    nbytes = count * width // 8
    source = np.frombuffer(buffer, dtype=np.uint8)
    if source.size < nbytes + 8:
        padded = np.zeros(nbytes + 8, dtype=np.uint8)
        padded[:nbytes] = source[:nbytes]
        source = padded
    if out is None:
        out = np.empty(count, dtype=np.uint64)
    groups = count // 8
    lanes = out.reshape(groups, 8)
    field = np.empty(groups, dtype=np.uint64)
    mask = np.uint64((1 << width) - 1)
    for phase in range(8):
        bit = phase * width
        words = np.ndarray(
            (groups,),
            dtype=">u8",
            buffer=source,
            offset=bit >> 3,
            strides=(width,),
        )
        np.right_shift(words, np.uint64(64 - width - (bit & 7)), out=field)
        np.bitwise_and(field, mask, out=lanes[:, phase])
    return out


@lru_cache(maxsize=1024)
def _sum_plan_loop(width: int, count: int) -> tuple[int, int, int]:
    """Stride, repeating field mask and modulus for the packed-sum fold.

    Picks the smallest stride ``k`` such that the sum of *all* fields
    fits strictly below the modulus ``2**(k*width) - 1`` (at most ~12
    for ALP's 1024-value vectors), and builds the periodic mask that
    isolates one stride class: ``width`` one-bits every ``k*width``
    bits, long enough to cover the whole stream.  The total-sum bound
    (rather than a per-class one) is what lets :func:`unpack_sum` add
    the aligned classes together and reduce once.  Pure arithmetic on
    ``(width, count)``, cached; the ``while`` loops here run a handful
    of iterations on integers, never over data.
    """
    k = 2
    field_max = (1 << width) - 1
    while count * field_max >= (1 << (k * width)) - 1:
        k += 1
    period = k * width
    total_bits = count * width
    mask = field_max
    covered = period
    while covered < total_bits:
        mask |= mask << covered
        covered *= 2
    return k, mask, (1 << period) - 1


def _packed_stream(buffer: Buffer, width: int, count: int) -> int:
    """The packed payload as one big-endian integer, padding stripped.

    Field ``i`` (stream order) sits at bit offset ``(count-1-i)*width``
    from the least-significant end — the exact mirror of the MSB-first
    layout :func:`pack_bits` writes.
    """
    total_bits = count * width
    available = len(buffer) * 8
    if total_bits > available:
        raise ValueError(
            f"buffer holds {available} bits, need {total_bits} "
            f"for {count} values of width {width}"
        )
    return int.from_bytes(buffer, "big") >> (available - total_bits)


def _extract_fields_loop(
    buffer: Buffer, width: int, positions: list[int]
) -> int:
    """Sum of individual fields plucked straight out of the raw bytes.

    A pinned scalar loop by design: it runs over *exception positions*
    (a handful per vector), not over the data, and each pluck touches
    only the <= 9 bytes the field straddles — O(1) per position, far
    cheaper than gathering the whole vector when the excluded set is
    sparse.
    """
    field_mask = (1 << width) - 1
    total = 0
    for position in positions:
        start_bit = position * width
        end_bit = start_bit + width
        first = start_bit >> 3
        last = (end_bit + 7) >> 3
        chunk = int.from_bytes(buffer[first:last], "big")
        total += (chunk >> ((last << 3) - end_bit)) & field_mask
    return total


def unpack_sum(buffer: Buffer, width: int, count: int) -> int:
    """Exact integer sum of ``count`` packed ``width``-bit fields.

    The late-materialization kernel under encoded-domain SUM — and the
    one place the packed stream is *not* unpacked at all.  The payload
    is read as a single arbitrary-precision integer and folded modulo
    ``2**(k*width) - 1``: because ``2**(k*width) ≡ 1`` under that
    modulus, every field whose bit offset is a multiple of ``k*width``
    contributes its value directly to the residue.  The ``k`` stride
    classes are aligned by shifting, masked, and *added together* before
    a single reduction — safe, because each mask block is followed by a
    ``(k-1)*width``-bit zero gap and ``k`` is chosen so even the total
    sum stays below the modulus, so block sums can never carry into a
    neighbouring block.  The whole kernel is ``k`` shift+mask passes,
    one add chain and one ``%`` over the raw bytes — no per-value
    gather, no uint64 column, no float conversion.

    The fold walks the full bit stream, so its cost grows with
    ``count * width`` while the word-gather of :func:`unpack_bits` is
    O(count) regardless of width — past :data:`_FOLD_MAX_WIDTH` (and
    for the byte-aligned widths, whose gather is a single dtype cast)
    the kernel switches to gather + a bounded uint64 reduction.
    """
    if width < 0 or width > 64:
        raise ValueError(f"bit width must be in [0, 64], got {width}")
    if count < 0:
        raise ValueError("count must be non-negative")
    if obs.ENABLED:
        obs.metrics.counter_add("bitpack.unpack_sum_calls", 1)
    if width == 0 or count == 0:
        return 0
    buffer = as_byte_buffer(buffer)
    if width > _FOLD_MAX_WIDTH or width in _CAST_DTYPES:
        return uint64_sum_bounded(unpack_bits(buffer, width, count), width)
    stream = _packed_stream(buffer, width, count)
    return _fold_packed_sum(stream, width, count)


def _fold_packed_sum(stream: int, width: int, count: int) -> int:
    """The modular fold of :func:`unpack_sum` on an already-built stream."""
    stride, mask, modulus = _sum_plan_loop(width, count)
    folded = stream & mask
    for shift in range(1, stride):
        folded += (stream >> (shift * width)) & mask
    return folded % modulus


#: Widest field the modular fold beats the word gather for.  The fold's
#: cost is proportional to total stream bits, the gather's to the value
#: count alone, and the crossover sits just under two bytes per field.
_FOLD_MAX_WIDTH = 15

#: Above this many excluded positions the per-position byte pluck of
#: :func:`unpack_sum_excluding` loses to one vectorized gather.
_EXCLUDE_PLUCK_LIMIT = 48


def unpack_sum_excluding(
    buffer: Buffer, width: int, count: int, positions: np.ndarray
) -> int:
    """Exact sum of the packed fields with ``positions`` omitted.

    The sparse-correction shape of encoded-domain SUM: ALP exception
    slots hold placeholder payloads, so their fields must not reach the
    total.  For a sparse excluded set the fold of :func:`unpack_sum`
    runs unchanged and the few excluded fields are plucked straight out
    of the payload bytes; in the gather regime (wide fields, or more
    than :data:`_EXCLUDE_PLUCK_LIMIT` positions) the vector is gathered
    *once* and both the total and the excluded slots reduce from the
    same uint64 array.
    """
    if positions.size == 0:
        return unpack_sum(buffer, width, count)
    if width == 0 or count == 0:
        return 0
    buffer = as_byte_buffer(buffer)
    folds = width <= _FOLD_MAX_WIDTH and width not in _CAST_DTYPES
    if folds and int(positions.size) <= _EXCLUDE_PLUCK_LIMIT:
        return unpack_sum(buffer, width, count) - _extract_fields_loop(
            buffer, width, positions.tolist()
        )
    if obs.ENABLED:
        obs.metrics.counter_add("bitpack.unpack_sum_calls", 1)
    fields = unpack_bits(buffer, width, count)
    total = uint64_sum_bounded(fields, width)
    excluded = uint64_sum_bounded(
        fields[positions.astype(np.int64)], width
    )
    return total - excluded


def unpack_sum_reference(buffer: Buffer, width: int, count: int) -> int:
    """Scalar oracle for :func:`unpack_sum` (bit-identical, per value)."""
    fields = unpack_bits(buffer, width, count)
    total = 0
    for value in fields.tolist():
        total += value
    return total


def exact_uint64_sum(values: np.ndarray) -> int:
    """Exact sum of a uint64 array as a Python int (no wraparound).

    Splits each value into 32-bit halves; each half's partial sum fits a
    uint64 for any array shorter than 2**32 values, so two vectorized
    reductions plus one Python-int recombination give the exact total.
    """
    if values.size == 0:
        return 0
    if values.size >= 1 << 32:
        raise ValueError("exact_uint64_sum supports < 2**32 values")
    lo = int((values & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
    hi = int((values >> np.uint64(32)).sum(dtype=np.uint64))
    return (hi << 32) + lo


def uint64_sum_bounded(values: np.ndarray, width: int) -> int:
    """Exact sum of uint64 values known to be ``< 2**width`` each.

    When ``width + ceil(log2(n))`` fits in 64 bits the total cannot
    wrap, so a single vectorized uint64 reduction is exact — one pass
    instead of the split-sum's two.  Wider values fall back to
    :func:`exact_uint64_sum`.
    """
    if values.size == 0:
        return 0
    if width + int(values.size).bit_length() <= 64:
        return int(values.sum(dtype=np.uint64))
    return exact_uint64_sum(values)


def packed_size_bytes(count: int, width: int) -> int:
    """Byte size of ``count`` packed values of ``width`` bits."""
    return (count * width + 7) // 8
