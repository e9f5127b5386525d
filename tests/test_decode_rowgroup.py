"""Row-group-at-a-time decode: bit-identical to the per-vector reference.

The batched decoders (:func:`repro.core.alp.alp_decode_rowgroup`,
:func:`repro.core.alprd.alprd_decode`) and the multi-vector phase path
of :func:`repro.encodings.bitpack.unpack_bits` must reproduce the
per-vector decode exactly — compared as ``uint64`` bit patterns, so
NaN payloads and signed zeros count — and must reject a malformed
vector before joining it with its neighbours.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alp import (
    AlpVector,
    alp_decode_rowgroup,
    alp_decode_vector,
)
from repro.core.alprd import (
    AlpRdRowGroup,
    alprd_decode,
    alprd_encode,
    decode_vector_bits,
)
from repro.core.compressor import (
    compress,
    decode_rowgroup_into,
    decompress,
    decompress_parallel,
)
from repro.core.constants import MAX_EXPONENT
from repro.encodings import bitpack
from repro.encodings.ffor import FforEncoded
from repro.storage.columnfile import ColumnFileReader, ColumnFileWriter

#: Widths the decode must cover: every width, the cast widths called
#: out, and the phase kernel's boundary.
_WIDTHS = st.one_of(
    st.sampled_from([0, 8, 16, 32, 57, 58, 64]), st.integers(0, 64)
)
#: Exception values: NaN (default and odd payload — only a bitwise
#: compare tells them apart), signed zeros, infinities, a subnormal.
_SPECIALS = np.array(
    [0x7FF8000000000000, 0x7FF0000000000123, 1 << 63, 0, 0x7FF0 << 48,
     0xFFF0 << 48, 1, 0x3FF8 << 48],
    dtype=np.uint64,
).view(np.float64)


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


@st.composite
def alp_vectors(draw, count: int) -> AlpVector:
    width = draw(_WIDTHS)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    high = np.uint64((1 << width) - 1) if width else np.uint64(0)
    residuals = rng.integers(0, high, count, dtype=np.uint64, endpoint=True)
    n_exc = draw(st.integers(0, min(count, 12)))
    positions = np.sort(rng.choice(count, n_exc, replace=False)).astype(np.uint16)
    return AlpVector(
        ffor=FforEncoded(
            payload=bitpack.pack_bits(residuals, width),
            reference=draw(st.integers(-(2**63), 2**63 - 1)),
            bit_width=width,
            count=count,
        ),
        exponent=draw(st.integers(0, MAX_EXPONENT)),
        factor=draw(st.integers(0, MAX_EXPONENT)),
        exc_values=rng.choice(_SPECIALS, n_exc),
        exc_positions=positions,
        count=count,
    )


@st.composite
def alp_rowgroups(draw) -> list[AlpVector]:
    count = draw(st.sampled_from([8, 64, 1024]))
    vectors = draw(st.lists(alp_vectors(count), min_size=1, max_size=12))
    tail = draw(st.sampled_from([None, 1, 7, 13, count]))
    if tail is not None:
        vectors.append(draw(alp_vectors(tail)))
    return vectors


def _reference(vectors: list[AlpVector]) -> np.ndarray:
    return np.concatenate([alp_decode_vector(v) for v in vectors])


class TestAlpRowGroupDecode:
    @settings(max_examples=60, deadline=None)
    @given(alp_rowgroups(), st.integers(0, 5))
    def test_bit_identical_to_per_vector(self, vectors, margin):
        want = _reference(vectors)
        # Decode into a slice of a larger buffer: neighbours untouched.
        buffer = np.full(want.size + 2 * margin, 7.0)
        out = buffer[margin : margin + want.size]
        alp_decode_rowgroup(vectors, out)
        np.testing.assert_array_equal(_bits(out), _bits(want))
        assert (buffer[:margin] == 7.0).all()
        assert (buffer[margin + want.size :] == 7.0).all()

    def test_every_width_in_one_rowgroup(self):
        rng = np.random.default_rng(3)
        vectors = []
        for width in rng.permutation(65):
            high = np.uint64((1 << int(width)) - 1) if width else np.uint64(0)
            residuals = rng.integers(0, high, 1024, dtype=np.uint64, endpoint=True)
            vectors.append(
                AlpVector(
                    ffor=FforEncoded(
                        payload=bitpack.pack_bits(residuals, int(width)),
                        reference=int(rng.integers(-(2**40), 2**40)),
                        bit_width=int(width),
                        count=1024,
                    ),
                    exponent=int(rng.integers(0, 15)),
                    factor=int(rng.integers(0, 5)),
                    exc_values=np.array([np.nan, -0.0]),
                    exc_positions=np.array([3, 1000], dtype=np.uint16),
                    count=1024,
                )
            )
        out = np.empty(65 * 1024)
        alp_decode_rowgroup(vectors, out)
        np.testing.assert_array_equal(_bits(out), _bits(_reference(vectors)))


def _tampered(vector: AlpVector, **changes) -> AlpVector:
    fields = dict(
        ffor=vector.ffor,
        exponent=vector.exponent,
        factor=vector.factor,
        exc_values=vector.exc_values,
        exc_positions=vector.exc_positions,
        count=vector.count,
    )
    fields.update(changes)
    return AlpVector(**fields)


class TestMalformedVectorsRejected:
    @pytest.fixture()
    def vectors(self) -> list[AlpVector]:
        values = np.round(np.random.default_rng(0).normal(20, 5, 4096), 2)
        values[[5, 2000]] = [np.nan, np.inf]
        rowgroup = compress(values).rowgroups[0]
        assert rowgroup.alp is not None
        return list(rowgroup.alp.vectors)

    def _decode(self, vectors: list[AlpVector]) -> None:
        alp_decode_rowgroup(vectors, np.empty(sum(v.count for v in vectors)))

    def test_long_payload(self, vectors):
        ffor = vectors[1].ffor
        vectors[1] = _tampered(
            vectors[1],
            ffor=FforEncoded(
                payload=bytes(ffor.payload) + b"\0",
                reference=ffor.reference,
                bit_width=ffor.bit_width,
                count=ffor.count,
            ),
        )
        with pytest.raises(ValueError, match="payload length"):
            self._decode(vectors)

    def test_short_payload(self, vectors):
        ffor = vectors[0].ffor
        vectors[0] = _tampered(
            vectors[0],
            ffor=FforEncoded(
                payload=bytes(ffor.payload)[:-1],
                reference=ffor.reference,
                bit_width=ffor.bit_width,
                count=ffor.count,
            ),
        )
        with pytest.raises(ValueError, match="payload length"):
            self._decode(vectors)

    def test_width_over_64(self, vectors):
        vectors[2] = _tampered(
            vectors[2],
            ffor=FforEncoded(
                payload=bytes(65 * 128),
                reference=0,
                bit_width=65,
                count=1024,
            ),
        )
        with pytest.raises(ValueError, match="bit width"):
            self._decode(vectors)

    def test_exception_position_past_count(self, vectors):
        vectors[0] = _tampered(
            vectors[0],
            exc_positions=np.array([1024], dtype=np.uint16),
            exc_values=np.array([1.0]),
        )
        with pytest.raises(ValueError, match="exception position"):
            self._decode(vectors)

    def test_count_mismatch(self, vectors):
        with pytest.raises(ValueError, match="row-group says"):
            alp_decode_rowgroup(vectors, np.empty(4095))

    def test_ragged_tail_damage_also_rejected(self, vectors):
        tail = vectors[-1]
        vectors[-1] = _tampered(
            tail,
            exc_positions=np.array([tail.count + 3], dtype=np.uint16),
            exc_values=np.array([1.0]),
        )
        with pytest.raises(ValueError, match="exception position"):
            self._decode(vectors)


class TestAlpRdRowGroupDecode:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 5 * 1024 + 9),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.2),
    )
    def test_bit_identical_to_per_vector(self, n, seed, special_share):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-180, 180, n)
        specials = rng.random(n) < special_share
        values[specials] = rng.choice(_SPECIALS, int(specials.sum()))
        rowgroup = alprd_encode(values)
        want = np.concatenate(
            [decode_vector_bits(v, rowgroup.parameters) for v in rowgroup.vectors]
        )
        buffer = np.full(n + 4, 3.0)
        got = alprd_decode(rowgroup, out=buffer[2 : 2 + n])
        np.testing.assert_array_equal(_bits(got), want)
        np.testing.assert_array_equal(_bits(got), _bits(values))
        assert (buffer[:2] == 3.0).all() and (buffer[-2:] == 3.0).all()

    def test_code_outside_dictionary_rejected(self):
        values = np.random.default_rng(1).uniform(-180, 180, 4096)
        rowgroup = alprd_encode(values)
        params = rowgroup.parameters
        # Keep the code width but drop the entries the codes point at.
        width = params.dictionary.code_width
        assert width > 0
        small = type(params.dictionary)(
            entries=params.dictionary.entries[:1], code_width=width
        )
        broken = AlpRdRowGroup(
            parameters=type(params)(
                right_bit_width=params.right_bit_width,
                dictionary=small,
                total_bits=params.total_bits,
            ),
            vectors=rowgroup.vectors,
            count=rowgroup.count,
        )
        codes = bitpack.unpack_bits(
            b"".join(v.left_payload for v in rowgroup.vectors), width, 4096
        )
        if int(codes.max()) == 0:
            pytest.skip("every value hit dictionary entry 0")
        with pytest.raises(IndexError):
            alprd_decode(broken)


class TestPhaseUnpack:
    @pytest.mark.parametrize("width", range(65))
    def test_matches_word_gather_at_multi_vector_counts(self, width):
        rng = np.random.default_rng(width)
        count = 10 * 1024
        high = np.uint64((1 << width) - 1) if width else np.uint64(0)
        values = rng.integers(0, high, count, dtype=np.uint64, endpoint=True)
        packed = bitpack.pack_bits(values, width)
        chunk = len(packed) // 10
        # Each 1,024-value unpack is below the phase cutoff: word gather.
        gathered = np.concatenate(
            [
                bitpack.unpack_bits(packed[i * chunk : (i + 1) * chunk], width, 1024)
                for i in range(10)
            ]
        )
        out = np.empty(count + 2, dtype=np.uint64)
        whole = bitpack.unpack_bits(
            memoryview(packed), width, count, out=out[1:-1]
        )
        np.testing.assert_array_equal(whole, gathered)
        np.testing.assert_array_equal(whole, values)

    def test_joined_payloads_unpack_as_one_stream(self):
        rng = np.random.default_rng(9)
        parts = [
            bitpack.pack_bits(rng.integers(0, 2**13, 1024, dtype=np.uint64), 13)
            for _ in range(9)
        ]
        stream = bitpack.join_payloads(parts)
        assert len(stream) == sum(map(len, parts)) + 8
        got = bitpack.unpack_bits(stream, 13, 9 * 1024)
        want = np.concatenate([bitpack.unpack_bits(p, 13, 1024) for p in parts])
        np.testing.assert_array_equal(got, want)

    def test_batchable_prefix(self):
        assert bitpack.batchable_prefix([1024] * 100) == 100
        assert bitpack.batchable_prefix([1024] * 99 + [17]) == 99
        assert bitpack.batchable_prefix([1024]) == 0
        assert bitpack.batchable_prefix([1000, 1000]) == 2
        assert bitpack.batchable_prefix([1001, 1001]) == 0
        assert bitpack.batchable_prefix([]) == 0


class TestColumnDecode:
    @pytest.fixture(scope="class")
    def values(self) -> np.ndarray:
        rng = np.random.default_rng(5)
        decimals = np.round(rng.normal(15, 8, 3 * 102_400 - 517), 1)
        decimals[rng.choice(decimals.size, 300, replace=False)] = rng.choice(
            _SPECIALS, 300
        )
        doubles = rng.uniform(0, 1, 102_400 + 77)
        return np.concatenate([decimals, doubles])

    def test_decompress_paths_agree(self, values):
        column = compress(values)
        assert {rg.scheme for rg in column.rowgroups} == {"alp", "alprd"}
        want = _bits(values)
        np.testing.assert_array_equal(_bits(decompress(column)), want)
        out = np.empty(values.size + 3)
        decompress_parallel(column, threads=2, out=out[3:])
        np.testing.assert_array_equal(_bits(out[3:]), want)

    def test_mmap_payloads(self, values, tmp_path):
        path = tmp_path / "mixed.alpc"
        with ColumnFileWriter(path) as writer:
            writer.write_values(values)
        with ColumnFileReader(path, mmap=True) as reader:
            pos = 0
            for index in range(reader.rowgroup_count):
                rowgroup = reader.read_rowgroup_compressed(index)
                payloads = (
                    [v.ffor.payload for v in rowgroup.alp.vectors]
                    if rowgroup.alp is not None
                    else [v.right_payload for v in rowgroup.rd.vectors]
                )
                assert all(isinstance(p, memoryview) for p in payloads)
                out = np.empty(rowgroup.count)
                decode_rowgroup_into(rowgroup, out)
                want = values[pos : pos + rowgroup.count]
                np.testing.assert_array_equal(_bits(out), _bits(want))
                pos += rowgroup.count
                del rowgroup, payloads
            assert pos == values.size
