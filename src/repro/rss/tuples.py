"""Byte-level tuple serialization.

A stored tuple is a contiguous byte record inside a slotted page:

====================  =====================================================
bytes                 meaning
====================  =====================================================
``u16``               relation id (segments interleave relations, so every
                      record is tagged with the relation it belongs to)
``ceil(ncols/8)``     null bitmap, bit *i* set when column *i* is NULL
per column            8-byte big-endian signed int / IEEE double, or a
                      2-byte length followed by UTF-8 bytes for VARCHAR
====================  =====================================================

NULL columns occupy no payload bytes beyond their bitmap bit.
"""

from __future__ import annotations

import struct

from ..datatypes import DataType, TypeKind
from ..errors import StorageError

_U16 = struct.Struct(">H")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


def encode_tuple(relation_id: int, values: tuple, datatypes: list[DataType]) -> bytes:
    """Serialize ``values`` (already validated) into a page record."""
    if len(values) != len(datatypes):
        raise StorageError(
            f"tuple has {len(values)} values but schema has {len(datatypes)}"
        )
    bitmap_size = (len(datatypes) + 7) // 8
    bitmap = bytearray(bitmap_size)
    parts: list[bytes] = []
    for position, (value, datatype) in enumerate(zip(values, datatypes)):
        if value is None:
            bitmap[position // 8] |= 1 << (position % 8)
            continue
        if datatype.kind is TypeKind.INTEGER:
            parts.append(_I64.pack(value))
        elif datatype.kind is TypeKind.FLOAT:
            parts.append(_F64.pack(value))
        else:
            raw = value.encode("utf-8")
            parts.append(_U16.pack(len(raw)))
            parts.append(raw)
    return _U16.pack(relation_id) + bytes(bitmap) + b"".join(parts)


def decode_tuple(record: bytes, datatypes: list[DataType]) -> tuple:
    """Deserialize a page record produced by :func:`encode_tuple`.

    The caller is expected to have matched the relation id already (use
    :func:`record_relation_id` for that); this returns only column values.
    """
    bitmap_size = (len(datatypes) + 7) // 8
    offset = 2 + bitmap_size
    bitmap = record[2 : 2 + bitmap_size]
    values: list[object] = []
    for position, datatype in enumerate(datatypes):
        if bitmap[position // 8] & (1 << (position % 8)):
            values.append(None)
            continue
        if datatype.kind is TypeKind.INTEGER:
            values.append(_I64.unpack_from(record, offset)[0])
            offset += 8
        elif datatype.kind is TypeKind.FLOAT:
            values.append(_F64.unpack_from(record, offset)[0])
            offset += 8
        else:
            (length,) = _U16.unpack_from(record, offset)
            offset += 2
            values.append(record[offset : offset + length].decode("utf-8"))
            offset += length
    return tuple(values)


class DecodePlan:
    """A precompiled decoder for one relation's schema.

    :func:`decode_tuple` re-derives the bitmap size, base offset, and
    per-column type dispatch for every record; a scan decodes thousands of
    records against one schema, so this plan hoists all of that out of the
    per-record path:

    - schemas with no VARCHAR column have fixed payload offsets, so a
      NULL-free record decodes with a single precompiled
      :class:`struct.Struct` unpack (:attr:`fixed`);
    - otherwise a precomputed per-column kind list drives a loop with no
      type-dispatch branching beyond one integer compare.

    :meth:`decode` reads a record where it lies — at any offset of any
    buffer, a page's bytes included — so a scan never copies a record out
    first.  Output is byte-for-byte equivalent to :func:`decode_tuple`
    (gated by ``tests/test_decode_plan.py``).
    """

    __slots__ = (
        "datatypes", "bitmap_size", "base_offset", "fixed", "_kinds", "_no_null"
    )

    #: per-column kind codes used by the decode loop
    _INT, _FLOAT, _STR = 0, 1, 2

    def __init__(self, datatypes: list[DataType]):
        self.datatypes = list(datatypes)
        self.bitmap_size = (len(self.datatypes) + 7) // 8
        self.base_offset = 2 + self.bitmap_size
        self._no_null = bytes(self.bitmap_size)
        kinds: list[int] = []
        for datatype in self.datatypes:
            if datatype.kind is TypeKind.INTEGER:
                kinds.append(self._INT)
            elif datatype.kind is TypeKind.FLOAT:
                kinds.append(self._FLOAT)
            else:
                kinds.append(self._STR)
        self._kinds = tuple(kinds)
        #: The whole payload of a NULL-free record as one unpack, when the
        #: schema has no VARCHAR column; ``None`` otherwise.
        self.fixed: struct.Struct | None = None
        if self._STR not in self._kinds:
            fmt = ">" + "".join("q" if k == self._INT else "d" for k in self._kinds)
            self.fixed = struct.Struct(fmt)

    def null_free_prefix(self, relation_id: int) -> bytes:
        """The leading bytes of every NULL-free record of ``relation_id``:
        its relation id followed by an all-zero null bitmap."""
        return _U16.pack(relation_id) + self._no_null

    def decode(self, record: bytes | bytearray, start: int = 0) -> tuple:
        """Deserialize the record starting at ``record[start]``; equivalent
        to :func:`decode_tuple` on that record's bytes."""
        offset = start + self.base_offset
        if record.startswith(self._no_null, start + 2):
            if self.fixed is not None:
                return self.fixed.unpack_from(record, offset)
            values: list[object] = []
            for kind in self._kinds:
                if kind == self._INT:
                    values.append(_I64.unpack_from(record, offset)[0])
                    offset += 8
                elif kind == self._FLOAT:
                    values.append(_F64.unpack_from(record, offset)[0])
                    offset += 8
                else:
                    (length,) = _U16.unpack_from(record, offset)
                    offset += 2
                    values.append(record[offset : offset + length].decode("utf-8"))
                    offset += length
            return tuple(values)
        bitmap = record[start + 2 : start + self.base_offset]
        values = []
        for position, kind in enumerate(self._kinds):
            if bitmap[position // 8] & (1 << (position % 8)):
                values.append(None)
            elif kind == self._INT:
                values.append(_I64.unpack_from(record, offset)[0])
                offset += 8
            elif kind == self._FLOAT:
                values.append(_F64.unpack_from(record, offset)[0])
                offset += 8
            else:
                (length,) = _U16.unpack_from(record, offset)
                offset += 2
                values.append(record[offset : offset + length].decode("utf-8"))
                offset += length
        return tuple(values)


def record_relation_id(record: bytes) -> int:
    """The relation id tag at the front of a stored record."""
    return _U16.unpack_from(record, 0)[0]


def max_record_size(datatypes: list[DataType]) -> int:
    """Worst-case record size for a schema; used to reject impossible tuples."""
    bitmap_size = (len(datatypes) + 7) // 8
    return 2 + bitmap_size + sum(datatype.max_encoded_size() for datatype in datatypes)
