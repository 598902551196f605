"""DecodePlan and compiled SARG matchers ≡ their reference counterparts.

:class:`repro.rss.tuples.DecodePlan` precomputes the null-bitmap geometry
(and an all-fixed ``struct`` unpack when the schema has no VARCHAR); it must
decode every record byte-for-byte like :func:`repro.rss.tuples.decode_tuple`.
Likewise the generated SARG predicates (:func:`repro.rss.sargs.sarg_program`,
and :func:`repro.rss.sargs.compile_matcher` on top of it) must accept
exactly the tuples :meth:`Sargs.matches` accepts — in both the typed and
the reference form, including NULL values and NULL constants, NaN, mixed
int/float, ``bool`` constants, IN sets with duplicates and empty groups —
and raise :class:`SemanticError` exactly where the reference does.
Batched scans must yield the same tuples in the same order as
tuple-at-a-time iteration, with identical counters.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog
from repro.datatypes import FLOAT, INTEGER, varchar
from repro.errors import SemanticError
from repro.rss import StorageEngine
from repro.rss.sargs import (
    CompareOp,
    SargPredicate,
    Sargs,
    column_kind,
    compile_matcher,
    sarg_program,
)
from repro.rss.tuples import DecodePlan, decode_tuple, encode_tuple

MIXED_SCHEMA = [INTEGER, varchar(20), FLOAT]
FIXED_SCHEMA = [INTEGER, FLOAT, INTEGER]


class TestDecodePlan:
    @pytest.mark.parametrize("schema", [MIXED_SCHEMA, FIXED_SCHEMA])
    def test_matches_reference_on_null_patterns(self, schema):
        plan = DecodePlan(schema)
        base = {
            INTEGER: -(2**60),
            FLOAT: 3.25,
        }
        for pattern in itertools.product((True, False), repeat=len(schema)):
            values = tuple(
                (base.get(dt, "héllo") if keep else None)
                for keep, dt in zip(pattern, schema)
            )
            record = encode_tuple(9, values, schema)
            assert plan.decode(record) == decode_tuple(record, schema)

    def test_wide_bitmap(self):
        schema = [INTEGER] * 20
        plan = DecodePlan(schema)
        values = tuple(i if i % 3 else None for i in range(20))
        record = encode_tuple(1, values, schema)
        assert plan.decode(record) == decode_tuple(record, schema) == values

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.none() | st.integers(-(2**62), 2**62),
        s=st.none() | st.text(max_size=20),
        f=st.none() | st.floats(allow_nan=False, width=32),
    )
    def test_random_values_roundtrip(self, a, s, f):
        record = encode_tuple(5, (a, s, f), MIXED_SCHEMA)
        plan = DecodePlan(MIXED_SCHEMA)
        assert plan.decode(record) == decode_tuple(record, MIXED_SCHEMA)


_PROBE_TUPLES = [
    (k, name, g)
    for k in (None, -5, 0, 3, 7, 10)
    for name, g in ((None, None), ("n3", 3), ("zz", 8), ("", 0))
]

_SARG_CASES = [
    Sargs(),  # empty: matches everything
    Sargs.conjunction([SargPredicate(0, CompareOp.EQ, 3)]),
    Sargs.conjunction([SargPredicate(0, CompareOp.EQ, None)]),  # reject all
    Sargs.conjunction(
        [SargPredicate(0, CompareOp.GE, 0), SargPredicate(2, CompareOp.LT, 5)]
    ),
    Sargs(
        [
            [SargPredicate(0, CompareOp.LT, 0)],
            [SargPredicate(2, CompareOp.GE, 8)],
        ]
    ),
    Sargs.conjunction([SargPredicate(1, CompareOp.NE, "n3")]),
    Sargs.conjunction([SargPredicate(1, CompareOp.GT, "")]),
]


class TestCompiledMatchers:
    @pytest.mark.parametrize("sargs", _SARG_CASES)
    def test_matcher_agrees_with_sargs(self, sargs):
        datatypes = [INTEGER, varchar(12), INTEGER]
        matcher = compile_matcher(sargs, datatypes)
        for values in _PROBE_TUPLES:
            expected = sargs.matches(values)
            got = expected if matcher is None else matcher(values)
            assert got == expected, (sargs.groups, values)

    def test_vacuous_sargs_compile_to_none(self):
        assert compile_matcher(Sargs(), [INTEGER]) is None

    @pytest.mark.parametrize("op", list(CompareOp))
    def test_factory_agrees_with_op_evaluate(self, op):
        program = sarg_program(((((1, op, column_kind(INTEGER)),),),))
        for constant in (None, -1, 0, 4):
            matcher = program.bind([constant])
            for probe in (None, -1, 0, 4, 9):
                values = ("pad", probe)
                expected = (
                    probe is not None
                    and constant is not None
                    and op.evaluate(probe, constant)
                )
                assert matcher(values) == expected

    def test_family_mismatch_falls_back(self):
        # A numeric constant against a VARCHAR family must still evaluate
        # through CompareOp (the typed form requires matching families).
        program = sarg_program(((((0, CompareOp.LT, column_kind(varchar(8))),),),))
        matcher = program.bind([5])
        assert matcher((4,)) is True
        assert matcher((9,)) is False


# Columns of every kind; stored values always belong to their column's
# family, constants may not (a mismatch must raise like the reference).
_SCHEMA = [INTEGER, FLOAT, varchar(8), INTEGER]
_KINDS = [column_kind(datatype) for datatype in _SCHEMA]

_INTS = st.integers(-3, 3)
_FLOATS = st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.5, float("nan"), float("inf")])
_STRS = st.sampled_from(["", "a", "b", "ab"])
_STORED = [_INTS, _FLOATS | _INTS.map(float), _STRS, _INTS]
_ROWS = st.tuples(*(st.none() | values for values in _STORED))
_CONSTANTS = st.one_of(
    _INTS, _INTS, _FLOATS, _STRS, _STRS, st.none(), st.booleans()
)


@st.composite
def _predicates(draw):
    position = draw(st.integers(0, len(_SCHEMA) - 1))
    op = draw(st.sampled_from(list(CompareOp)))
    return SargPredicate(position, op, draw(_CONSTANTS))


@st.composite
def _in_lists(draw):
    """One IN list as the planner emits it: single-equality groups on one
    column, constants drawn from a small pool so duplicates occur."""
    position = draw(st.integers(0, len(_SCHEMA) - 1))
    pool = _STRS if _KINDS[position] == "str" else _INTS
    values = draw(st.lists(pool | st.none() | _CONSTANTS, min_size=2, max_size=5))
    return [[SargPredicate(position, CompareOp.EQ, value)] for value in values]


_GROUPS = st.lists(st.lists(_predicates(), max_size=3), max_size=3)
_PARTS = st.lists(_GROUPS | _in_lists(), max_size=3)


def _shape(parts):
    return tuple(
        tuple(
            tuple((p.column_position, p.op, _KINDS[p.column_position]) for p in group)
            for group in groups
        )
        for groups in parts
    )


def _outcome(test, values):
    try:
        return test(values)
    except SemanticError:
        return SemanticError


class TestGeneratedPredicate:
    """One generated predicate per shape ≡ an AND of ``Sargs.matches``."""

    @settings(max_examples=400, deadline=None)
    @given(parts=_PARTS, rows=st.lists(_ROWS, min_size=1, max_size=8))
    def test_both_forms_equal_the_reference(self, parts, rows):
        constants = [p.value for groups in parts for group in groups for p in group]

        def reference(values):
            return all(Sargs(groups).matches(values) for groups in parts)

        for typed in (True, False):
            matcher = sarg_program(_shape(parts), typed).bind(constants)
            for values in rows:
                expected = _outcome(reference, values)
                got = True if matcher is None else _outcome(matcher, values)
                assert got == expected, (typed, parts, values)

    def test_int_and_str_in_lists_are_set_tests(self):
        for position in (0, 2):
            kind = _KINDS[position]
            part = tuple(((position, CompareOp.EQ, kind),) for __ in range(3))
            assert f"v{position} in s0" in sarg_program((part,)).source
        # A FLOAT column keeps the comparison chain (NaN equals everything
        # under the three-way compare, which a set would not reproduce).
        part = tuple(((1, CompareOp.EQ, "float"),) for __ in range(3))
        assert "frozenset" not in sarg_program((part,)).source

    def test_in_set_with_duplicates(self):
        part = tuple(((0, CompareOp.EQ, "int"),) for __ in range(4))
        matcher = sarg_program((part,)).bind([3, 3, -1, 3])
        assert [matcher((v, None, None, None)) for v in (None, -1, 0, 3)] == [
            False, True, False, True
        ]

    def test_in_set_with_an_ineligible_constant_takes_the_reference(self):
        part = tuple(((0, CompareOp.EQ, "int"),) for __ in range(3))
        program = sarg_program((part,))
        for constants in ([1, None, 2], [1, 2.0, 2], [1, True, 2]):
            matcher = program.bind(constants)
            for v in (None, 0, 1, 2):
                values = (v, None, None, None)
                expected = any(
                    CompareOp.EQ.evaluate(v, constant) for constant in constants
                )
                assert matcher(values) == expected

    def test_family_mismatch_raises_like_the_reference(self):
        program = sarg_program(((((2, CompareOp.EQ, "str"),),),))
        matcher = program.bind([5])
        assert matcher((None, None, None, None)) is False
        with pytest.raises(SemanticError):
            matcher((None, None, "a", None))

    def test_empty_groups_and_parts_are_vacuous(self):
        assert sarg_program(((),)).bind([]) is None
        assert sarg_program((((),),)).bind([]) is None
        # Groups after an empty group are never evaluated, so a mismatched
        # constant there cannot raise; the live part still filters.
        shape = (((), ((0, CompareOp.LT, "int"),)), (((0, CompareOp.GT, "int"),),))
        matcher = sarg_program(shape).bind(["x", 0])
        assert matcher((1, None, None, None)) is True
        assert matcher((0, None, None, None)) is False
        # Groups before it are, exactly as in ``Sargs.matches``.
        shape = ((((0, CompareOp.LT, "int"),), ()),)
        matcher = sarg_program(shape).bind(["x"])
        with pytest.raises(SemanticError):
            matcher((1, None, None, None))
        assert matcher((None, None, None, None)) is True

    def test_constants_never_enter_the_source(self):
        marker = "'); import os  # "
        shape = ((((2, CompareOp.EQ, "str"),), ((2, CompareOp.EQ, "str"),)),)
        program = sarg_program(shape)
        matcher = program.bind([marker, "b"])
        assert marker not in program.source
        assert matcher((None, None, marker, None)) is True


@pytest.fixture
def loaded():
    catalog = Catalog()
    table = catalog.create_table(
        "T", [("K", INTEGER), ("NAME", varchar(12)), ("G", INTEGER)]
    )
    engine = StorageEngine(buffer_pages=16)
    engine.ensure_segment(table.segment_name)
    index = catalog.create_index("T_K", "T", ["K"])
    engine.create_index(index, table)
    for i in range(200):
        engine.insert(table, [index], (i, f"n{i}", i % 8))
    return table, index, engine


class TestBatchedScans:
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_segment_batches_flatten_to_same_stream(self, loaded, batch_size):
        table, __, engine = loaded
        reference = list(engine.segment_scan(table))
        got = list(engine.segment_scan(table, batch_size=batch_size))
        assert got == reference

    def test_segment_batch_boundaries_are_page_aligned_chunks(self, loaded):
        table, __, engine = loaded
        batches = list(engine.segment_scan(table, batch_size=16).batches())
        assert sum(len(batch) for batch in batches) == 200
        assert all(len(batch) >= 16 for batch in batches[:-1])

    def test_index_scan_default_batch_matches_reference_counters(self, loaded):
        table, index, engine = loaded
        engine.counters.reset()
        engine.cold_cache()
        rows = list(engine.index_scan(index, table, low=(20,), high=(60,)))
        counted = engine.counters.snapshot()
        assert [values[0] for __, values in rows] == list(range(20, 61))
        assert counted.rsi_calls == 41

    def test_counters_count_consumed_tuples_lazily(self, loaded):
        table, __, engine = loaded
        engine.counters.reset()
        scan = engine.segment_scan(table, batch_size=32)
        iterator = iter(scan)
        for __ in range(10):
            next(iterator)
        # Only consumed tuples cross the RSI, batching notwithstanding.
        assert engine.counters.rsi_calls == 10
