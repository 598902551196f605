"""The fault matrix: every registered point, at several hits, both actions.

For each registered fault point this drives a mixed DML workload against a
durable database and fails at the Nth hit of the point.  Whatever the layer
and instant of the failure, the contract is the same:

- ``error`` — the statement rolls back completely: the live store equals the
  last pre-statement state, the invariant checker finds nothing, and the
  remaining workload (including a retry of the failed statement) runs clean.
- ``crash`` — the raised :class:`SimulatedCrash` carries a snapshot of the
  backing files at the instant of failure; restoring and re-opening it
  recovers exactly the last committed state.

Either way: a statement commits in full or leaves no trace — never a
partial effect.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.storage_check import logical_dump, verify_storage
from repro.database import Database
from repro.errors import SimulatedCrash, StorageError
from repro.rss.disk import DiskManager
from repro.rss.faults import FaultPlan, get_injector, registered_points


@pytest.fixture(autouse=True)
def _disarm():
    yield
    get_injector().disarm()


def wide(tag: str, number: int) -> str:
    """A ~420-byte VARCHAR value: forces page allocation and B-tree splits."""
    return f"{tag * 410}{number:04d}"


SETUP = (
    ["CREATE TABLE T (A INTEGER, B VARCHAR(500))"]
    + ["CREATE UNIQUE INDEX TA ON T (A)", "CREATE INDEX TB ON T (B)"]
    + [f"INSERT INTO T VALUES ({i}, '{wide('S', i)}')" for i in range(8)]
)

#: The workload the matrix runs under fault.  Mixed DML touching every
#: layer: segment inserts/updates/deletes, both indexes, page allocation,
#: splits (wide TB keys, leaf capacity ~7) and every commit-path point.
MUTATIONS = [
    "INSERT INTO T VALUES "
    + ", ".join(f"({i}, '{wide('N', i)}')" for i in range(100, 105)),
    f"UPDATE T SET B = '{wide('U', 1)}' WHERE A < 4",
    "DELETE FROM T WHERE A >= 5 AND A <= 6",
    "INSERT INTO T VALUES "
    + ", ".join(f"({i}, '{wide('M', i)}')" for i in range(105, 110)),
    f"UPDATE T SET B = '{wide('V', 2)}' WHERE A > 101",
    "DELETE FROM T WHERE A >= 100",
]


def build_db(path, setup=SETUP) -> Database:
    db = Database(path=str(path))
    for sql in setup:
        db.execute(sql)
    return db


def run_workload_under_fault(db, plan, mutations=MUTATIONS):
    """Run ``mutations`` (by default MUTATIONS) with ``plan`` armed.

    Returns ``(mirror, error, failed_at, fired)`` where ``mirror`` is the
    logical dump after the last *successful* statement (== last committed
    state: every statement is its own micro-transaction).
    """
    injector = get_injector()
    injector.arm(plan)
    mirror = logical_dump(db)
    error = None
    failed_at = None
    try:
        for position, sql in enumerate(mutations):
            try:
                db.execute(sql)
            except StorageError as caught:
                error = caught
                failed_at = position
                break
            mirror = logical_dump(db)
    finally:
        fired = list(injector.fired)
        injector.disarm()
    return mirror, error, failed_at, fired


MATRIX = [
    (point, hit, action)
    for point in sorted(registered_points())
    for hit in (1, 3)
    for action in ("error", "crash")
]


@pytest.mark.parametrize(
    "point,hit,action", MATRIX, ids=[f"{p}@{h}:{a}" for p, h, a in MATRIX]
)
def test_fault_matrix(tmp_path, point, hit, action):
    db = build_db(tmp_path / "db.pages")
    plan = FaultPlan(point, hit=hit, action=action)
    mirror, error, failed_at, fired = run_workload_under_fault(db, plan)

    # the workload is sized so every (point, hit) cell actually fires —
    # a cell that stops firing means the matrix has silently gone vacuous
    assert fired, f"{plan!r} never fired; the workload no longer reaches it"
    assert error is not None, f"{plan!r} fired but no statement failed"

    if action == "error":
        assert not isinstance(error, SimulatedCrash)
        # full rollback: the live store is exactly the pre-statement store
        assert logical_dump(db) == mirror
        assert verify_storage(db) == []
        # and the engine is still good for the rest of the workload,
        # including a retry of the statement that failed
        for sql in MUTATIONS[failed_at:]:
            db.execute(sql)
        assert verify_storage(db) == []
        final = logical_dump(db)
        db.close()
        # the completed workload is durable
        survivor = Database(path=str(tmp_path / "db.pages"))
        assert logical_dump(survivor) == final
        assert verify_storage(survivor) == []
        survivor.close()
    else:
        assert isinstance(error, SimulatedCrash)
        assert error.snapshot is not None
        db.close()
        restored = DiskManager.restore(
            error.snapshot, tmp_path / "recovered.pages"
        )
        survivor = Database(path=str(restored))
        # recovery lands on the last committed (pre-statement) state —
        # the in-flight statement left no trace
        assert logical_dump(survivor) == mirror
        assert verify_storage(survivor) == []
        survivor.close()


class TestRandomizedWorkloads:
    """Hypothesis drives random DML sequences under random fault plans."""

    @staticmethod
    def _operations():
        insert = st.tuples(
            st.just("insert"), st.integers(0, 999), st.integers(0, 9)
        )
        update = st.tuples(
            st.just("update"), st.integers(0, 999), st.integers(0, 9)
        )
        delete = st.tuples(
            st.just("delete"), st.integers(0, 999), st.just(0)
        )
        return st.lists(
            st.one_of(insert, update, delete), min_size=3, max_size=9
        )

    @staticmethod
    def _to_sql(operation, used_keys):
        kind, key, salt = operation
        if kind == "insert":
            while key in used_keys:
                key += 1
            used_keys.add(key)
            return f"INSERT INTO T VALUES ({key}, '{wide('R', salt)}')"
        if kind == "update":
            return f"UPDATE T SET B = '{wide('W', salt)}' WHERE A <= {key}"
        return f"DELETE FROM T WHERE A = {key}"

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_workload_random_fault(self, data):
        operations = data.draw(self._operations())
        point = data.draw(st.sampled_from(sorted(registered_points())))
        hit = data.draw(st.integers(min_value=1, max_value=6))
        action = data.draw(st.sampled_from(["error", "crash"]))

        injector = get_injector()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "db.pages")
            db = build_db(path)
            used_keys = set(range(8))
            statements = [
                self._to_sql(operation, used_keys)
                for operation in operations
            ]
            injector.arm(FaultPlan(point, hit=hit, action=action))
            mirror = logical_dump(db)
            error = None
            try:
                for sql in statements:
                    try:
                        db.execute(sql)
                    except StorageError as caught:
                        error = caught
                        break
                    mirror = logical_dump(db)
            finally:
                fired = list(injector.fired)
                injector.disarm()

            if not fired:
                assert error is None
                assert verify_storage(db) == []
                db.close()
                return

            if isinstance(error, SimulatedCrash):
                db.close()
                restored = DiskManager.restore(
                    error.snapshot, os.path.join(tmp, "recovered.pages")
                )
                survivor = Database(path=str(restored))
                assert logical_dump(survivor) == mirror
                assert verify_storage(survivor) == []
                survivor.close()
            else:
                assert logical_dump(db) == mirror
                assert verify_storage(db) == []
                db.close()
