"""A deterministic concurrent stress harness with exact isolation checks.

``repro stress`` drives N client threads of mixed read/write workload
against one durable database and then *proves* snapshot isolation held,
rather than eyeballing it:

- every writer records the ``commit_version`` of each statement it
  landed, and the tags of each statement that rolled back;
- every reader records its pinned ``snapshot_version`` alongside what it
  saw;
- after the run, each read is checked **exactly**: the tags a reader
  observed for writer *w* must equal precisely the tags *w* committed at
  versions ``<= V`` — no partial transaction (each tag appears in all
  three of its rows or none), nothing from the future, nothing missing,
  nothing rolled back.

The workload mixes point reads (via an index), multi-row inserts (one
atomic statement each), whole-group updates (readers check group
uniformity), delete/insert churn (page free paths), and the occasional
UPDATE STATISTICS (the exclusive schema latch).  A fault plan can be
armed over the run; a simulated crash stops the workload, and the
harness re-opens the crash snapshot through recovery to prove the
storage verifies clean and every group-commit batch landed all-or-
nothing.  Client schedules are seeded per client, so the statement
sequences are reproducible; the invariant checks do not depend on the
thread interleaving.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from random import Random
from time import monotonic

from ..errors import (
    DatabaseBusyError,
    SimulatedCrash,
    StorageError,
)
from ..rss.disk import DiskManager
from ..rss.faults import FaultPlan, get_injector

#: ACC has this many groups of this many rows; an update rewrites a whole
#: group, so any reader seeing a mixed group caught a partial statement.
N_GROUPS = 8
ROWS_PER_GROUP = 4
#: Every LOG insert writes this many rows sharing one tag — the unit of
#: the all-or-nothing check.
ROWS_PER_INSERT = 3

#: The fault points introduced by the serving layer's commit path.
SERVING_FAULT_POINTS = (
    "commit.lock",
    "group-commit.before-flip",
    "group-commit.after-fsync",
)


# One log per client thread, read only after every client has been joined.
@dataclass
class ClientLog:
    """What one client did and saw; merged after the threads join."""

    client: int
    #: (tag, commit_version) per committed LOG insert.
    committed: list[tuple[int, int]] = field(default_factory=list)
    #: Tags of LOG inserts that failed cleanly (rolled back / never ran).
    rolled_back: list[int] = field(default_factory=list)
    #: Tags of LOG inserts whose fate is the crash (all-or-nothing).
    crashed_tags: list[int] = field(default_factory=list)
    #: (group, value, commit_version) per committed ACC update.
    acc_updates: list[tuple[int, int, int]] = field(default_factory=list)
    #: (snapshot_version, writer, tags seen) per LOG read.
    log_reads: list[tuple[int, int, tuple[int, ...]]] = field(
        default_factory=list
    )
    #: (snapshot_version, group, values seen) per ACC read.
    acc_reads: list[tuple[int, int, tuple[int, ...]]] = field(
        default_factory=list
    )
    statements: int = 0
    outcomes: int = 0
    busy: int = 0
    crash: SimulatedCrash | None = None
    #: An outcome the harness did not anticipate (always a violation).
    unexpected: BaseException | None = None


@dataclass
class StressViolation:
    """One broken invariant."""

    kind: str
    detail: str


@dataclass
class StressReport:
    """The verdict of one stress run."""

    clients: int
    statements: int
    outcomes: int
    committed: int
    rolled_back: int
    busy_timeouts: int
    reads_checked: int
    crash_point: str | None
    elapsed: float
    violations: list[StressViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        crash = f", crash at {self.crash_point!r}" if self.crash_point else ""
        rate = self.outcomes / self.elapsed if self.elapsed > 0 else 0.0
        return (
            f"stress: {verdict} — {self.clients} clients, "
            f"{self.outcomes}/{self.statements} outcomes "
            f"({self.committed} committed, {self.rolled_back} rolled back, "
            f"{self.busy_timeouts} busy), {self.reads_checked} reads "
            f"checked{crash}, {rate:.0f} stmt/s"
        )


def run_stress(
    path: str,
    clients: int = 100,
    statements: int = 40,
    seed: int = 0,
    fault: FaultPlan | None = None,
    commit_timeout: float = 30.0,
    join_timeout: float = 300.0,
) -> StressReport:
    """Run the concurrent workload against a durable database at ``path``.

    Returns a :class:`StressReport`; ``report.ok`` is the verdict.  When
    ``fault`` is given it is armed after the schema is seeded, so the
    failure lands inside the concurrent phase.
    """
    from ..analysis.storage_check import logical_dump, verify_storage
    from ..database import Database

    db = Database(path=path, commit_timeout=commit_timeout)
    _seed_schema(db)
    logs = [ClientLog(client) for client in range(clients)]
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=_client,
            args=(
                db,
                log,
                statements,
                Random(seed * 100_003 + log.client),
                stop,
                clients,
            ),
            daemon=True,
        )
        for log in logs
    ]
    injector = get_injector()
    if fault is not None:
        injector.arm(fault)
    started = monotonic()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=join_timeout)
        elapsed = monotonic() - started
        violations: list[StressViolation] = []
        hung = sum(1 for thread in threads if thread.is_alive())
        if hung:
            stop.set()
            violations.append(
                StressViolation(
                    "hang",
                    f"{hung} client(s) still running after {join_timeout}s; "
                    "a statement lost its outcome",
                )
            )
        crash = next((log.crash for log in logs if log.crash is not None), None)
        for log in logs:
            if log.unexpected is not None:
                violations.append(
                    StressViolation(
                        "unexpected-error",
                        f"client {log.client}: "
                        f"{type(log.unexpected).__name__}: {log.unexpected}",
                    )
                )
        violations.extend(_check_reads(logs))
        if crash is None and not hung:
            violations.extend(
                _check_final_state(db, logs, verify_storage, logical_dump)
            )
        if crash is not None:
            violations.extend(
                _check_crash_recovery(
                    path, crash, logs, verify_storage, logical_dump, Database
                )
            )
    finally:
        injector.disarm()
        db.close()
    return StressReport(
        clients=clients,
        statements=sum(log.statements for log in logs),
        outcomes=sum(log.outcomes for log in logs),
        committed=sum(len(log.committed) for log in logs)
        + sum(len(log.acc_updates) for log in logs),
        rolled_back=sum(len(log.rolled_back) for log in logs),
        busy_timeouts=sum(log.busy for log in logs),
        reads_checked=sum(
            len(log.log_reads) + len(log.acc_reads) for log in logs
        ),
        crash_point=crash.point if crash is not None else None,
        elapsed=elapsed,
        violations=violations,
    )


def run_fault_smoke(
    make_path,
    clients: int = 8,
    statements: int = 25,
    seed: int = 0,
    hit: int = 5,
) -> list[tuple[str, StressReport]]:
    """Loop the serving-layer fault points through error and crash legs.

    ``make_path`` is called with a leg label and must return a fresh
    database path for that leg.  Every leg must come back ``ok``: an
    injected error is survived and a crash recovers all-or-nothing.
    """
    results: list[tuple[str, StressReport]] = []
    for point in SERVING_FAULT_POINTS:
        for action in ("error", "crash"):
            label = f"{point}@{hit}:{action}"
            report = run_stress(
                make_path(label),
                clients=clients,
                statements=statements,
                seed=seed,
                fault=FaultPlan(point, hit=hit, action=action),
            )
            results.append((label, report))
    return results


# -- the workload ------------------------------------------------------------


def _seed_schema(db) -> None:
    db.execute(
        "CREATE TABLE LOG (WRITER INTEGER, SEQ INTEGER, K INTEGER, "
        "TAG INTEGER)"
    )
    db.execute("CREATE INDEX LOGWRITER ON LOG (WRITER)")
    db.execute("CREATE TABLE ACC (GRP INTEGER, ROWNO INTEGER, VAL INTEGER)")
    for group in range(N_GROUPS):
        values = ", ".join(
            f"({group}, {rowno}, 0)" for rowno in range(ROWS_PER_GROUP)
        )
        db.execute(f"INSERT INTO ACC VALUES {values}")
    db.execute("CREATE TABLE CHURN (WRITER INTEGER, N INTEGER)")
    db.execute("UPDATE STATISTICS")


def _client(
    db, log: ClientLog, statements: int, rng: Random, stop, clients: int
) -> None:
    session = db.session(f"client-{log.client}")
    sequence = 0
    try:
        for iteration in range(statements):
            if stop.is_set():
                return
            roll = rng.random()
            try:
                if roll < 0.45:
                    _read_log(session, log, rng, clients)
                elif roll < 0.65:
                    _read_acc(session, log, rng)
                elif roll < 0.90:
                    sequence = _insert_log(session, log, sequence)
                elif roll < 0.97:
                    _update_acc(session, log, rng, iteration)
                elif roll < 0.99:
                    _churn(session, log)
                else:
                    log.statements += 1
                    session.execute("UPDATE STATISTICS ACC")
                    log.outcomes += 1
            except SimulatedCrash as crash:
                log.crash = crash
                log.outcomes += 1
                stop.set()
                return
            except DatabaseBusyError:
                log.busy += 1
                log.outcomes += 1
            except StorageError:
                # A clean per-statement failure (injected fault, aborted
                # batch, poisoned post-crash engine): the outcome is
                # known, nothing of the statement may survive.
                log.outcomes += 1
    except BaseException as error:  # anything else fails the run
        log.unexpected = error
        stop.set()
    finally:
        session.close()


def _read_log(session, log: ClientLog, rng: Random, clients: int) -> None:
    writer = rng.randrange(clients)
    log.statements += 1
    result = session.execute(f"SELECT TAG FROM LOG WHERE WRITER = {writer}")
    log.log_reads.append(
        (result.snapshot_version, writer, tuple(row[0] for row in result.rows))
    )
    log.outcomes += 1


def _read_acc(session, log: ClientLog, rng: Random) -> None:
    group = rng.randrange(N_GROUPS)
    log.statements += 1
    result = session.execute(f"SELECT VAL FROM ACC WHERE GRP = {group}")
    log.acc_reads.append(
        (result.snapshot_version, group, tuple(row[0] for row in result.rows))
    )
    log.outcomes += 1


def _insert_log(session, log: ClientLog, sequence: int) -> int:
    tag = log.client * 1_000_000 + sequence
    values = ", ".join(
        f"({log.client}, {sequence}, {k}, {tag})"
        for k in range(ROWS_PER_INSERT)
    )
    log.statements += 1
    try:
        result = session.execute(f"INSERT INTO LOG VALUES {values}")
    except SimulatedCrash:
        log.crashed_tags.append(tag)
        raise
    except (DatabaseBusyError, StorageError):
        log.rolled_back.append(tag)
        raise
    log.committed.append((tag, result.commit_version))
    log.outcomes += 1
    return sequence + 1


def _update_acc(session, log: ClientLog, rng: Random, iteration: int) -> None:
    group = rng.randrange(N_GROUPS)
    value = log.client * 1_000 + iteration + 1
    log.statements += 1
    result = session.execute(
        f"UPDATE ACC SET VAL = {value} WHERE GRP = {group}"
    )
    log.acc_updates.append((group, value, result.commit_version))
    log.outcomes += 1


def _churn(session, log: ClientLog) -> None:
    log.statements += 1
    session.execute(f"DELETE FROM CHURN WHERE WRITER = {log.client}")
    log.outcomes += 1
    log.statements += 1
    session.execute(
        f"INSERT INTO CHURN VALUES ({log.client}, 0), ({log.client}, 1)"
    )
    log.outcomes += 1


# -- the invariant checks ----------------------------------------------------


def _check_reads(logs: list[ClientLog]) -> list[StressViolation]:
    """Exact snapshot-isolation checks over every recorded read."""
    violations: list[StressViolation] = []
    committed_by_writer: dict[int, list[tuple[int, int]]] = {}
    for log in logs:
        committed_by_writer[log.client] = list(log.committed)
    acc_history = sorted(
        (version, group, value)
        for log in logs
        for (group, value, version) in log.acc_updates
    )
    for log in logs:
        for version, writer, tags in log.log_reads:
            expected = {
                tag
                for tag, commit_version in committed_by_writer.get(writer, [])
                if commit_version <= version
            }
            counts: dict[int, int] = {}
            for tag in tags:
                counts[tag] = counts.get(tag, 0) + 1
            partial = {
                tag for tag, n in counts.items() if n != ROWS_PER_INSERT
            }
            if partial:
                violations.append(
                    StressViolation(
                        "partial-transaction",
                        f"client {log.client} at version {version} saw "
                        f"tag(s) {sorted(partial)} with a row count other "
                        f"than {ROWS_PER_INSERT}",
                    )
                )
            if set(counts) != expected:
                extra = sorted(set(counts) - expected)[:4]
                missing = sorted(expected - set(counts))[:4]
                violations.append(
                    StressViolation(
                        "snapshot-mismatch",
                        f"client {log.client} read writer {writer} at "
                        f"version {version}: unexpected tags {extra}, "
                        f"missing tags {missing}",
                    )
                )
        for version, group, values in log.acc_reads:
            if len(values) != ROWS_PER_GROUP or len(set(values)) > 1:
                violations.append(
                    StressViolation(
                        "partial-update",
                        f"client {log.client} at version {version} saw "
                        f"group {group} rows {values!r} (expected "
                        f"{ROWS_PER_GROUP} identical values)",
                    )
                )
                continue
            allowed = _acc_candidates(acc_history, group, version)
            if values[0] not in allowed:
                violations.append(
                    StressViolation(
                        "snapshot-mismatch",
                        f"client {log.client} at version {version} saw "
                        f"group {group} value {values[0]} not among the "
                        f"committed candidates {sorted(allowed)}",
                    )
                )
    return violations


def _acc_candidates(
    acc_history: list[tuple[int, int, int]], group: int, version: int
) -> set[int]:
    """Values a reader pinned at ``version`` may legally see for a group.

    The latest committed update wins; updates batched into the same
    commit version are equally legal (their batch order is not
    observable post-hoc).
    """
    best_version = None
    candidates = {0}
    for commit_version, update_group, value in acc_history:
        if update_group != group or commit_version > version:
            continue
        if best_version is None or commit_version > best_version:
            best_version, candidates = commit_version, {value}
        elif commit_version == best_version:
            candidates.add(value)
    return candidates


def _log_tag_counts(dump: dict[str, list[tuple]]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for row in dump.get("LOG", []):
        tag = row[3]
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def _check_final_state(
    db, logs: list[ClientLog], verify_storage, logical_dump
) -> list[StressViolation]:
    """The surviving database holds exactly the committed statements."""
    violations = [
        StressViolation("storage", str(problem))
        for problem in verify_storage(db)
    ]
    counts = _log_tag_counts(logical_dump(db))
    committed = {tag for log in logs for tag, __ in log.committed}
    rolled_back = {tag for log in logs for tag in log.rolled_back}
    missing = sorted(tag for tag in committed if counts.get(tag) != ROWS_PER_INSERT)
    if missing:
        violations.append(
            StressViolation(
                "lost-commit",
                f"committed tag(s) {missing[:6]} not present in "
                f"{ROWS_PER_INSERT} rows each",
            )
        )
    leaked = sorted(set(counts) - committed)
    if leaked:
        from_rollbacks = len(set(leaked) & rolled_back)
        violations.append(
            StressViolation(
                "leaked-rollback",
                f"tag(s) {leaked[:6]} survived without a commit "
                f"({from_rollbacks} of them from rolled-back statements)",
            )
        )
    return violations


def _check_crash_recovery(
    path: str,
    crash: SimulatedCrash,
    logs: list[ClientLog],
    verify_storage,
    logical_dump,
    database_cls,
) -> list[StressViolation]:
    """Re-open the crash snapshot: clean storage, all-or-nothing batches."""
    violations: list[StressViolation] = []
    if crash.snapshot is None:
        return [
            StressViolation(
                "crash-snapshot",
                f"simulated crash at {crash.point!r} carried no disk "
                "snapshot",
            )
        ]
    restored = DiskManager.restore(crash.snapshot, path + ".recovered")
    survivor = database_cls(path=str(restored))
    try:
        violations.extend(
            StressViolation("storage", str(problem))
            for problem in verify_storage(survivor)
        )
        counts = _log_tag_counts(logical_dump(survivor))
    finally:
        survivor.close()
    committed = {tag for log in logs for tag, __ in log.committed}
    crashed = {tag for log in logs for tag in log.crashed_tags}
    if crash.point == "commit.lock":
        # The crash fired in a submitter thread before it reached the
        # engine, so surviving clients keep committing past the snapshot
        # instant; acknowledgments newer than the snapshot are allowed to
        # be absent.  The snapshot must still be a consistent point in
        # time: the durable acknowledged commits must form a gap-free
        # prefix of the commit-version order.
        lost = [
            version
            for log in logs
            for tag, version in log.committed
            if counts.get(tag) != ROWS_PER_INSERT
        ]
        kept = [
            version
            for log in logs
            for tag, version in log.committed
            if counts.get(tag) == ROWS_PER_INSERT
        ]
        if lost and kept and min(lost) < max(kept):
            violations.append(
                StressViolation(
                    "lost-commit",
                    f"crash snapshot is not a point in time: commit "
                    f"version {min(lost)} is missing while later version "
                    f"{max(kept)} survived",
                )
            )
        torn = sorted(
            tag
            for log in logs
            for tag, __ in log.committed
            if counts.get(tag, 0) not in (0, ROWS_PER_INSERT)
        )
        if torn:
            violations.append(
                StressViolation(
                    "partial-transaction",
                    f"acknowledged tag(s) {torn[:6]} recovered with a "
                    "partial row count",
                )
            )
    else:
        # Engine-internal crash points trip while holding the commit
        # lock (no commit can be in flight) and poison the engine before
        # releasing it, so every acknowledgment predates the snapshot
        # and must be durable.
        missing = sorted(
            tag for tag in committed if counts.get(tag) != ROWS_PER_INSERT
        )
        if missing:
            violations.append(
                StressViolation(
                    "lost-commit",
                    f"acknowledged tag(s) {missing[:6]} missing after crash "
                    "recovery — a reported commit must be durable",
                )
            )
    partial = sorted(
        tag
        for tag in crashed
        if counts.get(tag, 0) not in (0, ROWS_PER_INSERT)
    )
    if partial:
        violations.append(
            StressViolation(
                "partial-transaction",
                f"crashed tag(s) {partial[:6]} recovered with a partial "
                "row count",
            )
        )
    survived = {tag for tag in crashed if counts.get(tag, 0) == ROWS_PER_INSERT}
    if survived and survived != crashed:
        violations.append(
            StressViolation(
                "torn-batch",
                f"crashed batch recovered split: {sorted(survived)[:6]} "
                f"present, {sorted(crashed - survived)[:6]} absent — a "
                "group-commit batch must land all-or-nothing",
            )
        )
    leaked = sorted(set(counts) - committed - crashed)
    if leaked:
        violations.append(
            StressViolation(
                "leaked-rollback",
                f"tag(s) {leaked[:6]} present after recovery without a "
                "commit",
            )
        )
    return violations


# -- CLI ---------------------------------------------------------------------


def main(argv: list[str]) -> int:
    """Entry point for ``repro stress``."""
    import argparse
    import os
    import tempfile

    parser = argparse.ArgumentParser(
        prog="repro stress",
        description=(
            "Drive concurrent client sessions against one durable database "
            "and verify snapshot-isolation invariants exactly."
        ),
    )
    parser.add_argument(
        "--db", default=None, help="database path (default: a fresh temp dir)"
    )
    parser.add_argument(
        "--clients", type=int, default=100, help="concurrent client threads"
    )
    parser.add_argument(
        "--statements", type=int, default=40, help="statements per client"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--fault",
        default=None,
        metavar="POINT@HIT:ACTION",
        help="arm one fault plan over the run (e.g. "
        "'group-commit.before-flip@5:crash')",
    )
    parser.add_argument(
        "--fault-smoke",
        action="store_true",
        help="loop the serving-layer fault points through error and crash "
        "legs at reduced scale",
    )
    parser.add_argument(
        "--commit-timeout",
        type=float,
        default=30.0,
        help="seconds a write waits for the commit lock before "
        "DatabaseBusyError",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-stress-") as scratch:
        if args.fault_smoke:
            def make_path(label: str) -> str:
                leg_dir = os.path.join(scratch, label.replace(":", "_"))
                os.makedirs(leg_dir, exist_ok=True)
                return os.path.join(leg_dir, "stress.pages")

            failures = 0
            for label, report in run_fault_smoke(make_path, seed=args.seed):
                print(f"[{label}] {report.summary()}")
                for violation in report.violations:
                    print(f"    {violation.kind}: {violation.detail}")
                failures += 0 if report.ok else 1
            print(
                "fault smoke: "
                + ("all legs OK" if failures == 0 else f"{failures} leg(s) FAILED")
            )
            return 0 if failures == 0 else 1

        path = args.db or os.path.join(scratch, "stress.pages")
        fault = FaultPlan.parse(args.fault) if args.fault else None
        report = run_stress(
            path,
            clients=args.clients,
            statements=args.statements,
            seed=args.seed,
            fault=fault,
            commit_timeout=args.commit_timeout,
        )
        print(report.summary())
        for violation in report.violations:
            print(f"  {violation.kind}: {violation.detail}")
        return 0 if report.ok else 1
