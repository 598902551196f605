"""Independent expected answers, computed in plain Python from the row lists.

Nothing here calls the engine to learn an answer: every expectation is
derived from the generated tuples with dict lookups, hash joins, ``sorted``
and running sums, so a bug in the program cannot hide by being repeated on
both sides of the comparison.  An expectation is ``(row count, digest)``;
the digest is order-insensitive unless the statement has an ORDER BY.

The only engine calls are in :meth:`MixedModel.audit`, which *reads back*
what the program stored and compares it with the model kept on this side.
"""

from __future__ import annotations

from collections import defaultdict

_MASK = (1 << 64) - 1

Expectation = tuple[int, int]


def digest(rows, ordered: bool = False) -> int:
    """Checksum of a result: a multiset hash, or a sequence hash if ordered.

    Built on ``hash()`` of tuples of ints and strings, so it is only
    comparable inside one process (string hashes are salted per process);
    both sides of every comparison are computed in the same worker.
    """
    if ordered:
        return hash(tuple(map(tuple, rows))) & _MASK
    return sum(map(hash, map(tuple, rows))) & _MASK


def expect(rows, ordered: bool = False) -> Expectation:
    """The ``(row count, digest)`` a correct result must reproduce."""
    return len(rows), digest(rows, ordered)


def group_rows(rows, position: int) -> dict:
    """Rows bucketed by the value at one column position (a hash index)."""
    index = defaultdict(list)
    for row in rows:
        index[row[position]].append(row)
    return index


class PointReadRef:
    """ACCT(ID, BRANCH, BAL, OPENED, PAD): key lookups and branch ranges."""

    def __init__(self, acct: list[tuple]):
        self._by_id = {row[0]: row for row in acct}
        self._by_branch = group_rows(acct, 1)

    def by_id(self, key: int) -> Expectation:
        """``SELECT BAL, BRANCH FROM ACCT WHERE ID = key``."""
        row = self._by_id.get(key)
        return expect([] if row is None else [(row[2], row[1])])

    def by_branch(self, branch: int, below: int) -> Expectation:
        """``SELECT ID, BAL FROM ACCT WHERE BRANCH = branch AND BAL < below``."""
        return expect(
            [
                (row[0], row[2])
                for row in self._by_branch.get(branch, ())
                if row[2] < below
            ]
        )


class AnalyticRef:
    """PARTS(PID, CAT, PRICE), ORD(OID, CUST, ODATE, STATUS, TOTAL),
    LINE(LID, OID, PART, QTY, AMT): one method per query class."""

    def __init__(self, parts, orders, lines):
        self._parts_by_pid = {row[0]: row for row in parts}
        self._orders = orders
        self._orders_by_cust = group_rows(orders, 1)
        self._lines = lines
        self._lines_by_oid = group_rows(lines, 1)
        self._lines_by_part = group_rows(lines, 2)

    def scan_filter(self, qty: int, amt: int) -> Expectation:
        return expect(
            [
                (row[0], row[4])
                for row in self._lines
                if row[3] == qty and row[4] < amt
            ]
        )

    def agg_all(self, qty: int) -> Expectation:
        amounts = [row[4] for row in self._lines if row[3] >= qty]
        if not amounts:
            return expect([(0, None, None, None)])
        return expect(
            [(len(amounts), sum(amounts), min(amounts), max(amounts))]
        )

    def group_agg(self, amt: int) -> Expectation:
        count: dict[int, int] = defaultdict(int)
        total: dict[int, int] = defaultdict(int)
        for row in self._lines:
            if row[4] < amt:
                count[row[2]] += 1
                total[row[2]] += row[4]
        return expect([(part, count[part], total[part]) for part in count])

    def sort(self, qty: int) -> Expectation:
        picked = [(row[4], row[0]) for row in self._lines if row[3] < qty]
        return expect([(lid, amt) for amt, lid in sorted(picked)], ordered=True)

    def join2(self, low: int, high: int) -> Expectation:
        out = []
        for order in self._orders:
            if low <= order[2] <= high:
                for line in self._lines_by_oid.get(order[0], ()):
                    out.append((order[0], order[1], line[4]))
        return expect(out)

    def join3(self, cat: int, cust: int) -> Expectation:
        out = []
        for order in self._orders_by_cust.get(cust, ()):
            for line in self._lines_by_oid.get(order[0], ()):
                part = self._parts_by_pid.get(line[2])
                if part is not None and part[1] == cat:
                    out.append((order[0], line[4], part[2]))
        return expect(out)

    def in_list(self, parts: tuple[int, ...]) -> Expectation:
        return expect(
            [
                (row[0], row[4])
                for part in set(parts)
                for row in self._lines_by_part.get(part, ())
            ]
        )

    def or_pred(self, part: int, oid: int) -> Expectation:
        return expect(
            [
                (row[0],)
                for row in self._lines
                if row[2] == part or row[1] == oid
            ]
        )

    def skew_eq(self, part: int) -> Expectation:
        amounts = [row[4] for row in self._lines_by_part.get(part, ())]
        return expect([(len(amounts), sum(amounts) if amounts else None)])

    def index_range(self, low: int, high: int) -> Expectation:
        return expect(
            [
                (row[0], row[4])
                for oid in range(low, high + 1)
                for row in self._lines_by_oid.get(oid, ())
            ]
        )

    def subq_corr(self, cust: int) -> Expectation:
        out = []
        for order in self._orders_by_cust.get(cust, ()):
            lines = self._lines_by_oid.get(order[0], ())
            # SUM over no rows is NULL, and TOTAL < NULL is not true.
            if lines and order[4] < sum(line[4] for line in lines):
                out.append((order[0],))
        return expect(out)


def equi_join(
    tables: list[list[tuple]],
    joins: list[tuple[int, int, int, int]],
    filters: list[tuple[int, int, int]],
) -> Expectation:
    """``SELECT *`` over an equi-join, by repeated hash join.

    ``joins`` are ``(table, column, table, column)`` equalities and
    ``filters`` ``(table, column, value)`` equalities, all by position.
    The join graph must be connected.  Rows come out as the
    concatenation of each table's columns in ``tables`` order, matching
    ``SELECT *`` over the same FROM list.
    """
    filtered = []
    for number, rows in enumerate(tables):
        mine = [(c, v) for t, c, v in filters if t == number]
        filtered.append(
            [row for row in rows if all(row[c] == v for c, v in mine)]
        )
    # Start from the smallest filtered input so intermediates stay small.
    start = min(range(len(tables)), key=lambda n: len(filtered[n]))
    joined = {start}
    partial = [{start: row} for row in filtered[start]]
    while len(joined) < len(tables):
        for number in range(len(tables)):
            if number in joined:
                continue
            keys = [
                (a, ca, cb) if b == number else (b, cb, ca)
                for a, ca, b, cb in joins
                if (a in joined and b == number)
                or (b in joined and a == number)
            ]
            if keys:
                break
        else:
            raise ValueError("join graph is not connected")
        table_index = defaultdict(list)
        for row in filtered[number]:
            table_index[tuple(row[mine] for __, __, mine in keys)].append(row)
        partial = [
            {**combo, number: row}
            for combo in partial
            for row in table_index.get(
                tuple(combo[other][theirs] for other, theirs, __ in keys), ()
            )
        ]
        joined.add(number)
    order = range(len(tables))
    return expect(
        [tuple(v for n in order for v in combo[n]) for combo in partial]
    )


class MixedModel:
    """What ``mixed_rw`` must read back, and what it must have stored.

    Each client owns the accounts whose ID is congruent to its number
    modulo the client count, so one client's reads and updates form a
    sequential history and every read has exactly one correct answer.
    Read expectations are worked out when a pass's statements are
    generated, by applying each write to the model in statement order;
    the end-of-run audit instead counts only the writes the program
    acknowledged.
    """

    def __init__(self, acct: list[tuple]):
        self.balance = {row[0]: row[2] for row in acct}
        self._initial_total = sum(self.balance.values())

    def read(self, key: int) -> Expectation:
        """``SELECT BAL FROM ACCT WHERE ID = key`` after the writes so far."""
        return expect([(self.balance[key],)])

    def apply(self, effect: tuple) -> None:
        """Fold one generated write into the model read expectations use."""
        if effect[0] == "update":
            __, key, delta = effect
            self.balance[key] += delta

    def audit(self, db, acknowledged: list[tuple]) -> int:
        """Compare the stored database with the acknowledged writes.

        Every acknowledged INSERT must be present (and nothing else), and
        ``SUM(BAL)`` must equal the initial sum plus every acknowledged
        UPDATE.  Returns the number of mismatches.  Run once on the live
        database and once after close-and-reopen from the file.
        """
        history = [e[1:] for e in acknowledged if e[0] == "insert"]
        total = self._initial_total + sum(
            e[2] for e in acknowledged if e[0] == "update"
        )
        mismatches = 0
        stored = db.execute("SELECT HID, AID, DELTA FROM HIST").rows
        if expect(stored) != expect(history):
            missing = set(history) - set(map(tuple, stored))
            mismatches += max(1, len(missing))
        if db.execute("SELECT SUM(BAL) FROM ACCT").scalar() != total:
            mismatches += 1
        return mismatches
