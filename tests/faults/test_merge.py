"""Deterministic-merge regression tests.

Merging event logs must not depend on operand order or insertion
order, or two runs of the same campaign could disagree.  These pin the
ordering contracts.
"""

from repro.faults import EventLog
from repro.faults.events import EventKind


def _log_with(events):
    log = EventLog()
    for t, node, kind in events:
        log.record(t, node, kind)
    return log


class TestEventLogMerge:
    def test_merge_orders_by_time_node_seq(self):
        a = _log_with([(2.0, 1, "retry"), (1.0, 3, "fault")])
        b = _log_with([(1.0, 2, "attempt")])
        merged = a.merge(b)
        assert [(e.t, e.node) for e in merged] == [
            (1.0, 2), (1.0, 3), (2.0, 1)
        ]
        # Renumbered densely from zero.
        assert [e.seq for e in merged] == [0, 1, 2]

    def test_merge_commutes_with_equal_timestamps(self):
        # With equal t the node address breaks the tie, so operand
        # order must not matter.
        a = _log_with([(5.0, 4, "retry"), (5.0, 2, "retry")])
        b = _log_with([(5.0, 3, "fault"), (5.0, 1, "attempt")])
        assert a.merge(b).to_lines() == b.merge(a).to_lines()

    def test_merge_leaves_operands_untouched(self):
        a = _log_with([(1.0, 1, "fault")])
        b = _log_with([(0.5, 2, "retry")])
        a.merge(b)
        assert len(a) == 1 and len(b) == 1
        assert a.events[0].kind is EventKind.FAULT
        assert a.events[0].seq == 0

    def test_merge_does_not_fire_metrics(self):
        class CountingRegistry:
            def __init__(self):
                self.incs = 0

            def counter(self, name, **labels):
                registry = self

                class C:
                    def inc(self, amount=1.0):
                        registry.incs += 1

                return C()

        registry = CountingRegistry()
        a = EventLog(metrics=registry)
        a.record(1.0, 1, "fault")
        before = registry.incs
        a.merge(_log_with([(2.0, 2, "retry")]))
        assert registry.incs == before

    def test_merge_several_operands(self):
        logs = [
            _log_with([(float(t), t, "attempt")]) for t in (3, 1, 2)
        ]
        merged = logs[0].merge(*logs[1:])
        assert [e.node for e in merged] == [1, 2, 3]

    def test_seq_breaks_exact_ties_stably(self):
        a = EventLog()
        a.record(1.0, 7, "retry", attempt=1)
        a.record(1.0, 7, "retry", attempt=2)
        merged = a.merge(EventLog())
        details = [dict(e.detail)["attempt"] for e in merged]
        assert details == ["1", "2"]
