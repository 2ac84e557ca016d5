"""REP016–REP021 (+REP024) fixtures and CFG-walker edge cases.

Every bad fixture must trip *exactly* its own rule id under a full
lint run (all tiers, no select) — that pins down cross-rule
contamination, which is easy to introduce when several rules read the
same CFG.  The good twin of each fixture shows the sanctioned pattern
and must stay silent.
"""


def ids(findings):
    return sorted({f.rule_id for f in findings})


# ----------------------------------------------------------------------
# REP016 — read-modify-write spanning a yield
# ----------------------------------------------------------------------
RMW_BAD = """\
class Counter:
    def run(self):
        total = self.bytes_sent
        yield self.env.timeout(1.0)
        self.bytes_sent = total + 1
"""

RMW_GOOD = """\
class Counter:
    def run(self):
        yield self.env.timeout(1.0)
        total = self.bytes_sent
        self.bytes_sent = total + 1
"""


class TestRep016:
    def test_stale_write_back_is_flagged(self, lint):
        findings = lint("repro/sim/mod.py", RMW_BAD)
        assert ids(findings) == ["REP016"]
        (finding,) = findings
        assert finding.line == 5
        assert "self.bytes_sent" in finding.message

    def test_reread_after_yield_is_silent(self, lint):
        assert lint("repro/sim/mod.py", RMW_GOOD) == []

    def test_augmented_update_in_place_is_silent(self, lint):
        source = """\
        class Counter:
            def run(self):
                yield self.env.timeout(1.0)
                self.bytes_sent += 1
        """
        assert lint("repro/sim/mod.py", source) == []


# ----------------------------------------------------------------------
# REP017 — volatile snapshot used after a yield
# ----------------------------------------------------------------------
SNAPSHOT_BAD = """\
class Client:
    def run(self):
        up = self.network.is_connected(self.client_id)
        yield self.env.timeout(1.0)
        if up:
            self.serve()
"""

SNAPSHOT_GOOD = """\
class Client:
    def run(self):
        yield self.env.timeout(1.0)
        up = self.network.is_connected(self.client_id)
        if up:
            self.serve()
"""


class TestRep017:
    def test_stale_probe_is_flagged(self, lint):
        findings = lint("repro/client/mod.py", SNAPSHOT_BAD)
        assert ids(findings) == ["REP017"]
        (finding,) = findings
        assert finding.line == 3
        assert "is_connected" in finding.message

    def test_probe_after_yield_is_silent(self, lint):
        assert lint("repro/client/mod.py", SNAPSHOT_GOOD) == []

    def test_snapshot_used_before_yield_is_silent(self, lint):
        source = """\
        class Client:
            def run(self):
                up = self.network.is_connected(self.client_id)
                if up:
                    self.serve()
                yield self.env.timeout(1.0)
        """
        assert lint("repro/client/mod.py", source) == []

    def test_deadline_arithmetic_on_env_now_is_not_volatile(self, lint):
        # Pinning a deadline before waiting is the idiom, not a bug.
        source = """\
        class Client:
            def run(self):
                deadline = self.env.now + 5.0
                yield self.env.timeout(1.0)
                if self.env.now < deadline:
                    self.serve()
        """
        assert lint("repro/client/mod.py", source) == []


# ----------------------------------------------------------------------
# REP018 — any_of race winner never inspected
# ----------------------------------------------------------------------
RACE_BAD = """\
class Client:
    def run(self):
        first = yield self.env.any_of(
            [self.env.timeout(1.0), self.env.timeout(2.0)]
        )
        self.note(first)
"""

RACE_GOOD = """\
class Client:
    def run(self):
        probe = self.env.timeout(1.0)
        fired = yield self.env.any_of([probe, self.env.timeout(2.0)])
        if probe in fired:
            self.serve()
"""


class TestRep018:
    def test_unchecked_race_result_is_flagged(self, lint):
        findings = lint("repro/client/mod.py", RACE_BAD)
        assert ids(findings) == ["REP018"]
        assert "never checked" in findings[0].message

    def test_membership_test_is_silent(self, lint):
        assert lint("repro/client/mod.py", RACE_GOOD) == []

    def test_discarded_race_result_is_flagged(self, lint):
        source = """\
        class Client:
            def run(self):
                yield self.env.any_of(
                    [self.env.timeout(1.0), self.env.timeout(2.0)]
                )
                self.serve()
        """
        findings = lint("repro/client/mod.py", source)
        assert ids(findings) == ["REP018"]
        assert "discarded" in findings[0].message

    def test_plain_yield_of_single_event_is_silent(self, lint):
        source = """\
        class Client:
            def run(self):
                yield self.env.timeout(1.0)
                self.serve()
        """
        assert lint("repro/client/mod.py", source) == []


# ----------------------------------------------------------------------
# REP019 — facility acquire not released on every path
# ----------------------------------------------------------------------
LEAK_BAD = """\
class Sender:
    def run(self):
        req = self.facility.request()
        yield req
        yield self.env.timeout(1.0)
        if self.flag:
            return
        self.facility.release(req)
"""

LEAK_GOOD = """\
class Sender:
    def run(self):
        req = self.facility.request()
        try:
            yield req
            yield self.env.timeout(1.0)
        finally:
            self.facility.release(req)
"""


class TestRep019:
    def test_leaky_manual_request_is_flagged(self, lint):
        findings = lint("repro/net/mod.py", LEAK_BAD)
        assert ids(findings) == ["REP019"]
        (finding,) = findings
        assert finding.line == 3
        assert "req" in finding.message

    def test_release_in_finally_is_silent(self, lint):
        assert lint("repro/net/mod.py", LEAK_GOOD) == []

    def test_raced_get_without_cancel_is_flagged(self, lint):
        source = """\
        class Waiter:
            def run(self):
                item = self.box.get()
                fired = yield self.env.any_of(
                    [item, self.env.timeout(5.0)]
                )
                if item in fired:
                    self.serve()
        """
        findings = lint("repro/oodb/mod.py", source)
        assert ids(findings) == ["REP019"]
        assert "cancel" in findings[0].message

    def test_raced_get_with_cancel_is_silent(self, lint):
        source = """\
        class Waiter:
            def run(self):
                item = self.box.get()
                fired = yield self.env.any_of(
                    [item, self.env.timeout(5.0)]
                )
                if item in fired:
                    self.serve()
                else:
                    self.box.cancel(item)
        """
        assert lint("repro/oodb/mod.py", source) == []


# ----------------------------------------------------------------------
# REP020 — unprotected yield while holding a grant
# ----------------------------------------------------------------------
HOLD_BAD = """\
class Channel:
    def run(self):
        with self.facility.request() as grant:
            yield grant
            yield self.env.timeout(2.0)
            self.finish()
"""

HOLD_GOOD = """\
class Channel:
    def run(self):
        with self.facility.request() as grant:
            yield grant
            try:
                yield self.env.timeout(2.0)
            except BaseException:
                self.abort()
                raise
            self.finish()
"""


class TestRep020:
    def test_unprotected_hold_is_flagged(self, lint):
        findings = lint("repro/net/mod.py", HOLD_BAD)
        assert ids(findings) == ["REP020"]
        (finding,) = findings
        assert finding.line == 5
        assert "Interrupt protection" in finding.message

    def test_except_baseexception_is_silent(self, lint):
        assert lint("repro/net/mod.py", HOLD_GOOD) == []

    def test_try_finally_is_silent(self, lint):
        source = """\
        class Channel:
            def run(self):
                with self.facility.request() as grant:
                    yield grant
                    try:
                        yield self.env.timeout(2.0)
                    finally:
                        self.finish()
        """
        assert lint("repro/net/mod.py", source) == []

    def test_grant_yield_itself_is_exempt(self, lint):
        # Waiting *for* the grant is not holding it.
        source = """\
        class Channel:
            def run(self):
                with self.facility.request() as grant:
                    yield grant
                    self.finish()
        """
        assert lint("repro/net/mod.py", source) == []


# ----------------------------------------------------------------------
# REP021 — early-exit branch skips the sibling path's emit
# ----------------------------------------------------------------------
EMIT_BAD = """\
class Client:
    def run(self):
        ok = yield self.env.timeout(1.0)
        if not ok:
            return
        self.bus.emit(self.make_done())
"""

EMIT_GOOD = """\
class Client:
    def run(self):
        ok = yield self.env.timeout(1.0)
        if not ok:
            self.bus.emit(self.make_failed())
            return
        self.bus.emit(self.make_done())
"""


class TestRep021:
    def test_silent_early_return_is_flagged(self, lint):
        findings = lint("repro/client/mod.py", EMIT_BAD)
        assert ids(findings) == ["REP021"]
        (finding,) = findings
        assert finding.line == 5

    def test_branch_with_matching_emit_is_silent(self, lint):
        assert lint("repro/client/mod.py", EMIT_GOOD) == []

    def test_raise_branch_is_exempt(self, lint):
        source = """\
        class Client:
            def run(self):
                ok = yield self.env.timeout(1.0)
                if not ok:
                    raise RuntimeError("degraded")
                self.bus.emit(self.make_done())
        """
        assert lint("repro/client/mod.py", source) == []

    def test_function_without_emit_is_exempt(self, lint):
        source = """\
        class Client:
            def run(self):
                ok = yield self.env.timeout(1.0)
                if not ok:
                    return
                self.serve()
        """
        assert lint("repro/client/mod.py", source) == []


# ----------------------------------------------------------------------
# Edge cases the CFG walker must survive
# ----------------------------------------------------------------------
class TestWalkerEdgeCases:
    def test_nested_generator_is_analyzed_separately(self, lint):
        # The inner generator has the RMW bug; the outer function is
        # not even a generator.
        source = """\
        class Outer:
            def build(self):
                def worker(self):
                    total = self.bytes_sent
                    yield self.env.timeout(1.0)
                    self.bytes_sent = total + 1
                return worker
        """
        findings = lint("repro/sim/mod.py", source)
        assert ids(findings) == ["REP016"]

    def test_decorated_process_function_is_analyzed(self, lint):
        source = """\
        import functools


        class Counter:
            @functools.wraps(print)
            def run(self):
                total = self.bytes_sent
                yield self.env.timeout(1.0)
                self.bytes_sent = total + 1
        """
        findings = lint("repro/sim/mod.py", source)
        assert ids(findings) == ["REP016"]

    def test_lambda_yields_do_not_confuse_the_walker(self, lint):
        source = """\
        class Counter:
            def run(self):
                pick = lambda items: sorted(items)
                yield self.env.timeout(1.0)
                self.store(pick)
        """
        assert lint("repro/sim/mod.py", source) == []

    def test_async_def_is_reported_not_crashed(self, lint):
        source = """\
        class Client:
            async def run(self):
                return self.serve()
        """
        findings = lint("repro/client/mod.py", source)
        assert ids(findings) == ["REP024"]
        assert "async def" in findings[0].message

    def test_unparseable_file_surfaces_rep000(self, lint):
        findings = lint("repro/sim/mod.py", "def broken(:\n")
        assert ids(findings) == ["REP000"]

    def test_while_true_loop_with_interrupt_exit(self, lint):
        # A forever-loop process: its only exits are break and the
        # interrupt edge at the yield; must not hang or false-positive.
        source = """\
        class Pump:
            def run(self):
                while True:
                    yield self.env.timeout(1.0)
                    if self.stopped:
                        break
                self.finish()
        """
        assert lint("repro/sim/mod.py", source) == []

    def test_out_of_scope_package_is_ignored(self, lint):
        # experiments/ is not a process package; the RMW pattern there
        # is plain single-threaded code.
        findings = lint("repro/experiments/mod.py", RMW_BAD)
        assert findings == []

    def test_ignoring_the_tier_ids_disables_it(self, lint):
        tier = ["REP016", "REP017", "REP018", "REP019", "REP020", "REP021", "REP024"]
        assert lint("repro/sim/mod.py", RMW_BAD, ignore=tier) == []
