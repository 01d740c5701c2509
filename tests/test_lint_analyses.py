"""Tests for the whole-program lint analyses (ASYNC101-104, CONF001/003-005).

Per diagnostic: a positive fixture (the bug shape fires) and a negative
fixture (the fixed shape stays clean).  The ASYNC fixtures include
reconstructions of both PR-8 pool races -- retire-during-startup
(ASYNC101) and the stranded-``ready``-waiter (ASYNC104) -- as regression
anchors, plus the repaired shapes now shipped in ``live/net/pool.py``.
The CONF fixtures build miniature registry trees with one deliberate
drift each; the acceptance test seeds one drift per table in a single
tree and checks every CONF rule fires exactly once.
"""

import json

from repro.lint import lint_paths, main


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def rules_fired(root):
    return sorted({f.rule for f in lint_paths([str(root)]).findings})


def findings_for(root, rule):
    return [f for f in lint_paths([str(root)]).findings if f.rule == rule]


# --------------------------------------------------------------------- #
# ASYNC101: check-then-act across an await
# --------------------------------------------------------------------- #

class TestASYNC101StaleCheck:
    def test_pr8_retire_during_startup_race_is_flagged(self, tmp_path):
        """The PR-8 regression shape: NodeEndpoint.start committing state
        after `await start_server` without re-checking `self.closed`."""
        write(
            tmp_path, "live/net/pool.py",
            "import asyncio\n"
            "class NodeEndpoint:\n"
            "    def __init__(self):\n"
            "        self.closed = False\n"
            "        self._server = None\n"
            "    async def start(self):\n"
            "        if self.closed:\n"
            "            return\n"
            "        server = await asyncio.start_server(None, 'h', 0)\n"
            "        self._server = server\n"
            "    async def aclose(self):\n"
            "        self.closed = True\n",
        )
        findings = findings_for(tmp_path, "ASYNC101")
        assert len(findings) == 1
        assert "self.closed" in findings[0].message
        assert "aclose" in findings[0].message

    def test_recheck_after_await_is_clean(self, tmp_path):
        """The shipped fix: re-check the guard after the await."""
        write(
            tmp_path, "live/net/pool.py",
            "import asyncio\n"
            "class NodeEndpoint:\n"
            "    def __init__(self):\n"
            "        self.closed = False\n"
            "        self._server = None\n"
            "    async def start(self):\n"
            "        if self.closed:\n"
            "            return\n"
            "        server = await asyncio.start_server(None, 'h', 0)\n"
            "        if self.closed:\n"
            "            server.close()\n"
            "            return\n"
            "        self._server = server\n"
            "    async def aclose(self):\n"
            "        self.closed = True\n",
        )
        assert rules_fired(tmp_path) == []

    def test_attribute_written_by_no_other_method_is_not_shared(self, tmp_path):
        """A check-then-act on a purely local attribute cannot race."""
        write(
            tmp_path, "live/a.py",
            "import asyncio\n"
            "class Once:\n"
            "    def __init__(self):\n"
            "        self._started = False\n"
            "    async def start(self):\n"
            "        if self._started:\n"
            "            return\n"
            "        await asyncio.sleep(0)\n"
            "        self._started = True\n",
        )
        assert rules_fired(tmp_path) == []

    def test_outside_live_is_not_scanned(self, tmp_path):
        write(
            tmp_path, "core/a.py",
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.closed = False\n"
            "        self.x = None\n"
            "    async def start(self):\n"
            "        if self.closed:\n"
            "            return\n"
            "        await asyncio.sleep(0)\n"
            "        self.x = 1\n"
            "    async def aclose(self):\n"
            "        self.closed = True\n",
        )
        assert rules_fired(tmp_path) == []

    def test_justified_suppression_silences_it(self, tmp_path):
        write(
            tmp_path, "live/a.py",
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.closed = False\n"
            "        self.x = None\n"
            "    async def start(self):\n"
            "        if self.closed:\n"
            "            return\n"
            "        await asyncio.sleep(0)\n"
            "        self.x = 1"
            "  # lint: disable=ASYNC101 -- single-caller, cannot interleave\n"
            "    async def aclose(self):\n"
            "        self.closed = True\n",
        )
        assert rules_fired(tmp_path) == []


# --------------------------------------------------------------------- #
# ASYNC102: task handle with no cancellation path
# --------------------------------------------------------------------- #

class TestASYNC102TaskLeak:
    def test_stored_task_with_no_close_method(self, tmp_path):
        write(
            tmp_path, "live/a.py",
            "import asyncio\n"
            "class Pump:\n"
            "    def __init__(self, coro):\n"
            "        self._task = asyncio.ensure_future(coro)\n",
        )
        findings = findings_for(tmp_path, "ASYNC102")
        assert len(findings) == 1
        assert "_task" in findings[0].message

    def test_close_method_ignoring_the_task(self, tmp_path):
        write(
            tmp_path, "live/b.py",
            "import asyncio\n"
            "class Pump:\n"
            "    def __init__(self, coro):\n"
            "        self._task = asyncio.ensure_future(coro)\n"
            "        self.done = False\n"
            "    def close(self):\n"
            "        self.done = True\n",
        )
        assert rules_fired(tmp_path) == ["ASYNC102"]

    def test_task_pushed_into_container_without_close(self, tmp_path):
        write(
            tmp_path, "live/c.py",
            "import asyncio\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._starters = set()\n"
            "    def spawn(self, coro):\n"
            "        task = asyncio.ensure_future(coro)\n"
            "        self._starters.add(task)\n",
        )
        findings = findings_for(tmp_path, "ASYNC102")
        assert len(findings) == 1
        assert "_starters" in findings[0].message

    def test_cancel_on_close_path_is_clean(self, tmp_path):
        write(
            tmp_path, "live/d.py",
            "import asyncio\n"
            "class Pump:\n"
            "    def __init__(self, coro):\n"
            "        self._task = asyncio.ensure_future(coro)\n"
            "    async def aclose(self):\n"
            "        self._task.cancel()\n"
            "        try:\n"
            "            await self._task\n"
            "        except asyncio.CancelledError:\n"
            "            pass\n",
        )
        assert rules_fired(tmp_path) == []

    def test_cancel_reached_transitively_through_self_call(self, tmp_path):
        write(
            tmp_path, "live/e.py",
            "import asyncio\n"
            "class Pump:\n"
            "    def __init__(self, coro):\n"
            "        self._task = asyncio.ensure_future(coro)\n"
            "    def _halt(self):\n"
            "        self._task.cancel()\n"
            "    def stop(self):\n"
            "        self._halt()\n",
        )
        assert rules_fired(tmp_path) == []


# --------------------------------------------------------------------- #
# ASYNC103: lock held across an await into a stored callback
# --------------------------------------------------------------------- #

class TestASYNC103LockAcrossCallback:
    def test_callback_awaited_under_lock(self, tmp_path):
        write(
            tmp_path, "live/a.py",
            "import asyncio\n"
            "class Box:\n"
            "    def __init__(self, on_change):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self._on_change = on_change\n"
            "        self.value = 0\n"
            "    async def update(self, value):\n"
            "        async with self._lock:\n"
            "            self.value = value\n"
            "            await self._on_change(value)\n",
        )
        findings = findings_for(tmp_path, "ASYNC103")
        assert len(findings) == 1
        assert "_on_change" in findings[0].message
        assert "_lock" in findings[0].message

    def test_callback_awaited_after_release_is_clean(self, tmp_path):
        write(
            tmp_path, "live/b.py",
            "import asyncio\n"
            "class Box:\n"
            "    def __init__(self, on_change):\n"
            "        self._lock = asyncio.Lock()\n"
            "        self._on_change = on_change\n"
            "        self.value = 0\n"
            "    async def update(self, value):\n"
            "        async with self._lock:\n"
            "            self.value = value\n"
            "        await self._on_change(value)\n",
        )
        assert rules_fired(tmp_path) == []

    def test_awaiting_own_coroutine_under_lock_is_fine(self, tmp_path):
        """Only caller-supplied callbacks are foreign code; awaiting a
        method the class owns under its own lock is normal."""
        write(
            tmp_path, "live/c.py",
            "import asyncio\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "    async def _flush(self):\n"
            "        await asyncio.sleep(0)\n"
            "    async def update(self):\n"
            "        async with self._lock:\n"
            "            await self._flush()\n",
        )
        assert rules_fired(tmp_path) == []


# --------------------------------------------------------------------- #
# ASYNC104: stranded Event/future waiter
# --------------------------------------------------------------------- #

_POOL_WITH_WAITER = (
    "class NodePool:\n"
    "    def __init__(self):\n"
    "        self._endpoints = {}\n"
    "    async def resolve(self, address):\n"
    "        endpoint = self._endpoints[address]\n"
    "        await endpoint.ready.wait()\n"
    "        return endpoint.port\n"
)


class TestASYNC104StrandedWaiter:
    def test_pr8_stranded_ready_waiter_is_flagged(self, tmp_path):
        """The PR-8 regression shape: aclose tears the endpoint down
        without `self.ready.set()`, parking resolve() forever."""
        write(
            tmp_path, "live/net/pool.py",
            "import asyncio\n"
            "class NodeEndpoint:\n"
            "    def __init__(self):\n"
            "        self.ready = asyncio.Event()\n"
            "        self.closed = False\n"
            "        self.port = None\n"
            "    async def start(self):\n"
            "        self.port = 1\n"
            "        self.ready.set()\n"
            "    async def aclose(self):\n"
            "        self.closed = True\n"
            + _POOL_WITH_WAITER,
        )
        findings = findings_for(tmp_path, "ASYNC104")
        assert len(findings) == 1
        assert "self.ready" in findings[0].message
        assert "strands" in findings[0].message

    def test_set_on_close_path_is_clean(self, tmp_path):
        """The shipped fix: aclose wakes waiters, who re-check state."""
        write(
            tmp_path, "live/net/pool.py",
            "import asyncio\n"
            "class NodeEndpoint:\n"
            "    def __init__(self):\n"
            "        self.ready = asyncio.Event()\n"
            "        self.closed = False\n"
            "        self.port = None\n"
            "    async def start(self):\n"
            "        self.port = 1\n"
            "        self.ready.set()\n"
            "    async def aclose(self):\n"
            "        self.closed = True\n"
            "        self.ready.set()\n"
            + _POOL_WITH_WAITER,
        )
        assert rules_fired(tmp_path) == []

    def test_event_nobody_awaits_is_not_flagged(self, tmp_path):
        write(
            tmp_path, "live/a.py",
            "import asyncio\n"
            "class Quiet:\n"
            "    def __init__(self):\n"
            "        self.flag = asyncio.Event()\n"
            "    async def aclose(self):\n"
            "        return None\n",
        )
        assert rules_fired(tmp_path) == []

    def test_stored_future_never_resolved_on_close(self, tmp_path):
        write(
            tmp_path, "live/b.py",
            "import asyncio\n"
            "class Request:\n"
            "    def __init__(self, loop):\n"
            "        self.reply = loop.create_future()\n"
            "    async def wait_reply(self):\n"
            "        return await self.reply\n"
            "    async def aclose(self):\n"
            "        return None\n",
        )
        findings = findings_for(tmp_path, "ASYNC104")
        assert len(findings) == 1
        assert "self.reply" in findings[0].message

    def test_cancelling_the_future_on_close_is_clean(self, tmp_path):
        write(
            tmp_path, "live/c.py",
            "import asyncio\n"
            "class Request:\n"
            "    def __init__(self, loop):\n"
            "        self.reply = loop.create_future()\n"
            "    async def wait_reply(self):\n"
            "        return await self.reply\n"
            "    async def aclose(self):\n"
            "        self.reply.cancel()\n",
        )
        assert rules_fired(tmp_path) == []


# --------------------------------------------------------------------- #
# CONF001: unpriced message kind
# --------------------------------------------------------------------- #

_COST_MODEL = (
    'CATEGORY_CONTROL = "control"\n'
    "MESSAGE_COSTS = {\n"
    '    "ping": (CATEGORY_CONTROL, 64),\n'
    '    "pong": (CATEGORY_CONTROL, 64),\n'
    "}\n"
)


class TestCONF001UnpricedKind:
    def test_constructed_kind_missing_from_the_table(self, tmp_path):
        write(tmp_path, "obs/cost_model.py", _COST_MODEL)
        write(
            tmp_path, "live/proto.py",
            "def emit(Message, send):\n"
            '    send(Message(kind="mystery", sender=1))\n',
        )
        findings = findings_for(tmp_path, "CONF001")
        assert len(findings) == 1
        assert "'mystery'" in findings[0].message

    def test_charged_kind_missing_from_the_table(self, tmp_path):
        write(tmp_path, "obs/cost_model.py", _COST_MODEL)
        write(
            tmp_path, "core/net.py",
            "def tally(stats):\n"
            '    stats.count_message("mystery")\n',
        )
        assert rules_fired(tmp_path) == ["CONF001"]

    def test_priced_kinds_are_clean(self, tmp_path):
        write(tmp_path, "obs/cost_model.py", _COST_MODEL)
        write(
            tmp_path, "live/proto.py",
            "def emit(Message, send):\n"
            '    send(Message(kind="ping", sender=1))\n'
            '    send(Message(kind="pong", sender=1))\n',
        )
        assert rules_fired(tmp_path) == []

    def test_without_the_anchor_module_the_rule_is_silent(self, tmp_path):
        write(
            tmp_path, "live/proto.py",
            "def emit(Message, send):\n"
            '    send(Message(kind="mystery", sender=1))\n',
        )
        assert rules_fired(tmp_path) == []


# --------------------------------------------------------------------- #
# CONF003: schemaless event
# --------------------------------------------------------------------- #

_EVENTS_MODULE = (
    "from dataclasses import dataclass\n"
    "from typing import ClassVar\n"
    "@dataclass(frozen=True)\n"
    "class Event:\n"
    "    kind: ClassVar[str] = 'event'\n"
    "@dataclass(frozen=True)\n"
    "class Known(Event):\n"
    "    kind: ClassVar[str] = 'known'\n"
    "EVENT_TYPES = {cls.kind: cls for cls in (Known,)}\n"
)


class TestCONF003SchemalessEvent:
    def test_event_class_defined_outside_events_module(self, tmp_path):
        write(tmp_path, "obs/events.py", _EVENTS_MODULE)
        write(
            tmp_path, "core/rogue.py",
            "from repro.obs.events import Event\n"
            "class Rogue(Event):\n"
            "    pass\n",
        )
        findings = findings_for(tmp_path, "CONF003")
        assert len(findings) == 1
        assert "Rogue" in findings[0].message

    def test_registered_event_usage_is_clean(self, tmp_path):
        write(tmp_path, "obs/events.py", _EVENTS_MODULE)
        write(
            tmp_path, "core/fine.py",
            "from repro.obs.events import Known\n"
            "def run(obs):\n"
            "    obs.emit(Known())\n",
        )
        assert rules_fired(tmp_path) == []


# --------------------------------------------------------------------- #
# CONF004: undeclared claim id
# --------------------------------------------------------------------- #

_CLAIMS_MODULE = (
    "_PROBES = {\n"
    '    "C1": "replicas maintained",\n'
    '    "C2": "routing bounded",\n'
    "}\n"
)


class TestCONF004UndeclaredClaim:
    def test_unknown_claim_in_a_claims_list(self, tmp_path):
        write(tmp_path, "obs/claims.py", _CLAIMS_MODULE)
        write(
            tmp_path, "obs/report.py",
            "def build(snapshot):\n"
            '    return {"claims": ["C1", "C9"], "snapshot": snapshot}\n',
        )
        findings = findings_for(tmp_path, "CONF004")
        assert len(findings) == 1
        assert "'C9'" in findings[0].message

    def test_unknown_claim_passed_to_evaluate_claims(self, tmp_path):
        write(tmp_path, "obs/claims.py", _CLAIMS_MODULE)
        write(
            tmp_path, "obs/report.py",
            "from repro.obs.claims import evaluate_claims\n"
            "def build(snapshot):\n"
            '    return evaluate_claims(snapshot, claims=["C9"])\n',
        )
        assert rules_fired(tmp_path) == ["CONF004"]

    def test_declared_claims_are_clean(self, tmp_path):
        write(tmp_path, "obs/claims.py", _CLAIMS_MODULE)
        write(
            tmp_path, "obs/report.py",
            "def build(snapshot):\n"
            '    return {"claims": ["C1", "C2"], "snapshot": snapshot}\n',
        )
        assert rules_fired(tmp_path) == []


# --------------------------------------------------------------------- #
# CONF005: PROTOCOLS.md table drift
# --------------------------------------------------------------------- #

_DOC_HEADER = (
    "| kind | category | bytes |\n"
    "| --- | --- | --- |\n"
)


class TestCONF005DocDrift:
    def test_priced_kind_missing_from_the_doc(self, tmp_path):
        write(tmp_path, "obs/cost_model.py", _COST_MODEL)
        write(
            tmp_path, "docs/PROTOCOLS.md",
            _DOC_HEADER + "| `ping` | control | 64 |\n",
        )
        findings = findings_for(tmp_path, "CONF005")
        assert len(findings) == 1
        assert "'pong'" in findings[0].message
        assert findings[0].path.endswith("cost_model.py")

    def test_documented_kind_missing_from_the_table(self, tmp_path):
        write(tmp_path, "obs/cost_model.py", _COST_MODEL)
        write(
            tmp_path, "docs/PROTOCOLS.md",
            _DOC_HEADER
            + "| `ping` | control | 64 |\n"
            + "| `pong` | control | 64 |\n"
            + "| `ghost` | control | 64 |\n",
        )
        findings = findings_for(tmp_path, "CONF005")
        assert len(findings) == 1
        assert "'ghost'" in findings[0].message
        assert findings[0].path.endswith("PROTOCOLS.md")

    def test_category_mismatch(self, tmp_path):
        write(tmp_path, "obs/cost_model.py", _COST_MODEL)
        write(
            tmp_path, "docs/PROTOCOLS.md",
            _DOC_HEADER
            + "| `ping` | control | 64 |\n"
            + "| `pong` | route | 64 |\n",
        )
        findings = findings_for(tmp_path, "CONF005")
        assert len(findings) == 1
        assert "'route'" in findings[0].message
        assert "'control'" in findings[0].message

    def test_matching_tables_are_clean(self, tmp_path):
        write(tmp_path, "obs/cost_model.py", _COST_MODEL)
        write(
            tmp_path, "docs/PROTOCOLS.md",
            _DOC_HEADER
            + "| `ping` | control | 64 |\n"
            + "| `pong` | control | 64 |\n",
        )
        assert rules_fired(tmp_path) == []


# --------------------------------------------------------------------- #
# domains: tests/ and benchmarks/ scanning
# --------------------------------------------------------------------- #

class TestDomainScoping:
    def test_wall_clock_in_tests_fires_det002(self, tmp_path):
        write(
            tmp_path, "tests/test_a.py",
            "import time\nnow = time.time()\n",
        )
        assert rules_fired(tmp_path) == ["DET002"]

    def test_wall_clock_in_benchmarks_is_allowed(self, tmp_path):
        """Benchmarks measure wall time on purpose; DET002 is scoped out."""
        write(
            tmp_path, "benchmarks/bench_a.py",
            "import time\nnow = time.time()\n",
        )
        assert rules_fired(tmp_path) == []

    def test_global_rng_in_benchmarks_still_fires_det001(self, tmp_path):
        write(
            tmp_path, "benchmarks/bench_b.py",
            "import random\nr = random.Random()\n",
        )
        assert rules_fired(tmp_path) == ["DET001"]

    def test_broad_except_in_tests_fires_err001(self, tmp_path):
        write(
            tmp_path, "tests/test_b.py",
            "def f(g):\n    try:\n        g()\n    except Exception:\n        pass\n",
        )
        assert rules_fired(tmp_path) == ["ERR001"]

    def test_findings_in_test_roots_carry_the_root_prefix(self, tmp_path):
        write(
            tmp_path, "tests/test_a.py",
            "import time\nnow = time.time()\n",
        )
        findings = lint_paths([str(tmp_path / "tests")]).findings
        assert [f.path for f in findings] == ["tests/test_a.py"] * len(findings)


# --------------------------------------------------------------------- #
# SARIF output
# --------------------------------------------------------------------- #

class TestSarifOutput:
    def test_sarif_document_shape(self, tmp_path, capsys):
        write(tmp_path, "sim/a.py", "import random\nr = random.Random()\n")
        code = main([str(tmp_path), "--format", "sarif"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "DET001" in rule_ids and "ASYNC101" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "sim/a.py"
        assert location["region"]["startLine"] == 2

    def test_clean_tree_sarif_has_no_results(self, tmp_path, capsys):
        write(tmp_path, "sim/ok.py", "x = 1\n")
        assert main([str(tmp_path), "--format", "sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"] == []


# --------------------------------------------------------------------- #
# acceptance: one deliberate drift per registry in one tree
# --------------------------------------------------------------------- #

class TestConformanceAcceptance:
    def test_one_drift_per_table_fires_every_conf_rule(self, tmp_path, capsys):
        # CONF001: "mystery" is constructed but unpriced.
        write(tmp_path, "obs/cost_model.py", _COST_MODEL)
        write(
            tmp_path, "live/proto.py",
            "def emit(Message, send):\n"
            '    send(Message(kind="mystery", sender=1))\n',
        )
        # CONF003: an Event subclass defined outside obs/events.py.
        write(tmp_path, "obs/events.py", _EVENTS_MODULE)
        write(
            tmp_path, "core/rogue.py",
            "from repro.obs.events import Event\n"
            "class Rogue(Event):\n"
            "    pass\n",
        )
        # CONF004: claim C9 is produced but not declared.
        write(tmp_path, "obs/claims.py", _CLAIMS_MODULE)
        write(
            tmp_path, "obs/report.py",
            "def build(snapshot):\n"
            '    return {"claims": ["C9"]}\n',
        )
        # CONF005: the doc documents a ghost kind.
        write(
            tmp_path, "docs/PROTOCOLS.md",
            _DOC_HEADER
            + "| `ping` | control | 64 |\n"
            + "| `pong` | control | 64 |\n"
            + "| `ghost` | control | 64 |\n",
        )
        code = main([str(tmp_path), "--json"])
        assert code == 1
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts == {
            "CONF001": 1, "CONF003": 1, "CONF004": 1, "CONF005": 1,
        }
