"""Tests for the ``repro.lint`` static analyzer.

Per rule: a positive fixture (the violation fires), a negative fixture
(compliant code stays clean), and a suppression fixture (an inline
``# lint: disable=RULE -- why`` silences it, and only with the ``why``).
Plus engine-level behaviour (JSON output, exit codes, parse errors) and
the meta-test the CI gate relies on: the shipped tree lints clean, and a
tree seeded with one violation per rule exits nonzero.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import LINT000, PARSE001, all_rules, lint_paths, main, parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def rules_fired(root):
    return sorted({f.rule for f in lint_paths([str(root)]).findings})


class TestDET001UnseededRandom:
    def test_unseeded_random_in_deterministic_layer(self, tmp_path):
        write(tmp_path, "sim/a.py", "import random\nr = random.Random()\n")
        assert rules_fired(tmp_path) == ["DET001"]

    def test_module_level_random_call(self, tmp_path):
        write(tmp_path, "pastry/a.py", "import random\nx = random.randint(0, 5)\n")
        assert rules_fired(tmp_path) == ["DET001"]

    def test_from_import_of_global_rng(self, tmp_path):
        write(tmp_path, "faults/a.py", "from random import choice\n")
        assert rules_fired(tmp_path) == ["DET001"]

    def test_seeded_and_injected_rngs_are_fine(self, tmp_path):
        write(
            tmp_path, "sim/b.py",
            "import random\n"
            "r = random.Random(42)\n"
            "def f(rng):\n    return rng.randint(0, 5)\n",
        )
        assert rules_fired(tmp_path) == []

    def test_out_of_scope_layer_is_not_checked(self, tmp_path):
        write(tmp_path, "analysis/a.py", "import random\nr = random.Random()\n")
        write(tmp_path, "crypto/a.py", "import random\nr = random.Random()\n")
        assert rules_fired(tmp_path) == []

    def test_suppression_with_justification(self, tmp_path):
        write(
            tmp_path, "sim/c.py",
            "import random\n"
            "r = random.Random()  # lint: disable=DET001 -- fixture exercises it\n",
        )
        assert rules_fired(tmp_path) == []


class TestDET002WallClock:
    def test_time_time_in_deterministic_layer(self, tmp_path):
        write(tmp_path, "netsim/a.py", "import time\nnow = time.time()\n")
        assert rules_fired(tmp_path) == ["DET002"]

    def test_datetime_now_resolved_through_from_import(self, tmp_path):
        write(
            tmp_path, "workloads/a.py",
            "from datetime import datetime\nstamp = datetime.now()\n",
        )
        assert rules_fired(tmp_path) == ["DET002"]

    def test_engine_clock_is_fine(self, tmp_path):
        write(
            tmp_path, "sim/a.py",
            "def snapshot(engine):\n    return engine.now\n",
        )
        assert rules_fired(tmp_path) == []

    def test_wall_clock_outside_scope_is_fine(self, tmp_path):
        write(tmp_path, "analysis/a.py", "import time\nnow = time.time()\n")
        assert rules_fired(tmp_path) == []


class TestDET003SetOrdering:
    def test_list_over_set_literal(self, tmp_path):
        write(tmp_path, "pastry/a.py", "ids = list({3, 1, 2})\n")
        assert rules_fired(tmp_path) == ["DET003"]

    def test_list_over_set_union(self, tmp_path):
        write(tmp_path, "pastry/b.py", "def f(a, b):\n    return list(set(a) | set(b))\n")
        assert rules_fired(tmp_path) == ["DET003"]

    def test_list_comprehension_over_set(self, tmp_path):
        write(tmp_path, "core/maintenance.py", "out = [n for n in {1, 2}]\n")
        assert rules_fired(tmp_path) == ["DET003"]

    def test_sorted_makes_it_deterministic(self, tmp_path):
        write(
            tmp_path, "pastry/c.py",
            "def f(a, b):\n"
            "    pool = sorted(set(a) | set(b))\n"
            "    return list(sorted({1, 2}))\n",
        )
        assert rules_fired(tmp_path) == []

    def test_outside_routing_and_repair_is_fine(self, tmp_path):
        write(tmp_path, "workloads/a.py", "ids = list({3, 1, 2})\n")
        assert rules_fired(tmp_path) == []


class TestASYNC001Blocking:
    def test_time_sleep_in_async_def(self, tmp_path):
        write(
            tmp_path, "live/a.py",
            "import time\nasync def f():\n    time.sleep(1)\n",
        )
        assert rules_fired(tmp_path) == ["ASYNC001"]

    def test_open_in_async_def(self, tmp_path):
        write(
            tmp_path, "live/b.py",
            "async def f(path):\n    return open(path).read()\n",
        )
        assert rules_fired(tmp_path) == ["ASYNC001"]

    def test_asyncio_sleep_and_sync_context_are_fine(self, tmp_path):
        write(
            tmp_path, "live/c.py",
            "import asyncio\n"
            "import time\n"
            "async def f():\n    await asyncio.sleep(1)\n"
            "def g():\n    time.sleep(1)\n",
        )
        assert rules_fired(tmp_path) == []

    def test_nested_sync_helper_inside_async_is_fine(self, tmp_path):
        write(
            tmp_path, "live/d.py",
            "import time\n"
            "async def f():\n"
            "    def helper():\n        time.sleep(1)\n"
            "    return helper\n",
        )
        assert rules_fired(tmp_path) == []

    def test_blocking_outside_live_is_not_this_rules_business(self, tmp_path):
        write(
            tmp_path, "analysis/a.py",
            "import time\nasync def f():\n    time.sleep(1)\n",
        )
        assert rules_fired(tmp_path) == []


class TestASYNC002LostTask:
    def test_bare_create_task_statement(self, tmp_path):
        write(
            tmp_path, "live/a.py",
            "import asyncio\nasync def f(coro):\n    asyncio.create_task(coro)\n",
        )
        assert rules_fired(tmp_path) == ["ASYNC002"]

    def test_loop_create_task_and_ensure_future(self, tmp_path):
        write(
            tmp_path, "live/b.py",
            "import asyncio\n"
            "async def f(loop, coro):\n"
            "    loop.create_task(coro)\n"
            "    asyncio.ensure_future(coro)\n",
        )
        report = lint_paths([str(tmp_path)])
        assert [f.rule for f in report.findings] == ["ASYNC002", "ASYNC002"]

    def test_retained_or_awaited_task_is_fine(self, tmp_path):
        write(
            tmp_path, "live/c.py",
            "import asyncio\n"
            "async def f(coro):\n"
            "    task = asyncio.create_task(coro)\n"
            "    await asyncio.create_task(coro)\n"
            "    return task\n",
        )
        assert rules_fired(tmp_path) == []


_EVENTS_HEADER = (
    "from dataclasses import dataclass\n"
    "from typing import ClassVar\n"
    "@dataclass(frozen=True)\n"
    "class Event:\n"
    "    kind: ClassVar[str] = 'event'\n"
)


class TestOBS001EventDiscipline:
    def test_unfrozen_event_class(self, tmp_path):
        write(
            tmp_path, "obs/events.py",
            _EVENTS_HEADER
            + "@dataclass\nclass Bad(Event):\n    kind: ClassVar[str] = 'bad'\n"
            + "EVENT_TYPES = {cls.kind: cls for cls in (Bad,)}\n",
        )
        assert rules_fired(tmp_path) == ["OBS001"]

    def test_unregistered_event_class(self, tmp_path):
        write(
            tmp_path, "obs/events.py",
            _EVENTS_HEADER
            + "@dataclass(frozen=True)\nclass Lost(Event):\n"
            + "    kind: ClassVar[str] = 'lost'\n"
            + "EVENT_TYPES = {}\n",
        )
        assert rules_fired(tmp_path) == ["OBS001"]

    def test_frozen_and_registered_is_fine(self, tmp_path):
        write(
            tmp_path, "obs/events.py",
            _EVENTS_HEADER
            + "@dataclass(frozen=True)\nclass Good(Event):\n"
            + "    kind: ClassVar[str] = 'good'\n"
            + "EVENT_TYPES = {cls.kind: cls for cls in (Good,)}\n",
        )
        assert rules_fired(tmp_path) == []

    def test_other_obs_modules_are_not_checked(self, tmp_path):
        write(
            tmp_path, "obs/spans.py",
            "class Event:\n    pass\nclass Loose(Event):\n    pass\n",
        )
        assert rules_fired(tmp_path) == []


class TestERR001SwallowedException:
    def test_except_exception_pass(self, tmp_path):
        write(
            tmp_path, "core/a.py",
            "def f(g):\n    try:\n        g()\n    except Exception:\n        pass\n",
        )
        assert rules_fired(tmp_path) == ["ERR001"]

    def test_bare_except(self, tmp_path):
        write(
            tmp_path, "anywhere/a.py",
            "def f(g):\n    try:\n        g()\n    except:\n        return None\n",
        )
        assert rules_fired(tmp_path) == ["ERR001"]

    def test_reraise_and_narrow_types_are_fine(self, tmp_path):
        write(
            tmp_path, "core/b.py",
            "def f(g):\n"
            "    try:\n        g()\n"
            "    except ValueError:\n        pass\n"
            "    except Exception as exc:\n        raise RuntimeError('x') from exc\n",
        )
        assert rules_fired(tmp_path) == []

    def test_publishing_a_bus_event_is_fine(self, tmp_path):
        write(
            tmp_path, "core/c.py",
            "def f(g, bus, event):\n"
            "    try:\n        g()\n"
            "    except Exception:\n        bus.publish(event)\n",
        )
        assert rules_fired(tmp_path) == []


class TestNEW001DeprecatedImport:
    def test_importing_the_trace_shim(self, tmp_path):
        write(tmp_path, "core/a.py", "from repro.sim.trace import Counter\n")
        assert rules_fired(tmp_path) == ["NEW001"]

    def test_plain_import_form(self, tmp_path):
        write(tmp_path, "core/b.py", "import repro.sim.trace\n")
        assert rules_fired(tmp_path) == ["NEW001"]

    def test_from_package_import_module_form(self, tmp_path):
        write(tmp_path, "core/c.py", "from repro.sim import trace\n")
        assert rules_fired(tmp_path) == ["NEW001"]

    def test_no_file_is_exempt_since_the_shims_were_deleted(self, tmp_path):
        write(tmp_path, "sim/trace.py", "import repro.sim.trace\n")
        assert rules_fired(tmp_path) == ["NEW001"]

    def test_the_replacement_is_fine(self, tmp_path):
        write(tmp_path, "core/d.py", "from repro.obs.metrics import Counter\n")
        assert rules_fired(tmp_path) == []


class TestSuppressionDiscipline:
    def test_suppression_without_justification_is_reported_and_ignored(self, tmp_path):
        write(
            tmp_path, "sim/a.py",
            "import random\nr = random.Random()  # lint: disable=DET001\n",
        )
        assert rules_fired(tmp_path) == ["DET001", LINT000]

    def test_suppression_only_covers_the_named_rule(self, tmp_path):
        write(
            tmp_path, "sim/b.py",
            "import time\n"
            "now = time.time()  # lint: disable=DET001 -- wrong rule named\n",
        )
        assert rules_fired(tmp_path) == ["DET002"]

    def test_multi_rule_suppression(self, tmp_path):
        write(
            tmp_path, "sim/c.py",
            "import random, time\n"
            "x = random.Random() if time.time() else None"
            "  # lint: disable=DET001,DET002 -- fixture covers both\n",
        )
        assert rules_fired(tmp_path) == []


class TestEngine:
    def test_syntax_error_reported_as_parse_finding(self, tmp_path):
        write(tmp_path, "sim/broken.py", "def f(:\n")
        assert rules_fired(tmp_path) == [PARSE001]

    def test_findings_sorted_and_json_shape(self, tmp_path, capsys):
        write(tmp_path, "sim/a.py", "import random\nr = random.Random()\n")
        write(tmp_path, "netsim/b.py", "import time\nnow = time.time()\n")
        code = main([str(tmp_path), "--json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["files_checked"] == 2
        assert document["counts"] == {"DET001": 1, "DET002": 1}
        paths = [f["path"] for f in document["findings"]]
        assert paths == sorted(paths)
        assert {"rule", "path", "line", "col", "message"} <= set(
            document["findings"][0]
        )

    def test_exit_codes(self, tmp_path, capsys):
        write(tmp_path, "sim/ok.py", "x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert main([str(tmp_path / "missing")]) == 2
        capsys.readouterr()

    def test_list_rules_names_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out
            assert rule.rationale.split()[0] in out

    def test_rule_registry_is_complete(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        assert set(ids) == {
            "DET001", "DET002", "DET003",
            "ASYNC001", "ASYNC002",
            "OBS001", "ERR001", "NEW001",
            # whole-program analyses (PR 9)
            "ASYNC101", "ASYNC102", "ASYNC103", "ASYNC104",
            "CONF001", "CONF003", "CONF004", "CONF005",
        }
        for rule in all_rules():
            assert rule.title and rule.rationale
            assert rule.domains and set(rule.domains) <= {
                "src", "tests", "benchmarks"
            }


class TestAcceptance:
    def test_one_seeded_violation_per_rule_fails_the_gate(self, tmp_path, capsys):
        """A fixture tree with one violation per rule exits nonzero and
        every rule id appears in the report."""
        write(tmp_path, "sim/det1.py", "import random\nr = random.Random()\n")
        write(tmp_path, "sim/det2.py", "import time\nnow = time.time()\n")
        write(tmp_path, "pastry/det3.py", "ids = list({3, 1, 2})\n")
        write(
            tmp_path, "live/async1.py",
            "import time\nasync def f():\n    time.sleep(1)\n",
        )
        write(
            tmp_path, "live/async2.py",
            "import asyncio\nasync def f(coro):\n    asyncio.create_task(coro)\n",
        )
        write(
            tmp_path, "obs/events.py",
            _EVENTS_HEADER
            + "@dataclass\nclass Bad(Event):\n    kind: ClassVar[str] = 'bad'\n"
            + "EVENT_TYPES = {cls.kind: cls for cls in (Bad,)}\n",
        )
        write(
            tmp_path, "core/err1.py",
            "def f(g):\n    try:\n        g()\n    except Exception:\n        pass\n",
        )
        write(tmp_path, "core/new1.py", "import repro.sim.trace\n")
        code = main([str(tmp_path), "--json"])
        assert code == 1
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert set(counts) == {
            "DET001", "DET002", "DET003",
            "ASYNC001", "ASYNC002",
            "OBS001", "ERR001", "NEW001",
        }

    def test_shipped_tree_is_clean(self):
        """The CI gate: the whole-program pass over src, tests and
        benchmarks exits 0 on the repo."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint",
             "src", "tests", "benchmarks", "--json"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        document = json.loads(result.stdout)
        assert document["findings"] == []
        assert document["files_checked"] > 150

    def test_every_suppression_is_justified(self):
        """Acceptance: inline suppressions anywhere in the scanned tree
        must carry a reason."""
        for top in ("src", "tests", "benchmarks"):
            for path in (REPO_ROOT / top).rglob("*.py"):
                for suppression in parse_suppressions(path.read_text()):
                    assert suppression.justified, (
                        f"{path}:{suppression.line} suppression lacks a "
                        "justification"
                    )
