"""Tests of the repro-lint static checker (``repro.analysis``).

Per rule: at least one fixture the rule must flag and one adjacent construct
it must not (the negative is what keeps the live tree's idioms lintable).
Plus the framework contracts — suppression grammar, scope routing, the JSON
schema — and the meta-tests that gate the repository itself: the live tree
lints clean, and the README env table matches the registry.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro import env
from repro.analysis import RULES, render_json, run_paths
from repro.analysis.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(tmp_path, source, scope="src", name="module_under_test.py"):
    """Lint ``source`` as a file of ``scope``; return its active rule ids."""
    path = tmp_path / scope / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    result = run_paths([path], root=tmp_path)
    return [finding.rule_id for finding in result.active], result


# ------------------------------------------------------------ DET fixtures


class TestDeterminismRules:
    def test_det001_flags_hash_in_src(self, tmp_path):
        ids, _ = lint(tmp_path, "key = hash('abc')\n")
        assert ids == ["DET001"]

    def test_det001_exempts_dunder_hash_and_tests(self, tmp_path):
        source = """
            class Thing:
                def __hash__(self):
                    return hash(('a', 'b'))
        """
        assert lint(tmp_path, source)[0] == []
        assert lint(tmp_path, "key = hash('abc')\n", scope="tests")[0] == []

    def test_det002_flags_set_iteration_everywhere(self, tmp_path):
        source = """
            def run(items, extra):
                for item in set(items) | set(extra):
                    print(item)
                flattened = list({1, 2, 3})
                labels = [str(label) for label in {x for x in items}]
                joined = ",".join(frozenset(items))
                return flattened, labels, joined
        """
        ids, _ = lint(tmp_path, source, scope="tests")
        assert ids == ["DET002"] * 4

    def test_det002_allows_order_independent_consumers(self, tmp_path):
        source = """
            def run(items):
                ordered = sorted(set(items))
                count = len({1, 2})
                smallest = min(set(items))
                present = "a" in set(items)
                return ordered, count, smallest, present
        """
        assert lint(tmp_path, source)[0] == []

    def test_det003_flags_global_rng_allows_seeded(self, tmp_path):
        source = """
            import random
            import numpy as np

            bad = random.shuffle([1, 2])
            also_bad = np.random.rand(3)
            good = random.Random(7).random()
            also_good = np.random.default_rng(7).random()
        """
        ids, _ = lint(tmp_path, source, scope="benchmarks")
        assert ids == ["DET003", "DET003"]

    def test_det004_flags_wall_clock_allows_monotonic(self, tmp_path):
        source = """
            import time

            def measure():
                start = time.perf_counter()
                time.sleep(0.0)
                return time.time() - start
        """
        ids, _ = lint(tmp_path, source)
        assert ids == ["DET004"]
        assert lint(tmp_path, "import time\nstamp = time.time()\n", scope="tests")[0] == []


# ------------------------------------------------------------ ENV fixtures


class TestEnvRules:
    def test_env001_flags_direct_reads(self, tmp_path):
        source = """
            import os

            PLAN_ENV = "REPRO_FAULT_PLAN"

            a = os.environ.get("REPRO_FULL")
            b = os.getenv(PLAN_ENV)
            c = os.environ["REPRO_FULL"]
            d = "REPRO_FULL" in os.environ
        """
        ids, _ = lint(tmp_path, source, scope="tests")
        assert ids == ["ENV001"] * 4

    def test_env001_ignores_writes_and_non_repro_names(self, tmp_path):
        source = """
            import os

            os.environ["REPRO_FULL"] = "1"
            os.environ.pop("REPRO_FULL", None)
            del os.environ["REPRO_FULL"]
            path = os.environ.get("PATH")
        """
        assert lint(tmp_path, source)[0] == []

    def test_env001_exempts_the_registry_module(self, tmp_path):
        source = "import os\nvalue = os.environ.get('REPRO_FULL')\n"
        ids, _ = lint(tmp_path, source, name="repro/env.py")
        assert ids == []

    def test_env002_flags_unregistered_knobs_only(self, tmp_path):
        source = """
            from repro import env

            bad = env.read_bool("REPRO_NOT_A_KNOB")
            good = env.read_bool("REPRO_FULL")

            def dynamic(name):
                return env.read_str(name)  # unresolvable: not checked
        """
        ids, _ = lint(tmp_path, source, scope="tests")
        assert ids == ["ENV002"]


# ------------------------------------------------------------ IOH fixtures


class TestIoHardeningRules:
    def test_ioh001_flags_write_modes_only(self, tmp_path):
        source = """
            from pathlib import Path

            with open("out.bin", "wb") as handle:
                handle.write(b"x")
            with Path("log.txt").open("a", encoding="utf-8") as handle:
                handle.write("append-mode checkpoint protocol is exempt")
            with open("in.txt") as handle:
                handle.read()
        """
        ids, _ = lint(tmp_path, source)
        assert ids == ["IOH001"]

    def test_ioh002_flags_raw_replace(self, tmp_path):
        ids, _ = lint(tmp_path, "import os\nos.replace('a', 'b')\n")
        assert ids == ["IOH002"]

    def test_ioh003_flags_pathlib_writers(self, tmp_path):
        source = "from pathlib import Path\nPath('x').write_text('y')\n"
        ids, _ = lint(tmp_path, source)
        assert ids == ["IOH003"]

    def test_ioh_rules_exempt_the_artifact_module_and_tests(self, tmp_path):
        source = """
            import os
            from pathlib import Path

            with open("out.txt", "w") as handle:
                handle.write("x")
            os.replace("a", "b")
            Path("x").write_bytes(b"y")
        """
        assert lint(tmp_path, source, name="repro/data/artifacts.py")[0] == []
        assert lint(tmp_path, source, scope="tests")[0] == []


# ------------------------------------------------------------ EXC fixtures


class TestExceptionRules:
    def test_exc001_flags_bare_except_in_any_scope(self, tmp_path):
        source = """
            try:
                work()
            except:
                cleanup()
        """
        assert lint(tmp_path, source, scope="tests")[0] == ["EXC001"]

    def test_exc002_flags_untaxonomied_broad_handler(self, tmp_path):
        source = """
            def load():
                try:
                    return parse()
                except Exception:
                    return None
        """
        assert lint(tmp_path, source)[0] == ["EXC002"]

    def test_exc002_accepts_reraise_taxonomy_and_classification(self, tmp_path):
        source = """
            from repro.exceptions import EvaluationError, is_transient

            def run():
                try:
                    return work()
                except Exception:
                    log()
                    raise
                try:
                    return work()
                except Exception as exc:
                    raise EvaluationError("unit failed") from exc
                try:
                    return work()
                except Exception as exc:
                    if is_transient(exc):
                        return retry()
                    return None
        """
        assert lint(tmp_path, source)[0] == []

    def test_exc003_flags_silent_swallow_not_narrow_pass(self, tmp_path):
        source = """
            try:
                work()
            except Exception:
                pass
            try:
                work()
            except OSError:
                pass
        """
        assert lint(tmp_path, source)[0] == ["EXC003"]


# ----------------------------------------------------------- CONC fixtures


class TestConcurrencyRules:
    def test_conc001_flags_unguarded_mutation(self, tmp_path):
        source = """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value

                def drop(self, key):
                    self._entries.pop(key, None)
        """
        ids, result = lint(tmp_path, source)
        assert ids == ["CONC001"]
        assert "drop()" in result.active[0].message

    def test_conc001_allows_guarded_class_and_init_writes(self, tmp_path):
        source = """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value

                def clear(self):
                    with self._lock:
                        self._entries.clear()
        """
        assert lint(tmp_path, source)[0] == []

    def test_conc002_flags_nested_same_lock_only(self, tmp_path):
        source = """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._io_lock = threading.Lock()

                def deadlocks(self):
                    with self._lock:
                        with self._lock:
                            pass

                def fine(self):
                    with self._lock:
                        with self._io_lock:
                            pass
        """
        assert lint(tmp_path, source, scope="tests")[0] == ["CONC002"]


# ------------------------------------------------------------ suppressions


class TestSuppressions:
    def test_inline_suppression_consumes_the_finding(self, tmp_path):
        source = "key = hash('abc')  # repro-lint: disable=DET001 -- fixture rationale\n"
        ids, result = lint(tmp_path, source)
        assert ids == []
        assert [finding.rule_id for finding, _ in result.suppressed] == ["DET001"]
        assert result.suppressed[0][1].reason == "fixture rationale"

    def test_own_line_suppression_covers_the_next_line(self, tmp_path):
        source = """
            # repro-lint: disable=DET001 -- statement too long for an inline comment
            key = hash('abc')
        """
        ids, _ = lint(tmp_path, source)
        assert ids == []

    def test_suppression_only_silences_the_named_rule(self, tmp_path):
        source = "import time\nstamp = time.time() + hash('a')  # repro-lint: disable=DET001 -- only the hash\n"
        ids, _ = lint(tmp_path, source)
        assert ids == ["DET004"]

    def test_missing_reason_is_sup001(self, tmp_path):
        ids, _ = lint(tmp_path, "key = hash('abc')  # repro-lint: disable=DET001\n")
        assert sorted(ids) == ["DET001", "SUP001"]

    def test_unknown_rule_id_is_sup001(self, tmp_path):
        ids, _ = lint(tmp_path, "x = 1  # repro-lint: disable=NOPE999 -- whatever\n")
        assert ids == ["SUP001"]

    def test_unused_suppression_is_sup002(self, tmp_path):
        ids, _ = lint(tmp_path, "x = 1  # repro-lint: disable=DET001 -- nothing here\n")
        assert ids == ["SUP002"]

    def test_directive_inside_a_string_is_not_a_suppression(self, tmp_path):
        source = '''
            FIXTURE = "key = hash('x')  # repro-lint: disable=DET001 -- in a string"
            key = hash('abc')
        '''
        ids, _ = lint(tmp_path, source)
        assert ids == ["DET001"]  # and no SUP002 for the string's directive


# ------------------------------------------------------- reporters and CLI


class TestReporting:
    def test_json_report_schema(self, tmp_path):
        _, result = lint(tmp_path, "key = hash('abc')\n")
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["clean"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "column", "message"}
        assert finding["rule"] == "DET001"
        assert payload["suppressed"] == []

    def test_cli_exit_codes_and_list_rules(self, tmp_path, capsys):
        bad = tmp_path / "src" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("key = hash('abc')\n", encoding="utf-8")
        assert lint_main([str(bad), "--root", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

        good = tmp_path / "src" / "good.py"
        good.write_text("value = 1\n", encoding="utf-8")
        assert lint_main([str(good), "--root", str(tmp_path)]) == 0

        assert lint_main(["--list-rules"]) == 0
        listing = capsys.readouterr().out
        assert "DET001" in listing and "CONC002" in listing

    def test_unparseable_file_is_reported_not_crashed(self, tmp_path):
        ids, _ = lint(tmp_path, "def broken(:\n")
        assert ids == ["SUP001"]


# -------------------------------------------------------------- meta-tests


class TestRepositoryGates:
    def test_rule_inventory_meets_the_contract(self):
        families = {registered.family for registered in RULES.values()}
        checked = [registered for registered in RULES.values() if registered.check]
        assert {"DET", "ENV", "IOH", "EXC", "CONC", "SUP"} <= families
        assert len(checked) >= 12

    def test_live_tree_is_clean(self):
        result = run_paths(
            [REPO_ROOT / name for name in ("src", "tests", "benchmarks", "examples")],
            root=REPO_ROOT,
        )
        report = "\n".join(
            f"{finding.path}:{finding.line} {finding.rule_id} {finding.message}"
            for finding in result.active
        )
        assert result.clean, f"repro-lint findings in the live tree:\n{report}"
        # Every suppression in the tree is live (SUP002 would flag stale ones)
        # and carries a reason by construction (SUP001 enforces the grammar).
        assert all(suppression.reason for _, suppression in result.suppressed)

    def test_readme_env_table_matches_registry(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        start = "<!-- env-table:start -->"
        end = "<!-- env-table:end -->"
        assert start in readme and end in readme, "README env-table markers missing"
        block = readme.split(start, 1)[1].split(end, 1)[0].strip("\n")
        assert block == env.markdown_table().strip("\n"), (
            "README env table drifted from the repro.env registry; regenerate "
            "with: PYTHONPATH=src python -c "
            '"from repro import env; print(env.markdown_table())"'
        )

    def test_rule_catalogue_documents_every_rule(self):
        catalogue = (REPO_ROOT / "docs" / "lint-rules.md").read_text(encoding="utf-8")
        missing = [rule_id for rule_id in RULES if rule_id not in catalogue]
        assert not missing, f"docs/lint-rules.md lacks entries for: {missing}"

    def test_every_registered_knob_is_used_somewhere(self):
        tree_text = "\n".join(
            path.read_text(encoding="utf-8")
            for directory in ("src", "tests", "benchmarks")
            for path in (REPO_ROOT / directory).rglob("*.py")
            if path.name != "env.py"  # the registry itself doesn't count as a use
        )
        unused = [declared.name for declared in env.knobs() if declared.name not in tree_text]
        assert not unused, f"registered knobs never referenced: {unused}"
