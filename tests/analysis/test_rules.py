"""Every REP rule: the bad fixture fires, the good twin stays silent."""

import pytest

from repro.analysis import analyze_source, rule_codes
from repro.analysis.registry import ROLE_TESTS

from tests.analysis import fixtures


def violations_of(source, rule, **kwargs):
    report = analyze_source(source, select=(rule,), **kwargs)
    assert report.error is None
    return report.violations


class TestPairedFixtures:
    @pytest.mark.parametrize("rule", sorted(fixtures.PAIRS))
    def test_bad_fixture_fires_at_expected_line(self, rule):
        bad, line, _good = fixtures.PAIRS[rule]
        found = violations_of(bad, rule)
        assert found, f"{rule} did not fire on its bad fixture"
        assert all(violation.rule == rule for violation in found)
        assert line in {violation.line for violation in found}

    @pytest.mark.parametrize("rule", sorted(fixtures.PAIRS))
    def test_good_fixture_is_silent(self, rule):
        _bad, _line, good = fixtures.PAIRS[rule]
        assert violations_of(good, rule) == []

    def test_every_registered_rule_has_a_fixture_pair(self):
        assert set(fixtures.PAIRS) == set(rule_codes())


class TestRep001Variants:
    def test_numpy_module_seed(self):
        assert violations_of(fixtures.REP001_BAD_NUMPY_SEED, "REP001")

    def test_stdlib_module_function(self):
        assert violations_of(fixtures.REP001_BAD_STDLIB, "REP001")

    def test_from_import_of_global_function(self):
        assert violations_of(fixtures.REP001_BAD_FROM_IMPORT, "REP001")

    def test_local_generator_method_is_not_confused_with_module(self):
        source = (
            "def mix(rng, items):\n"
            "    rng.shuffle(items)\n"
            "    return rng.random()\n"
        )
        assert violations_of(source, "REP001") == []


class TestRep002Variants:
    def test_path_open_write(self):
        assert violations_of(fixtures.REP002_BAD_PATH_OPEN, "REP002")

    def test_write_text(self):
        assert violations_of(fixtures.REP002_BAD_WRITE_TEXT, "REP002")

    def test_append_mode_keyword(self):
        assert violations_of(fixtures.REP002_BAD_APPEND_MODE, "REP002")

    def test_ioutils_itself_is_exempt(self):
        report = analyze_source(
            fixtures.REP002_BAD_OPEN,
            path="src/repro/ioutils.py",
            select=("REP002",),
        )
        assert report.violations == []

    def test_tests_are_exempt(self):
        report = analyze_source(
            fixtures.REP002_BAD_OPEN, role=ROLE_TESTS, select=("REP002",)
        )
        assert report.violations == []


class TestRep004Variants:
    def test_negative_sentinel_comparison(self):
        assert violations_of(fixtures.REP004_BAD_NEGATIVE, "REP004")

    def test_zero_guard_idiom_allowed(self):
        source = "def guard(x):\n    return x == 0.0 or x != 0.0\n"
        assert violations_of(source, "REP004") == []

    def test_exact_assertions_allowed_in_tests(self):
        report = analyze_source(
            fixtures.REP004_BAD, role=ROLE_TESTS, select=("REP004",)
        )
        assert report.violations == []


class TestRep005Variants:
    def test_bare_except(self):
        assert violations_of(fixtures.REP005_BAD_BARE, "REP005")

    def test_narrow_handler_allowed(self):
        source = (
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except FileNotFoundError:\n"
            "        return None\n"
        )
        assert violations_of(source, "REP005") == []


class TestRep006Variants:
    def test_worker_named_helper_calling_journal_api(self):
        assert violations_of(fixtures.REP006_BAD_HELPER, "REP006")

    def test_plain_list_append_in_worker_is_fine(self):
        source = (
            "def _execute(item, results):\n"
            "    results.append(item)\n"
            "def run(pool, items, results):\n"
            "    return [pool.submit(_execute, i, results) for i in items]\n"
        )
        assert violations_of(source, "REP006") == []


class TestRep007Variants:
    def test_dict_call_default(self):
        assert violations_of(fixtures.REP007_BAD_DICT_CALL, "REP007")

    def test_fires_in_tests_too(self):
        found = analyze_source(
            fixtures.REP007_BAD, role=ROLE_TESTS, select=("REP007",)
        ).violations
        assert found


class TestRep009Variants:
    def test_evaluation_import_in_stage_module(self):
        found = violations_of(fixtures.REP009_BAD_IMPORT, "REP009")
        assert found
        assert fixtures.REP009_BAD_IMPORT_LINE in {v.line for v in found}

    def test_from_repro_import_evaluation(self):
        assert violations_of(fixtures.REP009_BAD_FROM_REPRO, "REP009")

    def test_module_without_stages_may_import_evaluation(self):
        assert violations_of(fixtures.REP009_GOOD_NO_STAGE, "REP009") == []

    def test_read_only_open_in_stage_is_fine(self):
        source = (
            "from repro.core.pipeline import FeatureStage\n"
            "class ReaderStage(FeatureStage):\n"
            "    name = 'reader'\n"
            "    level = 'property'\n"
            "    def compute(self, ctx, ref, values):\n"
            "        with open('lexicon.txt') as handle:\n"
            "            return handle.read()\n"
        )
        assert violations_of(source, "REP009") == []


class TestRep008Variants:
    def test_non_worker_module_registry_is_fine(self):
        assert violations_of(fixtures.REP008_GOOD_NOT_WORKER, "REP008") == []

    def test_import_time_initialisation_is_fine(self):
        source = (
            "_TABLE: dict = {}\n"
            "_TABLE.update(a=1)\n"
            "def _execute(item):\n"
            "    return _TABLE[item]\n"
            "def run(pool, item):\n"
            "    return pool.submit(_execute, item)\n"
        )
        assert violations_of(source, "REP008") == []


class TestRep010Variants:
    def test_spin_without_stop_check(self):
        found = violations_of(fixtures.REP010_BAD_SPIN, "REP010")
        assert found
        assert fixtures.REP010_BAD_SPIN_LINE in {v.line for v in found}

    def test_conditioned_loop_is_fine(self):
        assert violations_of(fixtures.REP010_GOOD_CONDITIONED, "REP010") == []

    def test_only_binds_watch_and_ingest_modules(self):
        report = analyze_source(
            fixtures.REP010_BAD_SLEEP,
            path="src/repro/evaluation/runner.py",
            select=("REP010",),
        )
        assert report.violations == []

    def test_binds_real_ingest_module_paths(self):
        found = analyze_source(
            fixtures.REP010_BAD_SLEEP,
            path="src/repro/ingest/daemon.py",
            select=("REP010",),
        ).violations
        assert found

    def test_tests_are_exempt(self):
        report = analyze_source(
            fixtures.REP010_BAD_SLEEP, role=ROLE_TESTS, select=("REP010",)
        )
        assert report.violations == []


class TestRep011Variants:
    def test_simplequeue_is_always_unbounded(self):
        found = violations_of(fixtures.REP011_BAD_SIMPLEQUEUE, "REP011")
        assert found
        assert fixtures.REP011_BAD_SIMPLEQUEUE_LINE in {v.line for v in found}

    def test_unbounded_deque(self):
        found = violations_of(fixtures.REP011_BAD_DEQUE, "REP011")
        assert found
        assert fixtures.REP011_BAD_DEQUE_LINE in {v.line for v in found}

    def test_bounded_deque_is_fine(self):
        assert (
            violations_of(fixtures.REP011_GOOD_BOUNDED_DEQUE, "REP011") == []
        )

    def test_zero_arg_blocking_get(self):
        found = violations_of(fixtures.REP011_BAD_BLOCKING_GET, "REP011")
        assert found
        assert fixtures.REP011_BAD_BLOCKING_GET_LINE in {
            v.line for v in found
        }

    def test_zero_arg_blocking_accept(self):
        found = violations_of(fixtures.REP011_BAD_BLOCKING_ACCEPT, "REP011")
        assert found
        assert fixtures.REP011_BAD_BLOCKING_ACCEPT_LINE in {
            v.line for v in found
        }

    def test_wall_clock_sleep(self):
        found = violations_of(fixtures.REP011_BAD_SLEEP, "REP011")
        assert found
        assert fixtures.REP011_BAD_SLEEP_LINE in {v.line for v in found}

    def test_queue_with_explicit_zero_maxsize_is_unbounded(self):
        source = (
            "import queue\n"
            "def build_backlog():\n"
            "    return queue.Queue(maxsize=0)\n"
        )
        assert violations_of(source, "REP011")

    def test_only_binds_serve_and_handler_modules(self):
        report = analyze_source(
            fixtures.REP011_BAD_QUEUE,
            path="src/repro/evaluation/runner.py",
            select=("REP011",),
        )
        assert report.violations == []

    def test_binds_real_serve_module_paths(self):
        found = analyze_source(
            fixtures.REP011_BAD_QUEUE,
            path="src/repro/serve/server.py",
            select=("REP011",),
        ).violations
        assert found

    def test_tests_are_exempt(self):
        report = analyze_source(
            fixtures.REP011_BAD_QUEUE, role=ROLE_TESTS, select=("REP011",)
        )
        assert report.violations == []


class TestRep012Variants:
    def test_inconsistently_guarded_plain_write(self):
        found = violations_of(fixtures.REP012_BAD_INCONSISTENT, "REP012")
        assert found
        assert fixtures.REP012_BAD_INCONSISTENT_LINE in {v.line for v in found}
        assert "inconsistently guarded" in found[0].message

    def test_module_without_thread_roots_is_silent(self):
        assert violations_of(fixtures.REP012_GOOD_NO_ROOTS, "REP012") == []

    def test_container_dispatch_reaching_a_write(self):
        found = violations_of(fixtures.REP012_BAD_DISPATCH, "REP012")
        assert [v.line for v in found] == [fixtures.REP012_BAD_DISPATCH_LINE]
        assert "container-dispatched call 'layer.forward'" in found[0].message
        assert "Dense._inputs" in found[0].message

    def test_container_dispatch_through_a_subscript(self):
        source = fixtures.REP012_BAD_DISPATCH.replace(
            "        for layer in self.layers:\n"
            "            inputs = layer.forward(inputs)\n"
            "        return inputs\n",
            "        return self.layers[-1].forward(inputs)\n",
        )
        assert source != fixtures.REP012_BAD_DISPATCH
        found = violations_of(source, "REP012")
        assert [v.line for v in found] == [fixtures.REP012_BAD_DISPATCH_LINE - 1]

    def test_container_dispatch_to_a_pure_method_is_silent(self):
        assert violations_of(fixtures.REP012_GOOD_DISPATCH, "REP012") == []

    def test_constructor_writes_are_exempt(self):
        # __init__ publishes the object before any thread can see it;
        # the unguarded self.total = 0 there must not fire.
        found = violations_of(fixtures.REP012_GOOD, "REP012")
        assert found == []

    def test_tests_are_exempt(self):
        report = analyze_source(
            fixtures.REP012_BAD_RMW, role=ROLE_TESTS, select=("REP012",)
        )
        assert report.violations == []


class TestRep013Variants:
    def test_cycle_through_call_graph_edge(self):
        found = violations_of(fixtures.REP013_BAD_TRANSITIVE, "REP013")
        assert found
        assert fixtures.REP013_BAD_TRANSITIVE_LINE in {v.line for v in found}
        message = found[0].message
        assert "Ledger._summary" in message and "Ledger._detail" in message

    def test_message_names_both_locks(self):
        found = violations_of(fixtures.REP013_BAD, "REP013")
        message = found[0].message
        assert "Transfer._credit" in message and "Transfer._debit" in message

    def test_consistent_order_is_silent(self):
        assert violations_of(fixtures.REP013_GOOD, "REP013") == []


class TestRep014Variants:
    def test_sleep_under_lock(self):
        found = violations_of(fixtures.REP014_BAD_SLEEP, "REP014")
        assert found
        assert fixtures.REP014_BAD_SLEEP_LINE in {v.line for v in found}

    def test_join_under_lock(self):
        found = violations_of(fixtures.REP014_BAD_JOIN, "REP014")
        assert found
        assert fixtures.REP014_BAD_JOIN_LINE in {v.line for v in found}

    def test_condition_wait_on_held_lock_is_the_idiom(self):
        assert violations_of(fixtures.REP014_GOOD_COND_WAIT, "REP014") == []


class TestRep015Variants:
    def test_bound_method_handler(self):
        found = violations_of(fixtures.REP015_BAD_METHOD, "REP015")
        assert found
        assert fixtures.REP015_BAD_METHOD_LINE in {v.line for v in found}

    def test_sig_ign_constant_is_silent(self):
        assert violations_of(fixtures.REP015_GOOD_SIG_IGN, "REP015") == []

    def test_os_write_is_signal_safe(self):
        assert violations_of(fixtures.REP015_GOOD_OS_WRITE, "REP015") == []


class TestRep016Variants:
    def test_triangle_over_bound_property_sweep(self):
        found = violations_of(fixtures.REP016_BAD_TRIANGLE, "REP016")
        assert found
        assert fixtures.REP016_BAD_TRIANGLE_LINE in {v.line for v in found}

    def test_double_generator_comprehension(self):
        found = violations_of(fixtures.REP016_BAD_COMPREHENSION, "REP016")
        assert found
        assert fixtures.REP016_BAD_COMPREHENSION_LINE in {
            v.line for v in found
        }

    def test_blocking_layer_owns_the_shape(self):
        report = analyze_source(
            fixtures.REP016_BAD_NESTED,
            path="src/repro/blocking/blockers.py",
            select=("REP016",),
        )
        assert report.violations == []

    def test_canonical_enumerator_is_exempt(self):
        report = analyze_source(
            fixtures.REP016_BAD_NESTED,
            path="src/repro/data/pairs.py",
            select=("REP016",),
        )
        assert report.violations == []

    def test_small_scope_pairing_is_silent(self):
        # The incremental clusterer's new-refs x existing-refs linkage
        # loop: neither iterable is a full property sweep.
        source = (
            "def link(new_refs, existing):\n"
            "    return [\n"
            "        (new, old)\n"
            "        for new in new_refs\n"
            "        for old in existing\n"
            "        if old.source != new.source\n"
            "    ]\n"
        )
        assert violations_of(source, "REP016") == []

    def test_tests_are_exempt(self):
        report = analyze_source(
            fixtures.REP016_BAD_NESTED, role=ROLE_TESTS, select=("REP016",)
        )
        assert report.violations == []


class TestSelectIgnoreFlags:
    """``repro lint --select`` / ``--ignore`` composition via the CLI."""

    BAD_BOTH = fixtures.REP002_BAD_OPEN + "\n" + (
        "import time\n"
        "def expired(started, budget):\n"
        "    return time.time() - started > budget\n"
    )

    def run(self, tmp_path, capsys, *flags):
        import json

        from repro.cli import main as cli_main

        target = tmp_path / "bad.py"
        target.write_text(self.BAD_BOTH)
        code = cli_main(
            ["lint", str(target), "--no-baseline", "--json", *flags]
        )
        captured = capsys.readouterr()
        document = json.loads(captured.out) if captured.out.startswith("{") else None
        return code, document, captured.err

    def test_select_narrows_to_named_rules(self, tmp_path, capsys):
        code, document, _ = self.run(tmp_path, capsys, "--select", "REP003")
        assert code == 1
        assert set(document["by_rule"]) == {"REP003"}

    def test_ignore_drops_named_rules(self, tmp_path, capsys):
        code, document, _ = self.run(tmp_path, capsys, "--ignore", "REP002")
        assert code == 1
        rules = set(document["by_rule"])
        assert "REP002" not in rules and "REP003" in rules

    def test_ignore_composes_with_select(self, tmp_path, capsys):
        code, document, _ = self.run(
            tmp_path, capsys,
            "--select", "REP002,REP003", "--ignore", "REP002",
        )
        assert code == 1
        assert set(document["by_rule"]) == {"REP003"}

    def test_emptying_the_selection_is_a_usage_error(self, tmp_path, capsys):
        code, _document, _ = self.run(
            tmp_path, capsys, "--select", "REP003", "--ignore", "REP003"
        )
        assert code == 2

    def test_unknown_code_in_ignore_names_the_flag(self, tmp_path, capsys):
        code, _document, err = self.run(tmp_path, capsys, "--ignore", "REP999")
        assert code == 2
        assert "--ignore" in err
