"""Per-rule fixtures: one violating snippet and one clean idiom per rule.

Each positive test asserts the rule id *and* the reported line so findings
stay actionable; each negative locks in that the blessed idiom passes.
"""

import textwrap

from repro.lint import lint_source


def findings_for(source: str, rule_id: str, path: str = "snippet.py"):
    return [
        f for f in lint_source(textwrap.dedent(source), path=path) if f.rule_id == rule_id
    ]


class TestR001WallClock:
    def test_time_time_flagged(self):
        found = findings_for(
            """\
            import time

            def stamp():
                return time.time()
            """,
            "R001",
        )
        assert [f.line for f in found] == [4]
        assert "wall clock" in found[0].message

    def test_aliased_import_flagged(self):
        found = findings_for(
            """\
            import time as _clock
            t = _clock.monotonic()
            """,
            "R001",
        )
        assert [f.line for f in found] == [2]

    def test_from_import_datetime_now_flagged(self):
        found = findings_for(
            """\
            from datetime import datetime
            stamp = datetime.now()
            """,
            "R001",
        )
        assert [f.line for f in found] == [2]

    def test_simtime_usage_clean(self):
        found = findings_for(
            """\
            from repro.common.simtime import HOUR

            def later(now: float) -> float:
                return now + HOUR
            """,
            "R001",
        )
        assert found == []

    def test_unrelated_time_attribute_clean(self):
        # A domain object's own `.time` attribute is not the stdlib call.
        found = findings_for(
            """\
            def f(event):
                return event.time()
            """,
            "R001",
        )
        assert found == []

    # A wall-clock value can only reach output through a read, and R001
    # flags every read: the value's later flow needs no second rule.
    def test_wall_value_returned_from_payload_function(self):
        found = findings_for(
            """\
            import time

            def snapshot():
                started = time.time()
                return {"started": started}
            """,
            "R001",
        )
        assert [f.line for f in found] == [4]

    def test_wall_value_reaching_json_dump(self):
        found = findings_for(
            """\
            import json
            import time

            def dump(out):
                now = time.time()
                json.dump({"t": now}, out)
            """,
            "R001",
        )
        assert [f.line for f in found] == [5]

    def test_laundering_through_arithmetic_and_fstring(self):
        found = findings_for(
            """\
            import time

            def header(handle):
                t = time.time() * 1000.0
                handle.write(f"started {t}")
            """,
            "R001",
        )
        assert [f.line for f in found] == [4]

    def test_wall_read_without_escape_flagged(self):
        found = findings_for(
            """\
            import time

            def check(log):
                t = time.time()
                local = t + 1.0
                del local
            """,
            "R001",
        )
        assert [f.line for f in found] == [4]

    def test_untainted_value_is_clean(self):
        assert (
            lint_source(
                textwrap.dedent(
                    """\
                    import json

                    def dump(out, now):
                        json.dump({"t": now}, out)
                    """
                ),
                path="snippet.py",
            )
            == []
        )


class TestR002RngSource:
    def test_import_random_flagged(self):
        found = findings_for("import random\n", "R002")
        assert [f.line for f in found] == [1]

    def test_default_rng_flagged(self):
        found = findings_for(
            """\
            import numpy as np
            rng = np.random.default_rng(0)
            """,
            "R002",
        )
        assert [f.line for f in found] == [2]

    def test_np_random_seed_flagged(self):
        found = findings_for(
            """\
            import numpy as np
            np.random.seed(42)
            """,
            "R002",
        )
        assert [f.line for f in found] == [2]

    def test_registry_stream_clean(self):
        found = findings_for(
            """\
            from repro.common.rng import RngRegistry
            rng = RngRegistry(7).stream("component.noise")
            x = rng.random()
            """,
            "R002",
        )
        assert found == []

    def test_generator_annotation_clean(self):
        # Annotations are not values, wherever they sit.
        found = findings_for(
            """\
            import numpy as np
            from numpy.random import Generator

            SEEDS: np.random.SeedSequence | None = None

            def f(rng: np.random.Generator, g: Generator) -> np.random.Generator:
                x: np.random.Generator = rng
                return float(x.random())
            """,
            "R002",
        )
        assert found == []

    def test_rng_module_itself_exempt(self):
        found = findings_for(
            """\
            import numpy as np
            rng = np.random.default_rng(0)
            """,
            "R002",
            path="src/repro/common/rng.py",
        )
        assert found == []

    def test_aliased_constructor_and_downstream_draw(self):
        # The alias is flagged where it is taken; the call through it and
        # the draw are then clean of R002's call check.
        found = findings_for(
            """\
            import numpy as np

            def sample():
                mk = np.random.default_rng
                rng = mk(7)
                return rng.normal()
            """,
            "R002",
        )
        assert [f.line for f in found] == [4]
        assert "numpy.random.default_rng used as a value" in found[0].message

    def test_draw_on_directly_constructed_generator(self):
        found = findings_for(
            """\
            import numpy as np

            def sample():
                rng = np.random.default_rng(7)
                return rng.normal()
            """,
            "R002",
        )
        assert [f.line for f in found] == [4]

    def test_rng_registry_module_is_exempt(self):
        found = findings_for(
            """\
            import numpy as np

            def fallback_rng(seed):
                mk = np.random.default_rng
                rng = mk(seed)
                return rng.normal()
            """,
            "R002",
            path="repro/common/rng.py",
        )
        assert found == []

    def test_draw_on_untracked_receiver_is_clean(self):
        # Generators threaded in as parameters have legitimate provenance.
        assert lint_source("def sample(rng):\n    return rng.normal()\n") == []


class TestR003StreamNames:
    def test_fstring_name_flagged(self):
        found = findings_for(
            """\
            def build(rngs, name):
                return rngs.stream(f"workload.{name}")
            """,
            "R003",
        )
        assert [f.line for f in found] == [2]
        assert "f-string" in found[0].message

    def test_variable_name_flagged(self):
        found = findings_for(
            """\
            def build(rngs, name):
                return rngs.stream(name)
            """,
            "R003",
        )
        assert [f.line for f in found] == [2]

    def test_duplicate_name_flagged_at_second_site(self):
        found = findings_for(
            """\
            def one(rngs):
                return rngs.stream("workload.bi")

            def two(rngs):
                return rngs.stream("workload.bi")
            """,
            "R003",
        )
        assert [f.line for f in found] == [5]
        assert "line 2" in found[0].message

    def test_unique_literals_clean(self):
        found = findings_for(
            """\
            def build(rngs):
                a = rngs.stream("workload.etl")
                b = rngs.stream("workload.bi")
                return a, b
            """,
            "R003",
        )
        assert found == []


class TestR004SimtimeEquality:
    def test_time_local_equality_flagged(self):
        found = findings_for(
            """\
            def same(arrival_time, finish_time):
                return arrival_time == finish_time
            """,
            "R004",
        )
        assert [f.line for f in found] == [2]
        assert found[0].severity == "warning"

    def test_simtime_constant_equality_flagged(self):
        found = findings_for(
            """\
            from repro.common.simtime import HOUR

            def at_hour_boundary(t):
                return t == 3 * HOUR
            """,
            "R004",
        )
        assert [f.line for f in found] == [4]

    def test_tolerance_comparison_clean(self):
        found = findings_for(
            """\
            def same(arrival_time, finish_time):
                return abs(arrival_time - finish_time) <= 1e-9
            """,
            "R004",
        )
        assert found == []

    def test_none_sentinel_clean(self):
        found = findings_for(
            """\
            def unset(start_time):
                return start_time == None  # noqa: E711 (sentinel, not float eq)
            """,
            "R004",
        )
        assert found == []


class TestR005MutableDefaults:
    def test_list_default_flagged(self):
        found = findings_for(
            """\
            def collect(item, acc=[]):
                acc.append(item)
                return acc
            """,
            "R005",
        )
        assert [f.line for f in found] == [1]

    def test_set_call_default_flagged(self):
        found = findings_for(
            """\
            def collect(item, seen=set(), *, tags={}):
                return item
            """,
            "R005",
        )
        assert len(found) == 2

    def test_none_default_clean(self):
        found = findings_for(
            """\
            def collect(item, acc=None):
                acc = [] if acc is None else acc
                acc.append(item)
                return acc
            """,
            "R005",
        )
        assert found == []


class TestR006SilentExcept:
    def test_bare_except_flagged(self):
        found = findings_for(
            """\
            def apply(actuator):
                try:
                    actuator.resize()
                except:
                    pass
            """,
            "R006",
        )
        assert [f.line for f in found] == [4]

    def test_blanket_swallow_flagged(self):
        found = findings_for(
            """\
            def apply(actuator):
                try:
                    actuator.resize()
                except Exception:
                    pass
            """,
            "R006",
        )
        assert [f.line for f in found] == [4]

    def test_specific_handler_clean(self):
        found = findings_for(
            """\
            def apply(actuator, ledger):
                try:
                    actuator.resize()
                except TimeoutError as exc:
                    ledger.record_failure(exc)
            """,
            "R006",
        )
        assert found == []

    def test_blanket_with_real_handling_clean(self):
        found = findings_for(
            """\
            def apply(actuator, ledger):
                try:
                    actuator.resize()
                except Exception as exc:
                    ledger.record_failure(exc)
                    raise
            """,
            "R006",
        )
        assert found == []

    def test_raise_in_nested_def_does_not_count(self):
        found = findings_for(
            """\
            def tick(monitor):
                try:
                    monitor.poll()
                except (ValueError, BaseException):
                    def later():
                        raise
                    defer(later)
                try:
                    monitor.poll()
                except Exception:
                    if monitor.fatal:
                        def later():
                            pass
                        defer(later)
                        raise
            """,
            "R006",
        )
        assert [f.line for f in found] == [4]


class TestR007PublicAnnotations:
    def test_missing_annotations_flagged_in_core(self):
        found = findings_for(
            """\
            def estimate(credits, horizon) -> float:
                return credits * horizon

            class Model:
                def fit(self, records):
                    return self
            """,
            "R007",
            path="src/repro/core/model.py",
        )
        assert [(f.line, f.rule_id) for f in found] == [(1, "R007"), (5, "R007")]
        assert "credits" in found[0].message
        assert "return" in found[1].message

    def test_fully_annotated_clean(self):
        found = findings_for(
            """\
            def estimate(credits: float, horizon: float) -> float:
                return credits * horizon

            class Model:
                def __init__(self, alpha: float = 0.5):
                    self.alpha = alpha

                def fit(self, records: list) -> "Model":
                    return self

                def _helper(self, x):
                    return x
            """,
            "R007",
            path="src/repro/costmodel/model.py",
        )
        assert found == []

    def test_out_of_scope_package_ignored(self):
        found = findings_for(
            "def estimate(credits, horizon):\n    return credits * horizon\n",
            "R007",
            path="src/repro/portal/reports.py",
        )
        assert found == []


class TestR008SetIteration:
    def test_for_over_set_call_flagged(self):
        found = findings_for(
            """\
            def render(warehouses):
                for name in set(warehouses):
                    print(name)
            """,
            "R008",
        )
        assert [f.line for f in found] == [2]

    def test_for_over_set_union_variable_flagged(self):
        found = findings_for(
            """\
            def render(a, b):
                names = set(a) | set(b)
                rows = []
                for name in names:
                    rows.append(name)
                return rows
            """,
            "R008",
        )
        assert [f.line for f in found] == [4]

    def test_list_of_set_flagged(self):
        found = findings_for(
            "def order(xs):\n    return list(set(xs))\n",
            "R008",
        )
        assert [f.line for f in found] == [2]

    def test_sorted_set_clean(self):
        found = findings_for(
            """\
            def render(a, b):
                names = set(a) | set(b)
                return sorted(names)
            """,
            "R008",
        )
        assert found == []

    def test_membership_use_clean(self):
        found = findings_for(
            """\
            def keep(records, wanted):
                allowed = set(wanted)
                return [r for r in records if r in allowed]
            """,
            "R008",
        )
        assert found == []

    # Unsorted filesystem listings and set-valued attributes are unordered
    # sources too, with the same loop/comprehension/materializer semantics.
    def test_materializing_listdir(self):
        found = findings_for(
            """\
            import os

            def names(base):
                return list(os.listdir(base))
            """,
            "R008",
        )
        assert [f.line for f in found] == [4]
        assert "list()" in found[0].message

    def test_sorted_listdir_is_clean(self):
        found = findings_for(
            """\
            import os

            def names(base):
                return sorted(os.listdir(base))
            """,
            "R008",
        )
        assert found == []

    def test_loop_appending_glob_results(self):
        found = findings_for(
            """\
            def collect(base):
                out = []
                for path in base.glob("*.json"):
                    out.append(path)
                return out
            """,
            "R008",
        )
        assert [f.line for f in found] == [3]
        assert "for-loop" in found[0].message

    def test_comprehension_over_iterdir(self):
        found = findings_for(
            """\
            def stems(base):
                return [p.stem for p in base.iterdir()]
            """,
            "R008",
        )
        assert [f.line for f in found] == [2]
        assert "comprehension" in found[0].message

    def test_sorted_comprehension_is_clean(self):
        found = findings_for(
            """\
            def stems(base, names):
                return sorted(p.stem for p in base.iterdir()), sorted(n for n in set(names))
            """,
            "R008",
        )
        assert found == []

    def test_set_valued_attribute_iterated_in_order(self):
        found = findings_for(
            """\
            class Registry:
                def __init__(self):
                    self.names = set()

                def render(self):
                    out = []
                    for name in self.names:
                        out.append(name)
                    return out
            """,
            "R008",
        )
        assert [f.line for f in found] == [7]

    def test_sorted_attribute_iteration_is_clean(self):
        found = findings_for(
            """\
            class Registry:
                def __init__(self):
                    self.names = set()

                def render(self):
                    out = []
                    for name in sorted(self.names):
                        out.append(name)
                    return out

            class Other:
                def render(self):
                    return list(self.names)
            """,
            "R008",
        )
        assert found == []

    def test_keyed_sort_of_set_flagged(self):
        # key= keeps tied elements in input order: the set's order leaks.
        found = findings_for(
            "def f(a):\n    return sorted(set(a), key=len)\n",
            "R008",
        )
        assert [f.line for f in found] == [2]
        assert "sorted(key=...)" in found[0].message

    def test_unkeyed_sort_of_set_clean(self):
        assert findings_for("def f(a):\n    return sorted(set(a))\n", "R008") == []

    def test_keyed_min_and_sorted_comprehension_flagged(self):
        found = findings_for(
            """\
            def pick(names):
                shortest = min(set(names), key=len)
                return shortest, sorted((n for n in set(names)), key=len)
            """,
            "R008",
        )
        assert [f.line for f in found] == [2, 3]

    def test_listdir_counting_loop_flagged(self):
        # The loop is flagged whatever its body does: an order-free body
        # today is one append away from an ordered one.
        found = findings_for(
            """\
            import os

            def count(base):
                n = 0
                for _name in os.listdir(base):
                    n = n + 1
                return n
            """,
            "R008",
        )
        assert [f.line for f in found] == [5]


class TestR009PrintInLibrary:
    def test_print_in_library_module_flagged(self):
        found = findings_for(
            """\
            def report(savings: float) -> None:
                print(f"saved {savings:.1%}")
            """,
            "R009",
            path="src/repro/core/ledger.py",
        )
        assert [f.line for f in found] == [2]
        assert "repro.obs" in found[0].message

    def test_cli_frontends_exempt(self):
        source = 'print("usage: ...")\n'
        for path in (
            "src/repro/cli.py",
            "src/repro/obs/cli.py",
            "src/repro/lint/__main__.py",
        ):
            assert findings_for(source, "R009", path=path) == []

    def test_lint_package_exempt(self):
        found = findings_for(
            'print("3 finding(s)")\n', "R009", path="src/repro/lint/findings.py"
        )
        assert found == []

    def test_outside_repro_tree_ignored(self):
        found = findings_for('print("hi")\n', "R009", path="examples/quickstart.py")
        assert found == []

    def test_shadowed_print_method_clean(self):
        found = findings_for(
            """\
            class Table:
                def render(self, printer) -> str:
                    return printer.print("x")
            """,
            "R009",
            path="src/repro/portal/reports.py",
        )
        assert found == []


class TestR010BoundedRetries:
    def test_escapeless_while_true_flagged(self):
        found = findings_for(
            """\
            def keep_trying(client):
                while True:
                    try:
                        client.alter()
                    except ValueError:
                        continue
            """,
            "R010",
        )
        assert [f.line for f in found] == [2]
        assert "unbounded" in found[0].message

    def test_while_one_flagged(self):
        found = findings_for(
            """\
            while 1:
                poll()
            """,
            "R010",
        )
        assert [f.line for f in found] == [1]

    def test_break_escapes(self):
        found = findings_for(
            """\
            def drain(queue):
                while True:
                    if queue.empty():
                        break
                    queue.pop()
            """,
            "R010",
        )
        assert found == []

    def test_return_escapes_even_inside_try(self):
        found = findings_for(
            """\
            def retry(client, attempts: int):
                while True:
                    try:
                        return client.alter()
                    except ValueError:
                        attempts -= 1
            """,
            "R010",
        )
        assert found == []

    def test_break_in_nested_loop_does_not_escape_outer(self):
        found = findings_for(
            """\
            while True:
                for item in batch():
                    if item is None:
                        break
                process(batch)
            """,
            "R010",
        )
        assert [f.line for f in found] == [1]

    def test_nested_def_return_does_not_escape(self):
        found = findings_for(
            """\
            while True:
                def helper():
                    return 1
                helper()
            """,
            "R010",
        )
        assert [f.line for f in found] == [1]

    def test_bounded_while_clean(self):
        found = findings_for(
            """\
            attempts = 0
            while attempts < 3:
                attempts += 1
            """,
            "R010",
        )
        assert found == []

    # Blanket handlers are R006's alone: R010 judges only loops, and each
    # handler verdict below is R006's.
    def test_working_blanket_handler_flagged(self):
        source = """\
            def tick(monitor):
                try:
                    monitor.poll()
                except Exception as exc:
                    log(exc)
            """
        assert findings_for(source, "R010") == []
        found = findings_for(source, "R006")
        assert [f.line for f in found] == [4]
        assert "re-raise" in found[0].message

    def test_reraising_blanket_handler_clean(self):
        source = """\
            def tick(monitor):
                try:
                    monitor.poll()
                except Exception as exc:
                    raise RuntimeError("poll failed") from exc
            """
        assert findings_for(source, "R010") == []
        assert findings_for(source, "R006") == []

    def test_trivial_swallow_left_to_r006(self):
        source = """\
            try:
                poll()
            except Exception:
                pass
            """
        assert findings_for(source, "R010") == []
        assert len(findings_for(source, "R006")) == 1

    def test_bare_except_left_to_r006(self):
        source = """\
            try:
                poll()
            except:
                log("?")
            """
        assert findings_for(source, "R010") == []
        assert len(findings_for(source, "R006")) == 1

    def test_specific_handler_clean(self):
        source = """\
            def tick(monitor):
                try:
                    monitor.poll()
                except ValueError as exc:
                    log(exc)
            """
        assert findings_for(source, "R010") == []
        assert findings_for(source, "R006") == []


class TestR011ProcessPoolConfinement:
    def test_multiprocessing_import_flagged(self):
        found = findings_for(
            """\
            import multiprocessing

            def fan_out(jobs):
                with multiprocessing.Pool(4) as pool:
                    return pool.map(run, jobs)
            """,
            "R011",
            path="src/repro/experiments/runner.py",
        )
        assert [f.line for f in found] == [1]
        assert "repro.parallel.run_jobs" in found[0].message

    def test_concurrent_futures_from_import_flagged(self):
        found = findings_for(
            "from concurrent.futures import ProcessPoolExecutor\n",
            "R011",
            path="src/repro/core/optimizer.py",
        )
        assert [f.line for f in found] == [1]

    def test_parallel_package_exempt(self):
        found = findings_for(
            """\
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            """,
            "R011",
            path="src/repro/parallel/pool.py",
        )
        assert found == []

    def test_outside_repro_tree_ignored(self):
        found = findings_for(
            "import multiprocessing\n", "R011", path="scripts/load_test.py"
        )
        assert found == []

    def test_relative_import_not_confused(self):
        # `from .concurrent import x` is a local module, not the stdlib.
        found = findings_for(
            "from .concurrent import helpers\n",
            "R011",
            path="src/repro/costmodel/model.py",
        )
        assert found == []


class TestR018ResourceQuarantine:
    def test_getrusage_outside_quarantine_flagged(self):
        found = findings_for(
            """\
            import resource

            def peak_kb() -> int:
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            """,
            "R018",
            path="src/repro/experiments/runner.py",
        )
        assert [f.line for f in found] == [4]
        assert "ResourceProbe" in found[0].message

    def test_tracemalloc_outside_quarantine_flagged(self):
        found = findings_for(
            """\
            import tracemalloc

            def measure():
                tracemalloc.start()
                return tracemalloc.get_traced_memory()
            """,
            "R018",
            path="src/repro/obs/metrics.py",
        )
        assert [f.line for f in found] == [4, 5]

    def test_quarantine_module_exempt(self):
        found = findings_for(
            """\
            import resource as _resource

            def peak_rss_kb() -> int:
                return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
            """,
            "R018",
            path="src/repro/obs/stream.py",
        )
        assert found == []

    def test_benchmarks_out_of_scope(self):
        found = findings_for(
            "import tracemalloc\ntracemalloc.start()\n",
            "R018",
            path="benchmarks/bench_stream_merge.py",
        )
        assert found == []

    def test_aliased_import_resolved(self):
        found = findings_for(
            """\
            import os as _os

            def load():
                return _os.getloadavg()
            """,
            "R018",
            path="src/repro/portal/reports.py",
        )
        assert [f.line for f in found] == [4]


class TestR019DurableWriteDiscipline:
    def test_open_write_mode_flagged(self):
        found = findings_for(
            """\
            def publish(path):
                with open(path, "w") as handle:
                    handle.write("state")
            """,
            "R019",
            path="src/repro/core/ledger.py",
        )
        assert [f.line for f in found] == [2]
        assert "atomic helpers" in found[0].message

    def test_open_mode_keyword_flagged(self):
        found = findings_for(
            'handle = open("journal.jsonl", mode="ab")\n',
            "R019",
            path="src/repro/durability/checkpoint.py",
        )
        assert [f.line for f in found] == [1]

    def test_open_dynamic_mode_flagged(self):
        # A mode the linter can't prove is a read is flagged, not trusted.
        found = findings_for(
            """\
            def touch(path, mode):
                return open(path, mode)
            """,
            "R019",
            path="src/repro/durability/checkpoint.py",
        )
        assert [f.line for f in found] == [2]

    def test_write_text_and_savez_flagged(self):
        found = findings_for(
            """\
            import numpy as np

            def save(path, meta_path, arrays, text):
                np.savez(path, *arrays)
                meta_path.write_text(text)
            """,
            "R019",
            path="src/repro/core/ledger.py",
        )
        assert [f.line for f in found] == [4, 5]
        assert "atomic_write_bytes" in found[0].message

    def test_open_read_clean(self):
        found = findings_for(
            """\
            def load(path):
                with open(path) as handle:
                    return handle.read()

            def load_binary(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """,
            "R019",
            path="src/repro/durability/checkpoint.py",
        )
        assert found == []

    def test_io_module_exempt(self):
        found = findings_for(
            """\
            def atomic_write_text(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
            "R019",
            path="src/repro/durability/io.py",
        )
        assert found == []

    def test_export_surface_out_of_scope(self):
        found = findings_for(
            'open("report.html", "w").write("<html/>")\n',
            "R019",
            path="src/repro/portal/reports.py",
        )
        assert found == []


class TestR020OnePercentile:
    def test_numpy_quantile_outside_stats_flagged(self):
        found = findings_for(
            """\
            import numpy as numeric

            def p99(latencies):
                return float(numeric.quantile(latencies, 0.99))
            """,
            "R020",
            path="src/repro/learning/reward.py",
        )
        assert [f.line for f in found] == [4]
        assert "repro.common.stats.percentile" in found[0].message

    def test_from_import_flagged(self):
        found = findings_for(
            """\
            from numpy import percentile as pct

            def p99(latencies):
                return pct(latencies, 99)
            """,
            "R020",
            path="src/repro/portal/kpis.py",
        )
        assert [f.line for f in found] == [4]

    def test_stats_module_and_benchmarks_clean(self):
        source = """\
            import numpy as np

            def p99(values):
                return float(np.percentile(values, 99))
            """
        assert findings_for(source, "R020", path="src/repro/common/stats.py") == []
        assert findings_for(source, "R020", path="benchmarks/bench_ablation_selfcorrect.py") == []
