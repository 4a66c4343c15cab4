"""CLI tests: in-process command coverage plus true subprocess smoke tests.

The subprocess tests exercise the ``python -m repro`` entrypoint end to end
on the quickstart instance (Allgather on the 4-node ring of Figure 2) — the
same path the CI smoke step runs — so the console entrypoint cannot regress
silently.
"""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import TopologySpecError, main, parse_topology
from repro.engine import AlgorithmCache
from repro.service import PlanningService, PlanRegistry, ServerThread, make_server

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")

QUICKSTART = ["Allgather", "-t", "ring:4", "-C", "1", "-S", "2", "-R", "3"]


def run_cli(args, cache_dir):
    """Run the module entrypoint in a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )


def run_python(script):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )


class TestLazyPackage:
    """``repro.cli`` resolves ``main`` / ``build_parser`` / ``CliError`` on
    first use, and ``repro.cli.main`` stays the entry-point function even
    though a submodule of that name exists."""

    def test_parse_topology_does_not_import_the_subcommands(self):
        done = run_python(
            "import sys\n"
            "from repro.cli.topologies import parse_topology\n"
            "from repro.cli import parse_topology as same, TopologySpecError\n"
            "assert same is parse_topology\n"
            "assert 'repro.cli.main' not in sys.modules\n"
            "assert 'argparse' not in sys.modules\n"
        )
        assert done.returncode == 0, done.stderr

    def test_function_first_then_submodule(self):
        done = run_python(
            "import sys, types\n"
            "from repro.cli import main\n"
            "assert isinstance(main, types.FunctionType)\n"
            "import repro.cli.main\n"
            "import repro.cli\n"
            "assert repro.cli.main is main\n"
            "from repro.cli import main as again, build_parser, CliError\n"
            "assert again is main is sys.modules['repro.cli.main'].main\n"
            "assert build_parser is sys.modules['repro.cli.main'].build_parser\n"
            "assert issubclass(CliError, Exception)\n"
        )
        assert done.returncode == 0, done.stderr

    def test_submodule_first_then_function(self):
        done = run_python(
            "import importlib, types\n"
            "module = importlib.import_module('repro.cli.main')\n"
            "assert isinstance(module, types.ModuleType)\n"
            "from repro.cli import main\n"
            "assert main is module.main\n"
            "import repro.cli\n"
            "assert repro.cli.main is module.main\n"
            "try:\n"
            "    main(['--version'])\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0\n"
        )
        assert done.returncode == 0, done.stderr

    def test_console_script_target_resolves(self):
        """``repro = "repro.cli:main"``: import the module, getattr the name."""
        done = run_python(
            "import importlib\n"
            "target = getattr(importlib.import_module('repro.cli'), 'main')\n"
            "assert callable(target) and target.__module__ == 'repro.cli.main'\n"
        )
        assert done.returncode == 0, done.stderr

    def test_unknown_attribute_raises(self):
        import repro.cli

        with pytest.raises(AttributeError):
            repro.cli.no_such_name


class TestTopologySpecs:
    def test_named_machines(self):
        assert parse_topology("dgx1").num_nodes == 8
        assert parse_topology("amd_z52").num_nodes == 8

    def test_parameterized(self):
        assert parse_topology("ring:6").num_nodes == 6
        assert parse_topology("fc:4:2").bandwidth_between(0, 1) == 2
        assert parse_topology("torus:2x3").num_nodes == 6
        assert parse_topology("hypercube:3").num_nodes == 8

    def test_bad_specs_rejected(self):
        for spec in ("", "ring", "ring:x", "torus:6", "mesh:4", "dgx1:8"):
            with pytest.raises(TopologySpecError):
                parse_topology(spec)


class TestInProcess:
    def test_synthesize_writes_cache_and_exports(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        xml = tmp_path / "ag.xml"
        plan = tmp_path / "ag.json"
        code = main(
            [
                "synthesize", *QUICKSTART,
                "--cache-dir", str(cache),
                "--xml", str(xml), "--plan", str(plan),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sat" in out
        assert xml.exists() and plan.exists()
        assert json.loads(plan.read_text())["format"] == "repro-sccl/plan"

        # Warm re-run replays from the cache.
        assert main(["synthesize", *QUICKSTART, "--cache-dir", str(cache), "-q"]) == 0
        assert "[cached" in capsys.readouterr().out

    def test_synthesize_unsat_exits_nonzero(self, tmp_path):
        code = main(
            [
                "synthesize", "Allgather", "-t", "ring:4",
                "-C", "1", "-S", "1", "-R", "1",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 1

    def test_synthesize_prints_the_cut_behind_an_arithmetic_unsat(self, tmp_path, capsys):
        args = [
            "synthesize", "Gather", "-t", "dgx1", "-C", "3", "-S", "3", "-R", "3",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        for cached in (False, True):
            assert main(args) == 1
            out = capsys.readouterr().out
            assert ("[cached" in out) == cached
            assert "no solver ran: 21 chunks must enter nodes [0]" in out

    def test_import_roundtrip_and_store(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        xml = tmp_path / "ag.xml"
        assert main(
            ["synthesize", *QUICKSTART, "--no-cache", "-q", "--xml", str(xml)]
        ) == 0
        assert main(
            ["import", str(xml), "--store", "--cache-dir", str(cache), "-q"]
        ) == 0
        out = capsys.readouterr().out
        assert "re-verified" in out and "stored into cache" in out
        # The stored entry is servable: export straight from the cache.
        assert main(
            [
                "export", *QUICKSTART,
                "--cache-dir", str(cache),
                "--format", "xml", "-o", str(tmp_path / "out.xml"),
            ]
        ) == 0
        assert (tmp_path / "out.xml").read_text().startswith("<algo")

    def test_import_rejects_tampered_file(self, tmp_path, capsys):
        xml = tmp_path / "ag.xml"
        assert main(
            ["synthesize", *QUICKSTART, "--no-cache", "-q", "--xml", str(xml)]
        ) == 0
        # Relabeling the copy-only Allgather as a combining collective must
        # fail spec re-verification (no reduction ever accumulates).
        xml.write_text(
            xml.read_text().replace('coll="allgather"', 'coll="reducescatter"')
        )
        assert main(["import", str(xml)]) == 1
        assert "verification" in capsys.readouterr().err

    def test_pareto_exports_frontier(self, tmp_path, capsys):
        export_dir = tmp_path / "plans"
        code = main(
            [
                "pareto", "Allgather", "-t", "ring:4", "-k", "1",
                "--max-steps", "3",
                "--cache-dir", str(tmp_path / "cache"),
                "--export-dir", str(export_dir),
                "--export-format", "both",
            ]
        )
        assert code == 0
        assert "Allgather" in capsys.readouterr().out
        names = sorted(p.name for p in export_dir.iterdir())
        assert any(n.endswith(".xml") for n in names)
        assert any(n.endswith(".json") for n in names)

    def test_pareto_speculative(self, tmp_path, capsys):
        code = main(
            [
                "pareto", "Allgather", "-t", "ring:4",
                "--max-steps", "4",
                "--strategy", "speculative", "--max-workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy=speculative" in out
        assert "Bandwidth" in out

    def test_pareto_rejects_zero_max_chunks(self, capsys):
        code = main(["pareto", "Allgather", "-t", "ring:4", "--max-chunks", "0", "--no-cache"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert "max_chunks" in captured.err
        assert "no satisfiable candidates" not in captured.out

    @pytest.mark.parametrize("max_steps", ["0", "-3"])
    def test_pareto_rejects_max_steps_below_one(self, max_steps, capsys):
        code = main(["pareto", "Allgather", "-t", "ring:4", "--max-steps", max_steps, "--no-cache"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert "max_steps" in captured.err
        assert "step budget exhausted" not in captured.out

    def test_pareto_names_the_bound_that_left_the_step_budget_empty(self, capsys):
        code = main(["pareto", "Allgather", "-t", "ring:4", "--max-steps", "1", "--no-cache"])
        assert code == 1
        out = capsys.readouterr().out
        assert "no satisfiable candidates found" in out
        assert "max_steps=1 is below the Allgather latency lower bound 2" in out

    def test_serve_accepts_routes_dir_without_offering_it(self, capsys):
        from repro.cli.main import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--routes-dir", "ignored"])
        assert args.func.__name__ == "_cmd_serve"
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--help"])
        assert "--routes-dir" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["request", "--stats", "--routes-dir", "r"])
        assert exc.value.code == 2

    def test_pareto_strategy_choices_come_from_the_engine(self, capsys):
        from repro.engine import STRATEGIES

        assert STRATEGIES == ("serial", "incremental", "parallel", "speculative")
        for bogus in ("bogus", "auto"):
            with pytest.raises(SystemExit) as exc:
                main(["pareto", "Allgather", "-t", "ring:4", "--strategy", bogus])
            assert exc.value.code == 2
            listed = ", ".join(repr(name) for name in STRATEGIES)
            assert f"invalid choice: '{bogus}' (choose from {listed})" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["pareto", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"strategy: {', '.join(STRATEGIES)} (default incremental)" in help_text

    def test_a_pareto_run_that_probes_nothing_exhausts_no_budget(self, tmp_path, capsys):
        code = main(["pareto", "Alltoall", "-t", "star:3", "--max-chunks", "1",
                     "--max-steps", "3", "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 1
        assert "note: no candidate to probe" in out
        assert "[step budget exhausted]" not in out

    def test_a_pareto_run_the_time_limit_cut_says_so(self, tmp_path, capsys):
        """``--time-limit`` bounds the whole command: at 0 s no probe starts,
        and the note names the step count where the time ran out."""
        code = main(["pareto", "Allgather", "-t", "ring:4", "--time-limit", "0",
                     "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 1
        assert "note: the time limit ran out at S=2" in out
        assert "'solver_calls': 0" in out and "[step budget exhausted]" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "Allgather", "-t", "ring:4", "-C", "1", "-S", "2", "-R", "3",
             "--root", "7"],
            ["pareto", "Alltoall", "-t", "ring:4", "--root", "-3"],
        ],
        ids=["synthesize", "pareto"],
    )
    def test_root_of_a_rootless_collective_is_refused(self, argv, tmp_path, capsys):
        code = main([*argv, "--cache-dir", str(tmp_path / "cache")])
        assert code == 1
        assert "has no root" in capsys.readouterr().err
        assert not list((tmp_path / "cache").glob("**/*.json"))

    def test_cache_evict_prunes_to_n_entries(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        for rounds in ("3", "4", "5"):
            assert main(
                [
                    "synthesize", "Allgather", "-t", "ring:4",
                    "-C", "1", "-S", "2", "-R", rounds,
                    "--cache-dir", str(cache), "-q",
                ]
            ) == 0
        # Deterministic recency order for the assertion below.
        entries = sorted(cache.glob("*/*.json"))
        for index, path in enumerate(entries):
            os.utime(path, (2000.0 + index, 2000.0 + index))
        assert main(["cache", "evict", "--max-entries", "1", "--cache-dir", str(cache)]) == 0
        assert "evicted 2 of 3" in capsys.readouterr().out
        assert len(list(cache.glob("*/*.json"))) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--max-age-days", "nan"), ("--max-age-days", "-1"),
        ("--max-entries", "-1"), ("--max-bytes", "-1"), ("--max-entries", "1.5"),
    ])
    def test_cache_evict_refuses_bad_limits_when_parsed(self, tmp_path, flag, value, capsys):
        # The bad value is refused as parsed, before any other limit applies.
        with pytest.raises(SystemExit) as exc:
            main(["cache", "evict", flag, value, "--max-entries", "0",
                  "--cache-dir", str(tmp_path / "cache")])
        assert exc.value.code == 2
        assert "must be a number >= 0" in capsys.readouterr().err

    def test_cache_evict_without_limits_errors(self, tmp_path, capsys):
        assert main(["cache", "evict", "--cache-dir", str(tmp_path / "c")]) == 1
        assert "nothing to do" in capsys.readouterr().err

    def test_cache_show_verify_clear(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["synthesize", *QUICKSTART, "--cache-dir", str(cache), "-q"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--keys", "--cache-dir", str(cache)]) == 0
        key = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if "Allgather" in line
        ][0]
        assert main(["cache", "show", key[:10], "--cache-dir", str(cache)]) == 0
        assert "Algorithm" in capsys.readouterr().out
        assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0
        assert "1 entries verified, 0 invalid" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert len(list(cache.glob("*/*.json"))) == 0

    @pytest.mark.parametrize("argv", [
        ["synthesize", *QUICKSTART], ["pareto", "Allgather", "-t", "ring:4"],
        ["request", *QUICKSTART],
    ], ids=["synthesize", "pareto", "request"])
    def test_backend_is_an_unrecognized_argument(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--backend", "cdcl"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_backends_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["backends"])
        assert exc.value.code == 2
        assert "invalid choice: 'backends'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["synthesize", *QUICKSTART],
        ["pareto", "Allgather", "-t", "ring:4", "--max-steps", "2", "--max-chunks", "1"],
    ], ids=["synthesize", "pareto"])
    @pytest.mark.parametrize("flag, value", [
        ("--conflict-limit", "-5"), ("--time-limit", "-1"), ("--time-limit", "nan"),
    ])
    def test_negative_limits_are_rejected_when_parsed(self, argv, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-cache", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a number >= 0, got {value!r}" in capsys.readouterr().err

    def test_zero_limits_are_accepted(self, capsys):
        code = main([
            "synthesize", *QUICKSTART, "--no-cache", "-q",
            "--conflict-limit", "0", "--time-limit", "0",
        ])
        assert code in (0, 1)
        assert "Allgather" in capsys.readouterr().out


class TestWritesOnlyWhereAsked:
    """Every subcommand writes under the paths on its command line and
    nowhere else: not under ``HOME``, not in the working directory, and
    not under the retired ``REPRO_PERF_DIR``."""

    SCENARIOS = {
        "synthesize-cached": [
            ["synthesize", *QUICKSTART, "--cache-dir", "{w}/cache", "-q"],
        ],
        "synthesize-exports": [
            ["synthesize", *QUICKSTART, "--no-cache", "-q",
             "--xml", "{w}/a.xml", "--plan", "{w}/a.json"],
        ],
        "pareto-no-cache": [
            ["pareto", "Allgather", "-t", "ring:4", "--max-steps", "3", "--no-cache"],
        ],
        "pareto-export": [
            ["pareto", "Allgather", "-t", "ring:4", "--max-steps", "3",
             "--cache-dir", "{w}/cache", "--export-dir", "{w}/plans"],
        ],
        "import-store-export": [
            ["synthesize", *QUICKSTART, "--no-cache", "-q", "--xml", "{w}/a.xml"],
            ["import", "{w}/a.xml", "--store", "--cache-dir", "{w}/cache", "-q"],
            ["export", *QUICKSTART, "--cache-dir", "{w}/cache", "-o", "{w}/b.xml"],
        ],
        "run-plan": [
            ["synthesize", *QUICKSTART, "--no-cache", "-q", "--plan", "{w}/a.json"],
            ["run", "{w}/a.json", "--size", "1K"],
        ],
        "cache-management": [
            ["synthesize", *QUICKSTART, "--cache-dir", "{w}/cache", "-q"],
            ["cache", "ls", "--cache-dir", "{w}/cache"],
            ["cache", "verify", "--cache-dir", "{w}/cache"],
            ["cache", "evict", "--max-entries", "0", "--cache-dir", "{w}/cache"],
            ["cache", "clear", "--cache-dir", "{w}/cache"],
        ],
        "request-local": [
            ["request", *QUICKSTART, "--local",
             "--cache-dir", "{w}/cache"],
        ],
        "request-stats": [
            ["request", "--stats", "--url", "{url}"],
        ],
        "fault-preview": [
            ["fault", "register", "-t", "ring:4", "--link-down", "0:1", "--preview"],
        ],
        "trace": [
            ["synthesize", *QUICKSTART, "--no-cache", "-q", "--trace", "{w}/t.json"],
            ["trace", "{w}/t.json", "--top", "2"],
        ],
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_writes_stay_under_the_given_paths(
        self, scenario, tmp_path, monkeypatch, capsys
    ):
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        for name in ("home", "cwd", "work"):
            (tmp_path / name).mkdir()
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path / "perf"))
        monkeypatch.chdir(tmp_path / "cwd")

        work = str(tmp_path / "work")
        with contextlib.ExitStack() as stack:
            url = ""
            if any("{url}" in arg for argv in self.SCENARIOS[scenario] for arg in argv):
                # A served process for the client: its cache is under the work path too.
                registry = PlanRegistry(cache=AlgorithmCache(tmp_path / "work" / "served"))
                service = stack.enter_context(PlanningService(registry, num_workers=1))
                url = stack.enter_context(ServerThread(make_server(service, port=0))).url
            for argv in self.SCENARIOS[scenario]:
                args = [arg.replace("{w}", work).replace("{url}", url) for arg in argv]
                assert main(args) == 0, (args, capsys.readouterr().err)

        assert sorted(p.name for p in tmp_path.iterdir()) == ["cwd", "home", "work"]
        assert sorted((tmp_path / "home").rglob("*")) == []
        assert sorted((tmp_path / "cwd").rglob("*")) == []


    def test_routed_requests_leave_only_the_cache(self, tmp_path, capsys):
        """Routing tables live in memory: two in-process routed requests in
        a row (two processes' worth of tables) write the cache and nothing
        beside it."""
        argv = ["request", "Allgather", "-t", "ring:4", "--size", "1048576",
                "--local", "--cache-dir", str(tmp_path / "cache")]
        for _ in range(2):
            assert main(argv) == 0
        assert [path.name for path in tmp_path.iterdir()] == ["cache"]
        assert capsys.readouterr().out.count("routed to") == 2


class TestRetiredPerfCommand:
    """``repro perf`` and its run history are gone: argparse rejects them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["perf"],
            ["perf", "history"],
            ["perf", "compare", "@1", "@0"],
            ["perf", "regressions", "--warn-only"],
        ],
        ids=["bare", "history", "compare", "regressions"],
    )
    def test_perf_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    def test_no_subcommand_is_named_perf(self):
        from repro.cli import build_parser

        (subparsers,) = [
            action for action in build_parser()._actions
            if action.dest == "command"
        ]
        assert "perf" not in subparsers.choices
        assert {"synthesize", "pareto", "serve", "request", "trace"} <= set(
            subparsers.choices
        )


class TestSubprocessSmoke:
    """The CI smoke path: the real entrypoint on the quickstart instance."""

    def test_module_entrypoint_synthesize_then_cache_ls(self, tmp_path):
        cache = tmp_path / "cache"
        solve = run_cli(["synthesize", *QUICKSTART, "--cache-dir", str(cache)], cache)
        assert solve.returncode == 0, solve.stderr
        assert "-> sat" in solve.stdout

        listing = run_cli(["cache", "ls", "--cache-dir", str(cache)], cache)
        assert listing.returncode == 0, listing.stderr
        assert "Allgather on ring4 C=1 S=2 R=3" in listing.stdout

    def test_module_entrypoint_help_and_version(self, tmp_path):
        result = run_cli(["--version"], tmp_path)
        assert result.returncode == 0
        assert "repro-sccl" in result.stdout

    def test_a_run_writes_nothing_it_was_not_asked_to(self, tmp_path):
        """Synthesis, a Pareto sweep and a served request write only under
        the directories they were given: ``HOME`` stays empty."""
        import re
        import signal

        home = tmp_path / "home"
        home.mkdir()
        work = tmp_path / "work"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(HOME=str(home), PYTHONPATH=SRC)

        def repro(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro", *args], capture_output=True,
                text=True, env=env, cwd=REPO_ROOT, timeout=300,
            )

        solve = repro("synthesize", *QUICKSTART, "--cache-dir", str(work))
        assert solve.returncode == 0, solve.stderr
        sweep = repro("pareto", "Allgather", "-t", "ring:4", "--no-cache")
        assert sweep.returncode == 0, sweep.stderr
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", str(work / "c"),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=REPO_ROOT,
        )
        try:
            url = re.search(r"http://\S+", server.stdout.readline()).group(0)
            request = repro("request", *QUICKSTART, "--url", url)
            assert request.returncode == 0, request.stderr
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10) == 0
            assert "served 1 request(s)" in server.stdout.read()
        finally:
            server.kill()
            server.wait()
            server.stdout.close()
        assert sorted(home.rglob("*")) == []
        # No subcommand reads or writes a run history either.
        assert repro("perf", "history").returncode == 2


class TestReviewRegressions:
    """Behaviors pinned after review: corrupt-entry reporting, plan topology
    checks, and --no-cache only where it is honored."""

    def test_cache_verify_reports_unreadable_files(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["synthesize", *QUICKSTART, "--cache-dir", str(cache), "-q"]) == 0
        junk = cache / "zz"
        junk.mkdir()
        (junk / "deadbeef.json").write_text("garbage{")
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(cache)]) == 0
        assert "1 unreadable" in capsys.readouterr().out
        assert main(["cache", "verify", "--cache-dir", str(cache)]) == 1
        assert "1 invalid" in capsys.readouterr().out
        assert main(["cache", "verify", "--drop", "--cache-dir", str(cache)]) == 0
        assert not (junk / "deadbeef.json").exists()

    def test_import_plan_checks_topology_fingerprint(self, tmp_path, capsys):
        plan = tmp_path / "ag.json"
        assert main(
            ["synthesize", *QUICKSTART, "--no-cache", "-q", "--plan", str(plan)]
        ) == 0
        assert main(["import", str(plan), "-t", "ring:4", "-q"]) == 0
        assert main(["import", str(plan), "-t", "ring:8", "-q"]) == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_no_cache_flag_only_on_synthesis_commands(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "ls", "--no-cache", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["import", "x.xml", "--no-cache"])
