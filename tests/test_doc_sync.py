"""The doc-sync check (scripts/check_doc_sync.py) runs green in tier-1.

This makes the docs a first-class, test-enforced artifact: adding a
benchmark without an experiment-index row, or letting README's verify
command drift from ROADMAP's tier-1 line, fails the suite — not just CI.
"""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_doc_sync.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_doc_sync", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_doc_sync", module)
    spec.loader.exec_module(module)
    return module


def test_docs_are_in_sync():
    checker = load_checker()
    errors: list[str] = []
    checker.check_experiment_index(errors)
    checker.check_verify_command(errors)
    checker.check_cli_docs(errors)
    checker.check_identifiers(errors)
    checker.check_example_coverage(errors)
    checker.check_hop_table(errors)
    assert not errors, "doc-sync problems:\n" + "\n".join(errors)


def test_roadmap_declares_tier1_command():
    checker = load_checker()
    command = checker.tier1_command()
    assert command is not None
    assert "pytest" in command


def test_cli_subcommands_discovered():
    """The source scan finds the real subcommand set (incl. tune/train)."""
    checker = load_checker()
    commands = checker.cli_subcommands()
    assert "tune" in commands
    assert "train" in commands
    assert "fig9" in commands
    assert len(commands) >= 7


def test_stale_camelcase_identifier_is_an_error():
    """A backticked class name that src/ no longer defines fails the check."""
    checker = load_checker()
    defined = checker.defined_identifiers()
    assert {"PlanDispatcher", "ParallelConfig", "DISPATCH_KINDS"} <= defined
    text = (
        "Build a `PlanDispatcher` with `make_dispatcher(kind=...)`, not the "
        "removed `LegacyFlatWrapper` or `repro.xmoe.RBDLegacyShim`; "
        "`AsyncStream` is vLLM's name and `Adam`/`PFT` are not CamelCase."
    )
    assert checker.stale_identifiers(text, defined) == [
        "LegacyFlatWrapper",
        "RBDLegacyShim",
    ]


def test_stale_class_member_is_an_error():
    """A backticked ``Class.member`` whose member src/ no longer defines
    fails the check; inherited, field and ``self.`` members pass."""
    checker = load_checker()
    members = checker.class_members()
    assert "to_pfts" in members["RoutingDecision"]
    assert "route" in members["SoftmaxTopKPolicy"]  # inherited from _PolicyBase
    assert "dispatch" in members["ParallelConfig"]  # dataclass field
    text = (
        "`RoutingDecision.to_pfts(decisions)` replaced "
        "`RoutingDecision.from_topk`; `SoftmaxTopKPolicy.route`, "
        "`ParallelConfig.dispatch`, `np.ndarray` and `BENCH_11.json` are fine, "
        "`GoneClass.method` is not."
    )
    assert checker.stale_members(text, members) == [
        "GoneClass.method",
        "RoutingDecision.from_topk",
    ]


def test_related_paths_warn_not_fail():
    """Dangling /root/related references are advisory, never errors.

    The related-repos checkout is machine-local; its absence must not fail
    doc-sync.  Every warning names a path under /root/related, and the
    warning list never leaks into the error-returning checks.
    """
    checker = load_checker()
    warnings = checker.related_path_warnings()
    for warning in warnings:
        assert "/root/related/" in warning
        assert "advisory" in warning


def test_example_missing_from_tests_is_an_error():
    """An example script that tests/test_examples.py never names is flagged."""
    checker = load_checker()
    source = '["examples/quickstart.py"], ["examples/train_small_moe.py", "--steps", "3"]'
    missing = checker.uncovered_examples(source)
    assert "examples/rbd_dispatch_demo.py" in missing
    assert "examples/quickstart.py" not in missing
    assert "examples/train_small_moe.py" not in missing


def test_doctored_hop_table_row_is_an_error():
    """A DESIGN hop-table row that disagrees with PLAN_SPECS on its op
    pair, scope or append fails the check, naming the kind."""
    checker = load_checker()
    design = (SCRIPT.parents[1] / "DESIGN.md").read_text()
    row = "| `rbd_s2_a2a` / `rbd_c1_a2a` | node | yes |"
    assert row in design
    for doctored in (
        row.replace("| node |", "| group |"),
        row.replace("| yes |", "| no |"),
        row.replace("`rbd_c1_a2a`", "`rbd_c2_a2a`"),
    ):
        errors: list[str] = []
        checker.check_hop_table(errors, design.replace(row, doctored))
        assert len(errors) == 1 and "'rbd'" in errors[0], errors
    errors = []
    checker.check_hop_table(errors, design)
    assert not errors
