#!/usr/bin/env python3
"""Doc-sync check: the docs must keep up with the code.

Six invariants, all enforced in CI (and by ``tests/test_doc_sync.py``):

1. **Experiment index coverage** — every ``benchmarks/test_*.py`` file must
   appear in DESIGN.md's experiment index, so a new benchmark cannot land
   without documenting which figure/table (or repo-own experiment) it
   regenerates.
2. **Verify-command agreement** — the tier-1 verify command in README.md
   must be exactly the one ROADMAP.md declares, so the README can never
   advertise a drifted (weaker or broken) check.
3. **CLI coverage** — every ``python -m repro`` subcommand registered in
   ``src/repro/__main__.py`` must be documented in README.md (as
   ``repro <name>``), so a new subcommand cannot land undocumented.
4. **No stale identifiers** — every CamelCase identifier DESIGN.md or
   README.md puts in backticks must be defined by a ``class`` statement or
   an assignment under ``src/`` (or be a listed external name), and every
   backticked ``Class.member`` reference must name a class defined under
   ``src/`` whose body (or a base class's) defines ``member`` by a ``def``
   or an assignment, so deleting or renaming a class or method fails until
   the docs follow.
5. **Example coverage** — every ``examples/*.py`` script must be named in
   ``tests/test_examples.py``, so an example cannot drift out of the tier-1
   run and break unnoticed.
6. **Hop table agreement** — DESIGN.md's hop table (the one with a
   ``dispatch op / combine op`` column) must list, per plan kind and in
   dispatch order, the hops ``PLAN_SPECS`` in ``routing/planner.py``
   compiles: the same op pair, scope (``group`` or ``node``) and append
   (``yes`` or ``no``), so the table cannot describe a planner that no
   longer exists.

One advisory check **warns without failing**: references to
``/root/related/...`` reading-list paths in the docs whose checkout is
absent on this machine (the related-repos mirror is not part of the repo,
so a missing path is an environment condition, not a doc bug).

Run:  python scripts/check_doc_sync.py
Exits non-zero with a per-problem message when out of sync.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def check_experiment_index(errors: list[str]) -> None:
    """Every benchmarks/test_*.py must be referenced by DESIGN.md."""
    design = (REPO / "DESIGN.md").read_text()
    referenced = set(re.findall(r"benchmarks/test_\w+\.py", design))
    on_disk = {
        f"benchmarks/{p.name}" for p in (REPO / "benchmarks").glob("test_*.py")
    }
    for missing in sorted(on_disk - referenced):
        errors.append(
            f"{missing} is missing from DESIGN.md's experiment index — add a "
            "row saying what it regenerates"
        )
    for stale in sorted(referenced - on_disk):
        errors.append(
            f"DESIGN.md references {stale}, which does not exist — remove or "
            "fix the experiment index row"
        )


def tier1_command() -> str | None:
    """The verify command ROADMAP.md declares (first backticked tier-1 line)."""
    roadmap = (REPO / "ROADMAP.md").read_text()
    match = re.search(r"\*\*Tier-1 verify:\*\*\s*`([^`]+)`", roadmap)
    return match.group(1) if match else None


def check_verify_command(errors: list[str]) -> None:
    """README's verify command must match ROADMAP's tier-1 line exactly."""
    command = tier1_command()
    if command is None:
        errors.append("ROADMAP.md has no '**Tier-1 verify:** `...`' line")
        return
    readme_path = REPO / "README.md"
    if not readme_path.exists():
        errors.append("README.md does not exist")
        return
    if command not in readme_path.read_text():
        errors.append(
            f"README.md does not contain ROADMAP's tier-1 verify command "
            f"({command!r}) — the advertised check has drifted"
        )


def cli_subcommands() -> list[str]:
    """Subcommand names registered on the argparse CLI (source-scanned)."""
    source = (REPO / "src" / "repro" / "__main__.py").read_text()
    return re.findall(r"add_parser\(\s*[\"']([\w-]+)[\"']", source)


def check_cli_docs(errors: list[str]) -> None:
    """Every CLI subcommand must be documented in README.md."""
    commands = cli_subcommands()
    if not commands:
        errors.append("src/repro/__main__.py registers no CLI subcommands")
        return
    readme_path = REPO / "README.md"
    if not readme_path.exists():
        errors.append("README.md does not exist")
        return
    readme = readme_path.read_text()
    for command in commands:
        if not re.search(rf"repro {re.escape(command)}\b", readme):
            errors.append(
                f"CLI subcommand 'repro {command}' is not documented in "
                "README.md — add it to the CLI section"
            )


#: CamelCase names the docs cite from other projects (vLLM's serving
#: engine) for provenance; nothing under src/ defines them.
EXTERNAL_IDENTIFIERS = frozenset({"AsyncStream", "RequestTracker"})

#: An uppercase start, a second capital and a lowercase letter: ``TopKGate``,
#: ``RBDPlanner``, ``MoE`` — not ``Adam``, ``PFT`` or ``CROSS_RACK``.
_CAMEL_CASE = re.compile(r"(?=\w*[a-z])[A-Z][A-Za-z0-9]*[A-Z][A-Za-z0-9]*")


def defined_identifiers() -> set[str]:
    """Names a ``class`` statement or an assignment under ``src/`` defines."""
    names: set[str] = set()
    for path in (REPO / "src").rglob("*.py"):
        source = path.read_text()
        names.update(re.findall(r"^\s*class\s+(\w+)", source, re.M))
        names.update(re.findall(r"^\s*(\w+)\s*(?::[^=\n]*)?=(?!=)", source, re.M))
    return names


def stale_identifiers(text: str, defined: set[str]) -> list[str]:
    """Backticked CamelCase identifiers in ``text`` that ``defined`` lacks."""
    found = {
        token
        for span in re.findall(r"`([^`\n]+)`", text)
        for token in re.findall(r"\w+", span)
        if _CAMEL_CASE.fullmatch(token) and token not in defined
    }
    return sorted(found - EXTERNAL_IDENTIFIERS)


def class_members() -> dict[str, set[str]]:
    """Members each ``class`` under ``src/`` defines, inherited ones included.

    A member is a ``def`` or an (annotated) assignment in the class body, or
    a ``self.<name> = ...`` assignment in one of its methods.  Bases are
    resolved by name among the classes under ``src/``.
    """
    own: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            members = own.setdefault(node.name, set())
            for base in node.bases:
                if isinstance(base, (ast.Name, ast.Attribute)):
                    bases.setdefault(node.name, set()).add(
                        base.id if isinstance(base, ast.Name) else base.attr
                    )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members.add(item.name)
                    for sub in ast.walk(item):
                        if (
                            isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                        ):
                            members.add(sub.attr)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    members.update(t.id for t in targets if isinstance(t, ast.Name))

    def resolve(name: str, seen: frozenset = frozenset()) -> set[str]:
        members = set(own.get(name, ()))
        for base in bases.get(name, ()):
            if base in own and base not in seen:
                members |= resolve(base, seen | {name})
        return members

    return {name: resolve(name) for name in own}


def stale_members(text: str, members: dict[str, set[str]]) -> list[str]:
    """Backticked ``Class.member`` references in ``text`` that src/ lacks.

    Only names that are a class under ``src/`` or look CamelCase count as
    a class, so ``np.ndarray`` or ``BENCH_11.json`` are never checked.
    """
    found = {
        f"{cls}.{member}"
        for span in re.findall(r"`([^`\n]+)`", text)
        for cls, member in re.findall(r"\b([A-Z]\w*)\.(\w+)", span)
        if (cls in members or _CAMEL_CASE.fullmatch(cls))
        and cls not in EXTERNAL_IDENTIFIERS
        and member not in members.get(cls, ())
    }
    return sorted(found)


def check_identifiers(errors: list[str]) -> None:
    """DESIGN.md and README.md may only backtick identifiers src/ defines."""
    defined = defined_identifiers()
    members = class_members()
    for name in ("DESIGN.md", "README.md"):
        path = REPO / name
        if not path.exists():
            continue
        text = path.read_text()
        for identifier in stale_identifiers(text, defined):
            errors.append(
                f"{name} mentions `{identifier}`, which no class or assignment "
                "under src/ defines — update or drop the reference"
            )
        for reference in stale_members(text, members):
            errors.append(
                f"{name} mentions `{reference}`, which no class under src/ "
                "defines by a def or an assignment — update or drop the reference"
            )


def uncovered_examples(test_source: str) -> list[str]:
    """``examples/*.py`` paths that ``test_source`` never names."""
    on_disk = sorted(f"examples/{p.name}" for p in (REPO / "examples").glob("*.py"))
    return [path for path in on_disk if path not in test_source]


def check_example_coverage(errors: list[str]) -> None:
    """Every example script must be run by tests/test_examples.py."""
    test_source = (REPO / "tests" / "test_examples.py").read_text()
    for path in uncovered_examples(test_source):
        errors.append(
            f"{path} is not named in tests/test_examples.py — add it so "
            "tier-1 runs it"
        )


def planner_hop_rows() -> dict[str, list[tuple]]:
    """Each kind's hops as ``(op, combine op, scope, append)``, from the spec."""
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    from repro.routing.planner import PLAN_SPECS

    return {
        kind: [
            (
                leg.op,
                leg.combine_op,
                "node" if leg.per_node else "group",
                "yes" if leg is spec.fan_out and spec.append else "no",
            )
            for leg in spec.hops
        ]
        for kind, spec in PLAN_SPECS.items()
    }


def design_hop_rows(text: str) -> dict[str, list[tuple]]:
    """The hop table in ``text``: each kind's rows as ``(op, combine op,
    scope, append)``, in table order."""
    rows: dict[str, list[tuple]] = {}
    header = None
    for line in text.splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if "dispatch op / combine op" in cells:
            header = cells
        elif header is not None and not set(line) <= set("|-: "):
            row = dict(zip(header, cells))
            ops = re.findall(r"`([^`]+)`", row.get("dispatch op / combine op", ""))
            rows.setdefault(row.get("kind", ""), []).append(
                (*ops, row.get("scope"), row.get("append"))
            )
    return rows


def check_hop_table(errors: list[str], design: str | None = None) -> None:
    """DESIGN.md's hop table must match PLAN_SPECS kind by kind, hop by hop."""
    if design is None:
        design = (REPO / "DESIGN.md").read_text()
    table, spec = design_hop_rows(design), planner_hop_rows()
    if not table:
        errors.append("DESIGN.md has no hop table (a 'dispatch op / combine op' column)")
        return
    for kind in sorted(set(table) | set(spec)):
        if table.get(kind) != spec.get(kind):
            errors.append(
                f"DESIGN.md's hop table lists {kind!r} as {table.get(kind)}, but "
                f"PLAN_SPECS compiles {spec.get(kind)} — update the table"
            )


def related_path_warnings() -> list[str]:
    """Warnings for ``/root/related/...`` doc references absent on disk.

    The docs may cite files from the related-repos reading list for
    architecture provenance.  That checkout is machine-local (never part
    of this repo), so a dangling reference is worth flagging but must not
    fail the check — these are returned separately from the errors list.
    """
    pattern = re.compile(r"/root/related/[\w./-]*\w")
    warnings: list[str] = []
    for name in ("README.md", "ROADMAP.md", "DESIGN.md", "PAPERS.md"):
        path = REPO / name
        if not path.exists():
            continue
        for reference in sorted(set(pattern.findall(path.read_text()))):
            if not Path(reference).exists():
                warnings.append(
                    f"{name} references {reference}, which is absent on this "
                    "machine (related-repos checkout not present) — advisory only"
                )
    return warnings


def main() -> int:
    """Run every doc-sync check; return the number of problems found."""
    errors: list[str] = []
    check_experiment_index(errors)
    check_verify_command(errors)
    check_cli_docs(errors)
    check_identifiers(errors)
    check_example_coverage(errors)
    check_hop_table(errors)
    for warning in related_path_warnings():
        print(f"doc-sync: warning: {warning}", file=sys.stderr)
    for problem in errors:
        print(f"doc-sync: {problem}", file=sys.stderr)
    if not errors:
        print(
            "doc-sync: DESIGN.md experiment index, README verify command, "
            "CLI docs, identifiers, example coverage and hop table OK"
        )
    return len(errors)


if __name__ == "__main__":
    sys.exit(main())
