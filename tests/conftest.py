"""Shared pytest fixtures.

Also makes the test suite runnable without an editable install by putting
``src/`` on ``sys.path`` when the package is not importable (useful on
offline machines where ``pip install -e .`` needs ``--no-build-isolation``).
"""

from __future__ import annotations

import sys
from pathlib import Path

try:  # pragma: no cover - exercised implicitly
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_gate_experts():
    """A small gate + expert bank pair with matching shapes."""
    from repro.moe.experts import ExpertBank
    from repro.moe.gating import TopKGate

    gate = TopKGate(16, 8, 2, rng=np.random.default_rng(7))
    experts = ExpertBank(8, 16, 12, rng=np.random.default_rng(8))
    return gate, experts


@pytest.fixture(autouse=True)
def verified_exec_programs():
    """Check every fused program a test compiles against the plan it fuses.

    ``ExecProgram.build`` does not check itself — that would cost every
    compile of a running system — so under the test suite each build is
    followed by :func:`tests.helpers.verify_program`.
    """
    from repro.routing.plan_cache import ExecProgram
    from tests.helpers import verify_program

    build = ExecProgram.__dict__["build"]

    def verified_build(cls, pfts, plan, tokens_per_rank, **kwargs):
        program = build.__func__(cls, pfts, plan, tokens_per_rank, **kwargs)
        verify_program(program, plan)
        return program

    ExecProgram.build = classmethod(verified_build)
    try:
        yield
    finally:
        ExecProgram.build = build
