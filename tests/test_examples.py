"""Example-script smoke tests.

Every example is imported (without running ``main``), so a name an
example imports that the package no longer exports fails here.  Only
the fast toy walkthrough runs end-to-end; the fleet-scale examples are
exercised indirectly through the experiment-harness tests and the
benchmark suite.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_NAMES = sorted(path.stem for path in EXAMPLES.glob("*.py"))


def load_module(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_example_present_with_main(self, name):
        source = (EXAMPLES / f"{name}.py").read_text()
        assert "def main()" in source
        assert '__main__' in source

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_example_imports(self, name):
        assert callable(load_module(name).main)


class TestWalkthroughRuns:
    def test_walkthrough_recovers_the_context(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "context_discovery_walkthrough.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "{B, E}" in out
        assert "prefetch fires: True" in out
        assert "prefetch fires: False" in out


class TestWalkthroughComponents:
    def test_toy_program_and_trace_shapes(self):
        module = load_module("context_discovery_walkthrough")
        program = module.build_program()
        trace = module.synthesize_trace(requests=50)
        assert len(program) == 12 + len(module.FILLER)
        # every request visits G exactly once
        assert trace.block_ids.count(module.G) == 50
        # K only ever follows an H (the miss path)
        for position, block in enumerate(trace.block_ids):
            if block == module.K:
                assert trace.block_ids[position - 1] == module.H
