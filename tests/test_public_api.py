"""Tests of the top-level package surface: exports, metadata, examples."""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import repro
from repro.analysis.statistics import PrecisionTarget
from repro.experiments.scheduler import ThresholdRequest
from repro.experiments.sweep import SweepTask, execute_mega_batch, plan_members

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

SUBPACKAGES = [
    "repro.chains",
    "repro.lv",
    "repro.consensus",
    "repro.baselines",
    "repro.analysis",
    "repro.experiments",
    "repro.scenario",
    "repro.store",
    "repro.shard",
    "repro.contracts",
]


class TestPackageSurface:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name!r}"

    def test_subpackages_importable_and_consistent(self):
        for module_name in SUBPACKAGES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"

    def test_core_workflow_via_top_level_names_only(self):
        """The README quickstart works using only top-level exports."""
        params = repro.LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
        estimate = repro.estimate_majority_probability(
            params, repro.LVState(30, 10), num_runs=40, rng=0
        )
        assert 0.0 <= estimate.majority_probability <= 1.0
        prediction = repro.predicted_threshold(params)
        assert prediction.upper_label == "log^2 n"

    def test_exceptions_form_a_hierarchy(self):
        assert issubclass(repro.ModelError, repro.ReproError)
        assert issubclass(repro.SimulationError, repro.ReproError)
        assert issubclass(repro.ThresholdSearchError, repro.ReproError)

    def test_public_functions_have_docstrings(self):
        undocumented = [
            name
            for name in repro.__all__
            if name != "__version__"
            and callable(getattr(repro, name))
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert undocumented == []


class TestRetiredOptions:
    """Retired options stay gone (each was unused): those folded into the one
    engine entry, and the store's read-only view over unmerged shard caches."""

    @pytest.mark.parametrize(
        "build, keyword",
        [
            (
                lambda p: repro.SweepScheduler(compaction_fraction=0.25),
                "compaction_fraction",
            ),
            (
                lambda p: execute_mega_batch(
                    plan_members([SweepTask(p, (4, 2), 2, seed=1)], batch_size=2),
                    compaction_fraction=0.25,
                ),
                "compaction_fraction",
            ),
            (lambda p: repro.ThresholdSearch(p, fanout=2), "fanout"),
            (lambda p: ThresholdRequest(p, 64, fanout=2), "fanout"),
            (
                lambda p: repro.estimate_majority_probability(
                    p, (4, 2), precision=PrecisionTarget()
                ),
                "precision",
            ),
            (
                lambda p: repro.decompose_noise(p, (4, 2), precision=PrecisionTarget()),
                "precision",
            ),
            (lambda p: repro.ExperimentStore("unused", read_sources=()), "read_sources"),
        ],
        ids=[
            "scheduler-compaction",
            "mega-batch-compaction",
            "search-fanout",
            "request-fanout",
            "estimate-precision",
            "decompose-precision",
            "store-read-sources",
        ],
    )
    def test_retired_option_is_rejected(self, sd_params, build, keyword):
        with pytest.raises(TypeError, match=keyword):
            build(sd_params)


class TestExampleScripts:
    def _example_files(self) -> list[pathlib.Path]:
        return sorted(EXAMPLES_DIR.glob("*.py"))

    def test_at_least_four_examples_exist(self):
        names = {path.name for path in self._example_files()}
        assert "quickstart.py" in names
        assert len(names) >= 4

    def test_examples_parse_and_define_main(self):
        for path in self._example_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            function_names = {
                node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            }
            assert "main" in function_names, f"{path.name} does not define main()"

    def test_examples_have_module_docstrings(self):
        for path in self._example_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            assert ast.get_docstring(tree), f"{path.name} is missing a module docstring"

    def test_examples_only_import_public_modules(self):
        """Examples must not reach into pytest/test-only helpers."""
        for path in self._example_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    assert not node.module.startswith("tests"), (
                        f"{path.name} imports from the test suite"
                    )


class TestDocumentationArtifacts:
    ROOT = pathlib.Path(__file__).resolve().parent.parent

    @pytest.mark.parametrize("filename", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_documents_exist_and_are_substantial(self, filename):
        path = self.ROOT / filename
        assert path.exists(), f"{filename} is missing"
        assert len(path.read_text()) > 1000

    def test_design_doc_lists_every_registered_experiment(self):
        from repro.experiments.registry import EXPERIMENTS

        design = (self.ROOT / "DESIGN.md").read_text()
        for identifier in EXPERIMENTS:
            assert identifier in design, f"DESIGN.md does not mention experiment {identifier}"

    def test_experiments_doc_lists_every_registered_experiment(self):
        from repro.experiments.registry import EXPERIMENTS

        experiments_doc = (self.ROOT / "EXPERIMENTS.md").read_text()
        for identifier in EXPERIMENTS:
            assert identifier in experiments_doc, (
                f"EXPERIMENTS.md does not mention experiment {identifier}"
            )
