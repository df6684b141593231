"""`repro orchestrate` is `Methodology.run` on the campaign's dataset.

The command runs Step 1 and then :meth:`Methodology.run` on one pool,
so its baseline, best plan and refined row must be what the serial
methodology finds on the same campaign's dataset, whatever the
learner: a learner whose default plan log-maps the attributes
(naive Bayes) must cross-validate its grid under that same mapping.
"""

import json

import pytest

from repro.cli import main
from repro.core.methodology import Methodology, MethodologyConfig
from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import get_scale
from repro.injection.campaign import Campaign

SCALE = get_scale("smoke")


@pytest.fixture(scope="module")
def dataset():
    spec = DATASET_SPECS["MG-B1"]
    target = build_target(spec.target, SCALE)
    result = Campaign(target, campaign_config(spec, SCALE)).run()
    return result.to_dataset("MG-B1")


@pytest.mark.parametrize("learner", ["c45", "naive-bayes"])
def test_orchestrate_equals_methodology_run(learner, dataset, capsys):
    assert main([
        "orchestrate", "MG-B1", "--scale", "smoke",
        "--learner", learner, "--format", "json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    config = MethodologyConfig(learner=learner, folds=SCALE.folds, seed=SCALE.seed)
    outcome = Methodology(config).run(dataset, SCALE.grid)
    best = outcome.refinement.best
    assert report["best_plan"] == best.plan.describe()
    assert report["baseline"] == outcome.baseline.summary()
    assert report["refined"] == best.evaluation.summary()
