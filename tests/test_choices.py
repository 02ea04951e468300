"""errors.check_choice: every setting of the library that names a choice
(architecture, optimizer, resample method, feature scorer, regime) rejects an
unknown name, a list and a non-string with one message, through each
function or class that takes it. A model kind is named only in the CLI's
model section, whose message tests/test_cli.py checks."""

import numpy as np
import pytest

from readmitlab.ensemble import binary_outer_study
from readmitlab.features import Selection
from readmitlab.models import NetworkClassifier
from readmitlab.nn import build_network
from readmitlab.optim import make_optimizer
from readmitlab.resample import ResamplePlan

from helpers import make_dataset

ARCHITECTURES = ("vanilla", "cnn2", "cnn2_wide", "cnn2_multibranch", "rnn_simple", "rnn_deep")
OPTIMIZERS = ("sgd", "adam", "adabelief")
DATA = make_dataset(np.arange(12.0).reshape(6, 2), [0, 2, 0, 2, 0, 2])

# (noun, choices, a call that takes the named setting), by setting and taker
TAKERS = {
    "architecture-network-classifier": (
        "architecture", ARCHITECTURES, lambda name: NetworkClassifier(name)),
    "architecture-build-network": (
        "architecture", ARCHITECTURES,
        lambda name: build_network(name, 8, rng=np.random.default_rng(0))),
    "optimizer-network-classifier": (
        "optimizer", OPTIMIZERS, lambda name: NetworkClassifier(optimizer=name)),
    "optimizer-make-optimizer": ("optimizer", OPTIMIZERS, lambda name: make_optimizer(name, 0.1)),
    "resample-method": (
        "resample method", ("smote", "borderline_smote", "svm_smote", "adasyn", "random_over",
                            "nearmiss", "random_under"), ResamplePlan),
    "feature-scorer": (
        "feature scorer", ("chi2", "pearson", "anova_f"), lambda name: Selection(name, 1)),
    "regime": ("regime", ("nearmiss", "random_under", "full"),
               lambda name: binary_outer_study(DATA, seed=0, k_folds=2, regimes=(name,))),
}


@pytest.mark.parametrize("taker", TAKERS)
@pytest.mark.parametrize("value", ["bogus", ["adam"], None, 3],
                         ids=["unknown", "list", "none", "integer"])
def test_a_value_outside_the_choices_fails_with_the_one_message(taker, value):
    noun, choices, take = TAKERS[taker]
    with pytest.raises(ValueError) as caught:
        take(value)
    assert str(caught.value) == f"unknown {noun} {value!r}; expected one of {choices}"
