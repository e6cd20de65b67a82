import numpy as np
import pytest

from bookcast.experiment import run_experiment, score
from bookcast.features import FEATURE_NAMES
from bookcast.market import Sample
from bookcast.metrics import evaluate
from bookcast.models import make_model
from bookcast.models.io import FAMILIES
from bookcast.search import ParamSpec, SearchSpace
from bookcast.selection import SolverConfig

Q3 = (0.1, 0.5, 0.9)

# small spaces keep each trial cheap; the draws still differ per trial
SPACES = {
    "lqr": SearchSpace({"l1_weight": ParamSpec("float", 1e-4, 1e-1, log=True)}),
    "qknn": SearchSpace({
        "n_neighbors": ParamSpec("int", 3, 10),
        "metric": ParamSpec("cat", choices=("euclidean", "manhattan")),
        "weights": ParamSpec("cat", choices=("uniform", "distance")),
    }),
    "qgbt": SearchSpace({
        "n_estimators": ParamSpec("int", 2, 5),
        "max_depth": ParamSpec("int", 1, 3),
        "subsample": ParamSpec("float", 0.5, 1.0),
        "colsample_by_tree": ParamSpec("float", 0.5, 1.0),
    }),
    "qmlp": SearchSpace({
        "hidden_size": ParamSpec("int", 4, 16),
        "dropout_rate": ParamSpec("float", 0.0, 0.5),
        "learning_rate": ParamSpec("float", 1e-3, 1e-2, log=True),
    }),
}
BASE = {
    "lqr": {"solver": SolverConfig(max_iter=200, stages=2)},
    "qknn": {},
    "qgbt": {},
    "qmlp": {"max_epochs": 5, "patience": 5, "batch_size": 16},
}


def _splits(seed=3, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(120, d))
    y = X[:, 0] * 2.0 - X[:, 1] + rng.normal(size=120) * 0.3
    return (X[:60], y[:60]), (X[60:90], y[60:90]), (X[90:], y[90:])


def _run(family, budget=3, seed=7):
    train, val, _ = _splits()
    return run_experiment([f"f{i}" for i in range(5)], train, val,
                          family, budget, seed, Q3, space=SPACES[family],
                          base_config=BASE[family])


@pytest.mark.parametrize("family", sorted(SPACES))
def test_run_experiment_fits_once_per_trial(family, monkeypatch):
    calls = []
    cls = FAMILIES[family]
    fit = cls.fit

    def counting(self, *args, **kwargs):
        calls.append(1)
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(cls, "fit", counting)
    result = _run(family, budget=2)
    assert len(calls) == 2
    assert len(result.trials) == 2


@pytest.mark.parametrize("family", sorted(SPACES))
def test_returned_model_equals_a_refit_of_the_best_trial(family):
    result = _run(family)
    best = result.best_trial
    assert best.model is result.model
    assert all(t.model is None for t in result.trials if t is not best)

    (X_tr, y_tr), (X_val, y_val), _ = _splits()
    mean, scale = result.prep["mean"], result.prep["scale"]
    refit = make_model(family, Q3, seed=best.seed, **{**BASE[family], **best.config})
    refit.fit((X_tr - mean) / scale, y_tr, (X_val - mean) / scale, y_val)
    meta, arrays = result.model.state()
    meta_refit, arrays_refit = refit.state()
    assert meta == meta_refit
    assert sorted(arrays) == sorted(arrays_refit)
    for name, arr in arrays.items():
        assert arr.dtype == arrays_refit[name].dtype, name
        assert arr.tobytes() == arrays_refit[name].tobytes(), name


def _samples(X, y):
    """Supervised samples whose first columns of the feature universe are X."""
    rows = []
    for i, (x, target) in enumerate(zip(X, y)):
        features = np.zeros(len(FEATURE_NAMES))
        features[:x.size] = x
        rows.append(Sample(delivery_time=None, forecast_time=None,
                           features=features, target_id3=float(target),
                           matched_trade_count=1))
    return rows


def test_score_standardizes_with_the_training_statistics():
    names = list(FEATURE_NAMES[:5])
    (X_tr, y_tr), val, (X_te, y_te) = _splits()
    result = run_experiment(names, (X_tr, y_tr), val, "qknn", 2, 7, Q3,
                            space=SPACES["qknn"])
    got = score(result.model, result.prep, _samples(X_te, y_te), Q3)
    X_te_s = (X_te - X_tr.mean(axis=0)) / X_tr.std(axis=0)
    assert got == evaluate(y_te, result.model.predict(X_te_s), Q3)
    assert got.n_samples == len(y_te)
