"""Model construction by family name and checkpoint round-tripping.

Checkpoints are npz containers holding a JSON metadata entry (format
version, family tag, config, seed, optional preprocessing) plus the raw
parameter arrays in the dtype the model holds them (float32 for ``qmlp``,
float64 otherwise), so a reloaded model reproduces its predictions
bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .._version import __version__
from ..util import replacing
from .base import QuantileModel
from .lqr import LQRModel
from .qgbt import QGBTModel
from .qknn import QKNNModel
from .qmlp import QMLPModel

FAMILIES: Dict[str, type] = {
    LQRModel.family: LQRModel,
    QKNNModel.family: QKNNModel,
    QGBTModel.family: QGBTModel,
    QMLPModel.family: QMLPModel,
}

CHECKPOINT_FORMAT = "bookcast-checkpoint"
CHECKPOINT_FORMAT_VERSION = 1


def make_model(family: str, quantiles, seed: int = 0, **config) -> QuantileModel:
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[family](quantiles, seed=seed, **config)


def save_checkpoint(path, model: QuantileModel,
                    prep: Optional[dict] = None,
                    extra_meta: Optional[dict] = None) -> None:
    """Write a self-contained checkpoint, whole or not at all.

    ``prep`` optionally bundles the feature preprocessing applied before the
    model: {"feature_names": [...], "mean": array, "scale": array}.
    """
    meta, arrays = model.state()
    meta = dict(meta)
    meta["format"] = CHECKPOINT_FORMAT
    meta["format_version"] = CHECKPOINT_FORMAT_VERSION
    meta["tool_version"] = __version__
    if extra_meta:
        meta.update(extra_meta)
    payload = dict(arrays)
    if prep is not None:
        meta["feature_names"] = list(prep["feature_names"])
        payload["prep_mean"] = np.asarray(prep["mean"], dtype=float)
        payload["prep_scale"] = np.asarray(prep["scale"], dtype=float)
    with replacing(Path(path), binary=True) as fh:
        np.savez(fh, __meta__=json.dumps(meta, sort_keys=True), **payload)


def load_checkpoint(path) -> Tuple[QuantileModel, Optional[dict]]:
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('format_version')}")
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    family = meta["family"]
    if family not in FAMILIES:
        raise ValueError(f"checkpoint has unknown family {family!r}")
    prep = None
    if "prep_mean" in arrays:
        prep = {"feature_names": meta["feature_names"],
                "mean": arrays.pop("prep_mean"),
                "scale": arrays.pop("prep_scale")}
    model = FAMILIES[family].from_state(meta, arrays)
    return model, prep
