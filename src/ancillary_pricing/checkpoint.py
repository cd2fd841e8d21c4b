"""Self-describing model checkpoints with integrity checksums.

A checkpoint bundles everything needed to serve prices: the encoding
schema, the price grid, model parameters as flattened arrays with declared
shapes, and the policy hyperparameters that pair the model with its
serving strategy. Loading a saved bundle reproduces every prediction
bit-exactly (floats survive the JSON round trip unchanged).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CategoricalFeature, EncodingSchema, NumericFeature, PriceGrid
from .errors import ChecksumMismatch, ConfigError, UnsupportedVersion
from .gnb import GnbcModel, GnbModel, KMeansModel
from .mlp import MlpDemandModel, MlpModel
from .policies import (
    AppDesPolicy,
    AppLmPolicy,
    DnnClPolicy,
    LogisticMapParams,
    PricingPolicy,
)
from .pricing_net import DnnClModel

FORMAT_VERSION = 1
MODEL_TYPES = ("gnb", "gnbc", "app_dnn", "dnn_cl")


@dataclass(frozen=True)
class PricingBundle:
    """A trained model plus the context needed to quote prices with it."""

    model_type: str
    schema: EncodingSchema
    grid: PriceGrid
    model: object
    logistic: LogisticMapParams | None = None
    p_ref: float | None = None
    version: str = "unsaved"

    def __post_init__(self):
        if self.model_type not in MODEL_TYPES:
            raise ConfigError(f"unknown model type {self.model_type!r}")
        if self.model_type in ("gnb", "gnbc") and self.logistic is None:
            raise ConfigError(f"{self.model_type} bundles need logistic map parameters")
        if self.p_ref is not None and not (math.isfinite(self.p_ref) and self.p_ref > 0):
            raise ConfigError(f"p_ref must be positive and finite, got {self.p_ref}")

    def policy(self, name: str | None = None) -> PricingPolicy:
        """The serving policy paired with this model type."""
        if self.model_type in ("gnb", "gnbc"):
            p_ref = self.p_ref if self.p_ref is not None else self.grid.p_max
            return AppLmPolicy(model=self.model, schema=self.schema, grid=self.grid,
                               logistic=self.logistic, p_ref=p_ref,
                               name=name or "APP-LM", model_version=self.version)
        if self.model_type == "app_dnn":
            return AppDesPolicy(model=self.model, schema=self.schema, grid=self.grid,
                                name=name or "APP-DES", model_version=self.version)
        return DnnClPolicy(model=self.model, schema=self.schema,
                          name=name or "DNN-CL", model_version=self.version)


def _array_to_doc(arr: np.ndarray) -> dict:
    a = np.asarray(arr, dtype=float)
    return {"shape": list(a.shape), "data": [float(x) for x in a.reshape(-1)]}


def _array_from_doc(doc: dict) -> np.ndarray:
    return np.array(doc["data"], dtype=float).reshape(doc["shape"])


def _schema_to_doc(schema: EncodingSchema) -> dict:
    return {
        "numeric": [{"name": f.name, "mean": f.mean, "std": f.std, "optional": f.optional}
                    for f in schema.numeric],
        "categorical": [{"name": f.name, "levels": list(f.levels)}
                        for f in schema.categorical],
    }


def _schema_from_doc(doc: dict) -> EncodingSchema:
    return EncodingSchema(
        numeric=tuple(NumericFeature(f["name"], f["mean"], f["std"], f["optional"])
                      for f in doc["numeric"]),
        categorical=tuple(CategoricalFeature(f["name"], tuple(f["levels"]))
                          for f in doc["categorical"]),
    )


def _gnb_to_doc(model: GnbModel) -> dict:
    return {
        "log_prior0": model.log_prior0,
        "log_prior1": model.log_prior1,
        "mean0": _array_to_doc(model.mean0),
        "mean1": _array_to_doc(model.mean1),
        "var0": _array_to_doc(model.var0),
        "var1": _array_to_doc(model.var1),
        "eps_var": model.eps_var,
        "p_max": model.p_max,
    }


def _gnb_from_doc(doc: dict) -> GnbModel:
    return GnbModel(
        log_prior0=doc["log_prior0"],
        log_prior1=doc["log_prior1"],
        mean0=_array_from_doc(doc["mean0"]),
        mean1=_array_from_doc(doc["mean1"]),
        var0=_array_from_doc(doc["var0"]),
        var1=_array_from_doc(doc["var1"]),
        eps_var=doc["eps_var"],
        p_max=doc["p_max"],
    )


def _mlp_to_doc(model: MlpModel) -> dict:
    return {
        "sizes": list(model.sizes),
        "seed": model.seed,
        "weights": [_array_to_doc(w) for w in model.weights],
        "biases": [_array_to_doc(b) for b in model.biases],
    }


def _mlp_from_doc(doc: dict) -> MlpModel:
    return MlpModel(
        sizes=tuple(doc["sizes"]),
        weights=[_array_from_doc(w) for w in doc["weights"]],
        biases=[_array_from_doc(b) for b in doc["biases"]],
        seed=doc["seed"],
    )


def _model_to_doc(bundle: PricingBundle) -> dict:
    m = bundle.model
    if bundle.model_type == "gnb":
        return _gnb_to_doc(m)
    if bundle.model_type == "gnbc":
        return {
            "kmeans": {"centroids": _array_to_doc(m.kmeans.centroids),
                       "seed": m.kmeans.seed,
                       "iterations_run": m.kmeans.iterations_run},
            "gnb": _gnb_to_doc(m.gnb),
        }
    if bundle.model_type == "app_dnn":
        return {"mlp": _mlp_to_doc(m.mlp), "p_max": m.p_max}
    return {"mlp": _mlp_to_doc(m.mlp), "c1": m.c1, "c2": m.c2}


def _model_from_doc(model_type: str, doc: dict, grid: PriceGrid):
    if model_type == "gnb":
        return _gnb_from_doc(doc)
    if model_type == "gnbc":
        km = KMeansModel(centroids=_array_from_doc(doc["kmeans"]["centroids"]),
                         seed=doc["kmeans"]["seed"],
                         iterations_run=doc["kmeans"]["iterations_run"])
        return GnbcModel(kmeans=km, gnb=_gnb_from_doc(doc["gnb"]))
    if model_type == "app_dnn":
        return MlpDemandModel(mlp=_mlp_from_doc(doc["mlp"]), p_max=doc["p_max"])
    return DnnClModel(mlp=_mlp_from_doc(doc["mlp"]), grid=grid,
                      c1=doc["c1"], c2=doc["c2"])


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_checkpoint(bundle: PricingBundle, path: str | Path) -> str:
    """Write the bundle to disk; returns the content checksum."""
    hyper: dict = {}
    if bundle.logistic is not None:
        hyper["logistic"] = {"max_price": bundle.logistic.max_price,
                             "shape": bundle.logistic.shape,
                             "midpoint": bundle.logistic.midpoint}
    if bundle.p_ref is not None:
        hyper["p_ref"] = bundle.p_ref
    payload = {
        "format_version": FORMAT_VERSION,
        "model_type": bundle.model_type,
        "schema": _schema_to_doc(bundle.schema),
        "grid": [float(p) for p in bundle.grid.prices],
        "hyperparameters": hyper,
        "params": _model_to_doc(bundle),
    }
    checksum = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    doc = dict(payload)
    doc["checksum"] = checksum
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")
    return checksum


def load_checkpoint(path: str | Path) -> PricingBundle:
    """Read and verify a checkpoint; predictions match the saved model exactly."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ChecksumMismatch(f"checkpoint is not valid JSON: {exc.msg}") from exc
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"checkpoint format {version!r}, expected {FORMAT_VERSION}")
    stored = doc.pop("checksum", None)
    actual = hashlib.sha256(_canonical(doc).encode()).hexdigest()
    if stored != actual:
        raise ChecksumMismatch("checkpoint checksum does not match its contents")

    grid = PriceGrid(tuple(doc["grid"]))
    hyper = doc.get("hyperparameters", {})
    logistic = None
    if "logistic" in hyper:
        logistic = LogisticMapParams(max_price=hyper["logistic"]["max_price"],
                                     shape=hyper["logistic"]["shape"],
                                     midpoint=hyper["logistic"]["midpoint"])
    model_type = doc["model_type"]
    return PricingBundle(
        model_type=model_type,
        schema=_schema_from_doc(doc["schema"]),
        grid=grid,
        model=_model_from_doc(model_type, doc["params"], grid),
        logistic=logistic,
        p_ref=hyper.get("p_ref"),
        version=f"{model_type}:{actual[:12]}",
    )
