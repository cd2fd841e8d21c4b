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

from .codec import from_doc, to_doc
from .core import EncodingSchema, PriceGrid
from .errors import ChecksumMismatch, ConfigError, UnsupportedVersion
from .gnb import GnbcModel, GnbModel
from .mlp import MlpDemandModel
from .policies import (
    AppDesPolicy,
    AppLmPolicy,
    DnnClPolicy,
    LogisticMapParams,
    PricingPolicy,
)
from .pricing_net import DnnClModel

FORMAT_VERSION = 1
# The one place that maps a checkpoint's model type to the class of its model.
MODEL_CLASSES = {"gnb": GnbModel, "gnbc": GnbcModel, "app_dnn": MlpDemandModel,
                 "dnn_cl": DnnClModel}


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
        if self.model_type not in MODEL_CLASSES:
            raise ConfigError(f"unknown model type {self.model_type!r}")
        if self.model_type in ("gnb", "gnbc") and self.logistic is None:
            raise ConfigError(f"{self.model_type} bundles need logistic map parameters")
        if self.p_ref is not None and not (math.isfinite(self.p_ref) and self.p_ref > 0):
            raise ConfigError(f"p_ref must be positive and finite, got {self.p_ref}")

    def policy(self, name: str | None = None, kind: str | None = None) -> PricingPolicy:
        """The serving policy ``kind`` (``app_lm``, ``app_des`` or ``dnn_cl``)
        over this bundle's model; by default the one paired with its model
        type. APP-DES searches the grid with any demand model."""
        kind = kind or {"app_dnn": "app_des", "dnn_cl": "dnn_cl"}.get(self.model_type, "app_lm")
        if kind == "app_lm" and self.model_type in ("gnb", "gnbc"):
            p_ref = self.p_ref if self.p_ref is not None else self.grid.p_max
            return AppLmPolicy(model=self.model, schema=self.schema, grid=self.grid,
                               logistic=self.logistic, p_ref=p_ref,
                               name=name or "APP-LM", model_version=self.version)
        if kind == "app_des" and self.model_type != "dnn_cl":
            return AppDesPolicy(model=self.model, schema=self.schema, grid=self.grid,
                                name=name or "APP-DES", model_version=self.version)
        if kind == "dnn_cl" and self.model_type == "dnn_cl":
            return DnnClPolicy(model=self.model, schema=self.schema,
                               name=name or "DNN-CL", model_version=self.version)
        raise ConfigError(f"policy {name or kind!r}: a {self.model_type} checkpoint "
                          f"cannot serve {kind}")


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_checkpoint(bundle: PricingBundle, path: str | Path) -> str:
    """Write the bundle to disk; returns the content checksum."""
    hyper = {key: to_doc(value) for key, value in
             (("logistic", bundle.logistic), ("p_ref", bundle.p_ref)) if value is not None}
    params = to_doc(bundle.model)
    params.pop("grid", None)  # DNN-CL's grid is the bundle's, stored once
    payload = {
        "format_version": FORMAT_VERSION,
        "model_type": bundle.model_type,
        "schema": to_doc(bundle.schema),
        "grid": [float(p) for p in bundle.grid.prices],
        "hyperparameters": hyper,
        "params": params,
    }
    checksum = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    doc = dict(payload)
    doc["checksum"] = checksum
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")
    return checksum


def load_checkpoint(path: str | Path) -> PricingBundle:
    """Read and verify a checkpoint; predictions match the saved model exactly.

    A document that verifies but does not decode into a valid bundle (a
    missing key, a value of the wrong kind or one its class refuses)
    raises ``ConfigError``.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ChecksumMismatch(f"checkpoint is not valid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ChecksumMismatch("checkpoint is not a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"checkpoint format {version!r}, expected {FORMAT_VERSION}")
    stored = doc.pop("checksum", None)
    actual = hashlib.sha256(_canonical(doc).encode()).hexdigest()
    if stored != actual:
        raise ChecksumMismatch("checkpoint checksum does not match its contents")

    try:
        model_type = doc["model_type"]
        model_cls = MODEL_CLASSES[model_type]
        grid = PriceGrid(tuple(doc["grid"]))
        hyper = doc.get("hyperparameters", {})
        if not isinstance(hyper, dict):
            raise TypeError(f"hyperparameters must be an object, got {type(hyper).__name__}")
        logistic = hyper.get("logistic")
        given = {"grid": grid} if model_cls is DnnClModel else {}
        return PricingBundle(
            model_type=model_type,
            schema=from_doc(EncodingSchema, doc["schema"]),
            grid=grid,
            model=from_doc(model_cls, doc["params"], **given),
            logistic=None if logistic is None else from_doc(LogisticMapParams, logistic),
            p_ref=hyper.get("p_ref"),
            version=f"{model_type}:{actual[:12]}",
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"checkpoint {path} verifies but does not decode: "
                          f"{type(exc).__name__}: {exc}") from exc
