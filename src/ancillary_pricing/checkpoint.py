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
import re
from dataclasses import dataclass
from pathlib import Path

from .codec import decode, from_doc, to_doc
from .core import EncodingSchema, PriceGrid, require_positive
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
# A file as save_checkpoint writes it, with its spaces and newlines removed.
_SAVED = re.compile(rb'\{"checksum":"([0-9a-f]{64})",(.*)', re.DOTALL)
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
        if self.p_ref is not None:
            require_positive("p_ref", self.p_ref, ConfigError)
        if self.model.n_features != self.schema.dim:
            raise ConfigError(f"the schema encodes {self.schema.dim} features, but the "
                              f"{self.model_type} model takes {self.model.n_features}")

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


def _parse(raw: bytes) -> dict:
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ChecksumMismatch(f"checkpoint is not valid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ChecksumMismatch(f"checkpoint is not UTF-8: {exc.reason}") from exc
    if not isinstance(doc, dict):
        raise ChecksumMismatch("checkpoint is not a JSON object")
    return doc


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
        "grid": list(bundle.grid.prices),
        "hyperparameters": hyper,
        "params": params,
    }
    checksum = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    doc = dict(payload)
    doc["checksum"] = checksum
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")
    return checksum


def _as_saved(raw: bytes) -> tuple[dict, str] | None:
    """The payload and checksum of ``raw`` when, without its spaces and
    newlines, it is a checksum that verifies followed by the bytes it covers."""
    saved = _SAVED.fullmatch(raw.translate(None, b" \n"))
    if saved is None:
        return None
    stored, body = saved[1].decode(), b"{" + saved[2]
    if hashlib.sha256(body).hexdigest() != stored:
        return None
    return _parse(body), stored


def load_checkpoint(path: str | Path) -> PricingBundle:
    """Read and verify a checkpoint; predictions match the saved model exactly.

    The checksum is the SHA-256 of the payload's canonical JSON
    (``_canonical``). A file in ``save_checkpoint``'s layout is checked
    over its own bytes with every space and newline removed, and the
    payload is parsed from the bytes checked. So when no string holds a
    space, an edit that only adds or removes spaces or newlines loads the
    saved bundle. Any other file is parsed first, and its payload
    re-serialised to check it.

    A document that verifies but does not decode into a valid bundle (a
    missing key, a value of the wrong kind or one its class refuses)
    raises ``ConfigError``.
    """
    raw = Path(path).read_bytes()
    doc, actual = _as_saved(raw) or (_parse(raw), None)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"checkpoint format {version!r}, expected {FORMAT_VERSION}")
    if actual is None:
        stored = doc.pop("checksum", None)
        actual = hashlib.sha256(_canonical(doc).encode()).hexdigest()
        if stored != actual:
            raise ChecksumMismatch("checkpoint checksum does not match its contents")

    try:
        model_type = doc["model_type"]
        model_cls = MODEL_CLASSES[model_type]
        grid = PriceGrid(decode(tuple[float, ...], doc["grid"]))
        hyper = decode(dict, doc.get("hyperparameters", {}))
        given = {"grid": grid} if model_cls is DnnClModel else {}
        return PricingBundle(
            model_type=model_type,
            schema=from_doc(EncodingSchema, doc["schema"]),
            grid=grid,
            model=from_doc(model_cls, doc["params"], **given),
            logistic=decode(LogisticMapParams | None, hyper.get("logistic")),
            p_ref=decode(float | None, hyper.get("p_ref")),
            version=f"{model_type}:{actual[:12]}",
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"checkpoint {path} verifies but does not decode: "
                          f"{type(exc).__name__}: {exc}") from exc
