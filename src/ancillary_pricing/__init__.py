"""Dynamic pricing for optional add-on products.

Demand estimation (Gaussian naive Bayes variants and a small neural
network), price optimization policies, offline/online evaluation metrics,
and a synthetic-market A/B harness with ground-truth willingness to pay.
"""

__version__ = "0.1.0"

from .core import (
    DemandModel,
    EncodedDataset,
    EncodingSchema,
    PolicyTag,
    PriceGrid,
    Quote,
    SessionRecord,
    encode,
    encode_dataset,
    encode_matrix,
    fit_schema,
    snap_to_grid,
)

__all__ = [
    "DemandModel",
    "EncodedDataset",
    "EncodingSchema",
    "PolicyTag",
    "PriceGrid",
    "Quote",
    "SessionRecord",
    "encode",
    "encode_dataset",
    "encode_matrix",
    "fit_schema",
    "snap_to_grid",
    "__version__",
]
