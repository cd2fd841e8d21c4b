"""Exception hierarchy shared across the package."""


class PricingError(Exception):
    """Base class for all errors raised by this package."""


# --- feature encoding ---------------------------------------------------


class EmptyDataset(PricingError):
    pass


class AllFeaturesDegenerate(PricingError):
    pass


class SchemaMismatch(PricingError):
    pass


class NonFiniteInput(PricingError, ValueError):
    """A session whose features, or whose demand estimate, are not finite."""


# --- model fitting / inference ------------------------------------------


class SingleClassDataset(PricingError):
    pass


class DimensionMismatch(PricingError):
    pass


class TooFewSamples(PricingError):
    pass


class BadArchitecture(PricingError):
    pass


class NonFiniteLoss(PricingError):
    pass


# --- metrics --------------------------------------------------------------


class SingleClassInput(PricingError):
    pass


class NoPurchases(PricingError):
    pass


class UndefinedMetric(PricingError):
    pass


# --- simulation -----------------------------------------------------------


class CalibrationDiverged(PricingError):
    pass


# --- data files, checkpoints, configs --------------------------------------


class ParseError(PricingError):
    """A session log line could not be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class MissingRequiredField(ParseError):
    """A session log line is missing a mandatory field."""

    def __init__(self, line: int, name: str):
        self.name = name
        super().__init__(line, f"missing required field {name!r}")


class ChecksumMismatch(PricingError):
    pass


class UnsupportedVersion(PricingError):
    pass


class ConfigError(PricingError):
    pass
