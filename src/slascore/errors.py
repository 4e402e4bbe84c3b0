"""Exception hierarchy shared by all slascore modules."""


class SlaError(Exception):
    """Base class for all slascore errors."""


class ValidationError(SlaError):
    """Invalid domain data (scores, parts, shapes, configs)."""


class OffGridReference(ValidationError):
    """Reference score is not one of ``core.REFERENCE_LEVELS``."""


class NonFiniteScore(ValidationError):
    pass


class InvalidPart(ValidationError):
    pass


class DuplicateKey(ValidationError):
    pass


class EmptyJoin(ValidationError):
    pass


class MissingReference(ValidationError):
    """Prediction keys present without a matching reference row."""


class LengthMismatch(ValidationError):
    pass


class EmptyInput(ValidationError):
    pass


class ConstantInput(ValidationError):
    """Correlation undefined: one input has zero variance."""


class NoReferences(ValidationError):
    pass


class EmptyDataset(ValidationError):
    pass


class MissingPart(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class ZeroNormVector(ValidationError):
    pass


class OffGridTarget(ValidationError):
    pass


class InvalidConfig(ValidationError):
    pass


class StaleCache(SlaError):
    """Backward called with a cache from an outdated forward pass."""


class NonFiniteLoss(SlaError):
    """Divergence guard tripped during training."""


class ParseError(SlaError):
    """A file could not be parsed."""


class CalibrationVersionMismatch(ParseError):
    pass
