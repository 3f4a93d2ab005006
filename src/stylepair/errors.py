"""Exception types shared across the pipeline.

Every error raised by this package derives from StylePairError so callers
can distinguish pipeline failures from programming errors.
"""


class StylePairError(Exception):
    pass


# ---- embedding container / file format ----

class MagicMismatch(StylePairError):
    pass


class VersionUnsupported(StylePairError):
    pass


class TruncatedFile(StylePairError):
    pass


class TrailingBytes(StylePairError):
    pass


class NonFiniteValue(StylePairError):
    pass


class DuplicateId(StylePairError):
    pass


class CorruptField(StylePairError):
    pass


# ---- embedding math ----

class ZeroVectorRow(StylePairError):
    pass


class DimMismatch(StylePairError):
    pass


class NotNormalized(StylePairError):
    pass


class RangeOutOfBounds(StylePairError):
    pass


# ---- matching ----

class PoolExhausted(StylePairError):
    pass


# ---- style fitting / filtering ----

class SingularSystem(StylePairError):
    pass


class CountMismatch(StylePairError):
    pass


# ---- training ----

class NonFiniteLoss(StylePairError):
    pass


class EmptyStyleSet(StylePairError):
    pass


class BatchTooLarge(StylePairError):
    pass


# ---- evaluation ----

class MissingTruth(StylePairError):
    pass


class UnknownCandidate(StylePairError):
    pass


class EmptyRanks(StylePairError):
    pass


# ---- configuration ----

class ConfigInvalid(StylePairError):
    pass
