"""Exception hierarchy shared across the package."""


class FocusRankError(Exception):
    """Base class for all package-specific errors."""


class UnknownNodeError(FocusRankError):
    """A node id does not exist in the graph being queried."""


class EmptyAnchorSetError(FocusRankError):
    """Pair labeling was requested with no anchor nodes."""


class TooFewCommitsError(FocusRankError):
    """A project has too few diffs for a temporal train/val/test split."""


class TooFewProjectsError(FocusRankError):
    """Cross-project folding was requested with fewer projects than folds."""


class EmptyProjectError(FocusRankError):
    """A project group passed to balancing contains no pairs."""


class RemoteUnavailableError(FocusRankError):
    """The remote embedding endpoint could not be reached or kept failing."""


class DimensionMismatchError(FocusRankError):
    """Vector or parameter dimensions are inconsistent."""


class EmptyDatasetError(FocusRankError):
    """Training was requested on an empty train or validation set."""


class EmptyCandidatesError(FocusRankError):
    """A ranking was requested over an empty candidate set."""


class NoPositivesError(FocusRankError):
    """Precision@k is undefined for a ranking without positive candidates."""


class LengthMismatchError(FocusRankError):
    """Paired samples have different lengths."""


class TooFewSamplesError(FocusRankError):
    """A statistic needs more data points than were provided."""


class EmptySampleError(FocusRankError):
    """A statistical test received an empty sample."""


class CheckpointFormatError(FocusRankError):
    """A checkpoint file is corrupted or has an unsupported version."""


class ArtifactFormatError(FocusRankError):
    """A corpus, split or pair file does not have the expected structure."""


class ConfigInvalidError(FocusRankError):
    """A run or generator configuration failed validation."""


class MissingArtifactError(FocusRankError):
    """A command depends on an artifact that has not been produced yet."""


class TrainingDivergedError(FocusRankError):
    """A training or validation loss became NaN or infinite."""
