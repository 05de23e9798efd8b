"""Exception hierarchy shared across the package; each class carries its CLI exit code."""


class SdgPbError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class BackendFailure(SdgPbError):
    """A backend or network call failed: the works API or a completion backend."""

    exit_code = 4


# taxonomy: bad values, so a store line that holds one is corrupt
class OutOfRange(SdgPbError, ValueError):
    pass


class IllegalRefinement(SdgPbError, ValueError):
    pass


# corpus
class InvalidCursor(SdgPbError):
    pass


class MalformedXml(SdgPbError):
    pass


class NotTei(SdgPbError):
    pass


class EmptyDocument(SdgPbError):
    pass


class InvalidDocId(SdgPbError, ValueError):
    """A document id that is not a plain file name: it names the document's checkpoint file."""


class OverContext(SdgPbError):
    pass


class StoreCorrupt(SdgPbError):
    """A store's line is not JSON or holds no valid record."""


# gateway
class RateLimited(BackendFailure):
    pass


class Timeout(BackendFailure):
    pass


class BackendError(BackendFailure):
    pass


class TransientBackendError(BackendError):
    """Retryable backend failure (429, 5xx, transport hiccup), with the delay
    the server asked for in a Retry-After header, if any."""

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ReplayMiss(BackendFailure):
    pass


class CacheCorrupt(StoreCorrupt):
    """A recorded-cache line other than a torn final one does not parse."""


# pipeline
class SchemaError(SdgPbError):
    pass


class IdOutOfRange(SchemaError):
    pass


class PairSetMismatch(SchemaError):
    pass


class UnknownCategory(SchemaError):
    pass


class UnknownDirection(SchemaError):
    pass


class TemplateVersionMismatch(SdgPbError):
    pass


class CheckpointCorrupt(StoreCorrupt):
    """A checkpoint line other than a torn final one does not parse."""


# analytics
class DuplicateRecord(SdgPbError):
    pass


class EmptyMatrix(SdgPbError):
    pass


class ZeroCorpus(SdgPbError):
    pass


class ZeroGlobal(SdgPbError):
    pass


# cli
class ConfigError(SdgPbError):
    exit_code = 2


class MissingInput(SdgPbError):
    pass


class GoldenMismatch(SdgPbError):
    exit_code = 5
