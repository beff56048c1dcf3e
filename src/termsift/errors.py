"""Exception types shared across the toolkit."""


class TermsiftError(Exception):
    """Base class for all toolkit errors."""


class EmptyCorpusError(TermsiftError):
    """A corpus source yielded zero documents."""


class CorpusFormatError(TermsiftError):
    """Structural problem in a corpus layout or manifest (e.g. duplicate ids)."""


class WordNetFormatError(TermsiftError):
    """Malformed WordNet database file; message carries file name and line number."""
