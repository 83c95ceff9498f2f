"""Exception hierarchy shared across the toolkit: what counts as bad input.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented process exit codes: 2 for input/format problems, 3 for numeric
divergence, 4 for degenerate inputs that make an operation undefined.
"""

import contextlib
import json


class LMFError(Exception):
    exit_code = 1


class RatingFormatError(LMFError):
    """Malformed rating-log line (bad field count or non-numeric rating),
    or a non-finite rating; ``path`` and ``lineno`` are None when the
    rating did not come from a file."""

    exit_code = 2

    def __init__(self, path, lineno, message):
        super().__init__(message if path is None else f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class DuplicateEntryError(LMFError):
    """The same (user, item) pair was observed twice."""

    exit_code = 2


class EmptyInputError(LMFError):
    """A rating log with no records, or an operation on zero entries."""

    exit_code = 4


class DegenerateViewError(LMFError):
    """Density requested for a view with no rows or no columns."""

    exit_code = 4


class DegenerateInputError(LMFError):
    """An aggregate asked over an empty collection."""

    exit_code = 4


class OutOfBlockError(LMFError):
    """A restricted-density vector that does not lie inside the block."""

    exit_code = 4


class ShapeError(LMFError):
    """Dimension mismatch between two objects that must agree."""

    exit_code = 2


@contextlib.contextmanager
def error_context(prefix):
    """Prefix the message of an :class:`LMFError` escaping the block with
    ``prefix``, so the message names where it happened."""
    try:
        yield
    except LMFError as exc:
        exc.args = (f"{prefix} {exc.args[0] if exc.args else ''}",)
        raise


def require_keys(doc, keys, where):
    """Raise :class:`ShapeError` unless ``doc`` (parsed JSON) is an object
    holding every key in ``keys``; ``where`` names the file or node."""
    if not isinstance(doc, dict):
        raise ShapeError(f"{where} is a JSON {type(doc).__name__}, not an "
                         "object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ShapeError(f"{where} lacks keys {missing}")


def parse_json(text, keys, where):
    """The JSON object in ``text`` (str or bytes), checked by
    :func:`require_keys`; text that is not JSON, a truncated document
    included, raises :class:`ShapeError` naming ``where``."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ShapeError(f"{where} is not valid JSON: {exc}") from None
    require_keys(doc, keys, where)
    return doc


def read_json(path, keys):
    """:func:`parse_json` of the file at ``path``, naming the file."""
    with open(path, "rb") as fh:
        return parse_json(fh.read(), keys, str(path))


class ConfigError(LMFError, ValueError):
    """An argument or setting outside its domain (an unknown mode name, a
    target density outside (0, 1], a negative random seed)."""

    exit_code = 2


class SpecError(ConfigError):
    """A factorizer spec (from a model file or a benchmark config) with
    keys it does not know, without a key it needs, with a field of the
    wrong type, or with a value out of range."""


class MissingLabelsError(LMFError):
    """Labels asked of a model whose tree carries no row or column labels
    (built from ``n_rows``/``n_cols`` instead of a labelled matrix)."""

    exit_code = 2


class TooSmallError(LMFError):
    """Graph too small to bisect (fewer than two nodes)."""

    exit_code = 4


class NoSplitError(LMFError):
    """No vertex separator exists that leaves two non-empty parts."""

    exit_code = 4


class DegenerateBlockError(LMFError):
    """Density promotion stalled: no single vector removal raises the
    pooled block density while it is still below target."""

    exit_code = 4


class DomainError(LMFError):
    """Input values outside an algorithm's domain (e.g. negatives for NMF)."""

    exit_code = 2


class DivergenceError(LMFError):
    """Training produced a non-finite objective."""

    exit_code = 3

    def __init__(self, iteration, message=None):
        super().__init__(message or f"non-finite objective at iteration {iteration}")
        self.iteration = iteration

    def __reduce__(self):
        return (DivergenceError, (self.iteration, self.args[0]))


class UndefinedMetricError(LMFError):
    """Metric asked for zero observations (e.g. FCHR over zero rounds)."""

    exit_code = 4
