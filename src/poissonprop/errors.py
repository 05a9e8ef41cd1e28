"""Error classes raised by the library.

Each class corresponds to one failure mode; the CLI reports the class
name verbatim, so names are part of the public contract.
"""


class PoissonPropError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(PoissonPropError):
    """Array shapes that must agree do not (maps, masks, vectors, systems)."""


# --- graph ---

class KTooLarge(PoissonPropError):
    """Requested more nearest neighbors than other points exist."""


# --- propagation ---

class NoLabels(PoissonPropError):
    """Source construction requires at least one labeled vertex."""


class DisconnectedGraph(PoissonPropError):
    """The propagation graph has more than one connected component."""


# --- file formats ---

class BadMagic(PoissonPropError):
    """Tensor file does not start with the expected magic bytes."""


class TruncatedPayload(PoissonPropError):
    """Tensor file payload length disagrees with its header."""


class UnknownDtype(PoissonPropError):
    """Tensor file declares an unsupported dtype code."""


class ManifestError(PoissonPropError):
    """Episode manifest is missing or misuses a key."""
