"""Exception types shared across the package."""


class TriarbError(ValueError):
    """An error in what the user gave: flags, windows, tick files or a synth config.

    The CLI exits 2 on these; any other exception is a bug and exits 1.
    """


class TickParseError(TriarbError):
    """A tick file row could not be parsed; carries the 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class TickOrderingError(TriarbError):
    """Raw tick timestamps decreased within one file."""


class EmptySeriesError(TriarbError):
    """No tick of the file falls inside the requested window."""


class AlignmentError(TriarbError):
    """The pair series given for a triangle do not cover its three pairs on one window."""


class SynthConfigError(TriarbError):
    """A synthetic-data configuration is invalid or an injection is infeasible."""
