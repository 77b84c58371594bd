"""Exception hierarchy shared by all skewrel modules.

Exit-code mapping used by the CLI:
  StructureError / ValidationFailure / PreconditionError -> 1
  DocumentError -> 3
"""


class SkewRelError(Exception):
    pass


class StructureError(SkewRelError):
    """Malformed input data: duplicate labels, non-injective map, bad table."""


class ValidationFailure(SkewRelError):
    """A candidate partial action violates one of the three axioms; ``report`` says where."""

    def __init__(self, report):
        super().__init__("; ".join(report.render()))
        self.report = report


class PreconditionError(SkewRelError):
    """An operation was called outside its stated domain."""


class NotFreeError(PreconditionError):
    """Operation requires a free action."""


class DocumentError(SkewRelError):
    """A JSON document could not be read, parsed or written, or broke the strict schema."""
