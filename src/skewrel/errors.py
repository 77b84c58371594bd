"""Exception hierarchy and the Value base class, shared by all skewrel modules.
Values compare and hash by identity, as interned specs and group elements must;
Scalar alone compares by its field and value.

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


class Value:
    """An immutable value: its constructor sets its slots with object.__setattr__, and it
    copies and pickles through its constructor, as ``_args()``."""

    __slots__ = ()

    def _immutable(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return type(self), self._args()
