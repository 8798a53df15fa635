"""Exception types shared across the package."""


class MobiusLatticeError(Exception):
    """Base class for package-specific errors."""


# field construction and arithmetic

class NonPrimeCharacteristic(MobiusLatticeError):
    """Characteristic p is not a prime number."""


class ReducibleModulus(MobiusLatticeError):
    """Supplied extension modulus factors over the prime field."""


class UnsupportedExtension(MobiusLatticeError):
    """u > 1 with no modulus supplied and none built in for this order."""


class TableTooLarge(MobiusLatticeError):
    """A field's tables or a row space would exceed the subspace cap."""


# linear algebra

class AmbientMismatch(MobiusLatticeError):
    """Operands live in different ambient spaces."""


class TooManySubspaces(MobiusLatticeError):
    """Subspace enumeration would exceed the configured cap."""


class SingularElement(MobiusLatticeError):
    """A matrix that must be invertible is singular."""


# groups

class SingularGenerator(SingularElement):
    """A group generator is singular."""


class OrderCapExceeded(MobiusLatticeError):
    """Group closure grew past the configured order cap."""


class IntervalTooLarge(MobiusLatticeError):
    """Subgroup interval enumeration exceeded the configured cap."""


class PowersetTooLarge(MobiusLatticeError):
    """A powerset walk over too many elements was requested."""


class NotASubgroup(MobiusLatticeError):
    """An element set is not closed under products or not generated by its
    generators, or requested interval endpoints are not nested subgroups."""


# posets

class InvalidOrderRelation(MobiusLatticeError):
    """Relation is not reflexive, antisymmetric and transitive."""


# simplicial complexes

class NotDownwardClosed(MobiusLatticeError):
    """A face family is not closed under taking subsets."""


# identity layer

class ReducibleAmbientGroup(MobiusLatticeError):
    """The ambient group fixes a proper non-trivial subspace."""


class SubgroupNotContained(MobiusLatticeError):
    """Subgroup handle does not belong to the expected parent group."""


# cli

class MalformedReport(MobiusLatticeError):
    """Report file is invalid or contains conflicting duplicate rows."""


class InvalidCap(MobiusLatticeError):
    """A cap flag holds a value no run can mean (an index below 1 or a
    negative size) or is given with a scope it cannot filter (an index cap
    with a subgroup file)."""


class FormatConflict(MobiusLatticeError):
    """A report format has no place for what other flags ask it to carry
    (CSV rows have no timing or face columns, and CSV has no summary)."""


class GroupSpecError(MobiusLatticeError):
    """A run's group, field, subgroup file or report path cannot be
    resolved."""
