"""Domain-error hierarchy.

Every error carries a stable ``code`` string used by the CLI JSON output.
"""


class ArithlineError(Exception):
    code = "DomainError"

    def __init__(self, detail=""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class ZeroInput(ArithlineError):
    code = "ZeroInput"


class NonIntegralAtExtremePoint(ArithlineError):
    code = "NonIntegralAtExtremePoint"


class NotInRingOfV(ArithlineError):
    code = "NotInRingOfV"


class IncompatiblePoint(ArithlineError):
    code = "IncompatiblePoint"


class NonIntegralCoefficients(ArithlineError):
    code = "NonIntegralCoefficients"


class FlowOutOfDomain(ArithlineError):
    code = "FlowOutOfDomain"


class IrrationalRadius(ArithlineError):
    code = "IrrationalRadius"


class NegativePowersOnDisk(ArithlineError):
    code = "NegativePowersOnDisk"


class ArchimedeanBase(ArithlineError):
    code = "ArchimedeanBase"


class NotAUnit(ArithlineError):
    code = "NotAUnit"


class OrderingViolated(ArithlineError):
    code = "OrderingViolated"


class NotMonic(ArithlineError):
    code = "NotMonic"


class RadiusBelowThreshold(ArithlineError):
    code = "RadiusBelowThreshold"


class NoContractionRadiusFound(ArithlineError):
    code = "NoContractionRadiusFound"


class ValuationUndefined(ArithlineError):
    code = "ValuationUndefined"


class NotSimpleRoot(ArithlineError):
    code = "NotSimpleRoot"


class NoConvergence(ArithlineError):
    code = "NoConvergence"


class NotCoprime(ArithlineError):
    code = "NotCoprime"


class ProductMismatch(ArithlineError):
    code = "ProductMismatch"


class NotSeparable(ArithlineError):
    code = "NotSeparable"


class RadiusTooSmall(ArithlineError):
    code = "RadiusTooSmall"


class DeltaNotAchievable(ArithlineError):
    code = "DeltaNotAchievable"


class NormTooLarge(ArithlineError):
    code = "NormTooLarge"


class EpsilonTooLarge(ArithlineError):
    code = "EpsilonTooLarge"


class ToleranceNotReached(ArithlineError):
    code = "ToleranceNotReached"


class NoneFound(ArithlineError):
    code = "NoneFound"


class CongruenceFails(ArithlineError):
    code = "CongruenceFails"


class PDividesN(ArithlineError):
    code = "PDividesN"


class PrecisionInsufficient(ArithlineError):
    code = "PrecisionInsufficient"


class NotLiftable(ArithlineError):
    code = "NotLiftable"


class UnknownSuite(ArithlineError):
    code = "UnknownSuite"


class BadDescriptor(ArithlineError):
    code = "BadDescriptor"


class CannotCertify(ArithlineError):
    code = "CannotCertify"


class CannotFactor(ArithlineError):
    code = "CannotFactor"
