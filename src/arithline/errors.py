"""Error hierarchy, and the CLI's refusal policy on each class.

Every error's stable ``code`` for the CLI JSON output is its class name, and
its ``exit_code`` and ``stream`` say how the CLI refuses: 2 on stdout for a
domain error, 1 on stdout for ``UnknownSuite``, 1 on stderr for ``BadInput``
(malformed input; a ValueError too, which ``except ValueError`` catches).
"""


class ArithlineError(Exception):
    code = "DomainError"
    exit_code = 2
    stream = "stdout"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, detail=""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class BadInput(ArithlineError, ValueError):
    exit_code = 1
    stream = "stderr"


class ZeroInput(ArithlineError):
    pass


class NonIntegralAtExtremePoint(ArithlineError):
    pass


class NotInRingOfV(ArithlineError):
    pass


class IncompatiblePoint(ArithlineError):
    pass


class NonIntegralCoefficients(ArithlineError):
    pass


class FlowOutOfDomain(ArithlineError):
    pass


class IrrationalRadius(ArithlineError):
    pass


class NegativePowersOnDisk(ArithlineError):
    pass


class ArchimedeanBase(ArithlineError):
    pass


class NotAUnit(ArithlineError):
    pass


class OrderingViolated(ArithlineError):
    pass


class NotMonic(ArithlineError):
    pass


class RadiusBelowThreshold(ArithlineError):
    pass


class NoContractionRadiusFound(ArithlineError):
    pass


class ValuationUndefined(ArithlineError):
    pass


class NotSimpleRoot(ArithlineError):
    pass


class NoConvergence(ArithlineError):
    pass


class NotCoprime(ArithlineError):
    pass


class ProductMismatch(ArithlineError):
    pass


class NotSeparable(ArithlineError):
    pass


class RadiusTooSmall(ArithlineError):
    pass


class DeltaNotAchievable(ArithlineError):
    pass


class NormTooLarge(ArithlineError):
    pass


class EpsilonTooLarge(ArithlineError):
    pass


class ToleranceNotReached(ArithlineError):
    pass


class NoneFound(ArithlineError):
    pass


class CongruenceFails(ArithlineError):
    pass


class PDividesN(ArithlineError):
    pass


class PrecisionInsufficient(ArithlineError):
    pass


class NotLiftable(ArithlineError):
    pass


class UnknownSuite(ArithlineError):
    exit_code = 1


class BadDescriptor(ArithlineError):
    pass


class CannotCertify(ArithlineError):
    pass


class CannotFactor(ArithlineError):
    pass


class OutputTooLarge(ArithlineError):
    """An exact output holds an integer past the interpreter's limit on
    int-to-decimal conversion (4300 digits by default)."""
