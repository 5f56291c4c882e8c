"""Exception hierarchy with machine-readable error codes.

Every error carries a short ``code`` string that the CLI emits in its JSON
error payload, plus the name of the module that raised it. The details go
into the payload as given, and ``reporting`` prints them.
"""


class DegenPdeError(Exception):
    """Base class for all engine errors."""

    code = "error"
    module = "degenpde"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def payload(self):
        return {
            "error": self.code,
            "module": self.module,
            "message": str(self),
            "details": self.details,
        }


class DomainViolationError(DegenPdeError):
    code = "domain_violation"
    module = "model"


class ContractViolationError(DegenPdeError):
    code = "contract_violation"


class PositivityError(DegenPdeError):
    code = "positivity_violation"
    module = "model"


class StabilityError(DegenPdeError):
    code = "stability_violation"
    module = "pde_solver"


class BlowUpError(DegenPdeError):
    code = "blow_up"
    module = "pde_solver"


class ParameterError(DegenPdeError):
    code = "parameter_violation"
    module = "transform"


class StiffnessError(DegenPdeError):
    code = "stiffness_failure"
    module = "transform"


class DegeneracyError(DegenPdeError):
    code = "degeneracy_error"
    module = "sde_mc"


class ExtrapolationError(DegenPdeError):
    code = "extrapolation_refused"
    module = "sde_mc"


class DecompositionError(DegenPdeError):
    code = "decomposition_inconsistency"
    module = "projection_check"


class ConfigurationError(DegenPdeError):
    code = "configuration_error"
    module = "cli"


class IntegrationError(DegenPdeError):
    code = "integration_failure"
    module = "model"
