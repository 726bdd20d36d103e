"""Exception types shared across the package."""

from __future__ import annotations


class PlanrepError(Exception):
    """Base class for all package-specific errors."""


class FormatError(PlanrepError):
    """Malformed instance, plan, or grammar text."""


class UnknownActionError(PlanrepError):
    """``StripsInstance.action`` was asked for a name the instance does
    not declare.  Plan execution raises nothing for such a name: it is a
    step that never applies."""

    def __init__(self, name: str):
        super().__init__(f"unknown action: {name}")
        self.name = name


class NotApplicableError(PlanrepError):
    """An action was fired in a state that violates its precondition.

    ``missing`` lists atom ids required true but absent, ``forbidden``
    lists atom ids required false but present.
    """

    def __init__(self, action: str, missing: tuple[int, ...], forbidden: tuple[int, ...]):
        super().__init__(
            f"action {action} not applicable: missing atoms {list(missing)}, "
            f"forbidden atoms {list(forbidden)}"
        )
        self.action = action
        self.missing = missing
        self.forbidden = forbidden


class IndexOutOfRangeError(PlanrepError):
    """An index fell outside its declared range."""


class TargetTooLargeError(PlanrepError):
    """A counter target does not fit in the requested bit width."""


class BadLengthError(PlanrepError):
    """A choice bitstring has the wrong length."""


class InvalidPlanError(PlanrepError):
    """A plan handed to a decoder does not solve its instance."""


class CapExceededError(PlanrepError):
    """A brute-force computation hit its configured cap."""

    def __init__(self, cap: int, what: str = "work"):
        super().__init__(f"{what} cap of {cap} exceeded")
        self.cap = cap


class ExplorationCapExceededError(CapExceededError):
    """State-space exploration hit its state or edge cap."""


class CalibrationMismatchError(PlanrepError):
    """Closed-form block constants disagree with the simulated plan;
    signals a drift in the clause-enumeration convention."""


class NoFalsifiedClauseError(PlanrepError):
    """Advice claimed unsatisfiability but some assignment satisfies
    every enabled clause."""


class StuckError(PlanrepError):
    """A deterministic stream reached a non-goal state with no
    applicable action."""

    def __init__(self, state):
        super().__init__(f"no applicable action in non-goal state {state!r}")
        self.state = state


class NotReversibleObservedError(PlanrepError):
    """No inverse action pair exists at a state, contradicting the
    declared reversibility of the instance."""

    def __init__(self, state):
        super().__init__(f"no stutter pair found at state {state!r}")
        self.state = state
