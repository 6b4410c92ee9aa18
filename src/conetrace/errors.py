"""Exception hierarchy for the conetrace package."""


class ConetraceError(Exception):
    """Base class for all package errors."""


# surface model -------------------------------------------------------------

class SurfaceSyntaxError(ConetraceError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonConvexFaceError(ConetraceError):
    def __init__(self, face: int):
        super().__init__(f"face {face} is not convex")
        self.face = face


class DanglingEdgeError(ConetraceError):
    def __init__(self, face: int, edge: int):
        super().__init__(f"edge {face}.{edge} belongs to no gluing")
        self.face = face
        self.edge = edge


class UnknownBuiltinError(ConetraceError):
    pass


class NoConePointsError(ConetraceError):
    pass


# tracer --------------------------------------------------------------------

class EventBudgetExceededError(ConetraceError):
    pass


class InvalidScatterError(ConetraceError):
    def __init__(self, gamma_l: float, gamma_r: float):
        super().__init__(
            f"continuation is not geodesic: side angles ({gamma_l:.12g}, {gamma_r:.12g}) below pi"
        )
        self.gamma_l = gamma_l
        self.gamma_r = gamma_r


class NotALoopError(ConetraceError):
    pass


class OutOfWindowError(ConetraceError):
    pass


class ChartMismatchError(ConetraceError):
    pass


# metric --------------------------------------------------------------------

class ExceedsRadiusError(ConetraceError):
    def __init__(self, radius: float, best: float | None = None):
        super().__init__(f"distance exceeds search radius {radius:.12g}")
        self.radius = radius
        self.best = best


class SearchTruncatedError(ConetraceError):
    def __init__(self, nodes: int):
        super().__init__(
            f"unfolding search stopped at its node budget or depth cap after {nodes} nodes"
        )
        self.nodes = nodes


class ConeOnRayError(ConetraceError):
    pass


class NoBracketError(ConetraceError):
    pass


# closed geodesics ----------------------------------------------------------

class NullHomotopicError(ConetraceError):
    pass


class NoConvergenceError(ConetraceError):
    def __init__(self, iterations: int, period: int | None = None):
        super().__init__(f"curve shortening did not converge in {iterations} iterations" if period is None
                         else f"curve shortening repeated the state of iteration {iterations - period}"
                         f" at iteration {iterations}, period {period}")
        self.iterations = iterations
        self.period = period


class NotConeFreeError(ConetraceError):
    pass


class BudgetExhaustedError(ConetraceError):
    pass


# dynamics ------------------------------------------------------------------

class EmptyCellError(ConetraceError):
    pass
