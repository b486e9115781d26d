"""Exception types shared across the package.

Precondition failures are ordinary, expected outcomes (a theorem's
hypotheses simply do not hold on the given input); falsification errors
are loud alarms that a certified quantity was contradicted by a direct
computation and should never fire on correct inputs.
"""


class ExpanderLabError(Exception):
    """Base class for every library error."""


class NonFinite(ExpanderLabError):
    """Matrix contains NaN or Inf entries."""


class NoConvergence(ExpanderLabError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class ZeroLine(ExpanderLabError):
    """A row or column sums to zero (isolated vertex for adjacency inputs)."""


class NegativeEntry(ExpanderLabError):
    """Matrix required to be nonnegative has a negative entry."""


class EmptySubset(ExpanderLabError):
    """A row/column/vertex subset that must be nonempty is empty."""


class NotPrime(ExpanderLabError):
    """Paley construction needs a prime modulus."""


class BadResidueClass(ExpanderLabError):
    """Paley construction needs q congruent to 1 mod 4."""


class ParityViolation(ExpanderLabError):
    """Regular-graph generation needs n*d even."""


class RetryExhausted(ExpanderLabError):
    """Rejection sampling exceeded its attempt cap."""


class UnknownName(ExpanderLabError):
    """Unknown named-graph identifier."""


class MalformedGraphFile(ExpanderLabError, ValueError):
    """Graph file that does not follow the "n m" plus m "u v" lines format."""


class EmptyGraph(ExpanderLabError, ValueError):
    """Graph with no vertices where at least one is required."""


class IsolatedVertex(ExpanderLabError):
    """Graph has a vertex of degree zero where positive degrees are required."""


class EmptySide(ExpanderLabError):
    """Bipartite view with an empty side."""


class CertificateMismatch(ExpanderLabError):
    """A certificate does not describe the graph it was presented with."""


class DegenerateGamma(ExpanderLabError):
    """Degree-deviation parameter gamma >= 1 makes the bound meaningless."""


class PreconditionViolated(ExpanderLabError):
    """A stated hypothesis of a lemma fails on the given input.

    Carries the name of the first violated hypothesis; this is a
    legitimate outcome, not a bug.
    """

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        self.detail = detail
        msg = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(msg)


class BadParameter(ExpanderLabError):
    """Sampling parameter outside its valid range."""


class BadRange(ExpanderLabError):
    """Tail-bound parameter outside the valid window for the chosen side."""


class AsymmetricInput(ExpanderLabError):
    """Symmetric-mode experiment received a non-symmetric matrix."""


class UnbalancedSides(ExpanderLabError):
    """Perfect matching requested on sides of unequal size."""


class TheoremFalsified(ExpanderLabError):
    """A conclusion that must hold under verified hypotheses failed.

    This indicates either a bug or an invalid certificate and is always
    raised loudly rather than swallowed.
    """


class NoEdgeFound(TheoremFalsified):
    """Greedy matching found no edge although the joinedness bound promises one."""


class ReserveTooSmall(ExpanderLabError):
    """Connector reserve too small relative to the number of port pairs."""


class ConnectFailed(ExpanderLabError):
    """Connector could not route a vertex-disjoint path for some pair."""

    def __init__(self, pair, reserve_left: int, detail: str = ""):
        self.pair = pair
        self.reserve_left = reserve_left
        super().__init__(
            f"could not connect pair {pair} (reserve left: {reserve_left})"
            + (f"; {detail}" if detail else "")
        )


class ConfigError(ExpanderLabError):
    """Pipeline configuration infeasible for the given graph."""


class PartitionRetriesExhausted(ExpanderLabError):
    """A partition phase failed its property checks on every retry."""

    def __init__(self, property_id: str, retries: int):
        self.property_id = property_id
        self.retries = retries
        super().__init__(f"property {property_id} failed after {retries} retries")


class PerfectMatchingFailed(ExpanderLabError):
    """Perfect matching absent; carries the Hall violator if one was found."""

    def __init__(self, violator=None):
        self.violator = violator
        super().__init__(f"no perfect matching; Hall violator: {violator}")


class SchemaMismatch(ExpanderLabError):
    """Experiment outputs missing or with inconsistent schema versions."""
