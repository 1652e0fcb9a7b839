"""Binomial and bootstrap statistics, and sequential-stopping rules.

Two layers live here:

* **one-shot estimation** — Wilson intervals for binomial proportions,
  bootstrap intervals for heavy-tailed means, and *a-priori* sample-size
  planning (:func:`required_samples`), and
* **sequential stopping** — the precision-target machinery behind the
  experiment harness's adaptive-precision sweeps: a
  :class:`PrecisionTarget` declares how tight the estimates must be, and
  the planning helpers (:func:`wilson_half_width`,
  :func:`mean_relative_half_width`, :func:`replicates_for_proportion`,
  :func:`replicates_for_mean`) translate interim results into
  variance-aware additional-replicate budgets, so sweeps spend events where
  the statistical error actually is instead of burning a fixed budget on
  every configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.exceptions import EstimationError
from repro.rng import SeedLike, as_generator

__all__ = [
    "BinomialEstimate",
    "PrecisionTarget",
    "DEFAULT_CI_HALF_WIDTH",
    "wilson_interval",
    "wilson_half_width",
    "binomial_estimate",
    "bootstrap_mean_interval",
    "mean_relative_half_width",
    "required_samples",
    "replicates_for_proportion",
    "replicates_for_mean",
]


@dataclass(frozen=True)
class BinomialEstimate:
    """A binomial proportion estimate with a Wilson confidence interval.

    Attributes
    ----------
    successes, trials:
        Raw counts.
    estimate:
        Point estimate ``successes / trials``.
    lower, upper:
        Wilson score interval bounds at the requested confidence level.
    confidence:
        Confidence level of the interval (e.g. 0.95).
    """

    successes: int
    trials: int
    estimate: float
    lower: float
    upper: float
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def excludes(self, value: float) -> bool:
        """Whether *value* lies outside the confidence interval."""
        return value < self.lower or value > self.upper

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4f} [{self.lower:.4f}, {self.upper:.4f}] "
            f"({self.successes}/{self.trials})"
        )


# Cephes ``ndtri`` rational approximations, highest degree first.  P0/Q0
# cover |y - 1/2| <= 1/2 - exp(-2); P1/Q1 and P2/Q2 cover z = sqrt(-2 log y)
# in [2, 8) and [8, 64).  The Q tables omit their leading coefficient 1.
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _polynomial(x: float, coefficients: tuple[float, ...], monic: bool = False) -> float:
    """Horner's rule, one multiply and one add per step (Cephes' ``polevl``/``p1evl``)."""
    value = x + coefficients[0] if monic else coefficients[0]
    for coefficient in coefficients[1:]:
        value = value * x + coefficient
    return value


def _ndtri(y: float) -> float:
    """The standard normal quantile: the ``x`` with ``Φ(x) = y``.

    A port of Cephes ``ndtri``, which ``scipy.special.ndtri`` (and so
    ``scipy.stats.norm.ppf``) evaluates: the same branches, constants and
    operation order, so the two agree bit for bit (``tests/test_analysis.py``
    checks it).  ``0`` and ``1`` map to ``∓inf``; anything else outside
    ``[0, 1]``, and NaN, to NaN.
    """
    y = float(y)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    negate = True
    if y > 1.0 - _EXP_MINUS_2:
        y = 1.0 - y
        negate = False
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polynomial(y2, _NDTRI_P0) / _polynomial(y2, _NDTRI_Q0, True))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polynomial(z, _NDTRI_P1) / _polynomial(z, _NDTRI_Q1, True)
    else:
        x1 = z * _polynomial(z, _NDTRI_P2) / _polynomial(z, _NDTRI_Q2, True)
    x = x0 - x1
    return -x if negate else x


@lru_cache(maxsize=64)
def _normal_quantile(confidence: float) -> float:
    """``z`` such that a standard normal lies in ``[-z, z]`` w.p. *confidence*.

    Cached because experiments evaluate thousands of intervals at a handful
    of confidence levels, and the quantile's logarithms and two rational
    functions would otherwise dominate the closed-form Wilson computation.
    A *confidence* outside ``(0, 1)`` raises
    :class:`~repro.exceptions.EstimationError`, which the cache never keeps.
    """
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    return _ndtri(0.5 + confidence / 2.0)


def wilson_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The Wilson interval has good coverage even for proportions near 0 or 1,
    which is exactly the regime of interest for "with high probability"
    statements (ρ close to 1).

    Degenerate inputs — negative counts, ``successes > trials``, or
    non-positive ``trials`` — raise :class:`~repro.exceptions.EstimationError`
    (a :class:`ValueError`) instead of silently producing out-of-range
    bounds.  The boundary cases 0 and ``trials`` successes are valid and
    stay inside ``[0, 1]`` with the point estimate contained:

    Examples
    --------
    >>> low, high = wilson_interval(90, 100)
    >>> 0.8 < low < 0.9 < high < 0.96
    True
    >>> low, high = wilson_interval(0, 50)
    >>> low == 0.0 and 0.0 < high < 0.1
    True
    >>> low, high = wilson_interval(50, 50)
    >>> 0.9 < low < 1.0 and high == 1.0
    True
    >>> wilson_interval(7, 5)
    Traceback (most recent call last):
        ...
    repro.exceptions.EstimationError: successes must lie in [0, trials]; got 7/5
    >>> wilson_interval(-1, 5)
    Traceback (most recent call last):
        ...
    repro.exceptions.EstimationError: successes must lie in [0, trials]; got -1/5
    """
    if trials <= 0:
        raise EstimationError(f"trials must be positive, got {trials}")
    if successes < 0 or successes > trials:
        raise EstimationError(
            f"successes must lie in [0, trials]; got {successes}/{trials}"
        )
    z = _normal_quantile(confidence)
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2.0 * trials)) / denominator
    margin = (
        z
        * float(np.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials)))
        / denominator
    )
    lower = max(0.0, centre - margin)
    upper = min(1.0, centre + margin)
    # Guard against floating-point noise at the boundaries (p_hat of 0 or 1):
    # the interval must always contain the point estimate.
    return (float(min(lower, p_hat)), float(max(upper, p_hat)))


def binomial_estimate(
    successes: int, trials: int, *, confidence: float = 0.95
) -> BinomialEstimate:
    """Bundle a point estimate with its Wilson interval."""
    lower, upper = wilson_interval(successes, trials, confidence=confidence)
    return BinomialEstimate(
        successes=int(successes),
        trials=int(trials),
        estimate=successes / trials,
        lower=lower,
        upper=upper,
        confidence=confidence,
    )


def bootstrap_mean_interval(
    samples: np.ndarray,
    *,
    confidence: float = 0.95,
    num_resamples: int = 2000,
    rng: SeedLike = None,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for a sample mean.

    Used for heavy-tailed quantities such as consensus times, where a normal
    approximation is questionable at moderate sample sizes.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise EstimationError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    if num_resamples <= 0:
        raise EstimationError(f"num_resamples must be positive, got {num_resamples}")
    generator = as_generator(rng)
    indices = generator.integers(0, samples.size, size=(num_resamples, samples.size))
    means = samples[indices].mean(axis=1)
    lower = float(np.quantile(means, (1.0 - confidence) / 2.0))
    upper = float(np.quantile(means, 1.0 - (1.0 - confidence) / 2.0))
    return (lower, upper)


def wilson_half_width(
    successes: int, trials: int, *, confidence: float = 0.95
) -> float:
    """Half-width of the Wilson interval — the sequential-stopping yardstick.

    Shares :func:`wilson_interval`'s input validation: degenerate counts
    raise :class:`~repro.exceptions.EstimationError` (a :class:`ValueError`)
    rather than returning a nonsense width, and the 0 / ``trials`` boundary
    cases are finite and positive:

    Examples
    --------
    >>> wilson_half_width(50, 100) > wilson_half_width(500, 1000)
    True
    >>> 0.0 < wilson_half_width(0, 100) < wilson_half_width(50, 100)
    True
    >>> 0.0 < wilson_half_width(100, 100) < wilson_half_width(50, 100)
    True
    >>> wilson_half_width(3, 2)
    Traceback (most recent call last):
        ...
    repro.exceptions.EstimationError: successes must lie in [0, trials]; got 3/2
    """
    lower, upper = wilson_interval(successes, trials, confidence=confidence)
    return (upper - lower) / 2.0


def mean_relative_half_width(
    samples: np.ndarray, *, confidence: float = 0.95
) -> float:
    """Relative half-width of a normal-approximation CI for a sample mean.

    ``z * sem / |mean|`` — the stopping criterion for time and event-count
    statistics (``T(S)``, ``I(S)``, ...), which are means of positive
    heavy-ish-tailed quantities, so *relative* precision is the natural
    target.  Returns ``inf`` when the mean is zero, non-finite, or fewer
    than two samples are available (no spread information yet).
    """
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        return float("inf")
    mean = float(samples.mean())
    if mean == 0.0 or not np.isfinite(mean):
        return float("inf")
    z = _normal_quantile(confidence)
    sem = float(samples.std(ddof=1)) / float(np.sqrt(samples.size))
    return z * sem / abs(mean)


def replicates_for_proportion(
    successes: int, trials: int, target_half_width: float, *, confidence: float = 0.95
) -> int:
    """Variance-aware total-trial estimate to reach *target_half_width*.

    Uses the Agresti–Coull shrunk proportion (the Wilson interval's centre)
    as the variance plug-in, so configurations whose interim estimate sits
    near 0 or 1 — the common case for "with high probability" statements —
    are budgeted far fewer replicates than the worst-case ``p = 1/2``
    planning of :func:`required_samples`.  This is the rule the adaptive
    sweep scheduler uses to size follow-up waves.
    """
    if trials <= 0:
        raise EstimationError(f"trials must be positive, got {trials}")
    if successes < 0 or successes > trials:
        raise EstimationError(
            f"successes must lie in [0, trials]; got {successes}/{trials}"
        )
    if not 0.0 < target_half_width < 1.0:
        raise EstimationError(
            f"target_half_width must be in (0, 1), got {target_half_width}"
        )
    z = _normal_quantile(confidence)
    shrunk = (successes + z * z / 2.0) / (trials + z * z)
    variance = shrunk * (1.0 - shrunk)
    return int(np.ceil(z * z * variance / (target_half_width * target_half_width)))


def replicates_for_mean(
    mean: float, std: float, relative_error: float, *, confidence: float = 0.95
) -> float:
    """Samples needed so the mean's relative half-width is *relative_error*.

    Returns ``inf`` when the interim mean is zero or either moment is
    non-finite (callers clamp against their replicate cap).
    """
    if not 0.0 < relative_error:
        raise EstimationError(
            f"relative_error must be positive, got {relative_error}"
        )
    if mean == 0.0 or not (np.isfinite(mean) and np.isfinite(std)):
        return float("inf")
    z = _normal_quantile(confidence)
    needed = (z * std / (relative_error * abs(mean))) ** 2
    return float(np.ceil(needed))


#: Default Wilson half-width target of the adaptive-precision experiment
#: paths (the CLI's ``--target-ci-width``).
DEFAULT_CI_HALF_WIDTH = 0.05


@dataclass(frozen=True)
class PrecisionTarget:
    """Sequential-stopping targets for adaptive-precision sweeps.

    A configuration of a sweep is *converged* once every enabled criterion
    is met (and at least *min_replicates* replicates ran); it is *exhausted*
    once *max_replicates* replicates ran without convergence.  The fixed
    replicate budgets of the non-adaptive paths correspond to no target at
    all (``None`` throughout the scheduler API).

    Attributes
    ----------
    ci_half_width:
        Wilson half-width the success-probability estimate ρ(S) must reach.
    relative_error:
        Optional relative half-width target for the mean consensus time
        ``T(S)`` (enables the time criterion when set).
    confidence:
        Confidence level at which both criteria are evaluated.
    min_replicates:
        Never stop a configuration before this many replicates (guards
        against degenerate early stops on tiny interim samples).
    max_replicates:
        Hard per-configuration cap (the CLI's ``--max-replicates``); a
        configuration hitting it retires unconverged and is reported as
        such.
    """

    ci_half_width: float = DEFAULT_CI_HALF_WIDTH
    relative_error: float | None = None
    confidence: float = 0.95
    min_replicates: int = 64
    max_replicates: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 < self.ci_half_width < 1.0:
            raise EstimationError(
                f"ci_half_width must be in (0, 1), got {self.ci_half_width}"
            )
        if self.relative_error is not None and self.relative_error <= 0.0:
            raise EstimationError(
                f"relative_error must be positive, got {self.relative_error}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise EstimationError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.min_replicates < 1:
            raise EstimationError(
                f"min_replicates must be at least 1, got {self.min_replicates}"
            )
        if self.max_replicates < self.min_replicates:
            raise EstimationError(
                "max_replicates must be at least min_replicates; got "
                f"{self.max_replicates} < {self.min_replicates}"
            )

    # ------------------------------------------------------------------
    def met_by(self, successes: int, trials: int, times: np.ndarray) -> bool:
        """Whether interim results satisfy every enabled criterion.

        Parameters
        ----------
        successes, trials:
            Interim majority-consensus counts (the ρ(S) criterion).
        times:
            Interim consensus times of the replicates that reached
            consensus (the ``T(S)`` criterion; ignored unless
            *relative_error* is set).
        """
        if trials < self.min_replicates:
            return False
        if (
            wilson_half_width(successes, trials, confidence=self.confidence)
            > self.ci_half_width
        ):
            return False
        if self.relative_error is not None:
            if (
                mean_relative_half_width(times, confidence=self.confidence)
                > self.relative_error
            ):
                return False
        return True

    def replicates_needed(
        self, successes: int, trials: int, times: np.ndarray
    ) -> int:
        """Variance-aware total-replicate estimate to meet every criterion.

        The maximum of the per-criterion plans, clamped to
        ``[min_replicates, max_replicates]``.  This is an *estimate* from
        interim variances — the adaptive scheduler re-plans after every
        wave, so an optimistic plan only costs an extra wave, never a wrong
        stop.
        """
        needed = float(
            replicates_for_proportion(
                successes, trials, self.ci_half_width, confidence=self.confidence
            )
        )
        if self.relative_error is not None:
            times = np.asarray(times, dtype=float)
            if times.size < 2:
                needed = float(self.max_replicates)
            else:
                # The time plan counts consensus samples; rescale to total
                # replicates when only a fraction of runs reach consensus.
                time_samples = replicates_for_mean(
                    float(times.mean()),
                    float(times.std(ddof=1)),
                    self.relative_error,
                    confidence=self.confidence,
                )
                needed = max(needed, time_samples * (trials / times.size))
        return int(min(max(needed, self.min_replicates), self.max_replicates))


def required_samples(
    target_half_width: float, *, worst_case_p: float = 0.5, confidence: float = 0.95
) -> int:
    """Number of Bernoulli samples needed for a normal-approximation interval.

    Useful for planning how many trajectories a sweep point needs so that the
    confidence interval of ρ is narrower than *target_half_width*.
    """
    if not 0.0 < target_half_width < 1.0:
        raise EstimationError(
            f"target_half_width must be in (0, 1), got {target_half_width}"
        )
    if not 0.0 < worst_case_p < 1.0:
        raise EstimationError(f"worst_case_p must be in (0, 1), got {worst_case_p}")
    z = _normal_quantile(confidence)
    variance = worst_case_p * (1.0 - worst_case_p)
    return int(np.ceil(z * z * variance / (target_half_width * target_half_width)))
