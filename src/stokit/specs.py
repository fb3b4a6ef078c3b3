"""Process specifications: one small frozen dataclass per family, validated
at construction.  Each annotated class body declares its family's fields; the
classes become dataclasses when the first spec is constructed, so this module
imports neither numpy nor `dataclasses`, and the CLI builds its parser from
`spec_fields` alone."""

from __future__ import annotations

import _thread

from .errors import DomainError

_pending: list[type] = []  # spec classes that are not yet dataclasses, bases first
_freezing = _thread.allocate_lock()


def spec_fields(cls: type) -> dict[str, float | None]:
    """{field name: default, or None if required}, in `dataclasses.fields` order."""
    return {name: getattr(cls, name, None) for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__annotations__", ())}


class ProcessSpec:
    """Base class for process families; subclasses are frozen dataclasses."""

    multiplicative = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if any(base in _pending for base in cls.__mro__):
            ProcessSpec()  # freezes the bases, which a user's own @dataclass reads
        _pending.append(cls)

    def __new__(cls, *args, **kwargs):
        if _pending:  # the first spec makes every pending class a frozen dataclass
            from dataclasses import dataclass
            with _freezing:
                while _pending:  # a class leaves only once it is a dataclass
                    if "__dataclass_fields__" not in vars(_pending[0]):  # unless decorated
                        dataclass(frozen=True)(_pending[0])
                    del _pending[0]
        return super().__new__(cls)

    def __reduce__(self):
        # Rebuilt through the class, so a pickle of any protocol loaded as the
        # first spec of a process freezes the classes and validates the fields;
        # by keyword, since a subclass may declare keyword-only fields.
        from dataclasses import fields
        return _rebuild, (type(self), {f.name: getattr(self, f.name)
                                       for f in fields(self) if f.init})


def _rebuild(cls: type, kwargs: dict) -> ProcessSpec:
    return cls(**kwargs)


class Brownian(ProcessSpec):
    drift: float = 0.0
    scale: float = 1.0
    x0: float = 0.0

    def __post_init__(self):
        if self.scale < 0.0:
            raise DomainError(f"scale must be >= 0, got {self.scale}")


class GeometricBrownian(ProcessSpec):
    mu: float
    sigma: float
    x0: float = 1.0

    multiplicative = True

    def __post_init__(self):
        if self.sigma < 0.0:
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")
        if self.x0 <= 0.0:
            raise DomainError(f"multiplicative x0 must be > 0, got {self.x0}")


class LevyStable(ProcessSpec):
    alpha: float
    beta: float
    scale: float
    loc: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        _check_stable_params(self.alpha, self.beta, self.scale)


class GeometricLevy(ProcessSpec):
    alpha: float
    beta: float
    scale: float
    loc: float = 0.0
    x0: float = 1.0

    multiplicative = True

    def __post_init__(self):
        _check_stable_params(self.alpha, self.beta, self.scale)
        if self.x0 <= 0.0:
            raise DomainError(f"multiplicative x0 must be > 0, got {self.x0}")


class OrnsteinUhlenbeck(ProcessSpec):
    theta: float
    mean: float
    scale: float
    x0: float

    def __post_init__(self):
        if self.theta <= 0.0:
            raise DomainError(f"theta must be > 0, got {self.theta}")
        if self.scale < 0.0:
            raise DomainError(f"scale must be >= 0, got {self.scale}")


class AdaptiveOU(ProcessSpec):
    """Mean reversion whose rate drifts with the path: after each state update
    theta moves by eta * (|x - mean| - band) * dt, clipped to
    [theta_min, theta_max]."""

    theta0: float
    mean: float
    scale: float
    x0: float
    eta: float = 0.0
    band: float = 0.0
    theta_min: float = 0.01
    theta_max: float = 50.0

    def __post_init__(self):
        if self.theta0 <= 0.0:
            raise DomainError(f"theta0 must be > 0, got {self.theta0}")
        if self.scale < 0.0:
            raise DomainError(f"scale must be >= 0, got {self.scale}")
        if self.eta < 0.0:
            raise DomainError(f"eta must be >= 0, got {self.eta}")
        if self.band < 0.0:
            raise DomainError(f"band must be >= 0, got {self.band}")
        if self.theta_min <= 0.0:
            raise DomainError(f"theta_min must be > 0, got {self.theta_min}")
        if self.theta_max < self.theta_min:
            raise DomainError(
                f"theta_max {self.theta_max} is below theta_min {self.theta_min}")
        if not self.theta_min <= self.theta0 <= self.theta_max:
            raise DomainError(
                f"theta0 {self.theta0} outside [{self.theta_min}, {self.theta_max}]")


class Poisson(ProcessSpec):
    rate: float
    jump: float = 1.0
    x0: float = 0.0

    def __post_init__(self):
        if self.rate < 0.0:
            raise DomainError(f"rate must be >= 0, got {self.rate}")


def _check_stable_params(alpha: float, beta: float, scale: float) -> None:
    _check_stable_shape(alpha, beta)
    if scale <= 0.0:
        raise DomainError(f"scale must be > 0, got {scale}")


# Within this distance of alpha = 1, a skewed law in the one-parameterization
# (S1) is near its pole: beta * tan(pi * alpha / 2) diverges, and with
# beta = 0.5 the median draw moves from 0.21 at alpha = 1 to about -3e8 at
# 1 + 1e-9 (Nolan, "Univariate Stable Distributions", 2020).
_S1_POLE = 1e-6


def _check_stable_shape(alpha: float, beta: float) -> None:
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    if not -1.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [-1, 1], got {beta}")
    if beta != 0.0 and 0.0 < abs(alpha - 1.0) < _S1_POLE:
        raise DomainError(f"alpha {alpha} lies within {_S1_POLE} of the S1 pole at 1 "
                          f"with beta {beta} != 0; use alpha = 1 exactly")
