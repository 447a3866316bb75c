"""Scalar potential catalog, addressable by string id in scenario configs."""
import math

import numpy as np

from .errors import ConfigError


def gauss_well(depth=2.0, width=1.0):
    """Attractive Gaussian well -depth * exp(-|x|^2 / (2 width^2))."""
    if not width > 0:
        raise ConfigError(f"potential 'gauss_well' needs width > 0, got width={width}")

    def v(x):
        x = np.asarray(x, dtype=float)
        r2 = (x**2).sum(axis=-1)
        return -depth * np.exp(-r2 / (2.0 * width**2))

    return v, {"id": f"gauss_well:depth={depth},width={width}",
               "nonneg": False, "depth": depth}


def bounded_bump(height=1.0, width=1.0):
    """Nonnegative bump height * exp(-|x|^2 / (2 width^2))."""
    if not width > 0:
        raise ConfigError(f"potential 'bounded_bump' needs width > 0, got width={width}")

    def v(x):
        x = np.asarray(x, dtype=float)
        r2 = (x**2).sum(axis=-1)
        return height * np.exp(-r2 / (2.0 * width**2))

    return v, {"id": f"bounded_bump:height={height},width={width}",
               "nonneg": True}


def coulomb_like(alpha=1.0, reg=0.1):
    """Regularized attractive Coulomb tail alpha / sqrt(|x|^2 + reg^2) >= 0."""
    if not reg > 0:
        raise ConfigError(f"potential 'coulomb_like' needs reg > 0, got reg={reg}")

    def v(x):
        x = np.asarray(x, dtype=float)
        r2 = (x**2).sum(axis=-1)
        return alpha / np.sqrt(r2 + reg**2)

    return v, {"id": f"coulomb_like:alpha={alpha},reg={reg}",
               "nonneg": True}


_BUILDERS = {
    "gauss_well": gauss_well,
    "bounded_bump": bounded_bump,
    "coulomb_like": coulomb_like,
}


def parse_params(text):
    """Parse 'key=val,key=val' into a float-valued dict."""
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"malformed parameter {item!r}")
        key, val = item.split("=", 1)
        try:
            params[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigError(f"non-numeric parameter {item!r}") from exc
        if not math.isfinite(params[key.strip()]):
            raise ConfigError(f"non-finite parameter {item!r}")
    return params


def potential_from_id(pid):
    """Build (callable, metadata) from an id like 'gauss_well:depth=2,width=1'."""
    name, _, rest = pid.partition(":")
    name = name.strip()
    if name not in _BUILDERS:
        raise ConfigError(f"unknown potential {name!r}")
    params = parse_params(rest)
    try:
        return _BUILDERS[name](**params)
    except TypeError as exc:  # unknown parameter name
        raise ConfigError(f"bad parameters {sorted(params)} for potential {name!r}") from exc
