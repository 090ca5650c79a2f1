"""Fleet-level portfolio synthesis and drift reconfiguration.

Archytas (Sec. 7.6) dynamically optimizes one accelerator for one
robot; this package lifts the idea to datacenter scale: synthesize the
best *portfolio* of design points for a forecast traffic mix
(:mod:`spec`, :mod:`solver`), and charge partial-reconfiguration swaps
of drifting instances in virtual time (:mod:`reconfig`). The serving
tier consumes all three through ``LoadProfile(portfolio=...,
reconfig_after=...)``; ``python -m repro.portfolio`` solves and reports
standalone. See ``docs/portfolio.md``.
"""

from repro.portfolio.reconfig import (
    DEFAULT_RECONFIG_MODEL,
    PartialReconfigModel,
    ReconfigCharge,
    drift_candidate,
    reconfig_distance,
)
from repro.portfolio.solver import (
    PortfolioEntry,
    PortfolioSolution,
    regime_design_spec,
    solve_portfolio,
)
from repro.portfolio.spec import (
    FORECASTS,
    PortfolioObjective,
    PortfolioSpec,
    RegimeDemand,
    TrafficForecast,
    available_forecasts,
    default_candidates,
    default_portfolio_spec,
    forecast,
    regime_demands,
    regime_sizing_workload,
    resolve_forecast,
)

__all__ = [
    "DEFAULT_RECONFIG_MODEL",
    "FORECASTS",
    "PartialReconfigModel",
    "PortfolioEntry",
    "PortfolioObjective",
    "PortfolioSolution",
    "PortfolioSpec",
    "ReconfigCharge",
    "RegimeDemand",
    "TrafficForecast",
    "available_forecasts",
    "default_candidates",
    "default_portfolio_spec",
    "drift_candidate",
    "forecast",
    "reconfig_distance",
    "regime_demands",
    "regime_design_spec",
    "regime_sizing_workload",
    "resolve_forecast",
    "solve_portfolio",
]
