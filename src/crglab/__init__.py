"""crglab: a numerical laboratory for escaping sets of entire functions of
completely regular growth.

Modules:
    models    entire-function models: log-space evaluation, order, indicator
    growth    growth scales, empirical indicators, minorants, density budgets
    analytic  Schwarz reconstruction, directional asymptotics, kernel integral
    criteria  escape-criteria sets A/B and annulus density estimation
    covering  Besicovitch / Fuchs-Macintyre / Cartan-Levin certificates
    dynamics  orbit classification, escape rasters, measure estimation
    parser    the function-spec mini-language
    cli       command-line entry point
"""

from . import analytic, covering, criteria, dynamics, growth, models, parser
from .errors import CrgLabError

__version__ = "0.1.0"

__all__ = [
    "analytic",
    "covering",
    "criteria",
    "dynamics",
    "growth",
    "models",
    "parser",
    "CrgLabError",
    "__version__",
]
