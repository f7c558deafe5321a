"""Time one set-up of a workload in a fresh interpreter.

Set-up is ``import crglab`` plus parsing each spec the workload uses,
building its model (a product's cutoff included) and building its minorants.
Prints the seconds as JSON. Usage: python3 setup_probe.py <workload>
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    from run import import_crglab
    import_crglab()
    from crglab import cli, growth
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    for spec, r_max in workload.models:
        ast = cli.parse_function_spec(spec)
        cli.build_model(ast, r_max)
        po = cli.default_order(ast)
        for kind in workload.minorants:
            if kind == "exp-power":
                growth.GrowthMinorant.exp_power(0.5, 1.0)
            else:
                growth.GrowthMinorant.growth_scale(po, growth.EpsilonCascade(1))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
