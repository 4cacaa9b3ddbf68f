"""Set-up probe: start, import pflow, warm up, print `ready`.

run.py times this script from process start to the `ready` line; that
span is the `setup_s` metric.
"""

import checkout

checkout.pin_threads()
checkout.warm_up(checkout.import_pflow())
print("ready", flush=True)
