"""Regenerate pins.json, the payload digests the benchmark checks outputs against.

    python3 perfbench/pin.py

Run from the repository root, and only for a change that is meant to alter
explanations.  certa-wide pins one digest per pair of its fixed set;
certa-churn the first explanations of the default seed (its data depend on
the seed); serve-hot one digest per pool pair, taken from a direct
``CertaExplainer`` run, so every served payload is checked against the
unserved path.
"""

from __future__ import annotations

import json
import sys

from run import PINS, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    seed = workloads.DEFAULT_SEED
    pins: dict[str, dict] = {}
    for size in ("full", "tiny"):
        wide = workloads.run_certa_wide(seed, 0.0, False, size, None)
        churn = workloads.run_certa_churn(seed, 0.0, False, size, None)
        pinned = workloads.SIZES[size]["certa-churn"]["pinned"]
        pins[size] = {
            "certa-wide": {"pairs": dict(wide.digests)},
            "certa-churn": {"default_seed_prefix": [digest for _, digest in churn.digests[:pinned]]},
            "serve-hot": {"pairs": workloads.direct_serve_digests(size)},
        }
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
