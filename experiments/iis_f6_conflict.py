"""Time ``compute_iis`` on a full-size integer conflict.

The model is ``f6_pack_size_integer`` v0's reference model (5,560 rows) plus
one row, ``conflict: Q[SKU_Basic,DC1,1] = 250.5``, against a pack size of
100.  Its LP relaxation is feasible, so the deletion filter has no Farkas
certificate and probes every row; the IIS is ``conflict`` and
``pack_multiple[SKU_Basic,DC1,1]``.  Run from the repository root:

    python3 experiments/iis_f6_conflict.py

Prints one JSON line with the row count, the IIS, and wall and CPU seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from optverify.backend import DEFAULT_BACKEND, Constraint  # noqa: E402
from optverify.generator import build_instance  # noqa: E402
from optverify.reference import build_reference_model  # noqa: E402


def main() -> None:
    model = build_reference_model(build_instance("f6_pack_size_integer", 0))
    model.constraints.append(Constraint("conflict", {"Q[SKU_Basic,DC1,1]": 1.0}, "=", 250.5))
    wall, cpu = time.perf_counter(), time.process_time()
    iis = DEFAULT_BACKEND.compute_iis(model)
    print(json.dumps({"rows": len(model.constraints), "iis": sorted(iis),
                      "wall_s": round(time.perf_counter() - wall, 1),
                      "cpu_s": round(time.process_time() - cpu, 1)}))


if __name__ == "__main__":
    main()
