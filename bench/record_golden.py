"""Record the references the benchmark checks outputs against.

    python3 bench/record_golden.py

Writes bench/golden/check_l2.records (the full level-2 check, about half
a minute), check_l2_smoke.records and scenario_pool.json with the script
and output digests of every pool session.  Re-record only on purpose: a
change to trustb must leave these outputs unchanged byte for byte.
"""

from __future__ import annotations

import io
import json

from worker import import_trustb
from workloads import (
    FULL_BOUNDS, GOLDEN, POOL_SEED, POOL_SIZE, SMOKE_BOUNDS, Sizes, check_args, digest,
    load_check_golden, session_digest, session_script,
)


def main() -> None:
    trustb = import_trustb()
    GOLDEN.mkdir(exist_ok=True)
    for name, bounds in (("check_l2_smoke", SMOKE_BOUNDS), ("check_l2", FULL_BOUNDS)):
        out = io.StringIO()
        rc = trustb.cli.run_command(check_args(bounds), stdout=out)
        if rc != 0:
            raise SystemExit(f"check at {bounds} exited {rc}")
        (GOLDEN / f"{name}.records").write_text(out.getvalue(), encoding="utf-8")
    load_check_golden(Sizes(smoke=False))  # cross-check against the known facts

    sessions = []
    for i in range(POOL_SIZE):
        script = session_script(i)
        sessions.append([digest(script), session_digest(trustb.scenario.run_scenario_text(script))])
    rows = ",\n".join(json.dumps(pair) for pair in sessions)
    (GOLDEN / "scenario_pool.json").write_text(
        f'{{"pool_size": {POOL_SIZE}, "pool_seed": {POOL_SEED}, "sessions": [\n{rows}\n]}}\n',
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
