"""Every count CSV stays byte for byte what count_digests.json records.

count_digests.json holds the SHA-256 of each count CSV that the count
pipelines write on the three presets at seeds 0 and 1.  A change that moves a
sampled count, a sub-seed or a CSV cell on purpose (a new seeding contract)
re-records it and says so:

    PYTHONPATH=src python tests/test_count_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from loopmem.scenario import PRESETS, resolve, run

DIGESTS = Path(__file__).parent / "count_digests.json"
SEEDS = (0, 1)
# pipeline -> the count CSVs it writes; no CSV depends on mc_samples
PIPELINES = (
    (("decay", None), ("decay_counts.csv",)),
    (("malus", None), ("malus_counts.csv",)),
    (("tomo", None), ("tomo_counts.csv",)),
    (("reproduce", "fig2c"), ("fig2c.csv",)),
    (("reproduce", "fig3"), ("fig3_malus.csv", "fig3_tomo.csv")),
    (("reproduce", "fig4"), ("fig4.csv",)),
)


def count_digests(out: Path) -> dict[str, str]:
    """{"<preset>/seed<s>/<csv>": SHA-256 hex} of every count CSV, written under `out`."""
    digests = {}
    for preset in sorted(PRESETS):
        for seed in SEEDS:
            sc = resolve({"preset": preset, "seed": seed, "mc_samples": 2})
            for (subcommand, figure), names in PIPELINES:
                where = out / f"{preset}-{seed}-{figure or subcommand}"
                run(sc, subcommand, str(where), figure)
                for name in names:
                    digests[f"{preset}/seed{seed}/{name}"] = hashlib.sha256(
                        (where / name).read_bytes()).hexdigest()
    return digests


def test_every_count_csv_matches_its_recorded_digest(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    got = count_digests(tmp_path)
    assert got.keys() == recorded.keys()
    assert [key for key in got if got[key] != recorded[key]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(count_digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"recorded {DIGESTS}", file=sys.stderr)
