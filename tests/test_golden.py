"""The byte contract holds: fixed CLI runs reproduce the digests in golden.json."""

import json

from tests import golden


def test_outputs_match_recorded_digests(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    recorded = {name: manifest[name] for name in golden.versions()}
    assert golden.versions() == recorded, (
        f"digests were recorded with {recorded}, this run has {golden.versions()}; "
        f"BLAS rounding is part of the contract, so re-record with "
        f"`{golden.RECORD_COMMAND}` and note the re-record in CHANGES.md"
    )
    bad = golden.mismatches(manifest["digests"], golden.run_all(tmp_path))
    assert not bad, f"outputs differ from {golden.MANIFEST.name}: {bad}"
