"""The CLI transcript: every argv in tests/golden/cli_transcript.json, run
again in this process, gives the recorded exit code, stdout, stderr and JSON
report, byte for byte. tests/golden/make_cli_transcript.py wrote the file
and holds the runner."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("make_cli_transcript", GOLDEN / "make_cli_transcript.py")
transcript = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(transcript)


def test_cli_transcript_replays(tmp_path):
    recorded = json.loads(transcript.TRANSCRIPT.read_text())
    transcript.write_files(recorded["files"], tmp_path)
    changed = []
    for entry in recorded["entries"]:
        got = {"argv": entry["argv"], **transcript.run(entry["argv"], tmp_path)}
        if got != entry:
            changed.append(" ".join(entry["argv"])[:200])
    assert not changed, changed
