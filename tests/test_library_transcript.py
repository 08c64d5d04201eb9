"""Every entry of ``tests/data/library_transcript.json`` replays bit for bit.

The transcript is rewritten by ``tests/library_transcript.py``; a change
that moves a value on purpose rewrites it and names each changed entry.
The values are roundoff-level bits, so the failure message names the
Python and numpy versions that wrote the transcript beside the ones that
replay it, with the SIMD targets that numpy dispatches to.
"""

import json

from library_transcript import TRANSCRIPT, draw_sets, entries


def test_transcript_holds_the_seeded_sets():
    transcript = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert transcript["sets"] == draw_sets()


def test_every_entry_replays_bit_for_bit(replayed_with):
    transcript = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    expected, got = transcript["entries"], entries(transcript["sets"])
    assert list(got) == list(expected)
    lines = [f"{name}: {got[name]}, transcript {value}"
             for name, value in expected.items() if got[name] != value]
    assert not lines, "\n".join([
        f"written with Python {transcript['python']} and numpy {transcript['numpy']}, "
        f"replayed with {replayed_with}",
        *lines])
