"""The schema-guided writer, kept for the tests of the SGD and MultiWOZ readers.

The package reads the schema-guided envelope and writes only native JSONL.
The tests still need SGD and MultiWOZ files built from native corpora, and a
way to check that a read keeps what a file holds, so the writer lives here:
``write_schema_guided(corpus, path)`` writes a corpus in the envelope the two
formats share, and reading the file back gives the same dialogs.
"""

from __future__ import annotations

import json

from disambig.corpus import USER, Corpus, _entity_record, guess_name_field
from disambig.errors import SchemaMismatch
from disambig.jsonl import staged_outputs


def write_schema_guided(corpus: Corpus, path: str) -> None:
    """Write ``corpus`` as one schema-guided file, all of it or none."""
    payload = [_dialog_to_schema_guided(d) for d in corpus.dialogs]
    with staged_outputs(path) as (out,):
        out.write(json.dumps(payload, ensure_ascii=False, indent=1, sort_keys=True))


def _dialog_to_schema_guided(dialog: dict) -> dict:
    """The schema-guided form of a dialog.  Search results go into the
    ``service_results`` of a frame of their domain (a new frame when the turn
    has none), unless a frame read from such a file still carries them raw."""
    turns = []
    for index, turn in enumerate(dialog["turns"]):
        carried = {frame["service"] for frame in turn["frames"] if "service_results" in frame["extras"]}
        results: dict[str, list[dict]] = {}
        for entity in turn.get("search_results", []):
            if entity["domain"] not in carried:
                name_field = guess_name_field(entity["domain"], {**entity["attributes"], "name": entity["name"]})
                results.setdefault(entity["domain"], []).append(_entity_record(entity, name_field))
        present = {frame["service"] for frame in turn["frames"]}
        added = [{"service": domain, "slot_values": {}, "requested_slots": [], "extras": {}}
                 for domain in results if domain not in present]
        for frame in added:
            if frame["service"] not in dialog["services"]:
                raise SchemaMismatch(f"dialog {dialog['id']!r} turn {index}: search results of {frame['service']!r}, "
                                     "which is not one of the dialog's services")
        frames = []
        for frame in turn["frames"] + added:
            state_extras = frame["extras"].get("state_extras", {})
            raw_frame = {"service": frame["service"]}
            # Both formats give user frames a state and system frames none, unless it holds something.
            if turn["speaker"] == USER or frame["slot_values"] or frame["requested_slots"] or state_extras:
                raw_frame["state"] = {"slot_values": frame["slot_values"],
                                      "requested_slots": frame["requested_slots"], **state_extras}
            raw_frame.update({k: v for k, v in frame["extras"].items() if k != "state_extras"})
            if frame["service"] in results:
                raw_frame["service_results"] = results.pop(frame["service"])
            frames.append(raw_frame)
        raw_turn = {"speaker": turn["speaker"], "utterance": turn["utterance"], "frames": frames}
        raw_turn.update(turn["extras"])
        turns.append(raw_turn)
    obj = {"dialogue_id": dialog["id"], "services": dialog["services"], "turns": turns}
    obj.update(dialog["extras"])
    return obj
