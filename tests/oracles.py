"""Independent reference implementations used to check the fast paths.

These deliberately use different algorithms from the library: exhaustive
enumeration instead of arithmetic counting, memoized recursion instead of
the distance matrix, a derivability search instead of trusting the
sampler, a deep copy of the whole dialog instead of rebuilding only the
rewritten turns, a rescan of the reply per name instead of one index of
its windows, a rescan of every other name per partial-mention window
instead of one set of their windows, a fresh gold scan and comparison per
score bucket instead of one judgement per turn, and a copying decoder
followed by a second walk of the whole corpus instead of checking each
dialog as it is decoded.  Keep them slow and obvious.
"""

from __future__ import annotations

import copy
from functools import lru_cache

from disambig.augmenter import (
    AUGMENT_METHODS,
    DEFAULT_ALLOWED,
    SKIP_NOT_ENOUGH_ENTITIES,
    AugmentationRecord,
    _ensure_sentence_final,
    find_augmentable_turns,
)
from disambig.corpus import (
    SPLITS,
    SYSTEM,
    USER,
    Corpus,
    Database,
    Dialog,
    Entity,
    Frame,
    Turn,
    _infer_split,
    _schema_guided_files,
    guess_name_field,
    name_key,
)
from disambig.errors import MissingPrediction, NoUniquePartial, SchemaMismatch, UnknownSubsetTurn
from disambig.grammar import Grammar, Nonterminal
from disambig.jsonl import iter_jsonl, read_json
from disambig.metrics import ALL, AUGMENTED_ONLY, gold_entity_turns, gold_states
from disambig.resolver import STOPWORDS, normalize
from disambig.seeding import derive_seed, rng_for
from disambig.synthesizer import (
    CANDIDATE_COUNTS,
    AddressingMethod,
    apply_addressing,
    build_system_utterance,
    build_user_utterance,
)


def enumerate_templates(grammar: Grammar, start: str, cap: int = 20_000) -> list[tuple]:
    """Every derivable token sequence from ``start``, by brute force."""
    memo: dict[str, list[tuple]] = {}

    def expand(name: str) -> list[tuple]:
        if name in memo:
            return memo[name]
        sequences: list[tuple] = []
        for alternative in grammar.rules[name]:
            partial: list[tuple] = [()]
            for symbol in alternative:
                suffixes = expand(symbol.name) if isinstance(symbol, Nonterminal) else [(symbol,)]
                partial = [p + s for p in partial for s in suffixes]
                if len(partial) > cap:
                    raise AssertionError(f"enumeration blew past {cap} sequences")
            sequences.extend(partial)
        memo[name] = sequences
        return sequences

    return expand(start)


def derivable(grammar: Grammar, start: str, tokens: tuple) -> bool:
    """Recursive membership test for a token sequence on an acyclic grammar."""

    @lru_cache(maxsize=None)
    def matches(symbols: tuple, remaining: tuple) -> bool:
        if not symbols:
            return not remaining
        head, *rest = symbols
        rest = tuple(rest)
        if isinstance(head, Nonterminal):
            return any(matches(alt + rest, remaining) for alt in grammar.rules[head.name])
        return bool(remaining) and remaining[0] == head and matches(rest, remaining[1:])

    return matches((Nonterminal(start),), tuple(tokens))


def template_in_language(grammar: Grammar, start: str, tokens: tuple) -> bool:
    return derivable(grammar, start, tokens)


def slow_edit_distance(a: str, b: str) -> int:
    """Plain recursive Damerau-Levenshtein (restricted), memoized."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )
        if i >= 2 and j >= 2 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, go(i - 2, j - 2) + 1)
        return best

    return go(len(a), len(b))


def slow_fuzzy_evidence(utterance: list[str], names: list[list[str]], max_fuzzy: float) -> dict[int, float]:
    """The fuzzy-name stage with the full distance for every pair: for each
    name, one minus the smallest ``distance / longer`` over utterance windows
    of one token fewer to one token more, among those at most ``max_fuzzy``."""
    scored: dict[int, float] = {}
    for index, name in enumerate(names):
        name_text = " ".join(name)
        best: float | None = None
        for length in range(max(1, len(name) - 1), len(name) + 2):
            for start in range(len(utterance) - length + 1):
                window_text = " ".join(utterance[start:start + length])
                longer = max(len(window_text), len(name_text))
                if longer == 0 or abs(len(window_text) - len(name_text)) / longer > max_fuzzy:
                    continue
                distance = slow_edit_distance(window_text, name_text) / longer
                if distance <= max_fuzzy and (best is None or distance < best):
                    best = distance
        if best is not None:
            scored[index] = 1.0 - best
    return scored


def _windows(tokens: list[str], length: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + length]) for i in range(len(tokens) - length + 1)]


def _contains_window(haystack: list[str], needle: tuple[str, ...]) -> bool:
    return any(tuple(haystack[i:i + len(needle)]) == needle for i in range(len(haystack) - len(needle) + 1))


def slow_name_evidence(utterance: list[str], names: list[list[str]]) -> dict[int, float]:
    """The name stage rescanning the reply for every name and every window:
    indices with exact or uniquely-identifying partial name windows."""
    matched: dict[int, float] = {}
    for index, name in enumerate(names):
        if _contains_window(utterance, tuple(name)):
            matched[index] = 1.0
    max_len = max((len(n) for n in names), default=0)
    for length in range(1, max_len + 1):
        for window in _windows(utterance, length):
            if all(token in STOPWORDS for token in window):
                continue
            owners = [i for i, name in enumerate(names) if len(window) < len(name) and _contains_window(name, window)]
            if len(owners) == 1:
                matched.setdefault(owners[0], 1.0)
    return matched


# --- partial mentions: rescan every other name for every window ---------------


def _token_windows(tokens: list[str]) -> list[tuple[int, int]]:
    spans = []
    for length in range(1, len(tokens)):
        for start in range(len(tokens) - length + 1):
            spans.append((start, length))
    return spans


def _window_in(tokens: list[str], window: list[str]) -> bool:
    return any(tokens[i:i + len(window)] == window for i in range(len(tokens) - len(window) + 1))


def slow_partial_mention(target: Entity, others: list[Entity]) -> str:
    """``synthesizer._partial_mention``: prefixes by length, then every
    window by length and start, each checked against every other name."""
    tokens = target.name.split()
    other_tokens = [e.name.split() for e in others]

    def unique(window: list[str]) -> bool:
        if all(t.lower() in STOPWORDS for t in window):
            return False
        return not any(_window_in(ot, window) for ot in other_tokens)

    for length in range(1, len(tokens)):
        prefix = tokens[:length]
        if unique(prefix):
            return " ".join(prefix)
    for start, length in sorted(_token_windows(tokens), key=lambda sl: (sl[1], sl[0])):
        window = tokens[start:start + length]
        if unique(window):
            return " ".join(window)
    raise NoUniquePartial(f"every proper subsequence of {target.name!r} is ambiguous")


def slow_attribute_evidence(utterance: list[str], candidates: list[Entity]) -> dict[int, float]:
    """The attribute stage rescanning the reply for every attribute value."""
    scored: dict[int, float] = {}
    for index, entity in enumerate(candidates):
        if not entity.attributes:
            continue
        hits = sum(
            1 for value in entity.attributes.values()
            if (value_tokens := normalize(str(value))) and _contains_window(utterance, tuple(value_tokens))
        )
        if hits:
            scored[index] = hits / len(entity.attributes)
    return scored


def slow_augment_dialog(
    dialog: Dialog,
    db: Database,
    grammar: Grammar,
    seed: int,
    allowed=DEFAULT_ALLOWED,
    methods: tuple[AddressingMethod, ...] = (AddressingMethod.EXACT,),
) -> tuple[Dialog, list[AugmentationRecord]]:
    """``augment_dialog`` as it was before it shared turns: deep-copy the
    whole dialog, then rewrite the chosen turns of the copy in place."""
    for method in methods:
        if method not in AUGMENT_METHODS:
            raise SchemaMismatch(f"method {method.value!r} cannot voice a single accepted entity")
    found = find_augmentable_turns(dialog, db, allowed)
    new_dialog = copy.deepcopy(dialog)
    records: list[AugmentationRecord] = []
    for turn_index, pool, accepted in found:
        base = (dialog.id, turn_index, seed)
        system_turn = new_dialog.turns[turn_index]
        user_turn = new_dialog.turns[turn_index + 1]

        count = rng_for("augment.count", *base).choice(CANDIDATE_COUNTS)
        accepted_key = name_key(accepted.name)
        others = [e for e in db.tables[accepted.domain] if name_key(e.name) != accepted_key]
        if len(others) < count - 1:
            records.append(AugmentationRecord(
                dialog_id=dialog.id, turn_index=turn_index,
                original_system=system_turn.utterance, new_system=system_turn.utterance,
                user_prefix="", original_user=user_turn.utterance,
                candidates=pool, target=accepted, skipped_reason=SKIP_NOT_ENOUGH_ENTITIES,
            ))
            continue

        fill_rng = rng_for("augment.fill", *base)
        candidates = fill_rng.sample(others, count - 1)
        position = fill_rng.randrange(count)
        candidates.insert(position, accepted)

        method = methods[rng_for("augment.method", *base).randrange(len(methods))]
        noun = db.noun(accepted.domain)
        new_system = build_system_utterance(grammar, candidates, noun, derive_seed("augment.system", *base))
        mention = apply_addressing(
            candidates, [position], method, derive_seed("augment.mention", *base),
            grammar=grammar, domain_noun=noun,
        )
        prefix = _ensure_sentence_final(build_user_utterance(grammar, mention, derive_seed("augment.user", *base)))

        original_system = system_turn.utterance
        original_user = user_turn.utterance
        system_turn.utterance = new_system
        system_turn.extras["disambig"] = {
            "origin": "augment",
            "method": method.value,
            "target_names": [accepted.name],
            "candidate_names": [e.name for e in candidates],
            "user_prefix": prefix,
        }
        user_turn.utterance = prefix + " " + original_user

        records.append(AugmentationRecord(
            dialog_id=dialog.id, turn_index=turn_index,
            original_system=original_system, new_system=new_system,
            user_prefix=prefix, original_user=original_user,
            candidates=candidates, target=accepted,
        ))
    return new_dialog, records


def _slow_select(table: dict, subset, gold: Corpus, turn_offset: int = 0) -> dict:
    if subset == ALL:
        return table
    if subset == AUGMENTED_ONLY:
        keys = [(dialog_id, index + turn_offset) for dialog_id, index in gold_entity_turns(gold, origin="augment")]
        return {key: table[key] for key in keys if key in table}
    if isinstance(subset, str):
        raise ValueError(f"unknown subset {subset!r}: expected ALL, AUGMENTED_ONLY or an iterable of keys")
    chosen = {}
    for key in subset:
        if key not in table:
            raise UnknownSubsetTurn(key)
        chosen[key] = table[key]
    return chosen


def _slow_entity_mean(preds, targets: dict) -> float:
    if not targets:
        raise SchemaMismatch("no gold turns define an entity target in this subset")
    correct = 0
    for key, gold_names in sorted(targets.items()):
        if key not in preds:
            raise MissingPrediction(key)
        predicted = {" ".join(normalize(n)) for n in preds[key].entities}
        correct += predicted == gold_names
    return correct / len(targets)


def slow_entity_accuracy(preds, gold: Corpus, subset=ALL) -> float:
    """``metrics.entity_accuracy`` as a fresh gold scan plus its own loop."""
    return _slow_entity_mean(preds, _slow_select(gold_entity_turns(gold), subset, gold))


def slow_joint_goal_accuracy(preds, gold: Corpus, subset=ALL) -> float:
    """``metrics.joint_goal_accuracy`` with its own comparison loop."""
    states = _slow_select(gold_states(gold), subset, gold, turn_offset=1)
    if not states:
        raise SchemaMismatch("no gold turns carry a dialog state in this subset")
    correct = 0
    for key, gold_state in sorted(states.items()):
        if key not in preds or preds[key].state is None:
            raise MissingPrediction(key)
        predicted = {slot: {name_key(v) for v in values} for slot, values in preds[key].state.items()}
        correct += all(predicted.get(slot) == values for slot, values in gold_state.items())
    return correct / len(states)


def slow_slot_accuracy(preds, gold: Corpus, subset=ALL) -> float:
    """``metrics.slot_accuracy`` with its own comparison loop."""
    states = _slow_select(gold_states(gold), subset, gold, turn_offset=1)
    fractions: list[float] = []
    for key, gold_state in sorted(states.items()):
        if key not in preds or preds[key].state is None:
            raise MissingPrediction(key)
        predicted = {slot: {name_key(v) for v in values} for slot, values in preds[key].state.items()}
        if gold_state:
            hits = sum(predicted.get(slot) == values for slot, values in gold_state.items())
            fractions.append(hits / len(gold_state))
        else:
            fractions.append(1.0)
    return sum(fractions) / len(fractions) if fractions else 1.0


def slow_score(preds, gold: Corpus, records: list[AugmentationRecord] | None = None) -> dict:
    """``metrics.score`` as a JSON report, judging every bucket afresh: one
    entity comparison per bucket and one state scan per JGA number."""
    report: dict = {"entity_accuracy_all": None, "entity_accuracy_augmented": None,
                    "jga_all": None, "jga_augmented": None, "per_method": None, "counts": {}}
    dialogs = {dialog.id: dialog for dialog in gold.dialogs}
    if len(dialogs) != len(gold.dialogs):
        raise SchemaMismatch("gold corpus has duplicate dialog ids")
    for key in preds:
        if key[0] not in dialogs or not 0 <= key[1] < len(dialogs[key[0]].turns):
            raise UnknownSubsetTurn(key)
    marked = gold_entity_turns(gold)
    markers = {key: dialogs[key[0]].turns[key[1]].extras["disambig"] for key in marked}
    total_turns = sum(len(dialog.turns) for dialog in dialogs.values())
    report["counts"]["turns_total"] = total_turns
    report["counts"]["turns_with_gold_targets"] = len(marked)
    report["counts"]["turns_skipped_no_target"] = total_turns - len(marked)
    if marked:
        report["entity_accuracy_all"] = _slow_entity_mean(preds, marked)
        by_method: dict[str, dict] = {}
        for key, marker in markers.items():
            if marker.get("method"):
                by_method.setdefault(marker["method"], {})[key] = marked[key]
        report["per_method"] = {m: _slow_entity_mean(preds, t) for m, t in sorted(by_method.items())}
    if records is not None:
        augmented_keys = [(r.dialog_id, r.turn_index) for r in records if r.skipped_reason is None]
    else:
        augmented_keys = sorted(key for key, marker in markers.items() if marker.get("origin") == "augment")
    report["counts"]["turns_augmented"] = len(augmented_keys)
    if augmented_keys:
        report["entity_accuracy_augmented"] = _slow_entity_mean(preds, _slow_select(marked, augmented_keys, gold))
    if not any(row.state is not None for row in preds.values()):
        return report
    states = gold_states(gold)
    has_states = bool(states) and all(preds[key].state is not None for key in states if key in preds)
    if has_states and all(key in preds for key in states):
        report["jga_all"] = slow_joint_goal_accuracy(preds, gold, subset=ALL)
        if augmented_keys:
            user_keys = [(d, t + 1) for d, t in augmented_keys if (d, t + 1) in states]
            if user_keys:
                report["jga_augmented"] = slow_joint_goal_accuracy(preds, gold, subset=user_keys)
    return report


# --- corpus loading: copy every container, then validate the whole corpus ------


def _slow_entity(obj: dict) -> Entity:
    try:
        return Entity(domain=obj["domain"], name=obj["name"], attributes=dict(obj.get("attributes", {})))
    except KeyError as exc:
        raise SchemaMismatch(f"entity record missing key {exc}") from exc


def _slow_frame(obj: dict) -> Frame:
    return Frame(
        service=obj["service"],
        slot_values={k: list(v) for k, v in obj.get("slot_values", {}).items()},
        requested_slots=list(obj.get("requested_slots", [])),
        extras=dict(obj.get("extras", {})),
    )


def _slow_turn(obj: dict) -> Turn:
    results = obj.get("search_results")
    return Turn(
        speaker=obj["speaker"],
        utterance=obj["utterance"],
        frames=[_slow_frame(f) for f in obj.get("frames", [])],
        search_results=None if results is None else [_slow_entity(e) for e in results],
        extras=dict(obj.get("extras", {})),
    )


def slow_dialog_from_json(obj: dict) -> Dialog:
    """A native dialog row decoded into fresh copies of every container, unchecked."""
    try:
        return Dialog(
            id=obj["id"],
            services=list(obj["services"]),
            turns=[_slow_turn(t) for t in obj["turns"]],
            extras=dict(obj.get("extras", {})),
        )
    except KeyError as exc:
        raise SchemaMismatch(f"dialog record missing key {exc}") from exc


def slow_validate_corpus(corpus: Corpus) -> None:
    """Re-check every type invariant; raises SchemaMismatch, never repairs."""
    if corpus.split_name not in SPLITS:
        raise SchemaMismatch(f"split_name {corpus.split_name!r} not one of {SPLITS}")
    seen_ids: set[str] = set()
    for dialog in corpus.dialogs:
        if dialog.id in seen_ids:
            raise SchemaMismatch(f"duplicate dialog id {dialog.id!r}")
        seen_ids.add(dialog.id)
        declared = set(dialog.services)
        for index, turn in enumerate(dialog.turns):
            where = f"dialog {dialog.id!r} turn {index}"
            if turn.speaker not in (USER, SYSTEM):
                raise SchemaMismatch(f"{where}: speaker {turn.speaker!r}")
            if index > 0 and turn.speaker == dialog.turns[index - 1].speaker:
                raise SchemaMismatch(f"{where}: speakers do not alternate")
            if turn.speaker == USER and turn.search_results is not None:
                raise SchemaMismatch(f"{where}: user turns cannot carry search results")
            for frame in turn.frames:
                if frame.service not in declared:
                    raise SchemaMismatch(f"{where}: frame service {frame.service!r} not in dialog services")
                for slot, values in frame.slot_values.items():
                    if not slot:
                        raise SchemaMismatch(f"{where}: empty slot name")
                    if any(not isinstance(v, str) or not v for v in values):
                        raise SchemaMismatch(f"{where}: slot {slot!r} has an empty or non-string value")


def _slow_result_to_entity(service: str, record: dict) -> Entity:
    name_field = guess_name_field(service, record)
    if name_field not in record:
        raise SchemaMismatch(f"search result for {service!r} lacks its name field {name_field!r}")
    attributes = {k: v for k, v in record.items() if k != name_field}
    return Entity(domain=service, name=str(record[name_field]), attributes=attributes)


def _slow_dialog_from_schema_guided(obj: dict, where: str) -> Dialog:
    if "turns" not in obj:
        raise SchemaMismatch(f"{where}: dialog {obj.get('dialogue_id')!r} has no 'turns' key")
    dialog_id = obj.get("dialogue_id") or obj.get("dialog_id")
    if not dialog_id:
        raise SchemaMismatch(f"{where}: dialog without a dialogue_id")
    turns: list[Turn] = []
    for raw_turn in obj["turns"]:
        try:
            speaker = raw_turn["speaker"]
            utterance = raw_turn["utterance"]
        except (KeyError, TypeError) as exc:
            raise SchemaMismatch(f"{where}: turn in {dialog_id!r} missing speaker/utterance") from exc
        frames: list[Frame] = []
        results: list[Entity] = []
        for raw_frame in raw_turn.get("frames", []):
            service = raw_frame.get("service")
            if not service:
                raise SchemaMismatch(f"{where}: frame without service in dialog {dialog_id!r}")
            state = raw_frame.get("state", {})
            slot_values = {k: [str(v) for v in vs] for k, vs in state.get("slot_values", {}).items()}
            requested = list(state.get("requested_slots", []))
            state_extras = {k: v for k, v in state.items() if k not in ("slot_values", "requested_slots")}
            frame_extras = {k: v for k, v in raw_frame.items() if k not in ("service", "state")}
            if state_extras:
                frame_extras["state_extras"] = state_extras
            for record in raw_frame.get("service_results", []):
                results.append(_slow_result_to_entity(service, record))
            frames.append(Frame(service=service, slot_values=slot_values, requested_slots=requested,
                                extras=frame_extras))
        turn_extras = {k: v for k, v in raw_turn.items() if k not in ("speaker", "utterance", "frames")}
        turns.append(Turn(speaker=speaker, utterance=utterance, frames=frames,
                          search_results=results if (speaker == SYSTEM and results) else None, extras=turn_extras))
    services = list(obj.get("services", []))
    dialog_extras = {k: v for k, v in obj.items() if k not in ("dialogue_id", "dialog_id", "services", "turns")}
    return Dialog(id=str(dialog_id), services=services, turns=turns, extras=dialog_extras)


def _slow_native_row(obj: dict) -> Dialog | dict:
    if "meta" in obj:
        return {"split_name": "train", "source_format": "native", **obj["meta"]}
    return slow_dialog_from_json(obj)


def slow_load_corpus(path: str, format: str = "native") -> Corpus:
    """``corpus.load_corpus``: decode every dialog with copies, then validate the whole corpus."""
    if format == "native":
        rows = list(iter_jsonl(path, _slow_native_row))
        default = {"split_name": "train", "source_format": "native"}
        meta = rows.pop(0) if rows and isinstance(rows[0], dict) else default
        if any(isinstance(row, dict) for row in rows):
            raise SchemaMismatch(f"{path}: only the first row may be a meta header")
        corpus = Corpus(dialogs=rows, split_name=meta["split_name"], source_format=meta["source_format"])
    else:
        dialogs = []
        for file_path in _schema_guided_files(path):
            payload = read_json(str(file_path))
            if not isinstance(payload, list):
                raise SchemaMismatch(f"{file_path}: expected a list of dialogs")
            dialogs.extend(_slow_dialog_from_schema_guided(obj, str(file_path)) for obj in payload)
        corpus = Corpus(dialogs=dialogs, split_name=_infer_split(path), source_format=format)
    slow_validate_corpus(corpus)
    return corpus
