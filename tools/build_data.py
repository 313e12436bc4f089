#!/usr/bin/env python3
"""Regenerate the shipped data files.

    python tools/build_data.py database    # data/database.json
    python tools/build_data.py toy         # data/toy_corpus.jsonl + expectations
    python tools/build_data.py baseline    # baselines/resolver_baseline.json
    python tools/build_data.py stress      # baselines/resolver_stress_baseline.json
    python tools/build_data.py all

The database build enforces the vocabulary discipline the resolver round
trip relies on: entity-name tokens never collide with user-answer grammar
words, attribute values, ordinal or conjunction cues, and names within one
domain stay well separated in edit distance.  The stress baseline drops
the separation rule on purpose: its candidate names share tokens, lie one
character edit apart, or contain one another.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from disambig.corpus import Corpus, Database, dialog_row, name_key, write_corpus
from disambig.errors import SchemaMismatch
from disambig.grammar import Slot, load_grammar_file
from disambig.jsonl import staged_outputs, write_row
from disambig.resolver import STOPWORDS, edit_distance
from disambig.seeding import rng_for

FIRSTS = [
    "aurora", "bramble", "copperfield", "dunmore", "emberglow", "foxglove", "gablewood", "hawthorn",
    "isolde", "juniper", "kestrel", "lorimer", "marigold", "nimbus", "orchid", "pemberton",
    "quillon", "rosewood", "saffron", "thistle", "umberly", "verity", "willow", "yarrow",
    "zephyr", "aldergate", "birchwood", "cedarvale", "damson", "fernley", "gorsevale", "henwick",
    "ingram", "jessamine", "kelbrook", "larkspur", "mosswood", "norbury", "oakhurst", "pimlico",
    "quarrington", "redmayne", "silverton", "tamarind", "ulverston", "vexford", "wystan", "yewbank",
]

SECONDS = {
    "restaurant": ["kitchen", "bistro", "tavern", "eatery", "grille", "cantina", "brasserie", "trattoria",
                   "chophouse", "dinette", "osteria", "smokehouse", "taqueria", "rotisserie", "canteen", "parlour"],
    "hotel": ["lodge", "innhouse", "suites", "manor", "hostelry", "guesthouse", "retreat", "chambers",
              "quarters", "residence", "hideaway", "bungalows", "villas", "towers", "courtyard", "abode"],
    "attraction": ["museum", "gallery", "gardens", "observatory", "planetarium", "aquarium", "amphitheatre",
                   "pavilion", "conservatory", "boathouse", "windmill", "lighthouse", "castle", "abbey",
                   "arboretum", "menagerie"],
    "movie": ["voyage", "reckoning", "horizons", "serenade", "labyrinth", "paradox", "covenant", "mirage",
              "odyssey", "vendetta", "eclipsed", "undertow", "masquerade", "monsoon", "afterglow", "crossing"],
    "music": ["lullaby", "anthem", "ballad", "refrain", "overture", "nocturne", "rhapsody", "cadence",
              "reverie", "interlude", "crescendo", "melodia", "madrigal", "chorale", "aubade", "serenata"],
    "events": ["festival", "showcase", "galanight", "derby", "regatta", "symposium", "jamboree", "carnival",
               "tourney", "recital", "premiere", "matinee", "cabaret", "revue", "expo", "marathon"],
    "homes": ["apartments", "lofts", "terraces", "maisonettes", "crescent", "mews", "penthouses", "dwellings",
              "commons", "courtyards", "annexe", "rowhouses", "studios", "chalets", "cottages", "flats"],
    "services": ["salon", "clinic", "practice", "surgery", "atelier", "barbershop", "dentistry", "orthodontics",
                 "chiropody", "therapeutics", "counselling", "physiotherapy", "homeopathy", "acupuncture",
                 "podiatry", "wellness"],
    "messaging": ["whitcombe", "ellery", "marchbank", "osgood", "pettigrew", "ramsden", "silvers", "thackeray",
                  "underhill", "vickery", "wainwright", "yeardley", "ashdown", "bexley", "cavendish", "dunwoody"],
}

CATEGORY = {
    "restaurant": "restaurant", "restaurants_1": "restaurant", "restaurants_2": "restaurant",
    "hotel": "hotel", "hotels_1": "hotel", "hotels_3": "hotel", "hotels_4": "hotel",
    "attraction": "attraction", "travel_1": "attraction",
    "movies_1": "movie", "movies_2": "movie", "movies_3": "movie",
    "media_1": "movie", "media_2": "movie", "media_3": "movie",
    "music_1": "music", "music_2": "music", "music_3": "music",
    "events_1": "events", "events_3": "events",
    "homes_1": "homes", "homes_2": "homes",
    "services_1": "services", "services_2": "services", "services_3": "services", "services_4": "services",
    "messaging_1": "messaging",
}

NOUNS = {
    "restaurant": "restaurant", "hotel": "hotel", "attraction": "attraction", "movie": "movie",
    "music": "song", "events": "event", "homes": "apartment", "services": "provider",
    "messaging": "contact",
}

AREAS = ["north", "south", "east", "west", "centre"]
PRICES = ["cheap", "moderate", "expensive"]
CUISINES = ["italian", "chinese", "indian", "british", "thai", "mexican", "lebanese", "korean"]
GENRES = ["action", "comedy", "drama", "thriller", "romance", "fantasy", "horror", "documentary"]
MUSIC_GENRES = ["jazz", "folk", "electronic", "classical", "indie", "blues", "soul", "reggae"]
EVENT_CATEGORIES = ["concert", "opera", "circus", "lecture", "fair", "parade", "pageant", "rodeo"]
ATTRACTION_CATEGORIES = ["historic", "scenic", "interactive", "botanical", "maritime", "architectural"]
DAYS = ["monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"]
YEARS = ["2016", "2017", "2018", "2019", "2020", "2021", "2022", "2023"]
RATINGS = ["pg", "tbc", "advisory"]
GROUPS = ["family", "friends", "colleagues", "neighbours"]
STATUSES = ["online", "offline", "away"]
CITIES = ["gravenhurst", "ludthorpe", "penrith", "keswick", "malton", "thirsk", "frinton", "oundle"]

STREET_FIRSTS = ["milford", "grantham", "ketterly", "ossory", "pendlebury", "quincegate", "rathbone", "selwood",
                 "tarrtask", "ulmstead", "varleigh", "wrenfield", "axbridge", "bowmont", "cloverdale", "dunmow"]
STREET_SECONDS = ["row", "lane", "avenue", "drive", "walk", "grove", "close", "rise"]

PERSON_FIRSTS = ["casimir", "odalys", "bronwyn", "thaddeus", "ingrid", "ferdinand", "leocadia", "rustam",
                 "ottoline", "zubin", "anneliese", "dmitri", "yolanda", "percival", "svetlana", "matthias"]
CONTACT_FIRSTS = ["abelard", "beatrix", "corwin", "delphine", "edmund", "florentine", "gideon", "henrietta",
                  "ignatius", "jocasta", "kendrick", "lavinia", "montague", "nerissa", "oswald", "philippa"]
PERSON_LASTS = ["grimaldi", "vasquez", "okafor", "lindqvist", "petrov", "nakamura", "oyelaran", "castellanos",
                "jorgensen", "abernathy", "villanueva", "moreau", "kowalski", "fitzwilliam", "santamaria", "beaumont"]
HANDLE_STEMS = ["pixelwing", "quartzle", "ravensong", "snowdrift", "tidepool", "umbrawave", "violetta", "wildspark",
                "xenolith", "yonderly", "zestward", "ambercode", "brightkey", "cloudmark", "driftnote", "echoline"]

ENTITIES_PER_DOMAIN = 16
MIN_SEPARATION = 0.30


def _street(i: int) -> str:
    return f"{STREET_FIRSTS[i % len(STREET_FIRSTS)]} {STREET_SECONDS[i % len(STREET_SECONDS)]}"


def _person(i: int, offset: int) -> str:
    return f"{PERSON_FIRSTS[(i + offset) % len(PERSON_FIRSTS)]} {PERSON_LASTS[i % len(PERSON_LASTS)]}"


def _attributes(category: str, domain_index: int, i: int) -> dict[str, str]:
    if category == "restaurant":
        return {"area": AREAS[i % 5], "price_range": PRICES[i % 3], "cuisine": CUISINES[i % 8],
                "street": _street(i + domain_index)}
    if category == "hotel":
        return {"area": AREAS[(i + 1) % 5], "price_range": PRICES[(i + 1) % 3], "stars": str(2 + i % 4),
                "street": _street(i + domain_index + 3)}
    if category == "attraction":
        return {"area": AREAS[(i + 2) % 5], "category": ATTRACTION_CATEGORIES[i % 6],
                "price_range": PRICES[(i + 2) % 3], "street": _street(i + domain_index + 6)}
    if category == "movie":
        return {"genre": GENRES[i % 8], "rating": RATINGS[i % 3], "year": YEARS[i % 8],
                "director": _person(i, domain_index)}
    if category == "music":
        return {"genre": MUSIC_GENRES[i % 8], "year": YEARS[(i + 3) % 8], "artist": _person(i, domain_index + 5)}
    if category == "events":
        return {"category": EVENT_CATEGORIES[i % 8], "day": DAYS[i % 7], "street": _street(i + domain_index + 9)}
    if category == "homes":
        return {"area": AREAS[(i + 3) % 5], "bedrooms": str(1 + i % 4), "price_range": PRICES[i % 3],
                "street": _street(i + domain_index + 12)}
    if category == "services":
        return {"area": AREAS[(i + 4) % 5], "rating": str(3 + i % 3), "city": CITIES[i % 8],
                "street": _street(i + domain_index + 2)}
    if category == "messaging":
        return {"group": GROUPS[i % 4], "status": STATUSES[i % 3], "handle": f"{HANDLE_STEMS[i]}{10 + i}"}
    raise ValueError(category)


def _grammar_user_vocabulary() -> set[str]:
    """Tokens that can surface in a user utterance around the mention."""
    grammar = load_grammar_file(str(ROOT / "grammars" / "disambiguation.cfg"))
    words: set[str] = set()
    for start in ("USER_ANSWER", "ATTRIBUTE_MENTION"):
        stack = [start]
        seen = set()
        while stack:
            rule = stack.pop()
            if rule in seen:
                continue
            seen.add(rule)
            for alt in grammar.rules[rule]:
                for symbol in alt:
                    if isinstance(symbol, str):
                        words.update(w.strip(",.?!:;'") for w in symbol.lower().split("'"))
                        words.add(symbol.strip(",.?!:;"))
                    elif not isinstance(symbol, Slot):
                        stack.append(symbol.name)
    from disambig.synthesizer import _ATTRIBUTE_PHRASES

    for pattern in _ATTRIBUTE_PHRASES.values():
        words.update(w for w in pattern.replace("{value}", " ").split())
    words.update(["first", "second", "third", "fourth", "fifth", "1st", "2nd", "3rd", "4th", "5th",
                  "last", "other", "and", "both", "all", "three", "four", "five", "or", "one"])
    return {w for w in words if w}


def build_database() -> Database:
    domains = sorted(CATEGORY)
    assert len(domains) == 27
    tables: dict[str, list[dict]] = {}
    for domain_index, domain in enumerate(domains):
        category = CATEGORY[domain]
        seconds = SECONDS[category]
        entities = []
        for i in range(ENTITIES_PER_DOMAIN):
            first = FIRSTS[(i + domain_index * 5) % len(FIRSTS)]
            if category == "messaging":
                name = f"{CONTACT_FIRSTS[i]} {seconds[i]}"
            else:
                name = f"{first} {seconds[i]}"
            entities.append({"domain": domain, "name": name, "attributes": _attributes(category, domain_index, i)})
        tables[domain] = entities
    nouns = {domain: NOUNS[CATEGORY[domain]] for domain in domains}
    db = Database(tables=tables, nouns=nouns)
    _check_database(db)
    return db


def write_database(db: Database, path: str) -> None:
    """Write ``db`` as the document ``load_database`` reads, each name under
    ``"name"``.  An attribute named ``name`` would read back as the entity's
    name, so it is refused before anything is written."""
    for entities in db.tables.values():
        for e in entities:
            if "name" in e["attributes"]:
                raise SchemaMismatch(f"entity {e['name']!r} of {e['domain']!r}: "
                                     "attribute 'name' would read back as its name")
    payload = {"name_fields": dict.fromkeys(db.tables, "name"), "nouns": db.nouns,
               "tables": {domain: [{**e["attributes"], "name": e["name"]} for e in entities]
                          for domain, entities in db.tables.items()}}
    with staged_outputs(path) as (out,):
        out.write(json.dumps(payload, ensure_ascii=False, indent=1, sort_keys=True) + "\n")


def _check_database(db: Database) -> None:
    _check_name_separation(db)
    _check_name_vocabulary(db)
    _check_attribute_values(db)


def _name_tokens(db: Database) -> set[str]:
    return {token for entities in db.tables.values() for e in entities for token in e["name"].split()}


def _value_tokens(db: Database) -> set[str]:
    return {token for entities in db.tables.values() for e in entities
            for value in e["attributes"].values() for token in value.split()}


def _check_name_separation(db: Database) -> None:
    """Names in one domain are unique, two-token, and far apart in spelling."""
    for domain, entities in db.tables.items():
        assert len(entities) >= 14, domain
        names = [e["name"] for e in entities]
        keys = [name_key(n) for n in names]
        assert len(set(keys)) == len(keys), f"duplicate names in {domain}"
        firsts = [n.split()[0] for n in names]
        assert len(set(firsts)) == len(firsts), f"repeated first tokens in {domain}"
        for a in names:
            assert len(a) >= 8 and len(a.split()) == 2, f"bad name shape {a!r}"
            for b in names:
                if a != b:
                    assert a not in b, f"{a!r} is a substring of {b!r}"
                    separation = edit_distance(a, b) / max(len(a), len(b))
                    assert separation > MIN_SEPARATION, f"{a!r} vs {b!r}: {separation:.2f}"


def _check_name_vocabulary(db: Database) -> None:
    """No name token is a word the user side of the grammar can say."""
    clash = _name_tokens(db) & (_grammar_user_vocabulary() - STOPWORDS)
    assert not clash, f"name tokens collide with user-side vocabulary: {sorted(clash)}"


def _check_attribute_values(db: Database) -> None:
    """No attribute-value token is a name token or a user-side word."""
    value_tokens = _value_tokens(db)
    clash = _name_tokens(db) & value_tokens
    assert not clash, f"name tokens collide with attribute values: {sorted(clash)}"
    clash = value_tokens & (_grammar_user_vocabulary() - STOPWORDS)
    assert not clash, f"attribute values collide with user-side vocabulary: {sorted(clash)}"


# --- toy corpus ----------------------------------------------------------------

TURNS_PER_DIALOG = 16

FILLER_PAIRS = [
    ("could you also give me the phone number?", "certainly, the number is 01223 {num}."),
    ("what about the address?", "it is listed at {street}."),
    ("is there parking nearby?", "yes, there is a public car park around the corner."),
    ("how long does it take to get there from the station?", "roughly ten minutes on foot."),
    ("can you confirm the booking time once more?", "of course, it is set for {time}."),
]


def _toy_dialog(did: str, service: str, kind: str, db: Database, rng) -> tuple[dict, bool, int | None]:
    """Build one 16-turn dialog; returns (dialog, has_multi_result, augmentable_turn)."""
    noun = db.noun(service) if service in db.tables else service
    area = rng.choice(AREAS)
    if service in db.tables:
        offers = rng.sample(db.tables[service], 3)
    else:
        offers = [{"domain": service, "name": f"{service} option {i}", "attributes": {}} for i in range(3)]
    if kind == "absent":
        offers = [{"domain": service, "name": f"phantom {w} {i}", "attributes": {"area": area}}
                  for i, w in enumerate(["arms", "rooms", "halls"])]
    accept_index = 1 if did == "hotel_accept_2nd" else rng.randrange(3)
    accepted = offers[accept_index]

    state: dict[str, list[str]] = {}
    turns: list[dict] = []

    def user(utterance: str, extra_state: dict[str, list[str]] | None = None) -> None:
        state.update(extra_state or {})
        frames = [{"service": service, "slot_values": {k: list(v) for k, v in state.items()}}]
        turns.append({"speaker": "USER", "utterance": utterance, "frames": frames})

    def system(utterance: str, results: list[dict] | None = None) -> None:
        turns.append({"speaker": "SYSTEM", "utterance": utterance})
        if results is not None:
            turns[-1]["search_results"] = results

    user(f"hello, i am trying to find a {noun} for my visit.")
    system(f"happy to help. which part of town would you like the {noun} to be in?")
    user(f"somewhere in the {area} would be ideal.", {f"{service}-area": [area]})

    multi = False
    augmentable: int | None = None
    if kind in ("augment", "disallowed", "absent"):
        multi = True
        system(f"i see {len(offers)} places that fit. how about {accepted['name']}? it is quite popular.",
               results=list(offers))
        user(f"that sounds great, let us go with {accepted['name']}.", {f"{service}-name": [accepted["name"]]})
        if kind == "augment":
            augmentable = 3
    elif kind == "reject":
        multi = True
        system(f"i see {len(offers)} places that fit. how about {offers[0]['name']}? it is quite popular.",
               results=list(offers))
        user("hmm, none of those really appeal to me. could we look for something cheaper instead?",
             {f"{service}-price_range": ["cheap"]})
    elif kind == "single":
        system(f"there is exactly one match: {accepted['name']}. shall i book it?", results=[accepted])
        user(f"yes please, {accepted['name']} will do nicely.", {f"{service}-name": [accepted["name"]]})
    else:  # "final" and "none"
        system("i can certainly arrange that. do you have any other constraints?")
        user("not really, anything comfortable is fine.")

    system("noted. is there anything else you would like me to check?")

    filler = rng.sample(FILLER_PAIRS, 4)
    for question, answer in filler:
        answer = answer.format(num=rng.randrange(100000, 999999), street=_street(rng.randrange(16)),
                               time="seven thirty")
        user(question)
        system(answer)

    user("thank you, that covers everything i needed.")
    if kind == "final":
        multi = True
        system("before you go: two more places matched after all, "
               f"{offers[0]['name']} and {offers[1]['name']}. goodbye!", results=[offers[0], offers[1]])
    else:
        system("you are very welcome. enjoy your visit, goodbye!")

    dialog = dialog_row({"id": did, "services": [service], "turns": turns})
    assert len(turns) == TURNS_PER_DIALOG, (did, len(turns))
    return dialog, multi, augmentable


def build_toy_corpus(db: Database) -> tuple[Corpus, dict]:
    rng = rng_for("toy-corpus", 1)
    plan: list[tuple[str, str]] = []
    plan += [("augment", s) for s in ["hotel"] * 5 + ["restaurant"] * 6 + ["attraction"] * 4]
    plan += [("reject", s) for s in ["restaurant", "restaurant", "hotel", "hotel", "attraction"]]
    plan += [("absent", s) for s in ["hotel", "restaurant", "attraction"]]
    plan += [("final", s) for s in ["restaurant", "hotel", "attraction"]]
    plan += [("disallowed", "train")] * 6
    plan += [("single", s) for s in ["hotel"] * 3 + ["restaurant"] * 3 + ["attraction"] * 2]
    plan += [("none", "taxi")] * 9

    dialogs: list[dict] = []
    expected_augmentable: list[list] = []
    multi_by_service: dict[str, int] = {}
    totals_by_service: dict[str, int] = {}
    multi_total = 0

    dialog, multi, turn = _toy_dialog("hotel_accept_2nd", "hotel", "augment", db, rng)
    entries = [("hotel_accept_2nd", "hotel", "augment", dialog, multi, turn)]
    for index, (kind, service) in enumerate(plan):
        did = f"d{index + 1:03d}"
        dialog, multi, turn = _toy_dialog(did, service, kind, db, rng)
        entries.append((did, service, kind, dialog, multi, turn))

    for did, service, kind, dialog, multi, turn in entries:
        dialogs.append(dialog)
        totals_by_service[service] = totals_by_service.get(service, 0) + 1
        if multi:
            multi_total += 1
            multi_by_service[service] = multi_by_service.get(service, 0) + 1
        if turn is not None:
            expected_augmentable.append([did, turn])

    corpus = Corpus(dialogs=dialogs, split_name="test", source_format="native")
    expected = {
        "turns_total": sum(len(d["turns"]) for d in dialogs),
        "augmentable": sorted(expected_augmentable),
        "multi_result": {
            "dialogs_total": len(dialogs),
            "overall": multi_total / len(dialogs),
            "per_service": {
                service: multi_by_service.get(service, 0) / total
                for service, total in sorted(totals_by_service.items())
            },
        },
    }
    assert len(dialogs) == 50
    assert len(expected_augmentable) == 16
    assert expected["turns_total"] == 800
    return corpus, expected


def _jsonl_sha256(rows) -> str:
    """The sha256 of the JSONL file ``write_row`` makes of ``rows``."""
    text = io.StringIO()
    for row in rows:
        write_row(text, row)
    return hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()


def build_baseline() -> dict:
    """Resolver accuracy on the default 10k test split, seed 0, with the
    sha256 of its examples file (as ``synth`` writes it) and of its
    predictions file (as ``resolve`` writes it)."""
    from disambig import metrics, resolver, synthesizer
    from disambig.corpus import load_database

    db = load_database(str(ROOT / "data" / "database.json"))
    grammar = load_grammar_file(str(ROOT / "grammars" / "disambiguation.cfg"))
    config = synthesizer.SynthConfig()
    examples = synthesizer.synthesize_split(db, grammar, config, "test")
    gold = synthesizer.examples_to_corpus(examples)
    preds = {}
    for index, example in enumerate(examples):
        key = (synthesizer.example_dialog_id(index), 0)
        preds[key] = {"dialog_id": key[0], "turn_index": 0,
                      "entities": resolver.predict_names(example.candidates, example.user_utterance)}
    report = metrics.score(preds, gold, records=None)
    return {
        "config": {"split": "test", "totals": list(config.totals), "seed": config.seed},
        "examples": len(examples),
        "entity_accuracy_all": report["entity_accuracy_all"],
        "per_method": report["per_method"],
        "examples_sha256": _jsonl_sha256(example.to_json() for example in examples),
        "predictions_sha256": _jsonl_sha256(preds.values()),
    }


# --- stress baseline: confusable candidate sets ---------------------------------

STRESS_SETS_PER_METHOD = 400
_EDIT_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _one_char_edit(token: str, rng) -> str:
    """``token`` with one substitution, deletion, insertion or adjacent swap."""
    position = rng.randrange(len(token))
    kind = rng.randrange(4)
    if kind == 0:
        return token[:position] + rng.choice(_EDIT_ALPHABET.replace(token[position], "")) + token[position + 1:]
    if kind == 1:
        return token[:position] + token[position + 1:]
    if kind == 2:
        return token[:position] + rng.choice(_EDIT_ALPHABET) + token[position:]
    position = min(position, len(token) - 2)
    return token[:position] + token[position + 1] + token[position] + token[position + 2:]


def _confusable_names(rng, seconds: list[str], count: int, forbidden: set[str]) -> list[str]:
    """``count`` distinct names of one to three tokens.  Each name after the
    first derives from an earlier one: it swaps one token for another
    vocabulary word, makes one character edit in one token, or adds or drops
    an end token, so it contains or lies inside the earlier name."""
    vocabulary = FIRSTS + seconds
    names = [f"{rng.choice(FIRSTS)} {rng.choice(seconds)}"]
    while len(names) < count:
        tokens = rng.choice(names).split()
        relation = rng.randrange(3)
        if relation == 0:
            tokens[rng.randrange(len(tokens))] = rng.choice(vocabulary)
        elif relation == 1:
            index = rng.randrange(len(tokens))
            tokens[index] = _one_char_edit(tokens[index], rng)
        elif len(tokens) == 3 or (len(tokens) == 2 and rng.random() < 0.5):
            tokens = tokens[1:] if rng.random() < 0.5 else tokens[:-1]
        elif rng.random() < 0.5:
            tokens = [rng.choice(FIRSTS), *tokens]
        else:
            tokens = [*tokens, rng.choice(seconds)]
        name = " ".join(tokens)
        if name not in names and not forbidden & set(tokens):
            names.append(name)
    return names


def build_stress_baseline(grammar) -> dict:
    """Resolver results on confusable candidate sets, per addressing method.

    Each method gets ``STRESS_SETS_PER_METHOD`` sets of 3-5 candidates from
    the shipped vocabulary, with attributes as in the database.  Each
    exchange is worded by ``build_exchange`` and resolved by
    ``predict_names``; a set whose mention cannot be made counts as rejected
    by synthesis.  Rates other than ``synth_reject_rate`` are over the
    exchanges written."""
    from disambig.errors import NoMatch, Unwordable
    from disambig.resolver import predict_names, resolve
    from disambig.synthesizer import CANDIDATE_COUNTS, METHODS, AddressingMethod, build_exchange

    domains = sorted(CATEGORY)
    value_tokens = {token for domain_index, domain in enumerate(domains) for i in range(ENTITIES_PER_DOMAIN)
                    for value in _attributes(CATEGORY[domain], domain_index, i).values() for token in value.split()}
    forbidden = _grammar_user_vocabulary() | STOPWORDS | value_tokens
    per_method = {}
    for method in METHODS:
        written = correct = ambiguous = nomatch = 0
        predictions = []
        for index in range(STRESS_SETS_PER_METHOD):
            rng = rng_for("stress.set", method.value, index)
            domain_index = rng.randrange(len(domains))
            category = CATEGORY[domains[domain_index]]
            count = rng.choice(CANDIDATE_COUNTS)
            names = _confusable_names(rng, SECONDS[category], count, forbidden)
            rows = rng.sample(range(ENTITIES_PER_DOMAIN), count)
            candidates = [{"domain": domains[domain_index], "name": name,
                           "attributes": _attributes(category, domain_index, row)}
                          for name, row in zip(names, rows)]
            if method is AddressingMethod.MULTIPLE:
                targets = sorted(rng.sample(range(count), rng.randint(2, count)))
            else:
                targets = [rng.randrange(count)]
            try:
                _, user = build_exchange(grammar, candidates, targets, method, NOUNS[category], "stress",
                                         (method.value, index))
            except Unwordable:
                continue
            written += 1
            predicted = predict_names(candidates, user)
            predictions.append(predicted)
            correct += sorted(predicted) == sorted(candidates[t]["name"] for t in targets)
            try:
                ambiguous += resolve(candidates, user).ambiguous
            except NoMatch:
                nomatch += 1
        digest = hashlib.sha256(json.dumps(predictions).encode("utf-8")).hexdigest()
        per_method[method.value] = {
            "attempted": STRESS_SETS_PER_METHOD,
            "written": written,
            "accuracy": correct / written,
            "ambiguous_rate": ambiguous / written,
            "nomatch_rate": nomatch / written,
            "synth_reject_rate": (STRESS_SETS_PER_METHOD - written) / STRESS_SETS_PER_METHOD,
            "predictions_sha256": digest,
        }
    return {"config": {"sets_per_method": STRESS_SETS_PER_METHOD, "candidate_counts": list(CANDIDATE_COUNTS)},
            "per_method": per_method}


def main() -> None:
    what = sys.argv[1] if len(sys.argv) > 1 else "all"
    if what in ("database", "all"):
        db = build_database()
        write_database(db, str(ROOT / "data" / "database.json"))
        print("wrote data/database.json")
    if what in ("toy", "all"):
        from disambig.corpus import load_database

        db = load_database(str(ROOT / "data" / "database.json"))
        corpus, expected = build_toy_corpus(db)
        write_corpus(corpus, str(ROOT / "data" / "toy_corpus.jsonl"))
        (ROOT / "data" / "toy_corpus_expected.json").write_text(
            json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print("wrote data/toy_corpus.jsonl and data/toy_corpus_expected.json")
    if what in ("baseline", "all"):
        baseline = build_baseline()
        (ROOT / "baselines" / "resolver_baseline.json").write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print("wrote baselines/resolver_baseline.json")
    if what in ("stress", "all"):
        grammar = load_grammar_file(str(ROOT / "grammars" / "disambiguation.cfg"))
        (ROOT / "baselines" / "resolver_stress_baseline.json").write_text(
            json.dumps(build_stress_baseline(grammar), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print("wrote baselines/resolver_stress_baseline.json")


if __name__ == "__main__":
    main()
