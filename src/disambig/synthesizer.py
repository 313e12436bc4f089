"""Single-turn disambiguation dialog synthesis.

Each example pairs a grammar-generated system question listing 3-5 sampled
candidate entities with a grammar-generated user answer that picks the
gold target(s) under one of six addressing methods.  All sampling routes
through derived seeds, so a dataset is a pure function of its config.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .corpus import SPLITS, SYSTEM, USER, Corpus, Database, entity_row, gold_marker, name_key, sample_entities
from .errors import GrammarError, SchemaMismatch, Unwordable
from .grammar import Grammar, fill, sample, slot_bounds
from .jsonl import Field, iter_jsonl, row_checker, write_jsonl
from .resolver import _name_record
from .seeding import derive_seed, rng_for

SYSTEM_QUESTION = "SYSTEM_QUESTION"
USER_ANSWER = "USER_ANSWER"
ATTRIBUTE_MENTION = "ATTRIBUTE_MENTION"

CANDIDATE_COUNTS = (3, 4, 5)

ORDINAL_WORDS = ("first", "second", "third", "fourth", "fifth")

_TYPO_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# Surface phrasing for attribute descriptions; {value} is substituted
# verbatim so the resolver can find it again.
_ATTRIBUTE_PHRASES = {
    "area": "in the {value} of the city",
    "price_range": "in the {value} price range",
    "street": "on {value}",
    "stars": "with {value} stars",
    "rating": "rated {value}",
    "cuisine": "serving {value} food",
    "genre": "in the {value} genre",
    "category": "in the {value} category",
    "city": "located in {value}",
    "director": "directed by {value}",
    "artist": "by {value}",
    "venue": "hosted at {value}",
    "day": "taking place on {value}",
    "year": "released in {value}",
    "bedrooms": "with {value} bedrooms",
}


class AddressingMethod(Enum):
    EXACT = "exact"
    POSITIONAL = "positional"
    PARTIAL = "partial"
    TYPO = "typo"
    MULTIPLE = "multiple"
    ATTRIBUTE = "attribute"


METHODS = tuple(AddressingMethod)

_EXAMPLE_ROW = row_checker((
    Field("system", str),
    Field("user", str),
    Field("candidates", list[entity_row]),
    Field("target_names", list[str], labels=("target_names", "target name")),
    Field("method", str),
    Field("domain", str),
    Field("seed", int),
))
_METHOD_OF = {method.value: method for method in METHODS}


class SingleTurnExample(NamedTuple):
    system_utterance: str
    user_utterance: str
    candidates: list[dict]
    targets: list[int]
    method: AddressingMethod
    domain: str
    seed: int

    def target_names(self) -> list[str]:
        return [self.candidates[i]["name"] for i in self.targets]

    def to_json(self) -> dict:
        return {
            "system": self.system_utterance,
            "user": self.user_utterance,
            "candidates": self.candidates,
            "target_names": self.target_names(),
            "method": self.method.value,
            "domain": self.domain,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SingleTurnExample":
        """The example of a row checked by its table, whose target names
        must each be one of the candidates'."""
        row = _EXAMPLE_ROW(obj)
        method = _METHOD_OF.get(row["method"])
        if method is None:
            raise SchemaMismatch(f"method: expected one of {', '.join(map(repr, _METHOD_OF))}, got {row['method']!r}")
        by_key = {name_key(e["name"]): i for i, e in enumerate(row["candidates"])}
        targets = [by_key.get(name_key(name)) for name in row["target_names"]]
        if None in targets:
            unknown = row["target_names"][targets.index(None)]
            raise SchemaMismatch(f"target name {unknown!r} is not one of the candidates")
        return cls(row["system"], row["user"], row["candidates"], targets, method, row["domain"], row["seed"])


def format_option_list(names: list[str]) -> str:
    """Render names as a spoken list: 'a, b, or c'."""
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + ", or " + names[-1]


def _join_names(names: list[str], both: bool) -> str:
    if len(names) == 2:
        joined = f"{names[0]} and {names[1]}"
        return f"both {joined}" if both else joined
    return ", ".join(names[:-1]) + ", and " + names[-1]


def _partial_mention(target: dict, others: list[dict]) -> str:
    """Shortest uniquely-identifying contiguous window of the target name's
    words, prefixes first, written as it is in the name.

    Users shorten names for simplicity, so the shortest prefix that still
    tells the candidates apart is preferred.  A window is judged as the
    resolver reads it, by its normalized tokens: it identifies the target
    when it is one of the target's partial windows (``_name_record``'s
    ``partials``, never only stopwords), none of another candidate's partial
    windows, and holds no other candidate's whole name, which the resolver
    would read as an exact match for it.
    """
    tokens = target["name"].split()
    partials = _name_record(target["name"]).partials
    names = [_name_record(e["name"]) for e in others]
    taken = {text for name in names for text in name.partials}
    for _, length, start in sorted((start > 0, length, start) for length in range(1, len(tokens))
                                   for start in range(len(tokens) - length + 1)):
        window = " ".join(tokens[start:start + length])
        text = _name_record(window).padded
        if text in partials and text not in taken and not any(name.padded in text for name in names):
            return window
    raise Unwordable(f"every proper subsequence of {target['name']!r} is ambiguous")


def _typo_mention(target: dict, others: list[dict], seed: int) -> str:
    """The full name with exactly one character edit, avoiding collisions."""
    name = target["name"]
    rng = rng_for("typo", name, seed)
    forbidden = {e["name"] for e in others} | {name, ""}
    for _ in range(10):
        kind = rng.randrange(4)
        if kind == 0 and len(name) >= 1:  # substitution
            position = rng.randrange(len(name))
            replacement = rng.choice([c for c in _TYPO_ALPHABET if c != name[position]])
            mention = name[:position] + replacement + name[position + 1:]
        elif kind == 1 and len(name) >= 2:  # deletion
            position = rng.randrange(len(name))
            mention = name[:position] + name[position + 1:]
        elif kind == 2:  # insertion
            position = rng.randrange(len(name) + 1)
            mention = name[:position] + rng.choice(_TYPO_ALPHABET) + name[position:]
        else:  # adjacent transposition
            spots = [i for i in range(len(name) - 1) if name[i] != name[i + 1]]
            if not spots:
                continue
            position = rng.choice(spots)
            mention = name[:position] + name[position + 1] + name[position] + name[position + 2:]
        if mention not in forbidden and mention.strip() == mention:
            return mention
    raise Unwordable(f"could not produce a collision-free typo for {name!r}")


def realize_attribute_phrase(attribute: str, value: str) -> str:
    pattern = _ATTRIBUTE_PHRASES.get(attribute, "with " + attribute.replace("_", " ") + " {value}")
    return pattern.replace("{value}", str(value))


def _discriminating_attributes(target: dict, others: list[dict]) -> list[tuple[str, ...]]:
    """Single attributes (then pairs) whose values set the target apart."""
    attributes = sorted(target["attributes"])

    def differs(entity: dict, attribute: str) -> bool:
        return name_key(str(entity["attributes"].get(attribute, ""))) != name_key(str(target["attributes"][attribute]))

    singles = [a for a in attributes if all(differs(o, a) for o in others)]
    if singles:
        return [(a,) for a in singles]
    pairs = []
    for i, first in enumerate(attributes):
        for second in attributes[i + 1:]:
            if all(differs(o, first) or differs(o, second) for o in others):
                pairs.append((first, second))
    if pairs:
        return pairs
    raise Unwordable(f"no attribute combination separates {target['name']!r} from the other candidates")


def _attribute_mention(
    target: dict,
    others: list[dict],
    seed: int,
    grammar: Grammar,
    domain_noun: str,
) -> str:
    choices = _discriminating_attributes(target, others)
    chosen = choices[rng_for("attribute.pick", target["name"], seed).randrange(len(choices))]
    phrase = " and ".join(realize_attribute_phrase(a, target["attributes"][a]) for a in chosen)
    tokens = sample(grammar, ATTRIBUTE_MENTION, derive_seed("attribute.template", target["name"], seed))
    return fill(tokens, {"domain_noun": domain_noun, "attribute_phrase": phrase})


def apply_addressing(
    candidates: list[dict],
    targets: list[int],
    method: AddressingMethod,
    seed: int,
    grammar: Grammar,
    domain_noun: str,
) -> str:
    """Produce the user-side mention of the target(s) under one method.

    An attribute mention is worded by the grammar's ``ATTRIBUTE_MENTION``
    rule, with ``domain_noun`` (the database's noun for the domain) in its
    ``{domain_noun}`` slot."""
    if len(set(targets)) != len(targets) or not all(0 <= t < len(candidates) for t in targets):
        raise SchemaMismatch("targets must be distinct valid candidate indices")
    if method is AddressingMethod.MULTIPLE:
        if len(targets) < 2:
            raise SchemaMismatch("multiple addressing needs at least two targets")
    elif len(targets) != 1:
        raise SchemaMismatch(f"{method.value} addressing needs exactly one target")

    target = candidates[targets[0]]
    others = [c for i, c in enumerate(candidates) if i != targets[0]]
    if method is AddressingMethod.EXACT:
        return target["name"]
    if method is AddressingMethod.POSITIONAL:
        return f"the {ORDINAL_WORDS[targets[0]]} one"
    if method is AddressingMethod.PARTIAL:
        return _partial_mention(target, others)
    if method is AddressingMethod.TYPO:
        return _typo_mention(target, others, seed)
    if method is AddressingMethod.MULTIPLE:
        names = [candidates[i]["name"] for i in targets]
        both = rng_for("multiple.both", seed, *names).random() < 0.5
        return _join_names(names, both=both)
    return _attribute_mention(target, others, seed, grammar, domain_noun)


# Each start symbol that synthesis samples: the slot that every derivation
# must hold exactly once, and all the slots it is filled with.
_FILLED_SLOTS = {SYSTEM_QUESTION: ("option_list", {"option_list", "entity_type"}),
                 USER_ANSWER: ("mention", {"mention"}),
                 ATTRIBUTE_MENTION: ("attribute_phrase", {"attribute_phrase", "domain_noun"})}


def check_grammar(grammar: Grammar, methods: tuple[AddressingMethod, ...]) -> None:
    """Refuse a grammar that could word an exchange wrong: a question that
    does not list the options once, an answer that does not name its pick
    once, or a slot its stage does not fill.  ``ATTRIBUTE_MENTION`` is
    checked only when ``methods`` include the attribute method, the one
    that samples it.  The GrammarError names the rule and the slot."""
    for start, (required, filled) in _FILLED_SLOTS.items():
        if start != ATTRIBUTE_MENTION or AddressingMethod.ATTRIBUTE in methods:
            bounds = slot_bounds(grammar, start)
            low, high = bounds.get(required, (0, 0))
            if (low, high) != (1, 1):
                times = f"{low}" if low == high else f"{low} to {high}"
                raise GrammarError(f"rule {start!r}: slot {{{required}}} must occur exactly once in every "
                                   f"derivation, but occurs {times} times")
            for slot in sorted(bounds.keys() - filled):
                raise GrammarError(f"rule {start!r}: slot {{{slot}}} can occur, but only "
                                   f"{', '.join(f'{{{name}}}' for name in sorted(filled))} can be filled there")


def build_system_utterance(grammar: Grammar, candidates: list[dict], noun: str, seed: int) -> str:
    tokens = sample(grammar, SYSTEM_QUESTION, seed)
    option_list = format_option_list([e["name"] for e in candidates])
    return fill(tokens, {"option_list": option_list, "entity_type": noun})


def build_user_utterance(grammar: Grammar, mention: str, seed: int) -> str:
    return fill(sample(grammar, USER_ANSWER, seed), {"mention": mention})


def build_exchange(grammar: Grammar, candidates: list[dict], targets: list[int], method: AddressingMethod,
                   noun: str, namespace: str, base: tuple) -> tuple[str, str]:
    """The system question listing ``candidates`` and the user answer that
    picks ``targets`` under ``method``.  The mention, the question and the
    answer each derive their seed from ``base`` under their own name
    (``<namespace>.mention``, ``.system``, ``.user``), so synthesis
    ("synth") and augmentation ("augment") word exchanges the same way from
    seeds that never coincide."""
    mention = apply_addressing(
        candidates, targets, method, derive_seed(f"{namespace}.mention", *base), grammar=grammar, domain_noun=noun
    )
    system = build_system_utterance(grammar, candidates, noun, derive_seed(f"{namespace}.system", *base))
    return system, build_user_utterance(grammar, mention, derive_seed(f"{namespace}.user", *base))


def synthesize_example(
    db: Database,
    grammar: Grammar,
    domain: str,
    method: AddressingMethod,
    seed: int,
) -> SingleTurnExample:
    """One (system question, user answer, gold target) triple, pure in its args."""
    table = db.tables.get(domain)
    if table is None:
        raise SchemaMismatch(f"unknown domain {domain!r}")
    if len(table) < max(CANDIDATE_COUNTS):
        raise SchemaMismatch(f"need {max(CANDIDATE_COUNTS)} distinct entities, table has {len(table)}")

    base = (domain, method.value, seed)
    count = rng_for("synth.count", *base).choice(CANDIDATE_COUNTS)
    candidates = sample_entities(db, domain, count, derive_seed("synth.entities", *base))

    target_rng = rng_for("synth.targets", *base)
    if method is AddressingMethod.MULTIPLE:
        arity = target_rng.randint(2, count)
        targets = sorted(target_rng.sample(range(count), arity))
    else:
        targets = [target_rng.randrange(count)]

    system, user = build_exchange(grammar, candidates, targets, method, db.noun(domain), "synth", base)
    return SingleTurnExample(
        system_utterance=system,
        user_utterance=user,
        candidates=candidates,
        targets=targets,
        method=method,
        domain=domain,
        seed=seed,
    )


class SynthConfig(NamedTuple):
    """Dataset-level knobs.

    ``totals`` asks for exact split sizes with methods assigned round-robin;
    ``per_method`` asks for exact per-method sizes instead.  Exactly one of
    the two applies (``per_method`` wins when set).  Domains always cycle
    over every table in the database, sorted by name.  Immutable; derive a
    changed copy with ``config._replace(...)``.
    """

    totals: tuple[int, int, int] | None = (100_000, 10_000, 10_000)
    per_method: tuple[int, int, int] | None = None
    methods: tuple[AddressingMethod, ...] = METHODS
    seed: int = 0


def _split_plan(config: SynthConfig, split_index: int) -> list[AddressingMethod]:
    if config.per_method is not None:
        return [method for method in config.methods for _ in range(config.per_method[split_index])]
    total = config.totals[split_index]
    return [config.methods[i % len(config.methods)] for i in range(total)]


def synthesize_split(db: Database, grammar: Grammar, config: SynthConfig, split: str) -> list[SingleTurnExample]:
    """Generate one split independently; seeds are namespaced by split name,
    so splits never share an example regardless of which are generated."""
    plan = _split_plan(config, SPLITS.index(split))
    domains = sorted(db.tables)
    if plan and not domains:
        raise SchemaMismatch("the database has no tables to draw candidates from")
    return [
        synthesize_example(
            db, grammar, domains[i % len(domains)], method, derive_seed("dataset", split, i, config.seed)
        )
        for i, method in enumerate(plan)
    ]


# --- JSONL and corpus views -----------------------------------------------------


def write_examples(examples: list[SingleTurnExample], path: str) -> None:
    write_jsonl(path, (example.to_json() for example in examples))


def read_examples(path: str) -> list[SingleTurnExample]:
    return list(iter_jsonl(path, SingleTurnExample.from_json))


def example_dialog_id(index: int) -> str:
    return f"synth-{index:06d}"


def examples_to_corpus(examples: list[SingleTurnExample]) -> Corpus:
    """View a synthesized file as a two-turn-dialog corpus for the scoring
    harness: the system turn carries the gold marker in its extras, and
    neither turn has frames or search results, which scoring does not read.
    The dialog and turn rows are built whole here, since there is nothing to check."""
    dialogs = []
    for index, example in enumerate(examples):
        marker = gold_marker("synth", example.method.value, example.target_names(), example.candidates)
        system_turn = {"speaker": SYSTEM, "utterance": example.system_utterance, "frames": [],
                       "extras": {"disambig": marker}}
        user_turn = {"speaker": USER, "utterance": example.user_utterance, "frames": [], "extras": {}}
        dialogs.append({"id": example_dialog_id(index), "services": [example.domain],
                        "turns": [system_turn, user_turn], "extras": {}})
    return Corpus(dialogs=dialogs, split_name="test", source_format="native")
