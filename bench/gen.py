"""Seeded synthetic Bengali session logs and technique profiles.

Standard library only, and independent of the ``abugida`` package, so
the ground truth it records is an oracle for the program's reports.

Phrases are built from a syllable inventory (consonants and conjuncts,
matras, modifier signs, independent vowels, digits, spaces).  A
simulated typist enters each phrase with one of three techniques:

* ``char-basic``  one key per codepoint, backspace erases one codepoint;
* ``conj-unit``   conjunct keys, backspace erases a whole conjunct;
* ``conj-basic``  conjunct keys, backspace erases one codepoint.

Keys are substituted, omitted or inserted at a few percent; most errors
are noticed one or two keys later and erased with backspaces, and the
intended text is retyped.  Occasional ``mod`` events (a held modifier
key) produce no text.  Events are spaced 150-600 ms apart.  The session's
``transcribed`` text is exactly what the events replay to, and the
ground truth records the quantities a report must carry.

The same seed and shape always give the same bytes.
"""

from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass

CONSONANTS = tuple("কখগঘচছজঝটঠডঢণতথদধনপফবভমযরলশষসহ")
CONJUNCTS = ("ক্ষ", "ন্ড", "স্ত", "ত্র", "ন্ত", "ম্ব", "প্র", "ক্ত",
             "ঙ্গ", "চ্ছ", "দ্ধ", "ন্দ", "স্ব", "শ্র", "ক্র", "ন্ত্র", "স্ত্র")
VOWELS = tuple("অআইউএও")
MATRAS = tuple("ািীুূৃেৈো")
MODIFIERS = tuple("ংঃঁ")
DIGITS = tuple("০১২৩৪৫৬৭৮৯")
VIRAMA = "্"

# Single keys a typist can hit by mistake.
_STRAY_CHARS = CONSONANTS + VOWELS + MATRAS + MODIFIERS + (VIRAMA, " ")

TECHNIQUES = (
    # technique id, types conjuncts with one key, backspace granularity
    ("char-basic", False, "basic"),
    ("conj-unit", True, "unit"),
    ("conj-basic", True, "basic"),
)

P_SUBSTITUTE = 0.03
P_OMIT = 0.015
P_INSERT = 0.015
P_NOTICE = 0.75
P_MOD = 0.03
GAP_MS = (150, 600)
WORD_LENGTH_CHARS = 5.11


def stream_length(text: str) -> int:
    """Output-stream length: codepoints after NFC.

    The inventory has no nukta letters and no zero-width controls, so
    NFC alone is the program's normalization here.
    """
    return len(unicodedata.normalize("NFC", text))


# Grapheme cluster rule of the legacy view, restated for this inventory.
_ATTACHING = frozenset(MATRAS + MODIFIERS + (VIRAMA,))
_SINGLETON = frozenset(DIGITS + (" ",))
_CONSONANT_SET = frozenset(CONSONANTS) | frozenset(
    c for conj in CONJUNCTS for c in conj if c != VIRAMA)


def clusters(text: str) -> list[str]:
    """Visual clusters: signs and virama attach, and a consonant+virama
    tail glues the next non-singleton codepoint on."""
    out: list[str] = []
    prev2 = prev = ""
    for ch in unicodedata.normalize("NFC", text):
        attach = False
        if prev and prev not in _SINGLETON:
            if ch in _ATTACHING:
                attach = True
            elif prev == VIRAMA and prev2 in _CONSONANT_SET and ch not in _SINGLETON:
                attach = True
        if attach:
            out[-1] += ch
            prev2, prev = prev, ch
        else:
            out.append(ch)
            prev2, prev = "", ch
    return out


def _syllable(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.12:
        head = rng.choice(VOWELS)
        tail = ""
    else:
        head = rng.choice(CONJUNCTS) if r < 0.35 else rng.choice(CONSONANTS)
        tail = rng.choice(MATRAS) if rng.random() < 0.55 else ""
    if rng.random() < 0.08:
        tail += rng.choice(MODIFIERS)
    return head + tail


def _word(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return "".join(rng.choice(DIGITS) for _ in range(rng.randint(1, 3)))
    return "".join(_syllable(rng) for _ in range(rng.randint(1, 4)))


def make_phrase(rng: random.Random, target: int) -> str:
    """Words joined by spaces, about ``target`` stream symbols long."""
    words: list[str] = []
    length = -1
    while length < target:
        w = _word(rng)
        words.append(w)
        length += 1 + stream_length(w)
    return " ".join(words)


def _intended_keys(phrase: str, unit_keys: bool) -> list[tuple[str, str]]:
    """The error-free key sequence: ("char", cp) or ("unit", conjunct)."""
    keys: list[tuple[str, str]] = []
    i = 0
    while i < len(phrase):
        if unit_keys:
            for conj in sorted(CONJUNCTS, key=len, reverse=True):
                if phrase.startswith(conj, i):
                    keys.append(("unit", conj))
                    i += len(conj)
                    break
            else:
                keys.append(("char", phrase[i]))
                i += 1
        else:
            keys.append(("char", phrase[i]))
            i += 1
    return keys


@dataclass
class Typed:
    events: list[dict]
    transcribed: str
    erased: list[str]          # erased atoms under the technique's replay
    erased_codepoints: int     # erased under a per-codepoint replay


class _Typist:
    def __init__(self, rng: random.Random, unit_keys: bool, unit_bksp: bool):
        self.rng = rng
        self.unit_keys = unit_keys
        self.unit_bksp = unit_bksp
        self.events: list[dict] = []
        self.t = 0
        self.atoms: list[str] = []
        self.erased: list[str] = []
        # Per-codepoint shadow replay, as the glyph-level view does it.
        self.cps: list[str] = []
        self.erased_cps = 0

    def _emit(self, kind: str, payload: str = "") -> None:
        self.events.append({"t": self.t, "k": kind, "p": payload})
        self.t += self.rng.randint(*GAP_MS)

    def press(self, key: tuple[str, str]) -> None:
        if self.rng.random() < P_MOD:
            self._emit("mod")
        kind, payload = key
        self._emit(kind, payload)
        if kind == "unit" and self.unit_bksp:
            self.atoms.append(payload)
        else:
            self.atoms.extend(payload)
        self.cps.extend(payload)

    def backspace(self) -> None:
        self._emit("bksp")
        self.erased.append(self.atoms.pop())
        self.cps.pop()
        self.erased_cps += 1

    def stray(self, instead_of: tuple[str, str] | None) -> tuple[str, str]:
        if self.unit_keys and (instead_of is not None and instead_of[0] == "unit"
                               or self.rng.random() < 0.1):
            choices = [c for c in CONJUNCTS
                       if instead_of is None or c != instead_of[1]]
            return ("unit", self.rng.choice(choices))
        choices = [c for c in _STRAY_CHARS
                   if instead_of is None or c != instead_of[1]]
        return ("char", self.rng.choice(choices))


def type_phrase(rng: random.Random, phrase: str, unit_keys: bool,
                unit_bksp: bool) -> Typed:
    """Simulate entry of ``phrase``; see the module docstring."""
    keys = _intended_keys(phrase, unit_keys)
    typist = _Typist(rng, unit_keys, unit_bksp)
    i = 0
    while i < len(keys):
        mark, restart = len(typist.atoms), i
        r = rng.random()
        if r < P_OMIT:
            i += 1
        elif r < P_OMIT + P_SUBSTITUTE:
            typist.press(typist.stray(keys[i]))
            i += 1
        elif r < P_OMIT + P_SUBSTITUTE + P_INSERT:
            typist.press(typist.stray(None))
        else:
            typist.press(keys[i])
            i += 1
            continue
        if rng.random() < P_NOTICE:
            for _ in range(min(rng.randint(0, 2), len(keys) - i)):
                typist.press(keys[i])
                i += 1
            while len(typist.atoms) > mark:
                typist.backspace()
            i = restart
    if not typist.atoms:  # everything omitted: type one key so T is not empty
        typist.press(keys[0])
    # Replay joins the per-codepoint atoms and normalizes the result.
    transcribed = unicodedata.normalize("NFC", "".join(typist.atoms))
    return Typed(typist.events, transcribed, typist.erased, typist.erased_cps)


def profile_objects() -> list[dict]:
    out = []
    for tid, unit_keys, granularity in TECHNIQUES:
        units = sorted(CONJUNCTS) if unit_keys else []
        out.append({
            "technique_id": tid,
            "atomic_units": units,
            "unit_keys": {f"K{n:02d}": u for n, u in enumerate(units)},
            "backspace_granularity": granularity,
        })
    return out


def _truth(sid: str, tid: str, presented: str, typed: Typed) -> dict:
    events = typed.events
    is_length = len(events)
    os_t = stream_length(typed.transcribed)
    seconds = (events[-1]["t"] - events[0]["t"]) / 1000.0
    cl_t = len(clusters(typed.transcribed))
    return {
        "session_id": sid,
        "technique_id": tid,
        "presented": presented,
        "transcribed": typed.transcribed,
        "is_length": is_length,
        "os_p_length": stream_length(presented),
        "os_t_length": os_t,
        "seconds": seconds,
        "incorrect_fixed": sum(stream_length(a) for a in typed.erased),
        "fixes": sum(1 for e in events if e["k"] == "bksp"),
        "wpm_bn": _wpm(os_t, seconds),
        "kspc_bn": is_length / os_t,
        # The glyph-level view counts clusters and replays per codepoint.
        "naive_wpm_bn": _wpm(cl_t, seconds),
        "naive_kspc_bn": is_length / cl_t,
        "naive_incorrect_fixed": typed.erased_codepoints,
    }


def _wpm(length: int, seconds: float) -> float:
    if length == 1:
        return 0.0
    return (length - 1) / seconds * 60.0 / WORD_LENGTH_CHARS


def make_sessions(seed: int, lengths: list[int]) -> tuple[bytes, list[dict]]:
    """One session per target length, techniques in rotation.

    Returns the JSON Lines log and the per-session ground truth.
    """
    rng = random.Random(seed)
    lines = []
    truth = []
    for n, target in enumerate(lengths):
        tid, unit_keys, granularity = TECHNIQUES[n % len(TECHNIQUES)]
        presented = make_phrase(rng, target)
        typed = type_phrase(rng, presented, unit_keys, granularity == "unit")
        sid = f"s{n:05d}"
        lines.append(json.dumps({
            "session_id": sid,
            "technique_id": tid,
            "participant_id": f"p{n % 24:02d}",
            "presented": presented,
            "transcribed": typed.transcribed,
            "inf_override": None,
            "events": typed.events,
        }, ensure_ascii=False, separators=(",", ":")))
        truth.append(_truth(sid, tid, presented, typed))
    return ("\n".join(lines) + "\n").encode("utf-8"), truth


def profile_bytes() -> dict[str, bytes]:
    """Profile file name to file bytes."""
    return {f"{p['technique_id']}.json":
            (json.dumps(p, ensure_ascii=False, indent=1) + "\n").encode("utf-8")
            for p in profile_objects()}
