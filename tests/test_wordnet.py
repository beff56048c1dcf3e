import hashlib
import logging
import marshal
import os
import re
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from wn_fixture import SYNSETS

from termsift import cache as cache_mod
from termsift import porter, wordnet
from termsift.cli import main
from termsift.errors import WordNetFormatError
from termsift.pipeline import PipelineConfig, TermVectors, build_vocabulary
from termsift.textprep import TermVector
from termsift.wordnet import (
    REQUIRED_FILES,
    annotate_terms,
    lexical_categories,
    load_wordnet,
)

PINNED = Path(__file__).parent / "fixtures" / "wordnet"
VOC = Path(__file__).parent / "fixtures" / "porter" / "voc.txt"

# The shape of a token, a Porter stem and a detached base form: letters only.
token_shaped = re.compile(r"[a-z]+").fullmatch


def _fixture_lemmas() -> dict[str, dict[str, set[str]]]:
    """Part of speech -> each fixture lemma, lower-cased -> its categories."""
    lemmas: dict[str, dict[str, set[str]]] = {"n": {}, "v": {}}
    for pos, lexname, words, *_ in SYNSETS.values():
        for word in words:
            lemmas[pos].setdefault(word.lower(), set()).add(lexname)
    return lemmas


FIXTURE_LEMMAS = _fixture_lemmas()
ALL_LEMMAS = sorted(FIXTURE_LEMMAS["n"].keys() | FIXTURE_LEMMAS["v"].keys())


class TestLoad:
    def test_version_detected_from_header(self, wordnet_db):
        assert wordnet_db.version == "2.1"

    def test_counts(self, wordnet_db):
        assert wordnet_db.synset_count == 45
        assert wordnet_db.lemma_count > 60

    def test_every_lemma_has_categories(self, wordnet_db):
        assert sum(not token_shaped(lemma) for lemma in ALL_LEMMAS) == 15  # collocations
        for lemma in ALL_LEMMAS:
            expected = (FIXTURE_LEMMAS["n"].get(lemma, set())
                        | FIXTURE_LEMMAS["v"].get(lemma, set()))
            assert lexical_categories(wordnet_db, lemma).categories == expected, lemma
        assert wordnet_db.lemma_count == len(FIXTURE_LEMMAS["n"]) + len(FIXTURE_LEMMAS["v"])
        assert wordnet_db.synset_count == 45

    def test_maps_hold_exactly_the_token_shaped_lemmas(self, wordnet_db):
        other_maps = marshal.loads(wordnet_db.other_lemmas)
        for pos, index, other in zip("nv", (wordnet_db.noun, wordnet_db.verb), other_maps):
            expected = FIXTURE_LEMMAS[pos]
            assert index == {w: c for w, c in expected.items() if token_shaped(w)}
            assert other == {w: c for w, c in expected.items() if not token_shaped(w)}

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wordnet(tmp_path / "nope")

    @pytest.mark.parametrize("victim", REQUIRED_FILES)
    def test_missing_file(self, wordnet_dir, tmp_path, victim):
        broken = tmp_path / "broken"
        shutil.copytree(wordnet_dir, broken)
        (broken / victim).unlink()
        with pytest.raises(FileNotFoundError) as exc:
            load_wordnet(broken)
        assert victim in str(exc.value)

    def test_offset_mismatch_rejected(self, wordnet_dir, tmp_path):
        broken = tmp_path / "badoffset"
        shutil.copytree(wordnet_dir, broken)
        data = broken / "data.noun"
        lines = data.read_text().splitlines(keepends=True)
        for i, line in enumerate(lines):
            if not line.startswith("  "):
                lines[i] = "99999999" + line[8:]
                break
        data.write_text("".join(lines))
        with pytest.raises(WordNetFormatError) as exc:
            load_wordnet(broken)
        assert "data.noun" in str(exc.value)

    def test_malformed_index_line_rejected(self, wordnet_dir, tmp_path):
        broken = tmp_path / "badindex"
        shutil.copytree(wordnet_dir, broken)
        with (broken / "index.noun").open("a") as f:
            f.write("garbled n notanumber\n")
        with pytest.raises(WordNetFormatError) as exc:
            load_wordnet(broken)
        assert "index.noun" in str(exc.value)

    def test_dangling_index_offset_rejected(self, wordnet_dir, tmp_path):
        broken = tmp_path / "dangling"
        shutil.copytree(wordnet_dir, broken)
        index = broken / "index.noun"
        lineno = _line_count(index) + 1
        with index.open("a") as f:
            f.write("zzzz n 1 0 1 0 00000042  \n")
        with pytest.raises(WordNetFormatError) as exc:
            load_wordnet(broken)
        assert f"{index}:{lineno}: lemma 'zzzz' references unknown synset offset 42" in str(exc.value)

    def test_unknown_lexfile_rejected(self, wordnet_dir, tmp_path):
        broken = tmp_path / "badlex"
        shutil.copytree(wordnet_dir, broken)
        lex = broken / "lexnames"
        lines = [l for l in lex.read_text().splitlines(keepends=True) if "noun.animal" not in l]
        lex.write_text("".join(lines))
        data = broken / "data.noun"
        # the first synset filed under noun.animal (05) is the one reported
        lineno = next(i for i, line in enumerate(data.read_text().splitlines(), 1)
                      if line.split()[1] == "05")
        with pytest.raises(WordNetFormatError) as exc:
            load_wordnet(broken)
        assert f"{data}:{lineno}: malformed data line: lexicographer file 5" in str(exc.value)

    def test_missing_word_fields_rejected(self, wordnet_dir, tmp_path):
        broken = tmp_path / "shortwords"
        shutil.copytree(wordnet_dir, broken)
        data = broken / "data.noun"
        lineno = _line_count(data) + 1
        with data.open("ab") as f:
            # three words declared, one given
            f.write(f"{data.stat().st_size:08d} 05 n 03 dog 0\n".encode())
        with pytest.raises(WordNetFormatError) as exc:
            load_wordnet(broken)
        assert f"{data}:{lineno}: malformed data line: " in str(exc.value)
        assert "3 words" in str(exc.value)

    def test_blank_lexnames_lines_are_skipped(self, wordnet_dir, wordnet_db, tmp_path):
        spaced = shutil.copytree(wordnet_dir, tmp_path / "spaced")
        lex = spaced / "lexnames"
        lex.write_text("\n" + lex.read_text().replace("\n", "\n  \n", 1))
        assert load_wordnet(spaced) == wordnet_db

    def test_malformed_lexnames_line_rejected(self, wordnet_dir, tmp_path):
        broken = shutil.copytree(wordnet_dir, tmp_path / "badlexnames")
        lex = broken / "lexnames"
        lineno = _line_count(lex) + 1
        with lex.open("a") as f:
            f.write("noun.extra\t45\n")
        with pytest.raises(WordNetFormatError) as exc:
            load_wordnet(broken)
        assert str(exc.value).startswith(f"{lex}:{lineno}: malformed lexnames line: ")

    @pytest.mark.parametrize("line, reason", [
        ("{offset:08d} 05 v 01 dog 0 000 | a dog\n", "synset type 'v', expected 'n'"),
        ("{offset:08d} 05 n 00 dog 0 000 | a dog\n", "synset with no words"),
    ], ids=["synset-type", "no-words"])
    def test_data_line_checks(self, wordnet_dir, tmp_path, line, reason):
        broken = shutil.copytree(wordnet_dir, tmp_path / "baddata")
        data = broken / "data.noun"
        lineno = _line_count(data) + 1
        with data.open("a") as f:
            f.write(line.format(offset=data.stat().st_size))
        with pytest.raises(WordNetFormatError) as exc:
            load_wordnet(broken)
        assert str(exc.value) == f"{data}:{lineno}: malformed data line: {reason}"

    @pytest.mark.parametrize("line, reason", [
        ("zzzz v 1 0 1 0 {offset}  \n", "part of speech 'v', expected 'n'"),
        ("zzzz n 2 0 2 0 {offset}  \n", "2 synsets declared, 1 offsets given"),
    ], ids=["part-of-speech", "synset-count"])
    def test_index_line_checks(self, wordnet_dir, tmp_path, line, reason):
        broken = shutil.copytree(wordnet_dir, tmp_path / "badindex")
        index = broken / "index.noun"
        lineno = _line_count(index) + 1
        offset = index.read_text().split()[-1]  # a synset the noun files hold
        with index.open("a") as f:
            f.write(line.format(offset=offset))
        with pytest.raises(WordNetFormatError) as exc:
            load_wordnet(broken)
        assert str(exc.value) == f"{index}:{lineno}: malformed index line: {reason}"


class TestCache:
    """The parsed database is cached under $XDG_CACHE_HOME/termsift, keyed by
    the files' contents; every cache fault falls back to the parse."""

    @pytest.fixture()
    def db_dir(self, wordnet_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        return shutil.copytree(wordnet_dir, tmp_path / "db")

    @staticmethod
    def entries(tmp_path: Path) -> list[Path]:
        cache = tmp_path / "cache" / "termsift"
        return sorted(cache.iterdir()) if cache.is_dir() else []

    @staticmethod
    def forbid_parse(monkeypatch):
        def parse(*_):
            raise AssertionError("parsed instead of reading the cache")
        for helper in ("_parse_lexnames", "_parse_data", "_parse_index"):
            monkeypatch.setattr(wordnet, helper, parse)

    def test_second_load_is_a_hit(self, db_dir, tmp_path, monkeypatch):
        first = load_wordnet(db_dir)
        [entry] = self.entries(tmp_path)
        assert (entry.parent.stat().st_mode & 0o777) == 0o700
        self.forbid_parse(monkeypatch)
        second = load_wordnet(db_dir)
        assert second == first
        sets = [*second.noun.values(), *second.verb.values()]
        assert len({id(c) for c in sets}) == len(set(sets))  # equal sets stay one object

    def test_format_3_entry_is_a_hit(self, db_dir, tmp_path, monkeypatch):
        # the entry layout (unchanged since the WordNet cache's format 3) and its
        # key, built here by hand
        parsed = load_wordnet(db_dir)
        [entry] = self.entries(tmp_path)
        key = hashlib.sha256(f"termsift wordnet cache, marshal {marshal.version}, python "
                             f"{sys.version_info[0]}.{sys.version_info[1]}".encode())
        for path in (Path(cache_mod.__file__), Path(wordnet.__file__),
                     *(db_dir / name for name in REQUIRED_FILES)):
            key.update(hashlib.sha256(path.read_bytes()).digest())
        rest = os.fsencode(db_dir.resolve()) + b"\0" + marshal.dumps(parsed.astuple())
        assert entry.read_bytes() == key.digest() + hashlib.sha256(rest).digest() + rest
        self.forbid_parse(monkeypatch)
        assert load_wordnet(db_dir) == parsed

    def test_edited_database_is_checked_again(self, db_dir, tmp_path):
        load_wordnet(db_dir)
        index = db_dir / "index.noun"
        lines = index.read_bytes().splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines, 1) if not line.startswith(b" "))
        lines[lineno - 1] = b"garbled n notanumber\n"
        index.write_bytes(b"".join(lines))
        with pytest.raises(WordNetFormatError, match=f"index.noun:{lineno}: malformed index line"):
            load_wordnet(db_dir)

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "empty", "payload-digest"])
    def test_damaged_entry_is_a_miss_and_rewritten(self, db_dir, tmp_path, damage):
        parsed = load_wordnet(db_dir)
        [entry] = self.entries(tmp_path)
        good = entry.read_bytes()
        entry.write_bytes({"truncate": good[: len(good) // 2],
                           "garbage": good[:64] + b"\x00garbage" * 50,
                           "empty": b"",
                           # a well-formed payload that is not the one the digest names
                           "payload-digest": good[:64] + marshal.dumps(({}, {}, 0, "x")),
                           }[damage])
        assert load_wordnet(db_dir) == parsed
        assert entry.read_bytes() == good

    @pytest.mark.parametrize("body, decoded", [
        (b"no separator before the payload", 0),
        (b"/db\0\xffnot marshal data", 1),
    ], ids=["no-separator", "undecodable-payload"])
    def test_entry_with_a_valid_digest_but_no_payload_is_a_miss(self, db_dir, tmp_path,
                                                                 monkeypatch, body, decoded):
        parsed = load_wordnet(db_dir)
        [entry] = self.entries(tmp_path)
        good = entry.read_bytes()
        entry.write_bytes(good[:32] + hashlib.sha256(body).digest() + body)
        calls = []
        loads = marshal.loads
        monkeypatch.setattr(marshal, "loads", lambda data: calls.append(data) or loads(data))
        assert load_wordnet(db_dir) == parsed
        assert len(calls) == decoded  # an entry with no NUL is not decoded at all
        assert entry.read_bytes() == good

    def test_edited_wordnet_module_is_a_miss_and_rewritten(self, db_dir, tmp_path,
                                                           monkeypatch):
        parsed = load_wordnet(db_dir)
        [entry] = self.entries(tmp_path)
        good = entry.read_bytes()
        # an edited reader: the same code and a comment, in another file
        edited = tmp_path / "wordnet.py"
        edited.write_text(Path(wordnet.__file__).read_text(encoding="utf-8") + "# edited\n",
                          encoding="utf-8")
        monkeypatch.setattr(wordnet, "_SOURCES", (edited,))
        parses = []
        parse = wordnet._parse_wordnet
        monkeypatch.setattr(wordnet, "_parse_wordnet",
                            lambda root: parses.append(root) or parse(root))
        assert load_wordnet(db_dir) == parsed
        assert len(parses) == 1
        rewritten = entry.read_bytes()
        assert rewritten[:32] != good[:32]
        assert rewritten[32:] == good[32:]
        self.forbid_parse(monkeypatch)
        assert load_wordnet(db_dir) == parsed  # the rewritten entry is a hit

    def test_hit_leaves_the_other_lemmas_undecoded(self, db_dir, tmp_path, monkeypatch):
        load_wordnet(db_dir)
        self.forbid_parse(monkeypatch)
        db = load_wordnet(db_dir)
        assert "other_maps" not in vars(db)
        assert lexical_categories(db, "adult_male").categories == {"noun.person"}
        decoded = vars(db)["other_maps"]
        assert lexical_categories(db, "church_building").categories == {"noun.artifact"}
        assert vars(db)["other_maps"] is decoded  # decoded once, then kept

    @pytest.mark.parametrize("blocker", ["file", "no-permission", "entry-is-directory"])
    def test_unwritable_cache_still_loads(self, db_dir, tmp_path, monkeypatch, caplog, blocker):
        cache = tmp_path / "cache" / "termsift"
        if blocker == "file":
            cache.parent.mkdir()
            cache.write_text("not a directory\n")
        elif blocker == "no-permission":  # what a read-only directory gives a non-root user
            os_open = os.open

            def refuse(path, *args, **kwargs):  # the writer's temporary file, beside the entry
                if os.path.dirname(path) == str(cache) and str(path).endswith(".tmp"):
                    raise PermissionError(13, "Permission denied", str(path))
                return os_open(path, *args, **kwargs)
            monkeypatch.setattr(os, "open", refuse)
        else:
            cache.mkdir(parents=True)
            (cache / cache_mod.entry_path("wordnet", db_dir).name).mkdir()
        with caplog.at_level(logging.INFO, logger="termsift.cache"):
            assert load_wordnet(db_dir).synset_count == 45
            assert load_wordnet(db_dir).synset_count == 45
        assert sum("cache not written" in m for m in caplog.messages) == 2
        if blocker == "entry-is-directory":
            assert [p.name for p in cache.iterdir()] == [
                cache_mod.entry_path("wordnet", db_dir).name]

    def test_entries_of_deleted_databases_are_removed(self, db_dir, tmp_path, caplog):
        b_dir, c_dir = (shutil.copytree(db_dir, tmp_path / name) for name in ("b", "c"))
        load_wordnet(db_dir)
        load_wordnet(b_dir)
        unreadable = tmp_path / "cache" / "termsift" / "wordnet-unreadable.marshal"
        unreadable.mkdir()
        assert len(self.entries(tmp_path)) == 3
        shutil.rmtree(db_dir)
        with caplog.at_level(logging.INFO, logger="termsift.cache"):
            load_wordnet(c_dir)
        kept = sorted([unreadable.name,
                       *(cache_mod.entry_path("wordnet", d).name for d in (b_dir, c_dir))])
        assert [p.name for p in self.entries(tmp_path)] == kept
        # the entry that cannot be read is logged and left; the load still succeeds
        assert sum("wordnet-unreadable.marshal not pruned" in m for m in caplog.messages) == 1

    def test_unlistable_cache_still_loads(self, db_dir, tmp_path, monkeypatch, caplog):
        def vanished(*_):  # the directory removed between the write and the listing
            raise FileNotFoundError(2, "No such file or directory")

        monkeypatch.setattr(wordnet.Path, "glob", vanished)
        with caplog.at_level(logging.INFO, logger="termsift.cache"):
            assert load_wordnet(db_dir).synset_count == 45
        assert any(m.endswith("not pruned: [Errno 2] No such file or directory")
                   for m in caplog.messages)

    def test_malformed_database_is_never_cached(self, db_dir, tmp_path):
        with (db_dir / "index.verb").open("a") as f:
            f.write("garbled v notanumber\n")
        for _ in range(2):
            with pytest.raises(WordNetFormatError, match="index.verb"):
                load_wordnet(db_dir)
        assert self.entries(tmp_path) == []


def _line_count(path: Path) -> int:
    return path.read_bytes().count(b"\n")


class TestLookup:
    def test_single_category_noun(self, wordnet_db):
        entry = lexical_categories(wordnet_db, "dog")
        assert entry.in_wordnet
        assert entry.categories == {"noun.animal"}

    def test_polysemy_across_files(self, wordnet_db):
        entry = lexical_categories(wordnet_db, "washington")
        assert entry.categories == {"noun.location", "noun.group", "noun.person"}

    def test_noun_and_verb_union(self, wordnet_db):
        entry = lexical_categories(wordnet_db, "harvest")
        assert entry.categories == {"noun.act", "verb.contact"}

    def test_verb_only(self, wordnet_db):
        assert lexical_categories(wordnet_db, "concur").categories == {"verb.stative"}

    def test_unknown_word(self, wordnet_db):
        entry = lexical_categories(wordnet_db, "zzyzx")
        assert not entry.in_wordnet
        assert entry.categories == frozenset()

    @pytest.mark.parametrize("word", ["domestic_dog", "get_together", "zzyzx_qq", "",
                                      "dog's", "x-ray", "dog2"])
    def test_word_that_is_not_token_shaped(self, wordnet_db, word):
        expected = FIXTURE_LEMMAS["n"].get(word, set()) | FIXTURE_LEMMAS["v"].get(word, set())
        assert lexical_categories(wordnet_db, word).categories == expected


class _EveryWord(dict):
    """An index that holds every word, so ``_detached`` returns every candidate."""

    def __contains__(self, word):
        return True


def detachment_candidates(word: str) -> list[str]:
    """Every form the detachment rules make from ``word``, as ``annotate_terms`` tries them."""
    rules = wordnet._RULES_BY_LAST_LETTER.get(word[-1:], wordnet._NO_RULES)
    return [cand for side_rules in rules
            for cand in wordnet._detached(word, side_rules, _EveryWord())]


class TestPipelineWordsAreTokenShaped:
    """The split of the WordNet maps rests on this: every word ``annotate_terms``
    looks up (a token, its Porter stem, or a form the detachment rules make
    from either) is letters only, so it can only be a token-shaped lemma."""

    @pytest.fixture(scope="class")
    def voc(self):
        words = VOC.read_text().split()
        assert len(words) == 23677 and all(map(token_shaped, words))
        return words

    def test_every_stem_of_the_fixture_vocabulary(self, voc):
        assert [w for w in voc if not token_shaped(porter.stem(w))] == []

    def test_every_detachment_candidate_of_the_fixture_vocabulary(self, voc):
        words = set(voc) | {porter.stem(w) for w in voc}
        # a word ending in each rule's suffix, so that every rule is tried
        words |= {"qq" + suffix for suffix, _ in wordnet._NOUN_RULES + wordnet._VERB_RULES}
        candidates = {cand for word in words for cand in detachment_candidates(word)}
        assert len(candidates) > 6000
        assert sorted(c for c in candidates if not token_shaped(c)) == []

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.from_regex(r"[a-zA-Z_]{1,6}", fullmatch=True))
    @example("Dog")
    @example("")
    @example("dog\n")
    @example("ǆ")
    @example("ª")
    def test_the_shape_check_is_the_pattern(self, word):
        assert wordnet._token_shaped(word) == bool(token_shaped(word))

    @settings(max_examples=300, deadline=None)
    @given(st.from_regex(r"[a-z]{2,12}", fullmatch=True))
    def test_any_token(self, token):
        stem = porter.stem(token)
        assert token_shaped(stem)
        assert all(token_shaped(c) for w in (token, stem) for c in detachment_candidates(w))


# The detachment rules written out again, all 16 tried in order with no
# grouping, and the lookup cascade on top of them: the reference for
# ``annotate_terms``.
REFERENCE_RULES = {
    "noun": (("s", ""), ("ses", "s"), ("xes", "x"), ("zes", "z"), ("ches", "ch"),
             ("shes", "sh"), ("men", "man"), ("ies", "y")),
    "verb": (("s", ""), ("ies", "y"), ("es", "e"), ("es", ""), ("ed", "e"), ("ed", ""),
             ("ing", "e"), ("ing", "")),
}


def reference_base_forms(db, word, pos):
    index = db.noun if pos == "noun" else db.verb
    found = [word] if word in index else []
    for suffix, replacement in REFERENCE_RULES[pos]:
        if word.endswith(suffix):
            cand = word[: len(word) - len(suffix)] + replacement
            if cand and cand in index and cand not in found:
                found.append(cand)
    return found


def reference_categories(db, stem, surfaces):
    def cats(word):
        return db.noun.get(word, frozenset()) | db.verb.get(word, frozenset())

    if cats(stem):
        return cats(stem)
    found = set().union(*(cats(s) for s in surfaces))
    if found:
        return found
    return set().union(*(cats(c) for s in surfaces for pos in ("noun", "verb")
                         for c in reference_base_forms(db, s, pos)))


class TestCascadeAgainstReference:
    @pytest.fixture(scope="class")
    def words(self):
        """Every token-shaped fixture lemma, each rule's inflection of it, and a few misses."""
        lemmas = [lemma for lemma in ALL_LEMMAS if token_shaped(lemma)]
        inflected = {lemma[: len(lemma) - len(replacement)] + suffix
                     for lemma in lemmas
                     for rules in REFERENCE_RULES.values()
                     for suffix, replacement in rules if lemma.endswith(replacement)}
        return sorted(set(lemmas) | inflected | {"", "s", "es", "ing", "zzyzx", "qqmen"})

    def test_annotations(self, wordnet_db, words):
        # each word as its own stem, as the one surface of a stem no index
        # holds, and inflections grouped under one such stem per lemma
        originals = {}
        for word in words:
            originals.setdefault(word or "qqempty", set()).add(word)
            originals.setdefault(f"qq{word}", set()).add(word)
        for lemma in filter(token_shaped, ALL_LEMMAS):
            originals[f"qqgroup{lemma}"] = {w for w in words if w.startswith(lemma[:3])}
        _, annotations = annotate_terms(wordnet_db, originals)
        assert set(annotations) == set(originals)
        via_detachment = 0
        for stem, surfaces in originals.items():
            expected = reference_categories(wordnet_db, stem, surfaces)
            assert annotations[stem].categories == expected, stem
            if expected and not any(lexical_categories(wordnet_db, w).in_wordnet
                                    for w in [stem, *surfaces]):
                via_detachment += 1
        assert via_detachment > 20  # detachment-only inflections are exercised


class TestAnnotate:
    VECTORS = [
        TermVector("d1", {"dog": 2, "qqfoo": 1, "agre": 1}),
        TermVector("d2", {"poni": 3, "qqfoo": 2}),
    ]
    ORIGINALS = {
        "dog": {"dog", "dogs"},
        "qqfoo": {"qqfoo"},
        "agre": {"agreed"},
        "poni": {"ponies"},
    }
    # step 3's surface -> stem map of the same forms
    STEM_OF = {surface: stem for stem, surfaces in ORIGINALS.items() for surface in surfaces}

    def vocabulary(self, db, policy, min_count=1):
        terms = TermVectors(self.VECTORS, self.STEM_OF, token_counts=[4, 5])
        config = PipelineConfig(corpus_path="unused", wordnet_policy=policy, min_count=min_count)
        return build_vocabulary(terms, db, config)

    def test_annotate_only_passthrough(self, wordnet_db):
        categorised, annotations = annotate_terms(wordnet_db, self.ORIGINALS)
        assert set(annotations) == set(self.ORIGINALS)
        assert categorised == {"dog", "agre", "poni"}
        assert annotations["dog"].categories == {"noun.animal"}
        assert not annotations["qqfoo"].in_wordnet
        index, kept = self.vocabulary(wordnet_db, "annotate-only")
        assert index.vocabulary == ("agre", "dog", "poni", "qqfoo")
        assert [tuple(r) for r in index.tf] == [(1 / 4, 2 / 4, 1 / 4), (3 / 5, 2 / 5)]
        assert kept == annotations

    def test_lookup_cascade_surface_then_base(self, wordnet_db):
        _, annotations = annotate_terms(wordnet_db, self.ORIGINALS)
        # "poni" is no lemma but its surface "ponies" detaches to "pony"
        assert annotations["poni"].categories == {"noun.animal"}
        # "agre"/"agreed" resolve only through the verb detachment rules
        assert annotations["agre"].categories == {"verb.stative"}

    def test_filter_policy_drops_unknown_terms(self, wordnet_db):
        index, annotations = self.vocabulary(wordnet_db, "filter-nonwordnet")
        assert index.vocabulary == ("agre", "dog", "poni")
        assert [tuple(r) for r in index.tf] == [(1 / 3, 2 / 3), (3 / 3,)]  # totals recomputed
        assert "qqfoo" in annotations  # still annotated, just filtered
        # corpus totals: dog 2, qqfoo 3, agre 1, poni 3; the floor keeps
        # qqfoo and poni, and the filter of those only poni
        index, _ = self.vocabulary(wordnet_db, "filter-nonwordnet", min_count=3)
        assert index.vocabulary == ("poni",)
        assert [tuple(r) for r in index.tf] == [(), (3 / 3,)]


class TestPinnedOutputs:
    """Expected text for the fixture database: what ``lex`` prints for every
    fixture lemma (plus inflected and unknown words), and the
    ``lexical_categories.tsv`` a bundled-corpus ``select`` writes."""

    def test_lex_output(self, capsys, wordnet_dir):
        expected = (PINNED / "lex.tsv").read_text(encoding="utf-8")
        words = [line.split("\t")[0] for line in expected.splitlines()]
        assert main(["lex", *words, "--wordnet-dir", str(wordnet_dir)]) == 0
        assert capsys.readouterr().out == expected

    def test_lexical_categories_file(self, capsys, minicorpus_dir, wordnet_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["select", str(minicorpus_dir), "--layout", "class-subdirectories",
                     "--wordnet-dir", str(wordnet_dir), "--out", str(out)]) == 0
        expected = (PINNED / "minicorpus_lexical_categories.tsv").read_text(encoding="utf-8")
        assert (out / "lexical_categories.tsv").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("cache", ["no-cache", "cold", "warm"])
    def test_lex_output_of_every_fixture_lemma(self, capsys, wordnet_dir, tmp_path,
                                               monkeypatch, cache):
        expected = (PINNED / "lex.tsv").read_text(encoding="utf-8")
        words = [line.split("\t")[0] for line in expected.splitlines()]
        assert set(ALL_LEMMAS) <= set(words)
        if cache == "no-cache":  # no absolute cache directory, so every load parses
            monkeypatch.setenv("XDG_CACHE_HOME", "relative")
            monkeypatch.setenv("HOME", "relative")
            assert cache_mod.entry_path("wordnet", wordnet_dir) is None
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
            if cache == "warm":
                load_wordnet(wordnet_dir)
                TestCache.forbid_parse(monkeypatch)
        assert main(["lex", *words, "--wordnet-dir", str(wordnet_dir)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    @pytest.mark.parametrize("policy", ["annotate-only", "filter-nonwordnet"])
    def test_select_never_decodes_the_other_lemmas(self, capsys, minicorpus_dir, wordnet_dir,
                                                   tmp_path, monkeypatch, cache, policy):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        if cache == "warm":
            load_wordnet(wordnet_dir)
        decoded = []
        monkeypatch.setattr(wordnet.WordNetDb, "other_maps",
                            property(lambda db: decoded.append(db)))
        out = tmp_path / "out"
        assert main(["select", str(minicorpus_dir), "--layout", "class-subdirectories",
                     "--wordnet-dir", str(wordnet_dir), "--wordnet-policy", policy,
                     "--out", str(out)]) == 0
        expected = (PINNED / "minicorpus_lexical_categories.tsv").read_text(encoding="utf-8")
        assert (out / "lexical_categories.tsv").read_text(encoding="utf-8") == expected
        assert decoded == []
