import shutil
from pathlib import Path

import pytest
from wn_fixture import SYNSETS

from termsift.cli import main
from termsift.errors import WordNetFormatError
from termsift.textprep import TermVector
from termsift.wordnet import (
    REQUIRED_FILES,
    annotate_terms,
    base_forms,
    lexical_categories,
    load_wordnet,
)

PINNED = Path(__file__).parent / "fixtures" / "wordnet"


class TestLoad:
    def test_version_detected_from_header(self, wordnet_db):
        assert wordnet_db.version == "2.1"

    def test_counts(self, wordnet_db):
        assert wordnet_db.synset_count == 45
        assert wordnet_db.lemma_count > 60

    def test_every_lemma_has_categories(self, wordnet_db):
        expected = {"n": {}, "v": {}}
        for pos, lexname, words, *_ in SYNSETS.values():
            for word in words:
                expected[pos].setdefault(word.lower(), set()).add(lexname)
        assert wordnet_db.noun == expected["n"]
        assert wordnet_db.verb == expected["v"]
        assert all(wordnet_db.noun.values()) and all(wordnet_db.verb.values())
        assert wordnet_db.synset_count == 45

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


class TestBaseForms:
    @pytest.mark.parametrize(
        "word,pos,expected",
        [
            ("ponies", "noun", ["pony"]),
            ("churches", "noun", ["church"]),
            ("men", "noun", ["man"]),
            ("dogs", "noun", ["dog"]),
            ("dog", "noun", ["dog"]),
            ("agreed", "verb", ["agree"]),
            ("sailing", "verb", ["sail"]),
            ("pays", "verb", ["pay"]),
            ("zzyzx", "noun", []),
        ],
    )
    def test_detachment(self, wordnet_db, word, pos, expected):
        assert base_forms(wordnet_db, word, pos) == expected

    def test_indexed_word_comes_first(self, wordnet_db):
        # "harvesting" is itself a noun lemma; the detached verb base is
        # found via the verb rules
        assert base_forms(wordnet_db, "harvesting", "noun") == ["harvesting"]
        assert base_forms(wordnet_db, "harvesting", "verb") == ["harvest"]

    def test_bad_pos(self, wordnet_db):
        with pytest.raises(ValueError):
            base_forms(wordnet_db, "dog", "adjective")


class TestAnnotate:
    def make_vectors(self):
        return [
            TermVector("d1", {"dog": 2, "qqfoo": 1, "agre": 1}, 4),
            TermVector("d2", {"poni": 3, "qqfoo": 2}, 5),
        ]

    ORIGINALS = {
        "dog": {"dog", "dogs"},
        "qqfoo": {"qqfoo"},
        "agre": {"agreed"},
        "poni": {"ponies"},
    }

    def test_annotate_only_passthrough(self, wordnet_db):
        vectors = self.make_vectors()
        out, annotations = annotate_terms(wordnet_db, vectors, self.ORIGINALS)
        assert out == vectors
        assert annotations["dog"].categories == {"noun.animal"}
        assert not annotations["qqfoo"].in_wordnet

    def test_lookup_cascade_surface_then_base(self, wordnet_db):
        _, annotations = annotate_terms(wordnet_db, self.make_vectors(), self.ORIGINALS)
        # "poni" is no lemma but its surface "ponies" detaches to "pony"
        assert annotations["poni"].categories == {"noun.animal"}
        # "agre"/"agreed" resolve only through the verb detachment rules
        assert annotations["agre"].categories == {"verb.stative"}

    def test_filter_policy_drops_unknown_terms(self, wordnet_db):
        out, annotations = annotate_terms(
            wordnet_db, self.make_vectors(), self.ORIGINALS, policy="filter-nonwordnet"
        )
        assert out[0].counts == {"dog": 2, "agre": 1}
        assert out[0].total == 3
        assert out[1].counts == {"poni": 3}
        assert out[1].total == 3
        assert "qqfoo" in annotations  # still annotated, just filtered

    def test_unknown_policy(self, wordnet_db):
        with pytest.raises(ValueError):
            annotate_terms(wordnet_db, [], {}, policy="drop-everything")


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
