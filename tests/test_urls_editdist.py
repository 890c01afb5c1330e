"""Tests for repro.urls.editdist."""

from repro.urls.editdist import edit_distance, one_edit_apart, unique_neighbor


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("abc", "abc") == 0

    def test_substitution(self):
        assert edit_distance("may", "mai") == 1

    def test_insertion(self):
        assert edit_distance("abc", "abxc") == 1

    def test_deletion(self):
        assert edit_distance("abcd", "abd") == 1

    def test_empty_strings(self):
        assert edit_distance("", "") == 0
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    def test_symmetric(self):
        assert edit_distance("kitten", "sitting") == edit_distance(
            "sitting", "kitten"
        )

    def test_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_paper_typo_example(self):
        # The lnr.fr example: English "may" vs French "mai".
        a = "http://www.lnr.fr/top-14-26-may-1984.html"
        b = "http://www.lnr.fr/top-14-26-mai-1984.html"
        assert edit_distance(a, b) == 1

    def test_missing_separator_example(self):
        # The nj.com example: missing '?' before a parameter.
        a = "http://e.com/x.html?pagewanted=all"
        b = "http://e.com/x.htmlpagewanted=all"
        assert edit_distance(a, b) == 1


class TestOneEditApart:
    def test_agrees_with_exact_distance(self):
        pairs = [
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("abc", "ab", 1),
            ("abc", "xabc", 1),
            ("abc", "xyz", 3),
            ("short", "muchlongerstring", 13),
        ]
        for a, b, d in pairs:
            assert one_edit_apart(a, b) == (d == 1)
            assert one_edit_apart(b, a) == (d == 1)

    def test_length_difference_shortcut(self):
        assert not one_edit_apart("a", "abc")

    def test_identical_strings_are_not_one_edit_apart(self):
        assert not one_edit_apart("same", "same")
        assert one_edit_apart("same", "sane")


class TestUniqueNeighbor:
    def test_single_match(self):
        assert (
            unique_neighbor("storx.html", ["story.html", "index.html"])
            == "story.html"
        )

    def test_no_match(self):
        assert unique_neighbor("storx.html", ["index.html"]) is None

    def test_ambiguous_matches_return_none(self):
        # Numeric page-id families: many neighbours at distance 1.
        candidates = ["page1.html", "page2.html", "page3.html"]
        assert unique_neighbor("page9.html", candidates) is None

    def test_self_excluded(self):
        assert unique_neighbor("a.html", ["a.html"]) is None

    def test_exact_distance_required(self):
        # Distance 2 does not count as a typo correction.
        assert unique_neighbor("abcd", ["abxy"]) is None

    def test_empty_candidates(self):
        assert unique_neighbor("x", []) is None
