from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunflower_lab import Disk, Halfspace3, ParseError, Scene2, Scene3, SetFamily, point2, point3
from sunflower_lab.fileio import (
    dumps_scene,
    dumps_setfam,
    loads_scene,
    loads_setfam,
    read_scene,
    read_setfam,
    write_scene,
    write_setfam,
)


class TestSetfamFormat:
    def test_round_trip_is_fixed_point(self, tmp_path):
        fam = SetFamily.from_sets(5, [[0, 2, 4], [1], []], multifamily=True)
        p1 = tmp_path / "a.setfam"
        write_setfam(fam, p1)
        again = read_setfam(p1)
        assert again == fam
        p2 = tmp_path / "b.setfam"
        write_setfam(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_text_shape(self):
        fam = SetFamily.from_sets(3, [[0, 1]])
        assert dumps_setfam(fam) == "setfam 1 3 1\n2: 0 1\n"
        multi = SetFamily.from_sets(2, [[0], [0]], multifamily=True)
        assert dumps_setfam(multi).startswith("setfam 1 2 2 multi\n")

    def test_comments_blanks_and_crlf_tolerated(self):
        text = "# comment\r\nsetfam 1 3 2\r\n\r\n2: 0 1\r\n1: 2\r\n"
        fam = loads_setfam(text)
        assert fam.members == ((0, 1), (2,))

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            loads_setfam("setfam 1 3 1\n2: 0\n", path="x.setfam")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            loads_setfam("")
        with pytest.raises(ParseError):
            loads_setfam("setfam 2 1 0\n")
        with pytest.raises(ParseError):
            loads_setfam("setfam 1 3 1 weird\n1: 0\n")
        with pytest.raises(ParseError):
            loads_setfam("setfam 1 3 2\n1: 0\n")  # missing member line

    @pytest.mark.parametrize("token, value", [("1_0", 10), ("+7", 7), ("\u0667", 7)])
    def test_only_ascii_digit_integers(self, token, value):
        # int() would take each token as value; every count, size and element
        # here is otherwise consistent with it
        texts = [
            f"setfam 1 {token} 1\n1: 0\n",
            f"setfam 1 1 {token} multi\n" + "1: 0\n" * value,
            f"setfam 1 {value} 1\n{token}: " + " ".join(map(str, range(value))) + "\n",
            f"setfam 1 {value + 1} 1\n1: {token}\n",
        ]
        for text in texts:
            with pytest.raises(ParseError):
                loads_setfam(text)

    def test_invalid_family_reported_as_parse_error(self):
        with pytest.raises(ParseError):
            loads_setfam("setfam 1 2 1\n1: 5\n")  # element out of range
        with pytest.raises(ParseError):
            loads_setfam("setfam 1 2 2\n1: 0\n1: 0\n")  # dup without multi flag


class TestSceneFormat:
    def test_scene2_round_trip(self, tmp_path):
        scene = Scene2(
            points=(point2(Fraction(1, 2), 0), point2(3, Fraction(-7, 3))),
            disks=(Disk(point2(0, 0), Fraction(5, 2)),),
        )
        path = tmp_path / "s.scene"
        write_scene(scene, path)
        again = read_scene(path)
        assert again == scene
        path2 = tmp_path / "t.scene"
        write_scene(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_scene3_round_trip(self):
        scene = Scene3(
            points=(point3(0, 0, 1), point3(1, 2, 3)),
            halfspaces=(Halfspace3(Fraction(1), Fraction(0), Fraction(-2, 5), Fraction(7)),),
        )
        assert loads_scene(dumps_scene(scene)) == scene

    def test_rationals_and_integers_accepted(self):
        scene = loads_scene("scene2 1 1\np 1/2 -3\nd 0 0 9/4\n")
        assert scene.points[0].x == Fraction(1, 2)
        assert scene.disks[0].radius_squared == Fraction(9, 4)

    def test_bad_rational_rejected(self):
        with pytest.raises(ParseError):
            loads_scene("scene2 1 1\np 1/0 2\n")

    @pytest.mark.parametrize("token", ["1e5", "0.5", "1_0"])
    def test_only_integer_and_fraction_tokens(self, token):
        # Fraction() would take these; the format has only int and num/den
        with pytest.raises(ParseError):
            loads_scene(f"scene2 1 1\np {token} 2\n")

    @pytest.mark.parametrize("token, value", [("1_0", 10), ("+7", 7), ("\u0667", 7)])
    def test_point_count_is_ascii_digits(self, token, value):
        with pytest.raises(ParseError):
            loads_scene(f"scene2 1 {token}\n" + "".join(f"p {i} 0\n" for i in range(value)))

    def test_wrong_counts_rejected(self):
        with pytest.raises(ParseError):
            loads_scene("scene2 1 2\np 0 0\n")
        with pytest.raises(ParseError):
            loads_scene("scene2 1 1\np 0 0\np 1 1\n")

    def test_tags_must_match_dimension(self):
        with pytest.raises(ParseError):
            loads_scene("scene2 1 1\np 0 0\nh 1 0 0 0\n")
        with pytest.raises(ParseError):
            loads_scene("scene3 1 1\np 0 0 0\nd 0 0 1\n")


# Token soups for the loaders: a valid text of either format with a few
# tokens replaced, inserted or dropped, and lines dropped or duplicated.  The
# tokens include the forms the formats refuse: signs, underscores, exponents,
# zero denominators, non-ASCII digits and sizes past the ground's range.
_VALID = [
    "setfam 1 3 2\n2: 0 1\n1: 2\n",
    "setfam 1 9 2 multi\n# note\n1: 8\n1: 8\n",
    "setfam 1 0 1\n0:\n",
    "scene2 1 2\np 0 0\np 1/2 -3\nd 0 0 1\n",
    "scene3 1 1\np 1 2 3\nh 1 0 0 -1/2\n",
]
_TOKENS = ["setfam", "scene2", "scene3", "multi", "p", "d", "h", "#", ":", "0", "1", "2",
           "0:", "1:", "2:", "-1", "+2", "1/2", "-3/4", "0/0", "1/0", "1_0", "1e3", "2.5",
           "4294967296", "\u0667", "x", ""]


@st.composite
def _soups(draw):
    lines = [line.split(" ") for line in draw(st.sampled_from(_VALID)).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        edit = draw(st.sampled_from(["replace", "insert", "drop", "drop line", "copy line"]))
        if edit == "replace" and j < len(lines[i]):
            lines[i][j] = draw(st.sampled_from(_TOKENS))
        elif edit == "insert":
            lines[i].insert(j, draw(st.sampled_from(_TOKENS)))
        elif edit == "drop" and j < len(lines[i]):
            del lines[i][j]
        elif edit == "drop line" and len(lines) > 1:
            del lines[i]
        elif edit == "copy line":
            lines.insert(i, list(lines[i]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(" ".join(line) + eol for line in lines)


class TestLoaderFuzz:
    @pytest.mark.parametrize(
        "loads, dumps", [(loads_setfam, dumps_setfam), (loads_scene, dumps_scene)]
    )
    @settings(max_examples=400, deadline=None)
    @given(text=_soups())
    def test_raises_only_parse_error_and_round_trips(self, loads, dumps, text):
        try:
            parsed = loads(text)
        except ParseError:
            return
        out = dumps(parsed)
        assert loads(out) == parsed
        assert dumps(loads(out)) == out
