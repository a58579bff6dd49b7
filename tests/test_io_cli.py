import json
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominia import gallery
from dominia import (
    Game,
    SplitMix64,
    game_to_dict,
    generator_params,
    parse_game,
    random_game,
    serialize_game,
)
from dominia.cli import main
from dominia.errors import InvalidParams, ParseError
from dominia.gallery import nonconfluent_weak_2x2
from dominia.relations import NWM, PEM, SM, Inherent, Relation, W, parse_relation, union

G11 = nonconfluent_weak_2x2()

G11_JSON = json.dumps(
    {
        "players": 2,
        "strategies": [["T", "B"], ["L", "R"]],
        "payoffs": [[["2", "1"], ["2", "1"]], [["2", "1"], ["1", "0"]]],
    }
)


class TestGameIo:
    def test_parse_reference_fixture(self):
        assert parse_game(G11_JSON) == G11

    def test_round_trip_is_identity_on_canonical_form(self):
        text = serialize_game(G11)
        assert serialize_game(parse_game(text)) == text

    def test_parse_normalizes_rationals(self):
        doc = json.loads(G11_JSON)
        doc["payoffs"][0][0][0] = "4/2"
        g = parse_game(json.dumps(doc))
        assert g.payoff((0, 0), 0) == 2
        assert game_to_dict(g)["payoffs"][0][0][0] == "2"

    def test_zero_denominator_rejected(self):
        doc = json.loads(G11_JSON)
        doc["payoffs"][0][0][0] = "1/0"
        with pytest.raises(ParseError):
            parse_game(json.dumps(doc))

    def test_float_payoffs_rejected(self):
        doc = json.loads(G11_JSON)
        doc["payoffs"][0][0][0] = 1.5
        with pytest.raises(ParseError):
            parse_game(json.dumps(doc))

    def test_shape_mismatch_rejected(self):
        doc = json.loads(G11_JSON)
        doc["payoffs"][0] = doc["payoffs"][0][:1]
        with pytest.raises(ParseError):
            parse_game(json.dumps(doc))

    @pytest.mark.parametrize("value", ["1e5", "2E-3", "1.5e1"])
    def test_exponent_notation_rejected(self, value):
        doc = json.loads(G11_JSON)
        doc["payoffs"][0][1][0] = value
        with pytest.raises(ParseError, match=r"payoffs\[0, 1\]\[0\]"):
            parse_game(json.dumps(doc))

    @pytest.mark.parametrize("strategies", [[["T", "T"], ["L"]], [["T", ""], ["L"]], [["T", "L"], ["L"]], [[], ["L"]]])
    def test_bad_labels_rejected(self, strategies):
        payoffs = [[["0", "0"]] * len(strategies[1])] * len(strategies[0])
        doc = {"players": 2, "strategies": strategies, "payoffs": payoffs}
        with pytest.raises(ParseError):
            parse_game(json.dumps(doc))

    @pytest.mark.parametrize("text", ['{"players": 1' + "1" * 5000 + "}", "[" * 100000 + "]" * 100000])
    def test_oversized_json_rejected(self, text):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_game(text)

    def test_boolean_players_rejected(self):
        doc = {"players": True, "strategies": [["T"]], "payoffs": [["1"]]}
        with pytest.raises(ParseError):
            parse_game(json.dumps(doc))

    def test_not_json_rejected(self):
        with pytest.raises(ParseError):
            parse_game("not json at all")

    def test_awkward_rationals_survive_round_trip_bit_exactly(self):
        from dominia import new_game

        g = new_game(
            [["T", "B"], ["L"]],
            {("T", "L"): (F(-7, 3), F(355, 113)), ("B", "L"): (F(10**12, 7), F(0))},
        )
        back = parse_game(serialize_game(g))
        assert back == g
        assert back.payoff((0, 0), 0) == F(-7, 3)
        assert back.payoff((1, 0), 0) == F(10**12, 7)


class TestGenerator:
    def test_determinism(self):
        params = generator_params(2, (3, 3), -3, 3, F(1, 4), 42)
        assert serialize_game(random_game(params)) == serialize_game(random_game(params))

    def test_forced_duplicate_creates_pe_pair(self):
        from dominia import PE, dominates

        params = generator_params(2, (2, 2), -3, 3, F(1), 7)
        g = random_game(params)
        assert any(dominates(g, PE, i, 0, 1) for i in range(2))

    def test_zero_range_all_payoffs_zero(self):
        g = random_game(generator_params(2, (2, 2), 0, 0, F(0), 5))
        assert all(v == 0 for p in g.profiles() for v in g.payoff_vector(p))

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            generator_params(9, 2, -3, 3, F(1, 4), 1)
        with pytest.raises(InvalidParams):
            generator_params(2, 2, 3, -3, F(1, 4), 1)
        with pytest.raises(InvalidParams):
            generator_params(2, 2, -3, 3, F(3, 2), 1)

    def test_splitmix_reference_values(self):
        # first outputs for seed 0; pinned so cross-platform drift is caught
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_label_disjointness_across_players(self):
        g = random_game(generator_params(3, (2, 2, 2), -1, 1, F(0), 3))
        flat = [lab for labs in g.strategies for lab in labs]
        assert len(set(flat)) == len(flat)


class TestRelationParsing:
    def test_inherent_of_a_base(self):
        assert parse_relation("inh-W") == Inherent(W)

    @pytest.mark.parametrize("text", ["inh-inh-W", "INH-inh-SM"])
    def test_nested_inherent_rejected(self, text):
        with pytest.raises(ParseError):
            parse_relation(text)

    def test_kind_is_read_off_the_tags(self):
        assert Relation(("SM",)) == SM and hash(Relation(("SM",))) == hash(SM)
        assert parse_relation("nwm+pem") == union(NWM, PEM) and union(NWM, PEM).mixed
        assert not parse_relation("NW+PE").mixed

    @pytest.mark.parametrize(
        "text, message",
        [
            ("S+SM", "cannot union pure and mixed relations: 'S+SM'"),
            ("S+FOO", "unknown relation 'FOO'"),
            ("S+S", "duplicate members in union ('S', 'S')"),
        ],
    )
    def test_bad_union_rejected(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_relation(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            Relation(tuple(text.split("+")))


class TestCli:
    def _write_game(self, tmp_path, game, name="game.json"):
        path = tmp_path / name
        path.write_text(serialize_game(game))
        return str(path)

    def test_eliminate_enumerate_strict_dominance(self, tmp_path, capsys):
        path = self._write_game(tmp_path, G11)
        code = main(["eliminate", "--game", path, "--relation", "S", "--mode", "enumerate"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(doc["normal_forms"]) == 1  # nothing strictly dominated
        assert doc["unique"] is True

    def test_eliminate_maximal_weak(self, tmp_path, capsys):
        path = self._write_game(tmp_path, G11)
        code = main(["eliminate", "--game", path, "--relation", "W", "--mode", "maximal"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["endpoint"]["strategies"] == [["T"], ["L"]]

    def test_eliminate_maximal_inherent_over_many_profiles(self, tmp_path, capsys):
        # 16 opponent profiles: a question about every profile subset
        path = self._write_game(tmp_path, gallery.inherently_dominated_middle_3x4x4())
        code = main(["eliminate", "--game", path, "--relation", "inh-W", "--mode", "maximal"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["endpoint"]["strategies"][0] == ["T", "B"]

    def test_confluence_counterexample_exit_code(self, tmp_path, capsys):
        path = self._write_game(tmp_path, G11)
        code = main(["confluence", "--game", path, "--relation", "NW"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["weakly_confluent"] is False
        assert len(doc["counterexample"]) == 2

    def test_confluence_up_to_renaming_of_combined_relation(self, tmp_path, capsys):
        path = self._write_game(tmp_path, G11)
        code = main(
            ["confluence", "--game", path, "--relation", "NW+PE", "--up-to-renaming"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["weakly_confluent"] is True

    def test_equiv_not_equivalent(self, tmp_path, capsys):
        from dominia import restrict

        a = restrict(G11, [(0,), (0, 1)])
        b = restrict(G11, [(0, 1), (0,)])
        pa, pb = self._write_game(tmp_path, a, "a.json"), self._write_game(tmp_path, b, "b.json")
        code = main(["equiv", "--game", pa, "--game", pb])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["equivalent"] is False

    def test_equiv_reports_renaming(self, tmp_path, capsys):
        from dominia import new_game

        a = new_game([["T", "B"], ["L"]], {("T", "L"): (1, 0), ("B", "L"): (2, 0)})
        b = new_game([["X", "Y"], ["Z"]], {("X", "Z"): (2, 0), ("Y", "Z"): (1, 0)})
        pa, pb = self._write_game(tmp_path, a, "a.json"), self._write_game(tmp_path, b, "b.json")
        code = main(["equiv", "--game", pa, "--game", pb])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["renaming"]["maps"][0] == {"T": "Y", "B": "X"}

    def test_check_tdi(self, tmp_path, capsys):
        path = self._write_game(tmp_path, G11)
        assert main(["check", "--game", path, "--property", "tdi"]) == 0

    def test_check_iiia_and_spo(self, tmp_path, capsys):
        path = self._write_game(tmp_path, G11)
        assert main(["check", "--game", path, "--property", "iiia", "--relation", "NW"]) == 0
        assert main(["check", "--game", path, "--property", "spo", "--relation", "PE"]) == 1

    def test_eliminate_single_trace(self, tmp_path, capsys):
        path = self._write_game(tmp_path, G11)
        code = main(["eliminate", "--game", path, "--relation", "NW", "--mode", "single"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(doc["steps"]) == 1  # one single-strategy removal reaches a normal form
        assert all(step["strict_valid"] for step in doc["steps"])

    def test_check_hereditary_counterexample(self, tmp_path, capsys):
        path = self._write_game(tmp_path, G11)
        code = main(["check", "--game", path, "--property", "hereditary", "--relation", "W"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["counterexample"] == {
            "kept": [["T"], ["L", "R"]], "player": 1, "dominated": "R", "dominator": "L", "relation": "W",
        }

    def test_check_tdi_counterexamples_in_labels(self, tmp_path, capsys):
        path = self._write_game(tmp_path, random_game(generator_params(2, (3, 3), -2, 2, 0, 0)))
        assert main(["check", "--game", path, "--property", "tdi++"]) == 1
        doc = json.loads(capsys.readouterr().out)["counterexample"]
        assert (doc["kept"], doc["dominated"], doc["dominator"]) == ([["a1"], ["b1", "b3"]], "b1", "b3")
        assert main(["check", "--game", path, "--property", "tdi"]) == 1
        assert json.loads(capsys.readouterr().out)["counterexample"] == {
            "player": 0, "other_player": 1, "strategies": ["a1", "a2"], "profile": [None, "b2"],
        }

    def test_exponent_payoff_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(G11_JSON.replace('"1", "0"', '"1e10000000", "0"'))
        assert main(["check", "--game", str(path), "--property", "tdi"]) == 2
        assert "exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("prop", ["hereditary", "iiia", "spo"])
    def test_pure_property_rejects_mixed_relation(self, tmp_path, capsys, prop):
        path = self._write_game(tmp_path, G11)
        assert main(["check", "--game", path, "--property", prop, "--relation", "SM"]) == 2
        assert "pure relations" in capsys.readouterr().err

    @pytest.mark.parametrize("prop", ["tdi", "tdi+", "tdi++"])
    def test_tdi_properties_ignore_the_relation(self, tmp_path, capsys, prop):
        # they read no relation, so neither an inherent nor a mixed one is refused
        path = self._write_game(tmp_path, random_game(generator_params(2, 2, -3, 3, 0, 1)))
        outputs = []
        for extra in ([], ["--relation", "SM"], ["--relation", "inh-W"]):
            code = main(["check", "--game", path, "--property", prop, *extra])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0][0] in (0, 1) and outputs[0] == outputs[1] == outputs[2]

    def test_random_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rand.json"
        code = main(
            [
                "random", "--players", "2", "--strategies", "3", "--seed", "9",
                "--range", "-3", "3", "--dup-prob", "1/4", "--out", str(out),
            ]
        )
        assert code == 0
        g = parse_game(out.read_text())
        assert g.shape == (3, 3)

    def test_random_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main(["random", "--players", "2", "--strategies", "2", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_suite_count_below_one_exits_2(self, capsys, count):
        assert main(["suite", "--count", count]) == 2
        captured = capsys.readouterr()
        assert "--count" in captured.err and captured.out == ""

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["eliminate", "--game", str(bad), "--relation", "S"]) == 2

    def test_non_utf8_game_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00")
        assert main(["eliminate", "--game", str(bad), "--relation", "S"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--property", "hereditary"], "needs --relation"),
            (["check", "--property", "spo", "--relation", "inh-W"], "binary relations"),
            (["equiv"], "exactly two --game files"),
            (["random", "--players", "2", "--strategies", "2", "--seed", "1", "--dup-prob", "x"], "bad probability"),
            (["check", "--property", "hereditary", "--relation", "inh-W"], "pure relations"),
        ],
    )
    def test_usage_refusals_exit_2(self, tmp_path, capsys, argv, message):
        if argv[0] != "random":
            argv = argv[:1] + ["--game", self._write_game(tmp_path, G11)] + argv[1:]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eliminate", "--relation", "S"],
            ["check", "--property", "tdi"],
            ["confluence", "--relation", "S"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_game_commands_refuse_a_second_game(self, tmp_path, capsys, argv):
        # a further --game is refused before any file is read, not ignored
        path = self._write_game(tmp_path, G11)
        missing = str(tmp_path / "missing.json")
        assert main(argv[:1] + ["--game", path, "--game", missing] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {argv[0]} needs exactly one --game file\n" and captured.out == ""

    def test_nested_inherent_relation_exit_code(self, tmp_path, capsys):
        path = self._write_game(tmp_path, G11)
        assert main(["eliminate", "--game", path, "--relation", "inh-inh-W"]) == 2

    def test_size_bound_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DOMINIA_MAX_STRATEGIES", "2")
        path = self._write_game(tmp_path, G11)
        assert main(["eliminate", "--game", path, "--relation", "S"]) == 3

    def test_iiia_answers_past_the_size_bound(self, tmp_path, capsys, monkeypatch):
        # IIIA holds for every pure relation and builds no restriction
        monkeypatch.setenv("DOMINIA_MAX_STRATEGIES", "2")
        path = self._write_game(tmp_path, G11)
        assert main(["check", "--game", path, "--property", "iiia", "--relation", "W"]) == 0
        assert json.loads(capsys.readouterr().out) == {"property": "iiia", "ok": True}

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_malformed_size_bound_exit_code(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("DOMINIA_MAX_STRATEGIES", raw)
        path = self._write_game(tmp_path, G11)
        assert main(["eliminate", "--game", path, "--relation", "S"]) == 2
        assert "DOMINIA_MAX_STRATEGIES" in capsys.readouterr().err

    def test_console_script_runs(self, tmp_path):
        path = self._write_game(tmp_path, G11)
        proc = subprocess.run(
            [sys.executable, "-m", "dominia.cli", "eliminate", "--game", path, "--relation", "S"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["unique"] is True


_GALLERY_DOCS = [
    json.dumps(game_to_dict(make()))
    for make in (
        gallery.nonconfluent_weak_2x2,
        gallery.inherently_dominated_middle_3x2,
        gallery.inherently_dominated_middle_3x4x4,
        gallery.weakly_but_not_inherently_dominated_2x2,
        gallery.mixable_middle_3x2,
        gallery.redundant_middle_3x2,
        gallery.trivial_1x1,
    )
]
_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([1.5, "", "T", "1/2", "1/0", "1e5", [], {}, [[]], ["T", "T"], {"players": 1}]),
)


@st.composite
def mutated_documents(draw):
    """A gallery game document with a few character edits, one deleted key
    or list entry, or one value swapped for a value of another type."""
    text = draw(st.sampled_from(_GALLERY_DOCS))
    kind = draw(st.sampled_from(("edit", "delete", "swap")))
    if kind == "edit":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 2))
            text = text[:at] + draw(st.text('[]{}",:/-0123456789TBLRe ', max_size=2)) + text[at + cut :]
        return text
    doc = json.loads(text)
    slots = []

    def walk(node):
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    node, key = draw(st.sampled_from(slots))
    if kind == "delete":
        del node[key]
    else:
        node[key] = draw(_ODD_VALUES)
    return json.dumps(doc)


@settings(max_examples=1000, deadline=None)
@given(text=mutated_documents())
def test_mutated_document_parses_or_raises_parse_error(text):
    try:
        game = parse_game(text)
    except ParseError:
        return
    assert isinstance(game, Game)


@settings(max_examples=100, deadline=None)
@given(text=mutated_documents())
def test_mutated_document_eliminate_exit_code(tmp_path_factory, text):
    # any other exception escapes main and fails the test
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)
    assert main(["eliminate", "--game", str(path), "--relation", "S"]) in (0, 1, 2)
