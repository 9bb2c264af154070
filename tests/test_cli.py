import json

import pytest

from tanglekit import formulas as fm
from tanglekit.cli import _build_parser, main
from tanglekit.translate import TranslationGuards, Translator


@pytest.fixture
def cycle_path(tmp_path):
    data = {"worlds": ["0", "1"],
            "edges": [["0", "1"], ["1", "0"]],
            "val": {"e": ["0"], "o": ["1"], "p": ["1"], "i": ["0", "1"]}}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def bad_model_path(tmp_path):
    data = {"worlds": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"]], "val": {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestCheck:
    def test_disjunction(self, cycle_path, capsys):
        assert main(["check", cycle_path, "o | <> p"]) == 0
        assert capsys.readouterr().out.strip() == "0 1"

    def test_tangle_empty(self, cycle_path, capsys):
        assert main(["check", cycle_path, "<inf>{o,p}"]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_bottom(self, cycle_path, capsys):
        assert main(["check", cycle_path, "F"]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_structured(self, cycle_path, capsys):
        assert main(["--format", "structured", "check", cycle_path, "<inf>{e,o}"]) == 0
        assert json.loads(capsys.readouterr().out) == {"worlds": ["0", "1"]}

    def test_parse_error_exits_2(self, cycle_path, capsys):
        assert main(["check", cycle_path, "o |"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_wk4_model_exits_2(self, bad_model_path, capsys):
        assert main(["check", bad_model_path, "T"]) == 2
        assert "weakly transitive" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/no/such/file.json", "T"]) == 2

    @pytest.mark.parametrize("worlds", [[1, 2], "ab", ["a", None]])
    def test_worlds_not_strings_exit_2(self, worlds, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"worlds": worlds, "edges": [], "val": {}}))
        assert main(["check", str(path), "T"]) == 2
        assert capsys.readouterr().err.startswith("error: bad model: ")

    @pytest.mark.parametrize("edges, val", [
        (5, {}), ([[["a"], "a"]], {}), ([], ["a"]), ([], {"p": "ab"})])
    def test_edges_or_val_malformed_exit_2(self, edges, val, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"worlds": ["a", "b"], "edges": edges, "val": val}))
        assert main(["check", str(path), "p"]) == 2
        assert capsys.readouterr().err.startswith("error: bad model: ")


class TestTranslate:
    def test_bottom_is_bottom(self, capsys):
        assert main(["translate", "F"]) == 0
        out = capsys.readouterr().out
        assert "chi = F" in out
        assert "size bound ok: True" in out

    def test_p_report(self, capsys):
        assert main(["translate", "p"]) == 0
        out = capsys.readouterr().out
        assert "sigma members: 14" in out
        assert "tangle fragment: True" in out
        assert "alternation free: True" in out

    def test_structured(self, capsys):
        assert main(["--format", "structured", "translate", "p"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["report"]["size_bound_ok"] is True
        assert data["chi_dag"][-1].startswith("chi = ")

    def test_guard_exceeded_exits_2(self, capsys):
        assert main(["translate", "nu x.(p & <> x)", "--max-thetas", "4"]) == 2
        err = capsys.readouterr().err
        assert "guard exceeded" in err

    def test_many_atoms_fail_the_cluster_guard(self, capsys):
        atoms = " & ".join(f"p{i}" for i in range(16))
        assert main(["translate", atoms]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: 3^(2^16) - 1 canonical clusters over 16 atoms "
                                "exceeds cap 20000\n")
        assert captured.out == ""

    def test_atom_named_like_a_fresh_constant_is_refused(self, capsys):
        # read as the fixed point's constant, the atom would give a wrong chi
        name = fm.fresh_constant_name(fm.parse_mu("mu x.(p | <> x)"))
        for argv in (["translate", f"(mu x.(p | <> x)) & ~{name}"],
                     ["fuzz-equiv", f"(mu x.(p | <> x)) & ~{name}", "--chi"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: atom {name} is named like a fresh constant\n"
            assert captured.out == ""

    def test_guard_error_shows_growth(self, capsys):
        assert main(["translate", "<> p", "--max-pairs", "4263"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: pairs guard exceeded: 4264 pairs at depth 3, more than "
                       "4263 (built: pairs [[8, 0], [34, 94], [28, 1444]], "
                       "lattice [16, 200, 733])\n")

    @pytest.mark.parametrize("flag", ["--max-depth", "--max-pairs", "--max-chains",
                                      "--max-thetas"])
    def test_negative_guard_is_rejected_before_building(self, capsys, monkeypatch, flag):
        def build(self):
            raise AssertionError("built with a negative guard")
        monkeypatch.setattr(Translator, "build", build)
        assert main(["translate", "p", flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be at least 0, got -1\n"
        assert captured.out == ""

    def test_guard_defaults_match_library(self):
        args = _build_parser().parse_args(["translate", "p"])
        guards = TranslationGuards()
        assert (args.max_depth, args.max_pairs, args.max_chains, args.max_thetas) == (
            guards.max_depth, guards.max_pairs, guards.max_chains, guards.max_thetas)

    def test_readme_example_exits_0(self, capsys):
        # needs 20,576 pairs at depth 3, within the library's default guards
        assert main(["translate", "nu x.(p & <> x)"]) == 0
        assert "tangle fragment: True" in capsys.readouterr().out

    def test_deterministic_output(self, capsys):
        assert main(["translate", "<> p"]) == 0
        first = capsys.readouterr().out
        assert main(["translate", "<> p"]) == 0
        assert capsys.readouterr().out == first


class TestFuzz:
    def test_identical_formulas_agree(self, capsys):
        assert main(["fuzz-equiv", "p | q", "p | q", "--models", "40",
                     "--size", "4", "--seed", "7", "--props", "p,q"]) == 0

    def test_commuted_disjunction_agrees(self, capsys):
        assert main(["fuzz-equiv", "p | q", "q | p", "--models", "40",
                     "--size", "4", "--seed", "7", "--props", "p,q"]) == 0

    def test_tangle_duality_exhaustive(self, capsys):
        direct = "<inf>{e,o}"
        assert main(["fuzz-equiv", direct, direct, "--exhaustive", "--size",
                     "3", "--props", "e,o"]) == 0

    def test_inequivalent_reports_counterexample(self, capsys):
        code = main(["fuzz-equiv", "<> p", "p", "--models", "60", "--size",
                     "3", "--seed", "1", "--props", "p"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert "model" in payload and "world" in payload
        # the counterexample is replayable: same world set difference
        from tanglekit import KripkeModel, eval_mu, parse_mu
        model = KripkeModel.from_dict(payload["model"])
        lm = eval_mu(model, parse_mu("<> p"))
        rm = eval_mu(model, parse_mu("p"))
        assert sorted(model.mask_labels(lm)) == payload["left"]
        assert sorted(model.mask_labels(rm)) == payload["right"]

    def test_chi_mode(self, capsys):
        assert main(["fuzz-equiv", "p", "--chi", "--models", "25", "--size",
                     "4", "--seed", "3", "--props", "p"]) == 0

    def test_corrupted_tangle_unfolding_caught(self, capsys):
        # joining the tangle conjuncts with | instead of & is detectable on a
        # two-world cycle; the fuzzer finds it and replays the counterexample
        wrong = ("nu t. (<.> (o & t) | <> (p & t)) | (<.> (p & t) | <> (o & t))")
        code = main(["fuzz-equiv", wrong, "<inf>{o,p}", "--exhaustive",
                     "--size", "2", "--props", "o,p"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"left": ["0"], "right": [], "world": "0",
                           "model": {"worlds": ["0"], "edges": [], "val": {"p": ["0"]}}}

    def test_exhaustive_counterexample_is_pinned(self, capsys):
        # the first differing model in enumeration order, and its lowest
        # differing world
        code = main(["fuzz-equiv", "<> <> p", "<> p", "--exhaustive", "--size", "4",
                     "--props", "p"])
        assert code == 1
        out = capsys.readouterr().out
        assert json.loads(out) == {
            "left": [], "right": ["1"], "world": "1",
            "model": {"worlds": ["0", "1"], "edges": [["1", "0"]], "val": {"p": ["0"]}}}
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv", [
        ["p", "p | q", "--size", "3", "--models", "50"],
        ["p", "p | q", "--exhaustive", "--size", "2"],
        ["F", "q", "--exhaustive", "--size", "2"],
        ["p", "p | q", "--exhaustive", "--size", "2", "--props", ","],
        ["p", "p | q", "--exhaustive", "--size", "2", "--props", " , "],
        ["p", "p | q", "--exhaustive", "--size", "2", "--props", " p , q , p"]])
    def test_default_atoms_are_those_of_both_formulas(self, argv, capsys):
        # without --props, or with no name in it, the models range over the
        # atoms of A and of B; each name is stripped and counted once
        assert main(["fuzz-equiv", *argv]) == 1
        assert "q" in json.loads(capsys.readouterr().out)["model"]["val"]

    def test_needs_second_formula_or_chi(self, capsys):
        assert main(["fuzz-equiv", "p"]) == 2

    def test_exhaustive_beyond_cap_exits_2(self, capsys):
        assert main(["fuzz-equiv", "p", "p", "--exhaustive", "--size", "7"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_exhaustive_six_worlds_exits_2(self, capsys):
        # the enumeration is capped at five worlds: refused before it starts
        assert main(["fuzz-equiv", "p", "p", "--exhaustive", "--size", "6"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--size", "--models"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_counts_exit_2(self, flag, value, capsys):
        assert main(["fuzz-equiv", "p", "p", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}")
        assert "agreed" not in captured.out


class TestListings:
    def test_clusters(self, cycle_path, capsys):
        assert main(["clusters", cycle_path]) == 0
        assert capsys.readouterr().out.strip() == "{0,1}"

    def test_final_part(self, cycle_path, capsys):
        assert main(["final-part", cycle_path, "e | o"]) == 0
        assert capsys.readouterr().out.strip() == "0 1"

    def test_stats(self, capsys):
        assert main(["stats", "p"]) == 0
        out = capsys.readouterr().out
        assert "size: 1" in out
        assert "sigma members: 14" in out

    @pytest.mark.parametrize("command", ["stats", "translate"])
    def test_deeply_nested_formula_exits_2(self, command, capsys):
        # parentheses still nest the parser's calls; prefix chains do not
        assert main([command, "(" * 1200 + "p" + ")" * 1200]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: formula nested too deeply (")
        assert "Traceback" not in err

    def test_deeply_nested_model_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["check", str(path), "p"]) == 2
        assert "model file is nested too deeply" in capsys.readouterr().err

    def test_stats_beyond_int_string_limit(self, capsys):
        # tree size 2,047: the size bound's exponent has 8,634 decimal
        # digits, past what str() converts
        text = "p"
        for _ in range(10):
            text = f"({text}) & ({text})"
        assert main(["stats", text]) == 0
        out = capsys.readouterr().out
        assert "size: 2047" in out
        assert "log2 size bound: 1517248597879956542824682156563358486942..." in out
        assert main(["--format", "structured", "stats", text]) == 0
        assert json.loads(capsys.readouterr().out)["log2_size_bound_digits"] == 8634

    def test_stats_structured(self, capsys):
        assert main(["--format", "structured", "stats", "<> p"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["size"] == 2
        assert data["sigma_size"] <= 28
