import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semrank.arena import (INITIAL_RATING, EloTable, MatchRecord, TournamentReport,
                           elo_update, evaluate_accuracy, judge_pair,
                           run_tournament)
from semrank.judge import MockJudge, make_judge
from semrank.mockserve import StubBehavior, StubServer
from semrank.text_protocol import TaggedOutput


def expected_score_oracle(r_a, r_b):
    return 1.0 / (1.0 + 10.0 ** ((r_b - r_a) / 400.0))


class TestEloUpdate:
    def test_tie_between_equals_is_identity(self):
        assert elo_update(1500, 1500, "TIE", 32) == (1500.0, 1500.0)

    def test_win_between_equals(self):
        assert elo_update(1500, 1500, "A", 32) == (1516.0, 1484.0)

    def test_favorite_wins_small_gain(self):
        r_a, r_b = elo_update(1600, 1400, "A", 32)
        gain = r_a - 1600
        assert gain < 16
        assert gain == pytest.approx(32 * (1 - expected_score_oracle(1600, 1400)),
                                     abs=1e-12)
        assert gain == pytest.approx(7.6888, abs=1e-3)

    def test_swap_and_invert_mirrors_ratings(self):
        lhs = elo_update(1450, 1550, "A", 24)
        rhs = elo_update(1550, 1450, "B", 24)
        assert lhs[0] == pytest.approx(rhs[1]) and lhs[1] == pytest.approx(rhs[0])

    def test_zero_sum_exact_on_representable_ratings(self):
        # a single signed delta makes conservation exact whenever the
        # additions do not round (integer-valued ratings, k=32)
        for outcome in ("A", "B", "TIE"):
            a2, b2 = elo_update(1500.0, 1500.0, outcome, 32)
            assert a2 + b2 == 3000.0

    @given(st.floats(800, 2800), st.floats(800, 2800),
           st.sampled_from(["A", "B", "TIE"]), st.floats(1, 64))
    @settings(max_examples=200)
    def test_zero_sum_within_one_ulp(self, r_a, r_b, outcome, k):
        # both sides receive the same delta; each addition rounds once, so
        # the pair sum can drift by at most 1 ulp of the total
        a2, b2 = elo_update(r_a, r_b, outcome, k)
        assert abs((a2 + b2) - (r_a + r_b)) <= 2 * np.spacing(abs(r_a) + abs(r_b))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            elo_update(1500, 1500, "A", 0)


class TestEloTable:
    def test_sum_conserved_over_many_updates(self):
        table = EloTable(k_factor=32)
        rng = np.random.default_rng(0)
        models = ["m1", "m2", "m3", "m4"]
        for m in models:
            table.ratings[m] = INITIAL_RATING
        for i in range(500):
            a, b = rng.choice(models, size=2, replace=False)
            outcome = rng.choice(["A", "B", "TIE"])
            table.record(MatchRecord(item_id=str(i), model_a=a, model_b=b,
                                     judge_id="j", outcome=outcome,
                                     presented_order="a_first"))
        assert sum(table.ratings.values()) == pytest.approx(4 * 1500, abs=1e-6)
        assert table.update_count == 500

    def test_match_record_validation(self):
        with pytest.raises(ValueError):
            MatchRecord("i", "same", "same", "j", "A", "a_first")
        with pytest.raises(ValueError):
            MatchRecord("i", "a", "b", "j", "draw", "a_first")


class TestJudgePair:
    def item(self):
        return {"item_id": "q1", "question": "perche' la membrana regola?"}

    def test_prefer_longer_wins_regardless_of_order(self):
        judge = MockJudge("prefer-longer")
        long_text = "spiegazione molto lunga e dettagliata del fenomeno"
        short_text = "breve"
        for seed in range(10):
            rng = np.random.default_rng(seed)
            record = judge_pair(self.item(), long_text, short_text, judge, rng,
                                model_a="long", model_b="short")
            assert record.outcome == "A"
            mirrored = judge_pair(self.item(), short_text, long_text, judge,
                                  np.random.default_rng(seed),
                                  model_a="short", model_b="long")
            assert mirrored.outcome == "B"

    def test_identical_explanations_tie(self):
        judge = MockJudge("prefer-longer")
        record = judge_pair(self.item(), "uguale", "uguale", judge,
                            np.random.default_rng(0))
        assert record.outcome == "TIE"

    def test_unshuffle_mapping(self):
        class Always2:
            name = "always-2"
            def complete(self, prompt):
                return "2"
        # force b-first: with slot1 = b, slot2 = a, reply "2" means a won
        rng = np.random.default_rng(1)
        orders = []
        for seed in range(40):
            record = judge_pair(self.item(), "alfa", "beta", Always2(),
                                np.random.default_rng(seed))
            orders.append(record.presented_order)
            if record.presented_order == "b_first":
                assert record.outcome == "A"
            else:
                assert record.outcome == "B"
        assert set(orders) == {"a_first", "b_first"}

    def test_unparseable_retries_then_tie(self):
        calls = []
        class Garbage:
            name = "garbage"
            def complete(self, prompt):
                calls.append(1)
                return "mah"
        record = judge_pair(self.item(), "uno", "due", Garbage(),
                            np.random.default_rng(0))
        assert record.outcome == "TIE"
        assert len(calls) == 2

    def test_empty_explanations_rejected(self):
        with pytest.raises(ValueError):
            judge_pair(self.item(), "", "x", MockJudge("prefer-longer"),
                       np.random.default_rng(0))

    def test_presentation_order_balanced(self):
        rng = np.random.default_rng(123)
        judge = MockJudge("prefer-longer")
        firsts = 0
        n = 10_000
        for _ in range(n):
            record = judge_pair(self.item(), "lunga spiegazione", "corta",
                                judge, rng)
            firsts += record.presented_order == "a_first"
        assert abs(firsts / n - 0.5) <= 0.02


def make_models(items, quality):
    """quality maps model -> explanation length multiplier."""
    return {
        name: {str(it["item_id"]): "parola " * mult + f"fine {it['item_id']}"
               for it in items}
        for name, mult in quality.items()
    }


class TestTournament:
    def items(self, n):
        return [{"item_id": f"i{k}", "question": f"domanda {k}?"} for k in range(n)]

    def test_dominant_model_ranks_first(self):
        for n_items in (1, 3, 10):
            items = self.items(n_items)
            models = make_models(items, {"x": 9, "y": 2})
            report = run_tournament(models, items, [MockJudge("prefer-longer")],
                                    seed=0)
            table = report.tables["mock:prefer-longer"]
            assert table.rating("x") > table.rating("y")
            assert report.aggregate[0]["model"] == "x"

    def test_rating_sum_conserved_per_judge(self):
        items = self.items(50)
        models = make_models(items, {"a": 5, "b": 3, "c": 1})
        judges = [MockJudge("prefer-longer"), MockJudge("prefer-shorter"),
                  MockJudge("prefer-lexical-overlap")]
        report = run_tournament(models, items, judges, seed=3)
        for table in report.tables.values():
            assert sum(table.ratings.values()) == pytest.approx(3 * 1500, abs=1e-6)

    def test_deterministic_given_seed(self):
        items = self.items(8)
        models = make_models(items, {"a": 4, "b": 2, "c": 1})
        judges = [MockJudge("prefer-longer")]
        r1 = run_tournament(models, items, judges, seed=11)
        r2 = run_tournament(models, items, judges, seed=11)
        assert r1.tables["mock:prefer-longer"].ratings == \
            r2.tables["mock:prefer-longer"].ratings

    def test_disagreeing_judges_split_min_max(self):
        items = self.items(12)
        models = make_models(items, {"verboso": 8, "conciso": 1})
        report = run_tournament(models, items,
                                [MockJudge("prefer-longer"),
                                 MockJudge("prefer-shorter")], seed=5)
        row = {r["model"]: r for r in report.aggregate}
        assert row["verboso"]["min_elo"] < 1500 < row["verboso"]["max_elo"]
        assert row["conciso"]["min_elo"] < 1500 < row["conciso"]["max_elo"]
        assert row["verboso"]["mean_elo"] == pytest.approx(
            (row["verboso"]["min_elo"] + row["verboso"]["max_elo"]) / 2)

    def test_rename_invariance(self):
        items = self.items(9)
        base = make_models(items, {"a": 5, "b": 1})
        renamed = {"modello_uno": base["a"], "modello_due": base["b"]}
        r_base = run_tournament(base, items, [MockJudge("prefer-longer")], seed=7)
        r_new = run_tournament(renamed, items, [MockJudge("prefer-longer")], seed=7)
        assert r_base.tables["mock:prefer-longer"].rating("a") == pytest.approx(
            r_new.tables["mock:prefer-longer"].rating("modello_uno"))

    def test_http_judges_with_one_model_name_keep_their_own_tables(self):
        items = self.items(6)
        models = make_models(items, {"verboso": 8, "conciso": 1})
        with StubServer("judge", StubBehavior(mode="prefer-longer")) as longer, \
                StubServer("judge", StubBehavior(mode="prefer-shorter")) as shorter:
            judges = [make_judge(stub.judge_url) for stub in (longer, shorter)]
            report = run_tournament(models, items, judges, seed=5)
            assert list(report.tables) == [longer.judge_url, shorter.judge_url]
        row = {r["model"]: r for r in report.aggregate}
        assert row["verboso"]["min_elo"] < 1500 < row["verboso"]["max_elo"]

    def test_duplicate_judge_names_rejected(self):
        items = self.items(2)
        with pytest.raises(ValueError, match="distinct"):
            run_tournament(make_models(items, {"a": 2, "b": 1}), items,
                           [MockJudge("prefer-longer"), MockJudge("prefer-longer")])

    def test_missing_explanation_rejected(self):
        items = self.items(2)
        models = make_models(items, {"a": 2, "b": 1})
        del models["a"]["i1"]
        with pytest.raises(ValueError, match="missing explanations"):
            run_tournament(models, items, [MockJudge("prefer-longer")])

    def test_needs_two_models(self):
        items = self.items(2)
        with pytest.raises(ValueError):
            run_tournament(make_models(items, {"solo": 1}), items,
                           [MockJudge("prefer-longer")])

    def test_both_orders_mode_doubles_matches(self):
        items = self.items(4)
        models = make_models(items, {"a": 3, "b": 1})
        single = run_tournament(models, items, [MockJudge("prefer-longer")],
                                seed=0)
        double = run_tournament(models, items, [MockJudge("prefer-longer")],
                                seed=0, both_orders=True)
        assert len(double.matches) == 2 * len(single.matches)

    def test_both_orders_shows_each_model_first_once_per_pair_and_item(self):
        items = self.items(20)
        models = make_models(items, {"a": 3, "b": 1, "c": 2})
        report = run_tournament(models, items, [MockJudge("prefer-longer")],
                                seed=0, both_orders=True)
        shown_first = {}
        for m in report.matches:
            first = m.model_a if m.presented_order == "a_first" else m.model_b
            key = (frozenset((m.model_a, m.model_b)), m.item_id)
            shown_first.setdefault(key, []).append(first)
        assert len(shown_first) == 3 * 20
        assert all(sorted(firsts) == sorted(pair)
                   for (pair, _), firsts in shown_first.items())


class TestAccuracy:
    def tagged(self, answer):
        return TaggedOutput(spiegazione="e", risposta=answer, structurally_valid=True)

    def test_all_correct(self):
        gold = {"1": "a", "2": "b"}
        outputs = {"1": self.tagged("a"), "2": self.tagged("b")}
        assert evaluate_accuracy(outputs, gold) == 1.0

    def test_none_correct(self):
        gold = {"1": "a", "2": "b"}
        outputs = {"1": self.tagged("c"), "2": self.tagged("c")}
        assert evaluate_accuracy(outputs, gold) == 0.0

    def test_ratio(self):
        gold = {str(i): "a" for i in range(50)}
        outputs = {str(i): self.tagged("a" if i < 29 else "b") for i in range(50)}
        assert evaluate_accuracy(outputs, gold) == pytest.approx(0.58)

    def test_missing_output_counts_wrong(self):
        gold = {"1": "a", "2": "b"}
        outputs = {"1": self.tagged("a")}
        assert evaluate_accuracy(outputs, gold) == 0.5

