"""Each CLI default and choice is the library's, read from the code that applies it.

The parser is built after a library default is changed in place: a flag that
restated the old value, instead of reading it, would keep it.  Choices must be
the library's own objects, not copies.
"""

import argparse
import inspect

import numpy as np
import pytest

from relanom import cli
from relanom.graph import DistanceMetric
from relanom.model_io import DEFAULT_GAMMA, METHODS, SETTINGS, defaults, fit_model, load_model
from relanom.popularity import STARTS, fit_popularity, power_iteration
from relanom.preprocess import PREPROCESSORS, apply_preprocessor, fit_preprocessor
from relanom.scoring import explain_deviations, label_top_fraction
from relanom.shortest_path import fit_shortest_path
from relanom.synth import DATASETS, scraping_analogue


def commands():
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def flags(command):
    """The actions of ``command``'s flags, by destination."""
    return {action.dest: action for action in commands()[command]._actions}


def test_each_command_names_its_own_handler():
    for name, parser in commands().items():
        assert parser.get_default("handler") is getattr(cli, f"_cmd_{name}")


def test_cli_defaults_follow_the_library_defaults(monkeypatch):
    monkeypatch.setitem(fit_model.__kwdefaults__, "preprocess", "standardize")
    monkeypatch.setitem(fit_model.__kwdefaults__, "metric", DistanceMetric.MANHATTAN)
    monkeypatch.setattr(explain_deviations, "__defaults__", (DistanceMetric.EUCLIDEAN,))
    monkeypatch.setattr(label_top_fraction, "__defaults__", (0.3,))
    for generator in DATASETS.values():
        monkeypatch.setattr(generator, "__defaults__", (7, 3))
    fit, score, synth, compare = (flags(c) for c in ("fit", "score", "synth", "compare"))
    assert fit["preprocess"].default == compare["preprocess"].default == "standardize"
    assert (fit["metric"].default, flags("explain")["metric"].default) == ("l1", "l2")
    assert score["top_fraction"].default == compare["top_fraction"].default == 0.3
    assert (synth["n"].default, synth["seed"].default) == (7, 3)


def test_cli_defaults_and_choices_are_the_librarys():
    fit, score, synth, compare = (flags(c) for c in ("fit", "score", "synth", "compare"))
    assert fit["preprocess"].choices is compare["preprocess"].choices is PREPROCESSORS
    assert fit["preprocess"].default == defaults(fit_model)["preprocess"]
    assert defaults(fit_model)["preprocess"] == defaults(fit_preprocessor)["mode"]
    assert score["top_fraction"].default == compare["top_fraction"].default
    assert score["top_fraction"].default == defaults(label_top_fraction)["fraction"]
    assert fit["start"].choices is STARTS and defaults(fit_popularity)["start"] in STARTS
    assert synth["dataset"].choices is DATASETS
    for generator in DATASETS.values():  # one --n and one --seed serve every generator
        assert defaults(generator) == {"n": synth["n"].default, "seed": synth["seed"].default}
    assert fit["method"].choices == sorted(METHODS)
    explain = flags("explain")
    assert fit["metric"].choices is explain["metric"].choices is cli._METRICS
    assert set(cli._METRICS.values()) == set(DistanceMetric)
    assert cli._METRICS[fit["metric"].default] is defaults(fit_model)["metric"]
    assert cli._METRICS[explain["metric"].default] is defaults(explain_deviations)["metric"]
    # A fit setting's flag is unset by default, so fit_model applies the library's default;
    # its help names that default.
    for name, (owner, default) in SETTINGS.items():
        for command in (fit, compare) if name == "q" else (fit,):
            assert command[name].default is None
            assert command[name].help.endswith(
                f"({owner})" if default is None else f"({owner}, default {default})")
    for method in METHODS:
        gamma = compare[f"gamma_{method}"]
        assert gamma.default is None and gamma.help == f"default {DEFAULT_GAMMA[method]}"


def test_every_start_is_one_fit_popularity_takes():
    data, _ = scraping_analogue(40, seed=2)
    for start in STARTS:
        assert np.all(fit_popularity(data, 0.5, start=start).s_vec > 0.0)
    with pytest.raises(ValueError, match="unknown start 'warm'"):
        fit_popularity(data, 0.5, start="warm")


def test_settings_are_the_two_fit_signatures():
    popularity = inspect.signature(fit_popularity).parameters
    shortest_path = inspect.signature(fit_shortest_path).parameters
    want = [(name, ("popularity", p.default)) for name, p in popularity.items()
            if p.kind is p.KEYWORD_ONLY and name != "metric"]
    want += [(name, ("shortest_path", shortest_path[name].default)) for name in ("q", "k")]
    assert list(SETTINGS.items()) == want
    assert list(SETTINGS) == ["tol", "max_iter", "sparsify", "start", "q", "k"]
    iteration = defaults(power_iteration)
    assert (iteration["tol"], iteration["max_iter"]) == (SETTINGS["tol"][1],
                                                         SETTINGS["max_iter"][1])


@pytest.mark.parametrize("dataset", ["scraping", "wifi"])
def test_library_fits_with_defaults_are_the_default_cli_fits(tmp_path, dataset):
    data_csv = tmp_path / "data.csv"
    assert cli.main(["synth", "--dataset", dataset, "--n", "200", "--output", str(data_csv)]) == 0
    models = {}
    for method in ("popularity", "shortest_path"):
        models[method] = tmp_path / f"{method}.json"
        assert cli.main(["fit", "--method", method, "--input", str(data_csv),
                         "--output", str(models[method])]) == 0
    raw, _ = DATASETS[dataset](200)
    data = apply_preprocessor(raw, fit_preprocessor(raw))
    popularity = fit_popularity(data, DEFAULT_GAMMA["popularity"])
    state = load_model(models["popularity"]).state
    assert np.array_equal(state["s_vec"], popularity.s_vec)
    assert state["denom"] == popularity.lambda1
    shortest_path = fit_shortest_path(data, DEFAULT_GAMMA["shortest_path"])
    state = load_model(models["shortest_path"]).state
    assert np.array_equal(state["ra_q"], shortest_path.ra_q)
    assert np.array_equal(state["normal_set"], shortest_path.normal_set)
