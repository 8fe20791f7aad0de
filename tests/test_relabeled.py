"""Relabeled inputs get the same verdict.

Renaming the elements of G, Gamma and Lambda, with every table carried
across (conftest.relabeled), gives an isomorphic input.  Each verifier must
then fail the same checks, and the center must have the same simples up to
the renaming.  The first witnesses may differ, since each sweep visits its
tuples in label order, but each one, renamed, must fail the same law.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import category, mutation_pool, pair, random_perms, relabeled
from crossedcat import jsonio
from crossedcat.braided import center_braiding, verify_braiding
from crossedcat.center import CenterSimple, enumerate_center, verify_center_braided
from crossedcat.cli import main
from crossedcat.matched import verify_matched_pair
from crossedcat.pointed import vec_gamma, verify_crossed_category
from fixture_builders import CATEGORIES, MATCHED_PAIRS
from reference_sweeps import CategoryLaws, PairLaws


def failed(rep) -> list[str]:
    return [c.name for c in rep.checks if not c.passed]


def mapped_simple(z: CenterSimple, cat, perms, neutral) -> CenterSimple:
    """z, a simple of the center of cat, renamed by perms into the center of
    the relabeled category, whose neutral labels are `neutral`."""
    pG, _, pL = perms
    chi = {pL[nu]: c for nu, c in zip(cat.neutral_labels, z.chi)}
    return CenterSimple(pG[z.g], pL[z.label], tuple(chi[nu] for nu in neutral))


def mapped_witnesses(laws, moved_laws, perms) -> int:
    """Renames the first witness of each failing check of `laws` by perms,
    each position by the group of its axis in the check's declared domain
    (a side tag stays), and asserts that the renamed tuple fails the same
    statement in `moved_laws`.  Returns the number of witnesses renamed."""
    renames = dict(zip(("G", "Gamma", "Lambda"), perms))
    count = 0
    for name, check in laws.checks():
        witness = check()
        if witness is None:
            continue
        axes, = [axes for axes in laws.AXES[name] if len(axes) == len(witness)]
        renamed = tuple(x if isinstance(axis, tuple) else renames[axis.partition(".")[0]][x]
                        for x, axis in zip(witness, axes))
        assert getattr(moved_laws, name)(*renamed), (name, witness, renamed, perms)
        count += 1
    return count


def assert_category_verdicts_kept(cat, perms) -> None:
    """The relabeled cat fails the same category checks and, where cat
    passes them, the same center checks, and its center simples are cat's
    renamed, so their number and grade histogram map across."""
    moved = relabeled(cat, perms)
    rep = verify_crossed_category(cat)
    assert failed(verify_crossed_category(moved)) == failed(rep), perms
    if not rep.passed:
        return
    assert failed(verify_center_braided(moved)) == failed(verify_center_braided(cat)), perms
    simples = [mapped_simple(z, cat, perms, moved.neutral_labels) for z in enumerate_center(cat)]
    assert sorted(simples, key=CenterSimple.sort_key) == enumerate_center(moved), perms


@pytest.mark.parametrize("name", CATEGORIES)
def test_relabeled_category_keeps_its_verdicts(name):
    cat, rng = category(name), random.Random(f"relabel:{name}")
    for _ in range(4):
        assert_category_verdicts_kept(cat, random_perms(cat, rng))


@pytest.mark.parametrize("name", MATCHED_PAIRS)
def test_relabeled_pair_keeps_its_verdicts(name):
    """The pair's checks and its center braiding's; and Vec over the pair,
    relabeled with Lambda = Gamma, as a category."""
    mp, rng = pair(name), random.Random(f"relabel:{name}")
    for _ in range(4):
        pG, pS = random_perms(mp, rng)
        moved = relabeled(mp, (pG, pS))
        assert failed(verify_matched_pair(moved)) == failed(verify_matched_pair(mp))
        assert (failed(verify_braiding(center_braiding(moved)))
                == failed(verify_braiding(center_braiding(mp))))
        assert_category_verdicts_kept(vec_gamma(mp, 2), (pG, pS, pS))


def test_relabeled_mutants_keep_their_verdicts():
    """A seeded sample of the pool's pair and category mutants, relabeled
    twice each: the same checks fail, and each first witness of the
    reference (PairLaws or CategoryLaws), renamed, fails the same law."""
    rng = random.Random("relabel:mutants")
    pool = [entry for entry in mutation_pool() if entry[1] in ("pair", "category")]
    renamed = 0
    for name, kind, mutant in rng.sample(pool, 24):
        laws = PairLaws if kind == "pair" else CategoryLaws
        for _ in range(2):
            perms = random_perms(mutant, rng)
            if kind == "pair":
                assert (failed(verify_matched_pair(relabeled(mutant, perms)))
                        == failed(verify_matched_pair(mutant))), (name, perms)
            else:
                assert_category_verdicts_kept(mutant, perms)
            renamed += mapped_witnesses(laws(mutant), laws(relabeled(mutant, perms)), perms)
    assert renamed == 128


def test_relabeled_unit_passes_verify_center_and_center(tmp_path, capsys):
    """equivariant-s3 with Lambda's labels 0 and 5 swapped: its unit is 5,
    not the least label of the trivial degree's fiber."""
    cat = category("equivariant-s3")
    pL = list(range(6))
    pL[0], pL[5] = 5, 0
    path = tmp_path / "relabeled.json"
    jsonio.save_category(relabeled(cat, (list(range(2)), [0], pL)), path)
    assert main(["verify", "center", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 6
    assert main(["center", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["simples"]) == len(enumerate_center(cat)) == 4
