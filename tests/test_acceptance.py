"""Acceptance criteria, one test per criterion.

Each test prints a single summary line (visible with `pytest -s` or on
failure); the assertions hold the actual gate.
"""

import time

import pytest

from latpatch import (DecompLeaf, brute_force_gluing_search,
                      choose_x, decompose, decompose_at, find_extension_sites,
                      generate, glue_over_chain, is_isomorphic, is_patch,
                      is_rectangular, is_semimodular, is_slim,
                      one_step_extension, parse_document, rectangularize,
                      restore_eyes, restrict_gluing, sequence_of, serialize,
                      slim, upper_left_boundary, validate_diagram,
                      validate_witness, verify_tree, witness_from_cut)
from latpatch.core import irreducibility
from latpatch.errors import ChainWasSingletonT

from conftest import standard_corpus


@pytest.fixture(scope="module")
def oracle_corpus():
    """Standard corpus members with 2..12 elements plus 200 seeded random
    instances in the same size range."""
    members = [(name, diag) for name, diag in standard_corpus()
               if diag.lattice.n <= 12]
    for seed in range(200):
        size = 2 + seed % 11
        members.append((f"sps[{size}]#{seed}",
                        generate("random-sps", [size], seed=seed)))
    return members


@pytest.fixture(scope="module")
def extended_corpus():
    """Standard corpus, grids up to 40 elements, and 500 seeded random
    instances with 2..40 elements."""
    members = standard_corpus()
    members += [(f"grid({m},{n})", generate("grid", [m, n]))
                for m, n in ((4, 4), (5, 5), (4, 6))]
    for seed in range(500):
        size = 2 + (seed * 7) % 39
        members.append((f"sps[{size}]#{seed}",
                        generate("random-sps", [size], seed=1000 + seed)))
    return members


def report(line, ok):
    print(f"{'PASS' if ok else 'FAIL'} {line}")
    assert ok, line


def test_criterion_1_patch_gluing_dichotomy(oracle_corpus):
    started = time.time()
    failures = []
    for name, diag in oracle_corpus:
        patch = is_patch(diag)
        witness = brute_force_gluing_search(diag)
        found = witness is not None
        if found == patch:
            failures.append(name)
        if found and validate_witness(witness) is not None:
            failures.append(f"{name} (invalid witness)")
    elapsed = time.time() - started
    report(f"criterion 1 (patch/gluing dichotomy): {len(oracle_corpus)} lattices, "
           f"{len(failures)} violations, {elapsed:.1f}s (< 60s required)",
           not failures and elapsed < 60)


def test_criterion_2_pipeline_soundness(extended_corpus):
    started = time.time()
    failures = []
    for name, diag in extended_corpus:
        tree, _ = decompose(diag)
        violation = verify_tree(tree, diag)
        if violation is not None:
            failures.append(f"{name}: {violation}")
            continue
        entries, parts = sequence_of(tree)
        for i, (j, k) in parts.items():
            if not (j < i and k < i):
                failures.append(f"{name}: entry {i} built from {(j, k)}")
        for idx, entry in enumerate(entries, start=1):
            if idx not in parts and not is_patch(entry):
                failures.append(f"{name}: leaf entry {idx} is not a patch")
    elapsed = time.time() - started
    report(f"criterion 2 (pipeline soundness): {len(extended_corpus)} lattices "
           f"decomposed and re-verified, {len(failures)} failures, "
           f"{elapsed:.0f}s (< 300s required)",
           not failures and elapsed < 300)


def test_criterion_3_rectangular_cut_exactness(extended_corpus):
    checked = 0
    failures = []
    for name, diag in extended_corpus:
        if not (is_slim(diag) and is_rectangular(diag)):
            continue
        lat = diag.lattice
        u_l, u_r = diag.boundary.u_l, diag.boundary.u_r
        for x in upper_left_boundary(diag):
            if x in (u_l, lat.top):
                continue
            checked += 1
            try:
                cut = decompose_at(diag, x, "left")
            except Exception as exc:
                failures.append(f"{name}@{lat.names[x]}: {exc}")
                continue
            pivot = lat.meet(x, u_r)
            sizes_ok = (cut.bottom_part.lattice.n + cut.top_part.lattice.n
                        - len(cut.chain) == lat.n)
            if not (cut.pivot == pivot and lat.join(u_l, pivot) == x and sizes_ok):
                failures.append(f"{name}@{lat.names[x]}: cut equations")
                continue
            for part in (cut.bottom_part, cut.top_part):
                if not (is_slim(part) and is_rectangular(part)):
                    failures.append(f"{name}@{lat.names[x]}: part not slim "
                                    f"rectangular")
            chain_labels = [lat.names[v] for v in cut.chain]
            reglued = glue_over_chain(cut.bottom_part, cut.top_part,
                                      {c: c for c in chain_labels})
            if is_isomorphic(reglued.lattice, lat) is None:
                failures.append(f"{name}@{lat.names[x]}: reglue mismatch")
    report(f"criterion 3 (rectangular cut exactness): {checked} cuts across the "
           f"slim rectangular corpus, {len(failures)} failures",
           checked > 0 and not failures)


def test_criterion_4_extension_preservation(oracle_corpus):
    checked = 0
    failures = []
    for name, diag in oracle_corpus:
        if not is_slim(diag):
            diag, _ = slim(diag)
        for site in find_extension_sites(diag):
            checked += 1
            after, step = one_step_extension(diag, site)
            lat = after.lattice
            t = lat.id_of(step.t)
            boundary = (after.boundary.left_chain if step.side == "left"
                        else after.boundary.right_chain)
            ok = (validate_diagram(after) is None
                  and is_semimodular(lat)
                  and is_slim(after)
                  and lat.n == diag.lattice.n + 1
                  and irreducibility(lat, t).doubly_irreducible
                  and t in boundary)
            if not ok:
                failures.append(f"{name}@{site}")
    report(f"criterion 4 (extension preservation): {checked} sites extended, "
           f"{len(failures)} failures", checked > 0 and not failures)


def test_criterion_5_restriction_validity(oracle_corpus):
    pullbacks = 0
    failures = []
    singleton_seen = 0
    for name, diag in oracle_corpus:
        slimmed, _ = slim(diag)
        if is_rectangular(slimmed) or slimmed.lattice.n == 2:
            continue
        rect, steps = rectangularize(slimmed)
        if is_patch(rect):
            continue
        witness = witness_from_cut(decompose_at(rect, *choose_x(rect)))
        for step in reversed(steps):
            pullbacks += 1
            try:
                witness = restrict_gluing(witness, step)
            except ChainWasSingletonT:
                singleton_seen += 1
                break
            reason = validate_witness(witness)
            if reason is not None or not witness.proper:
                failures.append(f"{name}: {reason}")
                break
    report(f"criterion 5 (restriction validity): {pullbacks} pull-back steps, "
           f"{len(failures)} invalid, {singleton_seen} singleton-chain cases",
           pullbacks > 0 and not failures and singleton_seen == 0)


def test_criterion_6_specific_derived_values(b2):
    failures = []
    tree, _ = decompose(generate("grid", [3, 3]))

    def leaves(node):
        if isinstance(node, DecompLeaf):
            return [node]
        return leaves(node.left) + leaves(node.right)

    def chains(node):
        if isinstance(node, DecompLeaf):
            return []
        return chains(node.left) + chains(node.right) + [node.chain_size]

    got = leaves(tree)
    if len(got) != 4:
        failures.append(f"grid(3,3): {len(got)} leaves")
    for leaf in got:
        if is_isomorphic(leaf.diagram.lattice, b2.lattice) is None:
            failures.append("grid(3,3): leaf not a Boolean square")
    if sorted(chains(tree)) != [2, 2, 3]:
        failures.append(f"grid(3,3): chain sizes {sorted(chains(tree))}")

    rect, steps = rectangularize(generate("chain", [4]))
    if len(steps) != 2 or rect.lattice.n != 6:
        failures.append(f"chain(4): {len(steps)} extension steps")

    slimmed, records = slim(generate("diamond", [4]))
    if len(records) != 2 or is_isomorphic(slimmed.lattice, b2.lattice) is None:
        failures.append(f"diamond(4): {len(records)} eyes removed")

    report(f"criterion 6 (derived values): grid leaves/chains, chain(4) "
           f"extensions, diamond(4) slimming, {len(failures)} mismatches",
           not failures)


def test_criterion_7_round_trips(extended_corpus):
    failures = []
    cuts = 0
    for name, diag in extended_corpus:
        slimmed, records = slim(diag)
        back = restore_eyes(slimmed, records)
        lat, orig = back.lattice, diag.lattice
        same_labels = set(lat.names) == set(orig.names)
        same_covers = ({(lat.names[a], lat.names[b]) for a, b in lat.covers}
                       == {(orig.names[a], orig.names[b]) for a, b in orig.covers})
        if not (same_labels and same_covers):
            failures.append(f"{name}: slim/restore")
        text = serialize(diag)
        if parse_document(text) != diag or serialize(parse_document(text)) != text:
            failures.append(f"{name}: serialize round trip")
        tree, trace = decompose(diag)
        if trace.cut is not None:
            cuts += 1
            cut = trace.cut
            chain_labels = [cut.ambient.lattice.names[v] for v in cut.chain]
            reglued = glue_over_chain(cut.bottom_part, cut.top_part,
                                      {c: c for c in chain_labels})
            if is_isomorphic(reglued.lattice, cut.ambient.lattice) is None:
                failures.append(f"{name}: cut reglue")
    report(f"criterion 7 (round trips): {len(extended_corpus)} lattices, "
           f"{cuts} recorded cuts reglued, {len(failures)} failures",
           not failures)
