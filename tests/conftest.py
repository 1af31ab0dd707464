import pytest

import oracles
from latpatch import (DecompGlue, Diagram, Lattice, decompose, generate,
                      one_step_extension)


@pytest.fixture
def b2():
    """Boolean square with named atoms, l drawn left of r."""
    lat = Lattice([("0", "l"), ("0", "r"), ("l", "1"), ("r", "1")])
    return Diagram(lat, [0, -1, 1, 0])


@pytest.fixture
def c3():
    lat = Lattice([("0", "b"), ("b", "1")])
    return Diagram(lat, [0, 0, 0])


@pytest.fixture
def c4():
    lat = Lattice([("0", "a"), ("a", "b"), ("b", "1")])
    return Diagram(lat, [0, 0, 0, 0])


@pytest.fixture
def m3():
    """Diamond with atoms a, m, b drawn left to right."""
    lat = Lattice([("0", "a"), ("0", "m"), ("0", "b"),
                   ("a", "1"), ("m", "1"), ("b", "1")])
    return Diagram(lat, [0, -1, 0, 1, 0])


@pytest.fixture
def n5():
    """The pentagon: 0 < x < y < 1 and 0 < z < 1."""
    lat = Lattice([("0", "x"), ("x", "y"), ("y", "1"), ("0", "z"), ("z", "1")])
    return Diagram(lat, [0, -1, -1, 1, 0])


@pytest.fixture
def hexagon():
    """0 < p < u < 1 and 0 < q < v < 1; planar but not semimodular."""
    lat = Lattice([("0", "p"), ("0", "q"), ("p", "u"), ("q", "v"),
                   ("u", "1"), ("v", "1")])
    return Diagram(lat, [0, -1, 1, -1, 1, 0])


def standard_corpus():
    """Chains, small grids, diamonds: the named part of the test corpus."""
    members = [("chain", (n,)) for n in range(2, 7)]
    members += [("grid", (m, n)) for m in range(2, 5) for n in range(2, 5)
                if m * n <= 12]
    members += [("diamond", (3,)), ("diamond", (4,))]
    return [(f"{kind}{params}", generate(kind, params)) for kind, params in members]


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="session")
def random_corpus_small():
    """200 seeded random instances with 2..12 elements."""
    out = []
    for seed in range(200):
        size = 2 + seed % 11
        out.append((f"sps[{size}]#{seed}", generate("random-sps", [size], seed=seed)))
    return out


def ladder_inputs():
    """The benchmark's `ladder` inputs: `random-sps` seed 7 at n = 16, 24, 32."""
    return [(f"sps[{n}]#7", generate("random-sps", [n], seed=7)) for n in (16, 24, 32)]


@pytest.fixture(scope="session")
def eyed_forks():
    """The fork and S_7 corpora, each input with up to 3 eyes put back
    (`oracles.with_eyes`, seeded by its position)."""
    inputs = oracles.fork_corpus() + oracles.s7_glued_corpus()
    return [(f"{name} +eyes", oracles.with_eyes(diag, 3, seed))
            for seed, (name, diag) in enumerate(inputs)]


def distinct_nodes(tree):
    """Every node of the tree, a shared subtree once."""
    seen, out, stack = set(), [], [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            if isinstance(node, DecompGlue):
                stack += [node.right, node.left]
    return out


@pytest.fixture(scope="session")
def glue_nodes(corpus, random_corpus_small):
    """(path, diagram) of every node that `decompose` cuts, each shared
    subtree once, over the corpus, `random_corpus_small`, the ladder inputs
    and the grids up to 6×6."""
    inputs = corpus + random_corpus_small + ladder_inputs()
    inputs += [(f"grid{m}x{n}", generate("grid", [m, n]))
               for m in range(2, 7) for n in range(2, 7)]
    trees, seen, out = [], set(), []
    for name, diag in inputs:
        trees.append(decompose(diag)[0])  # kept alive, so ids stay unique
        stack = [(trees[-1], name)]
        while stack:
            node, path = stack.pop()
            if isinstance(node, DecompGlue) and id(node) not in seen:
                seen.add(id(node))
                out.append((path, node.diagram))
                stack += [(node.right, f"{path}.right"), (node.left, f"{path}.left")]
    return out


LATTICE_FIELDS = ("names", "n", "index", "covers", "upper_covers",
                  "lower_covers", "up", "down", "full_mask", "height",
                  "bottom", "top")


def assert_same_lattice(derived, full, name):
    """Every field agrees, down to the masks and heights that answer every
    join and meet."""
    for field in LATTICE_FIELDS:
        assert getattr(derived, field) == getattr(full, field), (name, field)


def _replay(diag, steps):
    """(before, after) diagrams of each recorded extension step, re-derived
    by extending at the step's site; each re-derived record must equal the
    recorded one."""
    out = []
    for step in steps:
        lat = diag.lattice
        site = (lat.id_of(step.a), lat.id_of(step.b), lat.id_of(step.c), step.side)
        after, again = one_step_extension(diag, site)
        assert again == step
        out.append((diag, after))
        diag = after
    return out


@pytest.fixture(scope="session")
def replay():
    return _replay
