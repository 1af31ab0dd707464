"""The benchmark's workloads: their inputs, the timed operation on one
item, and the correctness check of its output.

Every workload is a fixed list of lattice structures (named generators and
`random-sps` at recorded generator seeds).  The run's `--seed` renames every
element of every structure to fresh random labels of the same lengths and
shuffles the items, so each seed gives the program different input
documents for the same structures.  The program's work depends a little on
the labels, so one item's time moves by about 10% from seed to seed.
"""

import hashlib
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

# Called through the package so that the tracer's rebinding reaches them.
import latpatch as lp
from latpatch import Diagram, Lattice

BASELINE = Path(__file__).with_name("baseline.json")


def corpus_specs():
    """The acceptance corpus's named members and extra grids, plus 100
    `random-sps` inputs seeded like its extended corpus, sizes 2..22."""
    named = [("chain", (n,)) for n in range(2, 7)]
    named += [("grid", (m, n)) for m in range(2, 5) for n in range(2, 5) if m * n <= 12]
    named += [("diamond", (3,)), ("diamond", (4,))]
    named += [("grid", (4, 4)), ("grid", (5, 5)), ("grid", (4, 6))]
    specs = [(kind, params, 0) for kind, params in named]
    # 8 and 21 are coprime, so the sizes cycle through all of 2..22
    specs += [("random-sps", (2 + (i * 8) % 21,), 1000 + i) for i in range(100)]
    return specs


def ladder_specs():
    """One `random-sps` input per rung, at the generator seed 7."""
    return [("random-sps", (n,), 7) for n in (16, 24, 32)]


def certify_specs():
    """84 `random-sps` inputs with 12..22 elements and 16 wide grids.

    The grids are the slowest items, and the 90th percentile falls in the
    middle of the ten 6x6 copies, so it is a central value of ten items'
    times rather than one item's."""
    specs = [("random-sps", (12 + i % 11,), 2000 + i) for i in range(84)]
    for side, copies in ((6, 10), (7, 4), (8, 1), (9, 1)):
        specs += [("grid", (side, side), 0)] * copies
    return specs


SPECS = {"corpus": corpus_specs, "ladder": ladder_specs, "certify": certify_specs}


def item_key(kind, params, gen_seed):
    """Names an input structure; repeated structures share their key."""
    return f"{kind}{list(params)}#{gen_seed}"


@dataclass
class Item:
    key: str                 # the structure's item_key
    diagram: Diagram         # the relabeled input
    restore: dict            # relabeled name -> generator's name
    documents: tuple = ()    # certify: (lattice, tree) text


ALPHABET = string.ascii_letters + string.digits


def relabel(diag, rng):
    """The same diagram with every label replaced by a random label of the
    same length, so serialized sizes do not depend on the seed."""
    lat = diag.lattice
    rename, used = {}, set()
    for name in lat.names:
        new = name
        while new in used or new == name:
            new = "".join(rng.choice(ALPHABET) for _ in name)
        used.add(new)
        rename[name] = new
    covers = [(rename[lat.names[a]], rename[lat.names[b]]) for a, b in lat.covers]
    relabeled = Lattice(covers, elements=[rename[name] for name in lat.names])
    return Diagram(relabeled, diag.xcoord), {new: old for old, new in rename.items()}


def build(workload, seed, specs=None):
    """Set-up: generate the inputs, relabel them for `seed`, and for
    `certify` produce the lattice and certificate documents."""
    rng = random.Random(f"{workload}:{seed}")
    items = []
    for kind, params, gen_seed in specs or SPECS[workload]():
        canonical = lp.generate(kind, params, seed=gen_seed)
        diag, restore = relabel(canonical, rng)
        item = Item(item_key(kind, params, gen_seed), diag, restore)
        if workload == "certify":
            tree, _ = lp.decompose(diag)
            item.documents = (lp.serialize(diag), lp.serialize_tree(tree))
        items.append(item)
    rng.shuffle(items)
    return items


# -- the timed operation ------------------------------------------------------

def prepare(workload, item):
    """Untimed per-call input: a fresh Diagram, so no cached boundary
    carries over from an earlier pass."""
    if workload == "certify":
        return item.documents
    return Diagram(item.diagram.lattice, item.diagram.xcoord)


def run_item(workload, arg):
    """The timed work for one item."""
    if workload == "certify":
        diag = lp.parse_document(arg[0])
        tree = lp.parse_tree_document(arg[1])
        violation = lp.verify_tree(tree, diag)
        witness = lp.brute_force_gluing_search(diag, bound=None)
        invalid = witness and lp.validate_witness(witness)
        return violation, witness, invalid, lp.is_patch(diag)
    tree, _ = lp.decompose(arg)
    return lp.verify_tree(tree, arg), lp.serialize_tree(tree)


# -- correctness ---------------------------------------------------------------

def canonical_tree(text, restore):
    """A tree document with the generator's labels put back."""
    def walk(node):
        lattice = node["lattice"]
        lattice["elements"] = [restore[x] for x in lattice["elements"]]
        lattice["embedding"] = {restore[k]: v for k, v in lattice["embedding"].items()}
        if "chain" in node:
            node["chain"] = [restore[x] for x in node["chain"]]
        for child in node.get("children", ()):
            walk(child)

    doc = json.loads(text)
    walk(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    """Recorded SHA-256 of each structure's generator-labeled tree document."""
    return json.loads(BASELINE.read_text())["digests"]


def check(workload, item, out, digests):
    """The item's output fingerprint, or an error message when the output
    is wrong.  A fingerprint must not depend on the run's seed."""
    if workload == "certify":
        violation, witness, invalid, patch = out
        if violation is not None:
            return None, f"verify_tree: {violation}"
        if (witness is None) != patch:
            return None, f"dichotomy: is_patch={patch}, witness found={witness is not None}"
        if invalid:
            return None, f"oracle witness is invalid: {invalid}"
        parts = witness and [sorted(item.restore[x] for x in part)
                             for part in witness.labels()]
        return sha256(json.dumps(parts)), None
    violation, text = out
    if violation is not None:
        return None, f"verify_tree: {violation}"
    digest = sha256(canonical_tree(text, item.restore))
    if digest != digests.get(item.key):
        return None, f"tree digest {digest[:12]} differs from the recorded one"
    return digest, None


def combined_digest(fingerprints):
    """One SHA-256 over the per-item fingerprints, in item-key order."""
    return sha256("\n".join(fingerprints[k] for k in sorted(fingerprints)))


def record_digests():
    """Tree-document digests of the generator-labeled `corpus` and `ladder`
    inputs."""
    out = {}
    for kind, params, gen_seed in corpus_specs() + ladder_specs():
        diag = lp.generate(kind, params, seed=gen_seed)
        tree, _ = lp.decompose(diag)
        out[item_key(kind, params, gen_seed)] = sha256(lp.serialize_tree(tree))
    return out
