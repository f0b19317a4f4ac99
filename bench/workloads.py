"""Seeded inputs, fixed job lists and the expected answers for each workload.

Every input is generated from the seed by the benchmark's own code and
written in relcomplex's text formats; every expected value is computed
here from the generated relation or order, apart from the program.  A
workload is a list of jobs that every round runs in the same order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import checks as ck
from checks import expect


@dataclass
class Job:
    command: str  # the CLI command, e.g. "verify dowker"
    argv: List[str]
    check: Callable[[object], None]  # raises CheckError on a wrong report
    then: Optional[Callable[[str], None]] = None  # derives a later job's input file


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    inputs: List[Tuple[str, str]]  # (kind, path) of every generated input file
    tail_pct: int  # the percentile reported as latency_tail_ms
    sizes: dict  # input sizes, for the README


# ---------------------------------------------------------------- text files


def _write(path: Path, header: str, lines) -> str:
    path.write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_relation(path, xs, ys, pairs) -> str:
    lines = [f"xelement {x}" for x in xs] + [f"yelement {y}" for y in ys]
    lines += [f"pair {x} {y}" for x, y in pairs]
    return _write(path, f"relation {path.stem}", lines)


def write_complex(path, facets) -> str:
    return _write(path, f"complex {path.stem}", ["facet " + " ".join(f) for f in facets])


def write_poset(path, poset) -> str:
    lines = [f"element {lab}" for lab in poset.labels]
    lines += [f"le {a} {b}" for a, b in poset.covers()]
    return _write(path, f"poset {path.stem}", lines)


def write_space(path, points, opens) -> str:
    lines = [f"point {p}" for p in points] + ["open " + " ".join(o) for o in opens if o]
    return _write(path, f"space {path.stem}", lines)


# ---------------------------------------------------------------- relations


def biregular_supports(rng, n: int, s: int) -> list:
    """n distinct supports of size s over n points, every point in s of them.

    Overlaying s random permutations keeps both sides regular, so the K and
    L complexes have nearly the same face counts for every seed.
    """
    while True:
        sup = [0] * n
        for _ in range(s):
            perm = list(range(n))
            rng.shuffle(perm)
            if any(sup[j] >> perm[j] & 1 for j in range(n)):
                break
            for j in range(n):
                sup[j] |= 1 << perm[j]
        else:
            if len(set(sup)) == n:
                return sup


def transpose_masks(sup: list, n: int) -> list:
    return [sum(1 << j for j, m in enumerate(sup) if m >> i & 1) for i in range(n)]


def relation_pairs(xs, ys, sup) -> list:
    return [(xs[i], ys[j]) for j, m in enumerate(sup) for i in range(len(xs)) if m >> i & 1]


# ---------------------------------------------------------------- posets


class GenPoset:
    """A generated order: ``down[i]`` is the mask of elements <= i."""

    def __init__(self, labels, lower_covers):
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)
        self.lower = lower_covers
        down = [None] * n

        def fill(i):
            if down[i] is None:
                m = 1 << i
                for c in lower_covers[i]:
                    m |= fill(c)
                down[i] = m
            return down[i]

        for i in range(n):
            fill(i)
        self.down = down
        self.up = [sum(1 << j for j in range(n) if down[j] >> i & 1) for i in range(n)]

    def covers(self) -> list:
        return sorted((self.labels[c], self.labels[i]) for i in range(len(self.labels)) for c in self.lower[i])

    def strict_pairs(self) -> set:
        n = len(self.labels)
        return {(self.labels[i], self.labels[j]) for i in range(n) for j in range(n) if i != j and self.up[i] >> j & 1}

    def connected(self) -> bool:
        reach = self.up[0] | self.down[0]
        while True:
            grown = reach
            for i in range(len(self.labels)):
                if reach >> i & 1:
                    grown |= self.up[i] | self.down[i]
            if grown == reach:
                return reach == (1 << len(self.labels)) - 1
            reach = grown

    @staticmethod
    def _faces(principal, strict: bool) -> set:
        """Faces of the Dowker complex whose supports are the principal sets.

        The strict order drops each element from its own principal set.
        """
        if strict:
            principal = [m & ~(1 << i) for i, m in enumerate(principal)]
        return ck.closure(m for m in principal if m)

    def k_faces(self, strict=False) -> set:
        return self._faces(self.down, strict)

    def l_faces(self, strict=False) -> set:
        return self._faces(self.up, strict)

    def maximal_chains(self) -> list:
        """Maximal chains as masks: paths from a minimal to a maximal element."""
        n = len(self.labels)
        upper = [[j for j in range(n) if i in self.lower[j]] for i in range(n)]
        out = []

        def walk(i, mask):
            if not upper[i]:
                out.append(mask)
            for j in upper[i]:
                walk(j, mask | 1 << j)

        for i in range(n):
            if not self.lower[i]:
                walk(i, 1 << i)
        return out

    def down_set_lattice(self) -> set:
        """Every union of principal down-sets: the open sets of the order's topology."""
        opens = {0}
        for d in self.down:
            opens |= {m | d for m in opens}
        return opens


def layered_poset(rng, widths, p: float, names) -> GenPoset:
    """A connected poset whose covers join consecutive layers at random."""
    while True:
        layers, start = [], 0
        for w in widths:
            layers.append(list(range(start, start + w)))
            start += w
        lower = [[] for _ in range(start)]
        for below, here in zip(layers, layers[1:]):
            for b in here:
                lower[b] = [a for a in below if rng.random() < p] or [rng.choice(below)]
            for a in below:
                if not any(a in lower[b] for b in here):
                    lower[rng.choice(here)].append(a)
        q = GenPoset(names[:start], lower)
        if q.connected():
            return q


def circle4_chain(n: int, names) -> GenPoset:
    """circle4 x chain(n): (a, i) <= (b, j) iff a <= b in circle4 and i <= j."""
    c4_lower = {0: [], 1: [], 2: [0, 1], 3: [0, 1]}
    idx = lambda a, i: a * n + i
    lower = [[] for _ in range(4 * n)]
    for a in range(4):
        for i in range(n):
            lower[idx(a, i)] = [idx(b, i) for b in c4_lower[a]] + ([idx(a, i - 1)] if i else [])
    return GenPoset(names[: 4 * n], lower)


def shuffled_names(rng, prefix: str, n: int) -> list:
    names = [f"{prefix}{i:02d}" for i in range(n)]
    rng.shuffle(names)
    return names


def sized_poset(rng, widths, p, prefix: str, accept) -> GenPoset:
    """A layered poset drawn again until ``accept`` holds, to keep sizes steady across seeds."""
    while True:
        q = layered_poset(rng, widths, p, shuffled_names(rng, prefix, sum(widths)))
        if accept(q):
            return q


def faces_within(lo: int, hi: int):
    """Accept a poset whose non-strict K and L both have lo..hi faces."""
    return lambda q: lo <= len(q.k_faces()) <= hi and lo <= len(q.l_faces()) <= hi


# ---------------------------------------------------------------- checks on reports


def check_dowker(xs, ys, sup):
    """verify dowker: same is true; Betti numbers of K and L equal GF(p) ones."""
    k = ck.closure(sup)
    l = ck.closure(transpose_masks(sup, len(xs)))
    expected = {"k": (ck.betti_mod_p(k), ck.euler(k)), "l": (ck.betti_mod_p(l), ck.euler(l))}

    def check(value):
        expect(value["same"] is True, "K and L reported with different homology")
        for side, (betti, chi) in expected.items():
            got = value[side]["betti"]
            expect(got == betti, f"{side} Betti numbers {got}, expected {betti} over GF(p)")
            alt = sum(b if n % 2 == 0 else -b for n, b in enumerate(got))
            expect(alt == chi, f"{side} alternating Betti sum {alt} != Euler characteristic {chi}")

    return check


def check_collapse_to(poset: GenPoset, side: str):
    """collapse leq-strict: every step is free and the replay ends at K' (or L')."""
    start = poset.k_faces() if side == "k" else poset.l_faces()
    target = poset.k_faces(strict=True) if side == "k" else poset.l_faces(strict=True)

    def check(value):
        rep = ck.replay_steps(start, value["steps"], poset.index)
        expect(rep.faces == target, f"replay ends off the strict {side.upper()} complex")

    return check


def check_greedy(faces: set, index: dict, labels: list):
    """collapse greedy: every step is free, chi is kept, the core has no free face."""
    chi = ck.euler(faces)

    def check(value):
        rep = ck.replay_steps(faces, value["steps"], index)
        expect(ck.euler(rep.faces) == chi, "Euler characteristic changed by the collapse")
        expect(not rep.free_faces(), "greedy core still has a free face")
        core = {frozenset(ck.labels_of(f, labels)) for f in ck.maximal(rep.faces)}
        expect(ck.facet_sets(value["core_facets"]) == core, "core facets differ from the replayed core")

    return check


# ---------------------------------------------------------------- workloads

# (n, s): n supports of size s over n points, so K and L each have about
# n * (2^s - 1) faces less overlaps.  The ladder spans a few hundred to about
# 1k faces of K and L together.  The sizes that hold the median (n = 20)
# and the p90 (n = 44) come eight times each, and as many jobs run below
# the n = 20 group as above it, so that each percentile falls near the
# middle of a group of like jobs and reads several seeded relations, not
# one.  Eight mid-sized relations rather than four larger ones give the
# tail twice the samples in a run of the same length.
DOWKER_LADDER = [(12, 4)] * 6 + [(16, 4)] * 6 + [(20, 4)] * 8 + [(28, 4)] * 2 + [(36, 4)] * 2 + [(44, 4)] * 8


def dowker_homology(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    jobs, inputs, faces = [], [], []
    for r, (n, s) in enumerate(DOWKER_LADDER):
        sup = biregular_supports(rng, n, s)
        xs, ys = shuffled_names(rng, "x", n), shuffled_names(rng, "y", n)
        path = write_relation(work / f"r{r:02d}.relation", xs, ys, relation_pairs(xs, ys, sup))
        inputs.append(("relation", path))
        jobs.append(Job("verify dowker", ["verify", "dowker", "--relation", path], check_dowker(xs, ys, sup)))
        faces.append(len(ck.closure(sup)) + len(ck.closure(transpose_masks(sup, n))))
    return Workload("dowker-homology", jobs, inputs, 90, {"faces_k_plus_l": faces})


# Layer widths and cover probability of the random posets (10-16 elements).
# A poset is drawn again until K and L both land in the narrow face window,
# so collapse costs vary little from seed to seed.
COLLAPSE_LAYERS = [([3, 4, 3], 0.6), ([4, 5, 3], 0.45), ([4, 5, 4], 0.35), ([2, 3, 3, 2], 0.35), ([8, 8], 0.45)]
COLLAPSE_FACES = (330, 370)


def poset_collapse(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    posets = [circle4_chain(3, shuffled_names(rng, "c", 12))]
    for widths, p in COLLAPSE_LAYERS:
        posets.append(sized_poset(rng, widths, p, "e", faces_within(*COLLAPSE_FACES)))
    jobs, inputs, sizes = [], [], []
    for r, q in enumerate(posets):
        ppath = write_poset(work / f"p{r}.poset", q)
        kfaces = q.k_faces()
        kcomplex = [ck.labels_of(f, q.labels) for f in sorted(ck.maximal(kfaces))]
        cpath = write_complex(work / f"p{r}k.complex", kcomplex)
        inputs += [("poset", ppath), ("complex", cpath)]
        for side in ("k", "l"):
            jobs.append(Job(f"collapse leq-strict --side {side}", ["collapse", "leq-strict", "--poset", ppath, "--side", side], check_collapse_to(q, side)))
        jobs.append(Job("collapse greedy", ["collapse", "greedy", "--complex", cpath], check_greedy(kfaces, q.index, q.labels)))
        sizes.append({"elements": len(q.labels), "k_faces": len(kfaces), "l_faces": len(q.l_faces())})
    return Workload("poset-collapse", jobs, inputs, 90, {"posets": sizes})


def _order_report(value, q: GenPoset, what: str) -> None:
    expect(value["elements"] == sorted(q.labels), f"{what}: elements differ")
    got = {tuple(p) for p in value["less_than"]}
    expect(got == q.strict_pairs(), f"{what}: order differs from the generated one")


def _maximal_supports(pairs, key: int) -> set:
    """Facets of the K-complex of a pair list: its maximal supports."""
    supports = {}
    for pair in pairs:
        supports.setdefault(pair[key], set()).add(pair[1 - key])
    return _maximal(frozenset(s) for s in supports.values())


def _labels_of_masks(masks, labels) -> set:
    return {frozenset(ck.labels_of(m, labels)) for m in masks}


def realizable_complex(rng, facets: int, pool: int) -> list:
    """Facets that each own a private vertex, over a shared vertex pool."""
    shared = shuffled_names(rng, "v", pool)
    private = shuffled_names(rng, "w", facets)
    return [sorted(rng.sample(shared, 3) + [w]) for w in private]


def random_complex(rng, vertices: int, triangles: int, tetrahedra: int) -> Tuple[list, list]:
    labels = shuffled_names(rng, "u", vertices)
    tops = [sum(1 << i for i in rng.sample(range(vertices), 3)) for _ in range(triangles)]
    tops += [sum(1 << i for i in rng.sample(range(vertices), 4)) for _ in range(tetrahedra)]
    return labels, tops


def random_relation(rng, xs, count: int, lo: int, hi: int) -> list:
    """count supports whose sizes cycle through lo..hi, so the pair count is fixed."""
    return [frozenset(rng.sample(xs, lo + i % (hi - lo + 1))) for i in range(count)]


def supports_file(path, xs, prefix, rng, supports) -> Tuple[str, dict]:
    """Write a relation with one y per support; return its path and y -> support."""
    ys = shuffled_names(rng, prefix, len(supports))
    of = dict(zip(ys, supports))
    return write_relation(path, xs, ys, [(x, y) for y in ys for x in sorted(of[y])]), of


def _maximal(sets) -> set:
    sets = set(sets)
    return {s for s in sets if not any(s < t for t in sets)}


def closed_relation(rng, x: GenPoset, y: GenPoset) -> set:
    """An up-closed relation: minimal x with maximal y, maximal x with minimal y."""
    def ends(q, lowest):
        return [i for i in range(len(q.labels)) if (q.down if lowest else q.up)[i] == 1 << i]

    gens = [(i, rng.choice(ends(y, False))) for i in ends(x, True)]
    gens += [(rng.choice(ends(x, False)), j) for j in ends(y, True)]
    pairs = set()
    for i, j in gens:
        for a in range(len(x.labels)):
            for b in range(len(y.labels)):
                if x.up[i] >> a & 1 and y.up[j] >> b & 1:
                    pairs.add((x.labels[a], y.labels[b]))
    return pairs


def _has_maximum(q: GenPoset, members: set) -> bool:
    mask = sum(1 << q.index[m] for m in members)
    return any(q.down[q.index[m]] & mask == mask for m in members)


def check_closed(x: GenPoset, y: GenPoset, pairs: set, mode: str):
    """closed verify: the two Betti profiles equal GF(p) ones; the verdict follows them."""
    if mode == "quillen":
        keys = ("cx_homology", "cy_homology")
        faces = [ck.closure(q.maximal_chains()) for q in (x, y)]
        holds = None
    else:
        keys = ("kx_homology", "ky_homology")
        faces = [q.k_faces() for q in (x, y)]
        fibers = [{b for a, b in pairs if a == e} for e in x.labels]
        fibers_y = [{a for a, b in pairs if b == e} for e in y.labels]
        holds = all(_has_maximum(y, f) for f in fibers) and all(_has_maximum(x, f) for f in fibers_y)
    bettis = [ck.betti_mod_p(f) for f in faces]

    def check(value):
        expect(value["mode"] == mode, "wrong mode in report")
        for key, betti in zip(keys, bettis):
            expect(value[key]["betti"] == betti, f"{key} Betti numbers differ from GF(p) ones")
        width = max(map(len, bettis))
        same = len({tuple(b + [0] * (width - len(b))) for b in bettis}) == 1
        expect(value["same_homology"] == same, "same_homology contradicts the Betti numbers")
        if holds is not None:
            expect(value["hypothesis"]["holds"] == holds, "fiber-maximum hypothesis misjudged")
        met = value["hypothesis_met"]
        verdict = "confirmed" if met and value["same_homology"] else "hypothesis-not-met" if not met else None
        expect(value["verdict"] == verdict, f"verdict {value['verdict']!r} does not follow the checks")

    return check


# Input sizes per copy of the cli-files job list; each round runs every copy.
# Posets are drawn again until their sizes fall in the windows, so that job
# times vary little from seed to seed.
CLI_COPIES = 3
CLI_SIZES = {
    "realizable_facets": 60, "realizable_pool": 16,
    "greedy_complex": (18, 60, 12),
    "relation_x": 40, "relation_y": 160,
    "topology_poset": ([5, 5, 5], 0.3), "topology_opens": (330, 370), "topology_k_l_faces": (600, 800),
    "chain_poset": ([3] * 6, 0.5), "chain_faces": (700, 750),
    "quillen_posets": ([4, 4, 4], [4, 4]), "weak_posets": ([5, 5], [5, 5]),
}


def cli_files(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    jobs, inputs = [], []
    for c in range(CLI_COPIES):
        d = work / f"set{c}"
        d.mkdir()
        # dowker canonical and poset realize: a complex with a private vertex per facet
        facets = realizable_complex(rng, CLI_SIZES["realizable_facets"], CLI_SIZES["realizable_pool"])
        want = {frozenset(f) for f in facets}
        tpath = write_complex(d / "t.complex", facets)

        def canonical(value, want=want):
            expect(_maximal_supports(value["pairs"], 1) == want, "K of the canonical relation lost a facet")

        def realized(value, want=want):
            q_pairs = [(a, b) for a, b in value["less_than"]] + [(e, e) for e in value["elements"]]
            expect(_maximal_supports(q_pairs, 1) == want, "K of the realized poset lost a facet")

        jobs.append(Job("dowker canonical", ["dowker", "canonical", "--complex", tpath], canonical))
        jobs.append(Job("poset realize", ["poset", "realize", "--complex", tpath], realized))

        # dowker morphism and equivalent: A -> B by support inclusion, A ~ A2
        xs = shuffled_names(rng, "a", CLI_SIZES["relation_x"])
        a_sup = random_relation(rng, xs, CLI_SIZES["relation_y"], 3, 6)
        b_sup = [s | frozenset(rng.sample(xs, 1)) for s in a_sup]
        b_sup += random_relation(rng, xs, len(a_sup) // 2, 3, 6)
        rng.shuffle(b_sup)
        a2_sup = a_sup + [frozenset(rng.sample(sorted(s), len(s) - 1)) for s in a_sup[: len(a_sup) // 2]]
        rng.shuffle(a2_sup)
        apath, a_of = supports_file(d / "a.relation", xs, "y", rng, a_sup)
        bpath, b_of = supports_file(d / "b.relation", xs, "z", rng, b_sup)
        a2path, _ = supports_file(d / "a2.relation", xs, "t", rng, a2_sup)
        exists = all(any(s <= t for t in b_sup) for s in a_sup)
        equivalent = _maximal(a_sup) == _maximal(a2_sup)

        def morphism(value, a_of=a_of, b_of=b_of, exists=exists):
            expect(value["exists"] == exists, "morphism existence misjudged")
            got = value["assignment"] or {}
            if exists:
                expect(sorted(got) == sorted(a_of), "assignment is not total on Y")
            for y, z in got.items():
                expect(a_of[y] <= b_of.get(z, frozenset()), f"assignment {y}->{z} breaks the morphism law")

        def equiv(value, equivalent=equivalent):
            expect(value["equivalent"] == equivalent, "equivalence misjudged")

        jobs.append(Job("dowker morphism", ["dowker", "morphism", "--from", apath, "--to", bpath], morphism))
        jobs.append(Job("dowker equivalent", ["dowker", "equivalent", "--a", apath, "--b", a2path], equiv))

        # the topology dictionary and the poset complexes
        widths, p = CLI_SIZES["topology_poset"]
        lo, hi = CLI_SIZES["topology_opens"]
        q = sized_poset(rng, widths, p, "q", lambda q: lo <= len(q.down_set_lattice()) <= hi
                        and faces_within(*CLI_SIZES["topology_k_l_faces"])(q))
        widths, p = CLI_SIZES["chain_poset"]
        lo, hi = CLI_SIZES["chain_faces"]
        chained = sized_poset(rng, widths, p, "h", lambda q: lo <= len(ck.closure(q.maximal_chains())) <= hi)
        qpath = write_poset(d / "q.poset", q)
        hpath = write_poset(d / "h.poset", chained)
        spath = d / "q.space"
        opens = _labels_of_masks(q.down_set_lattice(), q.labels)

        def to_topology(value, q=q, opens=opens):
            expect(value["points"] == sorted(q.labels), "topology points differ")
            expect({frozenset(o) for o in value["opens"]} == opens, "opens differ from the down-set lattice")

        def save_space(out, spath=spath):
            value = json.loads(out)
            write_space(spath, value["points"], value["opens"])

        jobs.append(Job("poset to-topology", ["poset", "to-topology", "--poset", qpath], to_topology, save_space))
        jobs.append(Job("poset from-topology", ["poset", "from-topology", "--space", str(spath)],
                        lambda value, q=q: _order_report(value, q, "from-topology")))
        for name, poset, masks in (("k", q, q.down), ("l", q, q.up), ("order-complex", chained, chained.maximal_chains())):
            want_facets = _labels_of_masks(ck.maximal(ck.closure(masks)), poset.labels)
            path = hpath if poset is chained else qpath

            def facets_check(value, want_facets=want_facets, name=name):
                expect(ck.facet_sets(value["facets"]) == want_facets, f"poset {name} facets differ")

            jobs.append(Job(f"poset {name}", ["poset", name, "--poset", path], facets_check))

        # collapse greedy, then collapse verify on the steps it wrote
        labels, tops = random_complex(rng, *CLI_SIZES["greedy_complex"])
        cfaces = ck.closure(tops)
        cpath = write_complex(d / "c.complex", [ck.labels_of(f, labels) for f in sorted(ck.maximal(cfaces))])
        steps_path = d / "c.steps.json"
        index = {lab: i for i, lab in enumerate(labels)}
        greedy = check_greedy(cfaces, index, labels)

        def verify(value, cfaces=cfaces, index=index, labels=labels, steps_path=steps_path):
            steps = json.loads(steps_path.read_text())["steps"]
            core = ck.replay_steps(cfaces, steps, index).faces
            expect(ck.facet_sets(value["facets"]) == _labels_of_masks(ck.maximal(core), labels),
                   "collapse verify does not return the greedy core")

        jobs.append(Job("collapse greedy", ["collapse", "greedy", "--complex", cpath], greedy,
                        lambda out, p=steps_path: p.write_text(out)))
        jobs.append(Job("collapse verify", ["collapse", "verify", "--complex", cpath, "--steps", str(steps_path)], verify))

        # closed verify in both modes; the weak check builds the relation's own
        # poset, whose K-complex grows fast with depth, so it gets flatter posets
        closed = []
        for mode, key in (("quillen", "quillen_posets"), ("weak", "weak_posets")):
            xw, yw = CLI_SIZES[key]
            x = layered_poset(rng, xw, 0.6, shuffled_names(rng, "m", sum(xw)))
            y = layered_poset(rng, yw, 0.6, shuffled_names(rng, "n", sum(yw)))
            pairs = closed_relation(rng, x, y)
            xpath, ypath = write_poset(d / f"{mode}x.poset", x), write_poset(d / f"{mode}y.poset", y)
            rpath = write_relation(d / f"{mode}.relation", x.labels, y.labels, sorted(pairs))
            jobs.append(Job(f"closed verify --mode {mode}",
                            ["closed", "verify", "--xposet", xpath, "--yposet", ypath, "--relation", rpath, "--mode", mode],
                            check_closed(x, y, pairs, mode)))
            closed += [("poset", xpath), ("poset", ypath), ("relation", rpath)]
        inputs += [("complex", tpath), ("relation", apath), ("relation", bpath), ("relation", a2path),
                   ("poset", qpath), ("poset", hpath), ("complex", cpath)] + closed
    return Workload("cli-files", jobs, inputs, 99, dict(CLI_SIZES, copies=CLI_COPIES))


WORKLOADS = {"dowker-homology": dowker_homology, "poset-collapse": poset_collapse, "cli-files": cli_files}
