r"""The acceptance suite: one callable per criterion, shared by tests and CLI.

Each criterion function returns a CriterionResult with a pass flag and a
short detail string; ``run_all`` executes the whole battery.  Tolerances are
pinned here: they are part of the contract, not configuration.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
import random
import time

import mpmath

from . import affine, amalgam, curves, dynamics, flat_surface, obstruction, traintrack
from .flat_surface import HORIZONTAL, VERTICAL

DEFAULT_SEED = 7


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] criterion {self.index}: {self.name} ({self.seconds:.2f}s) {self.details}"


def _surface(g):
    return flat_surface.build_double_polygon(g)


def _timed(index, name, fn):
    start = time.perf_counter()
    try:
        passed, details = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, details = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(index, name, passed, details, time.perf_counter() - start)


# ---------------------------------------------------------------------------


def criterion_cylinder_structure(max_genus=6):
    """g cylinders per direction, tiling identity and equal moduli at 1e-12."""

    def run():
        worst_tile, worst_mod = 0.0, 0.0
        for g in range(2, max_genus + 1):
            s = _surface(g)
            with mpmath.workprec(s.precision):
                total = flat_surface.area(s)
                for direction in (HORIZONTAL, VERTICAL):
                    cyls = flat_surface.cylinder_decomposition(s, direction)
                    if len(cyls) != g:
                        return False, f"g={g} {direction}: {len(cyls)} cylinders"
                    tile = sum(c.circumference * c.height for c in cyls)
                    rel = abs(tile - total) / total
                    worst_tile = max(worst_tile, float(rel))
                    mods = [c.modulus for c in cyls]
                    spread = (max(mods) - min(mods)) / mods[0]
                    worst_mod = max(worst_mod, float(spread))
        ok = worst_tile <= 1e-12 and worst_mod <= 1e-12
        return ok, f"max tiling err {worst_tile:.2e}, max modulus spread {worst_mod:.2e}"

    return _timed(1, "cylinder structure", run)


def criterion_parabolic_traces(max_genus=6):
    """Twist derivatives have trace 2; the parabolic generator has trace -2 exactly."""

    def run():
        for g in range(2, max_genus + 1):
            s = _surface(g)
            gens = affine.generators(s)
            for key in ("TA", "TB"):
                if abs(gens[key].derivative.trace() - 2) > 1e-9:
                    return False, f"g={g}: trace D({key}) != 2"
                if affine.classify(gens[key].derivative) != "parabolic":
                    return False, f"g={g}: D({key}) not parabolic"
            gen0 = affine.parabolic_generator(g, s)
            if not gen0.derivative.trace() == -2:
                return False, f"g={g}: generator trace {gen0.derivative.trace()} != -2"
            if not (gen0 * gen0).derivative.trace() == 2:
                return False, f"g={g}: squared generator trace != 2"
        return True, f"g=2..{max_genus}: twist traces 2, generator trace -2 / square +2 exact"

    return _timed(2, "parabolicity and traces", run)


def _random_track(rng, n_max=5):
    """Random exact-rational weights with every crossing weight nonzero.

    The y and rest blocks are bounded multiples of the x block, which keeps
    the exact error curve C/(S0 + 2Xk) inside its k^-1 regime over the
    fitted window k >= 100.
    """
    n = rng.randint(1, n_max)
    comps = []
    xs = []
    for _ in range(n):
        x = Fraction(rng.randint(1, 10), rng.randint(1, 10))
        y = x * Fraction(rng.randint(0, 30), 10)
        comps.append((x, y, x + y))
        xs.append(x)
    rest_len = rng.randint(0, 2)
    rest = tuple(
        xs[rng.randrange(n)] * Fraction(rng.randint(0, 20), 10) for _ in range(rest_len)
    )
    return traintrack.TrackWeights(components=tuple(comps), rest=rest)


def criterion_twist_limit_oracle(seed=DEFAULT_SEED, n_seeds=200, k_max=10**4):
    """Closed-form limit against the honest k = 10^4 iterate, plus decay slope."""

    def run():
        rng = random.Random(seed)
        worst_err, slopes = 0.0, []
        for _ in range(n_seeds):
            w = _random_track(rng)
            limit = dynamics.twist_limit(w)
            trace = dynamics.iterate_trace(w, k_max)
            final = trace[-1]
            if final.k != k_max:
                return False, "missing final checkpoint"
            err = float(final.projective.distance(limit))
            worst_err = max(worst_err, err)
            fit = dynamics.decay_fit(trace, k_min=100)
            if fit is None:
                if final.error != 0:
                    return False, "no decay fit despite nonzero error"
                continue
            slopes.append(fit[0])
        if worst_err > 1e-3:
            return False, f"iterate vs limit sup error {worst_err:.2e} > 1e-3"
        bad = [f"{sl:.3f}" for sl in slopes if not -1.1 <= sl <= -0.9]
        if bad:
            return False, f"decay slopes outside [-1.1,-0.9]: {bad[:5]}"
        return True, (
            f"{n_seeds} seeds: max sup err {worst_err:.2e}, "
            f"slopes in [{min(slopes):.3f}, {max(slopes):.3f}]"
        )

    return _timed(3, "twist limit oracle equivalence", run)


def criterion_area_identity(max_genus=6):
    """sum_ij h_i w_j M[i][j] equals the flat area at 1e-10 relative."""

    def run():
        worst = 0.0
        for g in range(2, max_genus + 1):
            s = _surface(g)
            with mpmath.workprec(s.precision):
                m = curves.derive_intersection_matrix(s)
                hs = [c.height for c in flat_surface.cylinder_decomposition(s, HORIZONTAL)]
                ws = [c.height for c in flat_surface.cylinder_decomposition(s, VERTICAL)]
                total = sum(hs[i] * ws[j] * m[i][j] for i in range(g) for j in range(g))
                rel = abs(total - flat_surface.area(s)) / flat_surface.area(s)
                worst = max(worst, float(rel))
        return worst <= 1e-10, f"max relative error {worst:.2e}"

    return _timed(4, "area identity (pairing of the two foliations)", run)


def criterion_ratio_locus_genericity(seed=DEFAULT_SEED, n_samples=1000, max_genus=5):
    """Exact-rational sampling misses the locus; a planted heights vector hits it."""

    def run():
        for g in range(2, max_genus + 1):
            report = obstruction.genericity_sample(g, n_samples, seed + g)
            if report.hits != 0:
                return False, f"g={g}: {report.hits} random hits (expected 0)"
            planted = obstruction.genericity_sample(g, 50, seed + g, plant_at=0)
            if planted.hits != 1 or planted.fraction_in_locus != Fraction(1, 50):
                return False, f"g={g}: planted run hit {planted.hits} times (expected 1)"
        return True, f"g=2..{max_genus}: 0/{n_samples} random hits, planted 1/50"

    return _timed(5, "genericity of the height-ratio locus", run)


def criterion_obstruction_witness(seed=DEFAULT_SEED, n_negatives=500, max_genus=5):
    """Witness separation is 0 exactly on the locus and > 1e-6 off it."""

    def run():
        min_sep = None
        for g in range(2, max_genus + 1):
            s = _surface(g)
            with mpmath.workprec(s.precision):
                w = obstruction.vertical_heights(s)
                planted = obstruction.contradiction_witness(w, w)
                if not (planted.in_locus and planted.separation == 0):
                    return False, f"g={g}: planted positive failed"
                doubled = (2 * w[0],) + tuple(w[1:])
                res = obstruction.contradiction_witness(doubled, w)
                if res.in_locus or not res.separation > 0:
                    return False, f"g={g}: doubled-entry witness not separated"
                rng = random.Random(seed * 100 + g)
                for _ in range(n_negatives):
                    v = tuple(
                        Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
                        for _ in range(g)
                    )
                    res = obstruction.contradiction_witness(v, w)
                    if res.in_locus:
                        return False, f"g={g}: random sample landed in locus"
                    sep = float(res.separation)
                    if sep <= 1e-6:
                        return False, f"g={g}: separation {sep:.2e} <= 1e-6"
                    min_sep = sep if min_sep is None else min(min_sep, sep)
                # iteration cross-check: the track limit realizes [v], far
                # from the heights class, for a few of the negatives
                for _ in range(3):
                    v = tuple(
                        Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
                        for _ in range(g)
                    )
                    track = traintrack.TrackWeights(
                        components=tuple((x, Fraction(0), x) for x in v)
                    )
                    final = dynamics.iterate_trace(track, 10**4, checkpoints=[10**4])[0]
                    y_block = tuple(final.projective.vector[3 * j + 1] for j in range(g))
                    iter_class = dynamics.ProjectiveClass(y_block)
                    if float(iter_class.distance(dynamics.ProjectiveClass(v))) > 1e-3:
                        return False, f"g={g}: iterated limit missed [v]"
                    if float(iter_class.distance(dynamics.ProjectiveClass(w))) <= 1e-6:
                        return False, f"g={g}: iterated limit too close to heights class"
        return True, f"{n_negatives} negatives per g, min separation {min_sep:.2e}"

    return _timed(6, "obstruction witness separation", run)


def criterion_circle_map(seed=DEFAULT_SEED, genus=2, n_samples=720):
    """Injectivity on the fundamental arc, endpoint support patterns, rank 2."""

    def run():
        s = _surface(genus)
        with mpmath.workprec(s.precision):
            samples = dynamics.circle_samples(s, n_samples)  # arc [0, pi/2]
            min_dist = dynamics.min_pairwise_distance([cls for _, cls in samples])
            if min_dist <= 1e-10:
                return False, f"pairwise projective distance {min_dist:.2e} <= 1e-10"

            g = genus
            horizontal = samples[0][1].vector
            vertical = samples[-1][1].vector
            if not (
                all(v == 0 for v in horizontal[:g]) and all(v > 0 for v in horizontal[g:])
            ):
                return False, "horizontal endpoint support pattern wrong"
            if not (all(v > 0 for v in vertical[:g]) and all(v == 0 for v in vertical[g:])):
                return False, "vertical endpoint support pattern wrong"

            rng = random.Random(seed)
            pi = mpmath.pi
            delta = mpmath.mpf("1e-9")
            worst_ratio = 0.0
            for lo, hi in ((delta, pi / 2 - delta), (pi / 2 + delta, pi - delta)):
                for _ in range(40):
                    thetas = sorted(
                        lo + (hi - lo) * mpmath.mpf(rng.random()) for _ in range(4)
                    )
                    classes = [dynamics.direction_foliation(s, t) for t in thetas]
                    worst_ratio = max(worst_ratio, dynamics.numerical_rank_ratio(classes))
            if worst_ratio >= 1e-9:
                return False, f"rank-2 ratio {worst_ratio:.2e} >= 1e-9"
        return True, f"min pairwise distance {min_dist:.2e}, max rank ratio {worst_ratio:.2e}"

    return _timed(7, "boundary circle map", run)


# -- criterion 8: amalgam normal form ---------------------------------------
#
# Two oracles, both valid for the default edge generator z = g1:
#
# * the coset normal form z^m r_1 ... r_k, computed by a right-to-left sweep
#   pushing edge powers leftward through deterministic coset representatives
#   (words not starting with g1 or its inverse); its rep count is the
#   reduced syllable length by the uniqueness of the normal form;
#
# * a literal bounded-rewriting breadth-first search over equal words.


def syllable_alphabet(rank=2, max_letters=2):
    single = [(i,) for i in range(1, rank + 1)] + [(-i,) for i in range(1, rank + 1)]
    words = list(single)
    if max_letters >= 2:
        for a in single:
            for b in single:
                if a[0] != -b[0]:
                    words.append((a[0], b[0]))
    return words


def enumerate_words(max_syllables=3, rank=2, max_letters=2):
    """All alternating-factor words over the bounded syllable alphabet."""
    alphabet = syllable_alphabet(rank, max_letters)
    out = []
    for start in (amalgam.LEFT, amalgam.RIGHT):
        stack = [()]
        for depth in range(max_syllables):
            factor = start if depth % 2 == 0 else amalgam.LEFT if start == amalgam.RIGHT else amalgam.RIGHT
            stack = [prefix + ((factor, letters),) for prefix in stack for letters in alphabet]
            out.extend(stack)
    return [amalgam.amalgam_word(parts) for parts in out]


def _strip_edge_prefix(letters):
    # maximal prefix of g1 letters; a reduced word cannot mix their signs
    m = 0
    i = 0
    while i < len(letters) and abs(letters[i]) == 1:
        m += 1 if letters[i] > 0 else -1
        i += 1
    return m, letters[i:]


def normal_form(word):
    """Coset normal form (carry, reps): the element is z^carry r_1 ... r_k.

    Requires the default edge generator (generator 1 in both factors).
    Sweeps the syllables right to left; each syllable absorbs the pending
    edge power, splits off its own edge prefix, and merges with the previous
    representative when the factors collide (which happens exactly when a
    representative vanished in between).
    """
    if word.edge.left != (1,) or word.edge.right != (1,):
        raise ValueError("normal_form oracle assumes the default edge generator")
    stack = []  # reps right-to-left: stack[-1] is the leftmost pushed so far
    carry = 0
    for syll in reversed(word.syllables):
        z_carry = (1,) * carry if carry >= 0 else (-1,) * (-carry)
        u = amalgam.free_mul(syll.letters, z_carry)
        carry = 0
        while True:
            m, u = _strip_edge_prefix(u)
            carry += m
            if not u:
                break
            if stack and stack[-1][0] == syll.factor:
                _, top = stack.pop()
                u = amalgam.free_mul(u, top)
                continue
            stack.append((syll.factor, u))
            break
    return carry, tuple(reversed(stack))


def normal_form_length(word):
    carry, reps = normal_form(word)
    if reps:
        return len(reps)
    return 0 if carry == 0 else 1


def bounded_rewriting_min_length(word, max_letters=12, max_states=8000, max_shift=3):
    """Minimum syllable count over equal words reachable by bounded rewriting.

    Moves: normalization (drop trivial syllables, multiply same-factor
    neighbors), rewriting a whole edge-power syllable into the other factor,
    and shifting an edge power z^k (|k| <= max_shift) across a boundary.
    """
    edge = word.edge

    def normalize(state):
        items = list(state)
        while True:
            out = []
            changed = False
            for factor, letters in items:
                if not letters:
                    changed = True
                    continue
                if out and out[-1][0] == factor:
                    out[-1] = (factor, amalgam.free_mul(out[-1][1], letters))
                    changed = True
                else:
                    out.append((factor, letters))
            items = out
            if not changed:
                return tuple(items)

    start = normalize(tuple((s.factor, s.letters) for s in word.syllables))
    best = len(start)
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        best = min(best, len(state))
        neighbors = []
        for i, (factor, letters) in enumerate(state):
            other = amalgam.RIGHT if factor == amalgam.LEFT else amalgam.LEFT
            if len(state) >= 2:
                k_full = amalgam.power_of_edge(letters, edge.word(factor))
                if k_full is not None:
                    converted = amalgam.free_pow(edge.word(other), k_full)
                    neighbors.append(state[:i] + ((other, converted),) + state[i + 1 :])
            if i + 1 < len(state):
                nfactor, nletters = state[i + 1]
                for k in range(-max_shift, max_shift + 1):
                    if k == 0:
                        continue
                    left = amalgam.free_mul(letters, amalgam.free_pow(edge.word(factor), -k))
                    right = amalgam.free_mul(amalgam.free_pow(edge.word(nfactor), k), nletters)
                    neighbors.append(
                        state[:i] + ((factor, left), (nfactor, right)) + state[i + 2 :]
                    )
        for raw in neighbors:
            new = normalize(raw)
            if new in seen or sum(len(s[1]) for s in new) > max_letters:
                continue
            if len(seen) >= max_states:
                continue
            seen.add(new)
            queue.append(new)
    return best


def conjugacy_oracle(word):
    """Classification by exhausting syllable rotations of the normal form."""
    forms = set()
    frontier = [normal_form(word)]
    min_len = None
    single_witnesses = []
    while frontier:
        form = frontier.pop()
        if form in forms:
            continue
        forms.add(form)
        carry, reps = form
        length = len(reps) if reps else (0 if carry == 0 else 1)
        min_len = length if min_len is None else min(min_len, length)
        if length == 1:
            if reps:
                z_carry = (1,) * carry if carry >= 0 else (-1,) * (-carry)
                single_witnesses.append((reps[0][0], amalgam.free_mul(z_carry, reps[0][1])))
            else:
                single_witnesses.append((amalgam.LEFT, (1,) * carry if carry >= 0 else (-1,) * (-carry)))
        if len(reps) >= 2 and len(forms) < 200:
            z_carry = (1,) * carry if carry >= 0 else (-1,) * (-carry)
            first = (reps[0][0], amalgam.free_mul(z_carry, reps[0][1]))
            rotated = (reps[-1],) + (first,) + reps[1:-1]
            frontier.append(normal_form(amalgam.amalgam_word(rotated, word.edge)))
    if min_len == 0:
        return amalgam.IDENTITY
    if min_len >= 2:
        return amalgam.PSEUDO_ANOSOV_TYPE
    for _, letters in single_witnesses:
        core = list(letters)
        while len(core) >= 2 and core[0] == -core[-1]:
            core = core[1:-1]
        if all(l == 1 for l in core) or all(l == -1 for l in core):
            return amalgam.EDGE_CONJUGATE
    return amalgam.PSEUDO_ANOSOV_TYPE


def criterion_amalgam_normal_form():
    """Reduced length agrees with two independent oracles; classification exact."""

    def run():
        words = enumerate_words(max_syllables=3, rank=2, max_letters=2)
        for w in words:
            reduced = amalgam.britton_reduce(w)
            if not amalgam.is_britton_reduced(reduced):
                return False, f"unreduced output for {amalgam.format_word(w)}"
            expected = normal_form_length(w)
            if reduced.syllable_length != expected:
                return False, (
                    f"length mismatch vs normal form for {amalgam.format_word(w)}: "
                    f"{reduced.syllable_length} vs {expected}"
                )
        small = enumerate_words(max_syllables=3, rank=2, max_letters=1) + enumerate_words(
            max_syllables=2, rank=2, max_letters=2
        )
        for w in small:
            if amalgam.britton_reduce(w).syllable_length != bounded_rewriting_min_length(w):
                return False, f"length mismatch vs rewriting oracle for {amalgam.format_word(w)}"
        mismatches = [
            amalgam.format_word(w)
            for w in words
            if amalgam.classify_element(w) != conjugacy_oracle(w)
        ]
        if mismatches:
            return False, f"{len(mismatches)} classification mismatches, e.g. {mismatches[:3]}"
        return True, (
            f"{len(words)} words vs normal-form oracle, {len(small)} vs rewriting oracle, "
            f"classification exact"
        )

    return _timed(8, "amalgam normal form and classification", run)


# ---------------------------------------------------------------------------


def run_all(seed=DEFAULT_SEED, max_genus=6):
    max_genus = max(2, min(max_genus, 6))
    locus_genus = min(max_genus, 5)
    return [
        criterion_cylinder_structure(max_genus),
        criterion_parabolic_traces(max_genus),
        criterion_twist_limit_oracle(seed),
        criterion_area_identity(max_genus),
        criterion_ratio_locus_genericity(seed, max_genus=locus_genus),
        criterion_obstruction_witness(seed, max_genus=locus_genus),
        criterion_circle_map(seed),
        criterion_amalgam_normal_form(),
    ]
