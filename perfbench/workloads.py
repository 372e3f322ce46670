"""The benchmark workloads: inputs drawn from a seed, the timed calls, the output checks.

Each workload is a closed loop with one client: ``run.py`` takes an operation,
runs it (the timed part), then checks its output before taking the next.

A workload's stated mix is its cycle: ``CYCLE[stratum]`` operations of each
stratum, in an order the seed shuffles.  Runs execute whole cycles.  Operation
costs differ by orders of magnitude between strata, and whole cycles keep the
mix of every run, and with it the run's figures, the same however far the
time budget reaches.  For the same reason the parameter that sets an
operation's cost inside a stratum (genus, word length, iteration count, ...)
is spread evenly rather than drawn independently: it walks round a list, or
along a golden-ratio sequence, from a start the seed picks.
"""

from dataclasses import dataclass, field
import contextlib
from fractions import Fraction
import io
import json
import math

import mpmath
from mpmath.libmp import prec_to_dps

GOLDEN = (math.sqrt(5) - 1) / 2


class CheckFailed(Exception):
    """An operation returned an output that violates a pinned invariant."""


class InputsExhausted(Exception):
    """The workload has no fresh input left for another cycle."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    stratum: str
    genus: int = None
    params: dict = field(default_factory=dict)


class Workload:
    """Base of the workloads: ``cycle`` draws one cycle of operations."""

    CYCLE = {}

    def __init__(self, lamkit, rng):
        self.lk = lamkit
        self.rng = rng
        self._golden = {}
        self._turn = {}

    def even(self, key):
        """The next point in [0, 1) of a golden-ratio walk kept under ``key``."""
        if key not in self._golden:
            self._golden[key] = self.rng.random()
        self._golden[key] = (self._golden[key] + GOLDEN) % 1.0
        return self._golden[key]

    def turn(self, key, values):
        """The next of ``values`` in a round kept under ``key``."""
        if key not in self._turn:
            self._turn[key] = self.rng.randrange(len(values))
        self._turn[key] += 1
        return values[self._turn[key] % len(values)]

    def cycle(self):
        strata = [name for name, count in self.CYCLE.items() for _ in range(count)]
        self.rng.shuffle(strata)
        return [self.draw(name) for name in strata]

    def twin(self, op):
        """An operation of equal cost, run beside ``op`` in traced runs."""
        return op


def log_uniform(u, lo, hi):
    """The integer at quantile ``u`` of the log-uniform distribution on [lo, hi]."""
    return min(hi, max(lo, round(lo * (hi / lo) ** u)))


def signed(rng, magnitude):
    return magnitude if rng.random() < 0.5 else -magnitude


def pow2_histogram(values):
    """Counts of positive integers in the bins [2^k, 2^(k+1) - 1]."""
    counts = {}
    for v in values:
        b = max(1, int(v)).bit_length()
        counts[b] = counts.get(b, 0) + 1
    return {f"{2 ** (b - 1)}-{2 ** b - 1}": counts[b] for b in sorted(counts)}


def mantissa_bits(x):
    """Bits in the mantissa of an mpf (or in an int), without rounding it."""
    if isinstance(x, int):
        return x.bit_length()
    return int(x._mpf_[3])


def json_round_trips(bits):
    """True when ``mpf_str``'s digit count (mpmath dps + 2) is enough for any
    ``bits``-bit value to read back exactly: ceil(bits * log10 2) + 1 digits."""
    return prec_to_dps(bits) + 2 >= math.ceil(bits * math.log10(2)) + 1


# ---------------------------------------------------------------------------


class ColdGeometry(Workload):
    """Full analysis of a surface the process has never seen.

    Every operation uses a (genus, precision) pair not used before in the
    process, so every decomposition misses the package's cache without the
    benchmark touching any private name.  A cycle holds about 128/g^2 (at
    least one) operations of each genus 2-16: most operations are small, and
    the high-genus scaling of the vertical decomposition and the crossing
    count sets the upper percentiles.

    The precisions of a genus form a ladder: n slots at the quantiles
    (i + 1/2)/n of the range, turned by g times the golden ratio so that the
    one-slot genera spread over the range too.  Each cycle moves the ladder
    up by ``LADDER_STEP`` bits, and the seed moves every slot by up to
    ``JITTER`` bits; the nearest unused usable precision is taken.  A run of
    any seed and any length thus has the same cost profile, while no pair
    repeats.

    Precisions are those of 128-2048 bits at which ``surface_to_json`` writes
    enough decimal digits to round-trip (``json_round_trips``).  At the other
    half it writes one digit fewer than that, and about one surface in eight
    then reads back different, which the round-trip check would report.
    """

    name = "cold-geometry"
    GENERA = range(2, 17)
    PRECISION = (128, 2048)
    CYCLE = {f"g{g}": max(1, round(128 / g**2)) for g in GENERA}
    LADDER_STEP = 5
    JITTER = 8

    def __init__(self, lamkit, rng, workdir):
        super().__init__(lamkit, rng)
        self._used = set()
        self._cycles = 0
        lo, hi = self.PRECISION
        self._left = dict.fromkeys(self.GENERA, sum(map(json_round_trips, range(lo, hi + 1))))

    def _usable(self, genus, bits):
        lo, hi = self.PRECISION
        return lo <= bits <= hi and json_round_trips(bits) and (genus, bits) not in self._used

    def _op(self, genus, bits):
        self._used.add((genus, bits))
        self._left[genus] -= 1
        return Op(f"g{genus}", genus, {"precision": bits})

    def _nearest(self, genus, bits):
        """An operation at the usable, unused precision nearest ``bits``."""
        if not self._left[genus]:
            raise InputsExhausted(f"every precision of genus {genus} has been used")
        for step in range(self.PRECISION[1]):
            for candidate in (bits + step, bits - step):
                if self._usable(genus, candidate):
                    return self._op(genus, candidate)

    def cycle(self):
        lo, hi = self.PRECISION
        ops = []
        for g in self.GENERA:
            n = self.CYCLE[f"g{g}"]
            for i in range(n):
                u = ((i + 0.5) / n + g * GOLDEN) % 1.0
                shift = self._cycles * self.LADDER_STEP + self.rng.randint(-self.JITTER, self.JITTER)
                ops.append(self._nearest(g, lo + (round(u * (hi - lo)) + shift) % (hi - lo + 1)))
        self._cycles += 1
        self.rng.shuffle(ops)
        return ops

    def twin(self, op):
        """The same genus at the nearest unused precision, for an equal-cost pair."""
        return self._nearest(op.genus, op.params["precision"])

    def run(self, op):
        lk = self.lk
        g, bits = op.genus, op.params["precision"]
        surface = lk.flat_surface.build_double_polygon(g, precision=bits)
        horizontal = lk.flat_surface.cylinder_decomposition(surface, "horizontal")
        vertical = lk.flat_surface.cylinder_decomposition(surface, "vertical")
        matrix = lk.curves.derive_intersection_matrix(surface)
        heights = lk.obstruction.vertical_heights(surface)
        generator = lk.affine.parabolic_generator(g, surface)
        symmetric = lk.flat_surface.hyperelliptic_symmetry(surface)
        text = lk.flat_surface.surface_to_json(surface)
        restored = lk.flat_surface.surface_from_json(text, precision=bits)
        return surface, horizontal, vertical, matrix, heights, generator, symmetric, restored

    def check(self, op, result):
        surface, horizontal, vertical, matrix, heights, generator, symmetric, restored = result
        g = op.genus
        with mpmath.workprec(op.params["precision"]):
            total = self.lk.flat_surface.area(surface)
            for cylinders in (horizontal, vertical):
                require(len(cylinders) == g, f"{len(cylinders)} cylinders, expected {g}")
                tiled = sum(c.circumference * c.height for c in cylinders)
                require(abs(tiled - total) <= 1e-12 * total, "sum c*h differs from the area")
            hs = [c.height for c in horizontal]
            ws = [c.height for c in vertical]
            require(list(heights) == ws, "vertical_heights differs from the vertical cylinders")
            pairing = sum(hs[i] * ws[j] * matrix[i][j] for i in range(g) for j in range(g))
            require(abs(pairing - total) <= 1e-10 * total, "sum h_i w_j M_ij differs from the area")
        require(generator.derivative.trace() == -2, "parabolic generator trace is not -2")
        require(symmetric is True, "hyperelliptic symmetry not found")
        require(restored == surface, "JSON round trip changed the surface")
        per_polygon = {}
        for cylinders, side in ((horizontal, 0), (vertical, 1)):
            for c in cylinders:
                for seg in c.core_segments:
                    counts = per_polygon.setdefault(seg.polygon, [0, 0])
                    counts[side] += 1
        m = generator.derivative
        return {
            "flat_surface.strips": sum(len(c.strips) for c in horizontal + vertical),
            "curves.segment_pairs": sum(h * v for h, v in per_polygon.values()),
            "affine.max_mantissa_bits": max(mantissa_bits(x) for x in (m.a, m.b, m.c, m.d)),
        }

    @staticmethod
    def properties(ops):
        genus = {}
        for op in ops:
            genus[op.genus] = genus.get(op.genus, 0) + 1
        lo, hi = ColdGeometry.PRECISION
        skipped = sum(not json_round_trips(bits) for bits in range(lo, hi + 1))
        return {
            "genus_histogram": {str(g): genus[g] for g in sorted(genus)},
            "precision_histogram": pow2_histogram(op.params["precision"] for op in ops),
            "precisions_skipped_for_json_round_trip": f"{skipped} of {hi - lo + 1}",
        }


# ---------------------------------------------------------------------------


class WarmQueries(Workload):
    """Many short queries against a fixed set of genus 2-8 surfaces at 128 bits.

    The surfaces are built and decomposed during set-up, so the queries hit
    the decomposition cache and the time goes to matrix arithmetic, foliation
    sampling, witness and sampler arithmetic and CLI formatting.

    Mixed TA/TB words keep |a*b| <= 2^14 / (s_h * s_v) for the exponents of
    neighbouring TA^a and TB^b tokens, where s_h and s_v are the two twist
    shears: the matrix product keeps 16 guard bits above the widest entry, and
    a pair that grows the entries faster than that loses the unit determinant
    (``classify`` then raises).  Twist-only words grow linearly and use the
    full exponent range.
    """

    name = "warm-queries"
    GENERA = range(2, 9)
    PRECISION = 128
    CYCLE = dict.fromkeys(
        ("word-twist", "word-mixed", "circle", "witness", "genericity", "cli"), len(GENERA)
    )
    CLI_COMMANDS = ("heights", "affine", "cylinders", "witness")
    MAX_TOKENS = 400
    MAX_EXPONENT = 200

    def __init__(self, lamkit, rng, workdir):
        super().__init__(lamkit, rng)
        self.surfaces = {}
        self.surface_files = {}
        self.mixed_cap = {}
        for g in self.GENERA:
            surface = lamkit.flat_surface.build_double_polygon(g, precision=self.PRECISION)
            lamkit.flat_surface.cylinder_decomposition(surface, "horizontal")
            lamkit.flat_surface.cylinder_decomposition(surface, "vertical")
            gens = lamkit.affine.generators(surface)
            shear_product = float(gens["TA"].derivative.b) * float(-gens["TB"].derivative.c)
            self.mixed_cap[g] = max(1, math.isqrt(int(2**14 / shear_product)))
            path = workdir / f"warm-surface-g{g}.json"
            path.write_text(lamkit.flat_surface.surface_to_json(surface) + "\n")
            self.surfaces[g] = surface
            self.surface_files[g] = str(path)

    def _twist_word(self, n):
        rng = self.rng
        sym = rng.choice(("TA", "TB"))
        tokens, net = [], 0
        for _ in range(n):
            if rng.random() < 0.1:
                tokens.append(("sigma", signed(rng, rng.randint(1, 3))))
            else:
                k = signed(rng, log_uniform(rng.random(), 1, self.MAX_EXPONENT))
                tokens.append((sym, k))
                net += k
        return tokens, ("identity" if net == 0 else "parabolic")

    def _mixed_word(self, g, n):
        rng = self.rng
        sym = rng.choice(("TA", "TB"))
        tokens = []
        while len(tokens) < n:
            if tokens and rng.random() < 0.1:
                tokens.append(("sigma", 1))
                continue
            tokens.append((sym, signed(rng, log_uniform(rng.random(), 1, self.mixed_cap[g]))))
            sym = "TB" if sym == "TA" else "TA"
        return tokens

    @staticmethod
    def word_text(tokens):
        return " ".join(f"{sym}^{k}" for sym, k in tokens)

    def draw(self, stratum):
        rng = self.rng
        g = self.turn(stratum, self.GENERA)
        if stratum == "word-twist":
            tokens, expected = self._twist_word(log_uniform(self.even(stratum), 1, self.MAX_TOKENS))
            return Op(stratum, g, {"tokens": tokens, "expected": expected})
        if stratum == "word-mixed":
            tokens = self._mixed_word(g, log_uniform(self.even(stratum), 1, self.MAX_TOKENS))
            return Op(stratum, g, {"tokens": tokens})
        if stratum == "circle":
            return Op(stratum, g, {"count": 50 + int(151 * self.even(stratum))})
        if stratum == "witness":
            bvec = tuple(Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(g))
            return Op(stratum, g, {"bvec": bvec})
        if stratum == "genericity":
            samples = 100 + int(401 * self.even(stratum))
            return Op(stratum, g, {"samples": samples, "seed": rng.randrange(2**31)})
        command = self.turn("cli-command", self.CLI_COMMANDS)
        argv = [command]
        if command == "cylinders":
            argv += ["--in", self.surface_files[g], "--dir", rng.choice(("horizontal", "vertical"))]
        else:
            argv += ["--genus", str(g)]
        if command == "affine":
            argv += ["--word", self.word_text(self._mixed_word(g, rng.randint(1, 8)))]
        elif command == "witness":
            argv += ["--bvec", ",".join(str(rng.randint(1, 1000)) for _ in range(g))]
        argv += ["--precision", str(self.PRECISION), "--json"]
        return Op(stratum, g, {"argv": argv})

    def run(self, op):
        lk = self.lk
        surface = self.surfaces[op.genus]
        p = op.params
        if op.stratum.startswith("word"):
            element = lk.affine.evaluate_word(self.word_text(p["tokens"]), surface)
            return element, lk.affine.classify(element.derivative)
        if op.stratum == "circle":
            return lk.dynamics.circle_samples(surface, p["count"])
        if op.stratum == "witness":
            return lk.obstruction.contradiction_witness(
                p["bvec"], lk.obstruction.vertical_heights(surface)
            )
        if op.stratum == "genericity":
            return lk.obstruction.genericity_sample(
                op.genus, p["samples"], p["seed"], precision=self.PRECISION
            )
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lk.cli.main(p["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result):
        g, p = op.genus, op.params
        if op.stratum.startswith("word"):
            element, label = result
            m = element.derivative
            require(abs(m.det() - 1) <= 1e-12, "determinant differs from 1 by more than 1e-12")
            if op.stratum == "word-twist":
                require(label == p["expected"], f"twist-only word classified {label}")
            else:
                require(label in ("identity", "parabolic", "elliptic", "hyperbolic"), label)
            return {
                "affine.word_letters": sum(abs(k) for _, k in p["tokens"]),
                "affine.max_mantissa_bits": max(mantissa_bits(x) for x in (m.a, m.b, m.c, m.d)),
            }
        if op.stratum == "circle":
            require(len(result) == p["count"], "wrong number of circle samples")
            require(all(len(cls.vector) == 2 * g for _, cls in result), "wrong class dimension")
            return {"dynamics.foliation_samples": p["count"]}
        if op.stratum == "witness":
            require(not result.in_locus and result.separation > 0, "random vector on the locus")
            return {"obstruction.ratio_tests": 1}
        if op.stratum == "genericity":
            require(result.n_samples == p["samples"] and result.hits == 0, "sampler hit the locus")
            return {"obstruction.ratio_tests": p["samples"]}
        code, out, err = result
        require(code == 0, f"lamkit {p['argv'][0]} exited {code}: {err.strip()}")
        doc = json.loads(out)
        expected_key = {"heights": "heights", "affine": "classification",
                        "cylinders": "cylinders", "witness": "in_Y"}[p["argv"][0]]
        require(expected_key in doc, f"lamkit {p['argv'][0]} output lacks {expected_key!r}")
        return {"cli.output_bytes": len(out), "cli.nonzero_exits": int(code != 0),
                "obstruction.ratio_tests": int(p["argv"][0] == "witness")}

    @staticmethod
    def properties(ops):
        words = [op for op in ops if op.stratum.startswith("word")]
        exponents = [abs(k) for op in words for sym, k in op.params["tokens"] if sym != "sigma"]
        return {
            "word_length_histogram": pow2_histogram(len(op.params["tokens"]) for op in words),
            "exponent_histogram": pow2_histogram(exponents),
        }


# ---------------------------------------------------------------------------


class ExactCombinatorics(Workload):
    """Exact rational track iteration and amalgam word reduction; no geometry.

    Track weights follow the acceptance battery's construction (crossing
    weights x = p/q with p, q <= 10; y and the rest block bounded multiples of
    x), which keeps the iterate inside its C/k error regime.  Amalgam words
    come in three families: random words; words whose edge-power syllables
    collapse onto one syllable with a long edge run (the rotation test of the
    classifier); and conjugates u z^k u^-1 with a known class.  The total edge
    exponent of a word stays at most 6000, so no operation runs much over a
    second.
    """

    name = "exact-combinatorics"
    CYCLE = {
        "track": 8,
        "amalgam-random": 8,
        "amalgam-collapse": 3,
        "amalgam-conjugate": 4,
    }
    K_RANGE = (10**3, 10**5)
    EDGE_EXPONENT = 3000
    EDGE_BUDGET = 6000
    LABELS = ("identity", "conjugate_into_edge_group", "pseudo_anosov_type")

    def __init__(self, lamkit, rng, workdir):
        super().__init__(lamkit, rng)

    def _track(self):
        rng = self.rng
        components, xs = [], []
        for _ in range(self.turn("track", range(1, 9))):
            x = Fraction(rng.randint(1, 10), rng.randint(1, 10))
            y = x * Fraction(rng.randint(0, 30), 10)
            components.append({"x": str(x), "y": str(y), "z": str(x + y)})
            xs.append(x)
        rest = [str(rng.choice(xs) * Fraction(rng.randint(0, 20), 10)) for _ in range(rng.randint(0, 3))]
        k_max = log_uniform(self.even("track"), *self.K_RANGE)
        return Op("track", None, {"doc": {"components": components, "rest": rest}, "k_max": k_max})

    def _short_syllable(self, factor, rank):
        """A syllable outside the edge subgroup: it keeps a letter g_i, i >= 2,
        because neighbouring atoms use different generators and cannot cancel."""
        rng = self.rng
        generators = [rng.randint(2, rank)]
        for _ in range(rng.randint(0, 2)):
            generators.append(rng.choice([i for i in range(1, rank + 1) if i != generators[-1]]))
        return factor, [(f"g{i}", signed(rng, rng.randint(1, 5))) for i in generators]

    def _random_word(self, rank):
        rng = self.rng
        budget = self.EDGE_BUDGET
        factor = rng.choice("LR")
        syllables = []
        for _ in range(self.turn("random-length", range(2, 13))):
            atoms = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.25 and budget >= 1:
                    k = log_uniform(self.even("random-edge"), 1, min(self.EDGE_EXPONENT, budget))
                    budget -= k
                    atoms.append(("z", signed(rng, k)))
                else:
                    atoms.append((f"g{rng.randint(1, rank)}", signed(rng, rng.randint(1, 5))))
            syllables.append((factor, atoms))
            factor = "R" if factor == "L" else "L"
        return syllables, None

    def _collapse_word(self, rank):
        rng = self.rng
        m = self.turn("collapse-length", range(2, 13))
        total = log_uniform(self.even("collapse"), 100, min(self.EDGE_BUDGET, self.EDGE_EXPONENT * (m - 1)))
        base, extra = divmod(total, m - 1)
        parts = [base + (i < extra) for i in range(m - 1)]
        sign = signed(rng, 1)
        core = rng.randrange(m)
        factor = rng.choice("LR")
        syllables = []
        for i in range(m):
            if i == core:
                syllables.append(self._short_syllable(factor, rank))
            else:
                syllables.append((factor, [("z", sign * parts.pop())]))
            factor = "R" if factor == "L" else "L"
        return syllables, "pseudo_anosov_type"

    def _conjugate_word(self, rank):
        rng = self.rng
        factor = rng.choice("LR")
        u = []
        for _ in range(rng.randint(1, 5)):
            u.append(self._short_syllable(factor, rank))
            factor = "R" if factor == "L" else "L"
        k = signed(rng, log_uniform(self.even("conjugate"), 1, self.EDGE_EXPONENT))
        inverse = [(f, [(a, -e) for a, e in reversed(atoms)]) for f, atoms in reversed(u)]
        return u + [(factor, [("z", k)])] + inverse, "conjugate_into_edge_group"

    def draw(self, stratum):
        if stratum == "track":
            return self._track()
        genus = self.turn(f"{stratum}-genus", (2, 3, 4))
        family = {"amalgam-random": self._random_word, "amalgam-collapse": self._collapse_word,
                  "amalgam-conjugate": self._conjugate_word}[stratum]
        syllables, expected = family(2 * genus)
        return Op(stratum, genus, {"syllables": syllables, "rank": 2 * genus, "expected": expected})

    @staticmethod
    def word_text(syllables):
        return " ".join(f + ":" + "".join(f"{a}^{e}" for a, e in atoms) for f, atoms in syllables)

    def run(self, op):
        lk = self.lk
        p = op.params
        if op.stratum == "track":
            weights = lk.traintrack.TrackWeights.from_json_dict(p["doc"])
            trace = lk.dynamics.iterate_trace(weights, p["k_max"])
            limit = lk.dynamics.twist_limit(weights)
            fit = lk.dynamics.decay_fit(trace, k_min=100)
            return weights, trace, limit, fit
        word = lk.amalgam.parse_word(self.word_text(p["syllables"]), p["rank"])
        reduced = lk.amalgam.britton_reduce(word)
        return word, reduced, lk.amalgam.classify_element(word)

    def check(self, op, result):
        p = op.params
        if op.stratum == "track":
            weights, trace, limit, fit = result
            require(trace[-1].k == p["k_max"], "missing final checkpoint")
            for sample in trace:
                if sample.k >= 10**4:
                    distance = sample.projective.distance(limit)
                    require(distance == sample.error, "reported error differs from the distance to the limit")
                    require(distance <= Fraction(1, 1000), f"sup distance {float(distance):.2e} > 1e-3 at k={sample.k}")
            require(fit is not None and -1.1 <= fit[0] <= -0.9, f"decay fit {fit} outside slope [-1.1, -0.9]")
            return {"dynamics.iterate_steps": p["k_max"] * weights.n}
        word, reduced, label = result
        amalgam = self.lk.amalgam
        require(amalgam.britton_reduce(reduced) == reduced, "britton_reduce is not idempotent")
        require(amalgam.is_britton_reduced(reduced), "britton_reduce output is not reduced")
        require(label in self.LABELS, f"unknown class {label}")
        if p["expected"] is not None:
            require(label == p["expected"], f"classified {label}, expected {p['expected']}")
        return {
            "amalgam.letters": sum(len(s.letters) for s in word.syllables),
            "amalgam.syllables_out": reduced.syllable_length,
        }

    @staticmethod
    def properties(ops):
        words = [op for op in ops if op.stratum != "track"]
        tracks = [op for op in ops if op.stratum == "track"]
        edge = [abs(e) for op in words for _, atoms in op.params["syllables"] for a, e in atoms if a == "z"]
        return {
            "word_length_histogram": pow2_histogram(len(op.params["syllables"]) for op in words),
            "exponent_histogram": pow2_histogram(edge),
            "k_max_histogram": pow2_histogram(op.params["k_max"] for op in tracks),
        }


WORKLOADS = {w.name: w for w in (ColdGeometry, WarmQueries, ExactCombinatorics)}
