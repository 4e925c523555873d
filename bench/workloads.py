"""Seeded request lists for the two benchmark workloads.

`exact` runs three groups of exact library calls in one pass: `jets`
(Taylor coefficients and per-site derivatives), `windows` (window
entropies, brackets and settling) and `primes` (brackets on models with
prime denominators).  `cli-float` runs the command line, mostly in float.

Everything here is plain data (dicts of strings and ints), so the same seed
gives byte-identical inputs and the program only ever sees the generated
inputs.  Models are written as "M | R" with rows separated by ";" and
entries as exact rationals, e.g. "3/4 1/4; 1/8 7/8 | 7/8 1/8; 1/4 3/4".

Two kinds of seeded input appear:

* a random model with fixed denominators, for the float CLI calls, whose
  cost does not depend on the values (cli-float);
* a fixed base model or regime relabelled by the seed: hidden states and
  observed symbols are permuted (exact workloads).  The relabelled input has
  different matrices but the same word probabilities, hence the same
  integers to multiply and factor.  Exact cost depends on those integers,
  and factoring cost is a lottery: one fresh 132-bit integer can take 10 s.
  Fresh random entries for every seed would make the run-to-run spread
  wider than any useful bound.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("exact", "cli-float")

# The built-in families whose expansions the closed-form table covers.
AM_ANCHOR = {"family": "am", "mu": "3/5"}
HS_ANCHOR = {"family": "high-snr", "p": "1/5"}
# instantiate(high_snr_binary(1/5), 1/5): the quick-start model of the README.
BINARY_ANCHOR = "4/5 1/5; 1/5 4/5 | 4/5 1/5; 1/5 4/5"

# 3-state regimes for the jets group, entries over 12; drawn once with
# random.Random(2005), like the per-site derivative orders below.
JETS_BASE_AM3 = {
    "regime": "almost-memoryless", "s": 3,
    "R": [["1/6", "1/2", "1/3"], ["1/3", "1/3", "1/3"], ["1/6", "1/6", "2/3"]],
    "T": [["1", "0", "-1"], ["1", "-2", "1"], ["0", "-2", "2"]],
}
JETS_BASE_HS3 = {
    "regime": "high-snr", "s": 3,
    "M": [["1/4", "5/12", "1/3"], ["1/6", "5/12", "5/12"], ["1/6", "5/12", "5/12"]],
    "T": [["-2", "0", "2"], ["1", "-1", "0"], ["1", "0", "-1"]],
}

# Binary base for the small windows of the windows group.
WINDOWS_BASE_2 = "3/4 1/4; 1/8 7/8 | 7/8 1/8; 1/4 3/4"
# 3-state base for the windows group: dyadic entries keep factoring a small share.
WINDOWS_BASE_3 = "1/2 1/4 1/4; 1/8 3/4 1/8; 1/4 1/4 1/2 | 3/4 1/8 1/8; 1/8 3/4 1/8; 1/4 1/4 1/2"

# primes group: entries with 3-digit prime denominators (2-state) and 2-digit
# prime denominators (3-state).  PRIMES_ANCHOR is the model whose bracket at
# n = 4 took 1.57-1.64 s cold; the pool was drawn once with random.Random(2005).
PRIMES_ANCHOR = "97/229 132/229; 61/173 112/173 | 139/191 52/191; 41/167 126/167"
PRIMES_POOL_2 = (
    "499/811 312/811; 238/401 163/401 | 100/769 669/769; 229/443 214/443",
    "410/613 203/613; 134/257 123/257 | 136/263 127/263; 205/331 126/331",
    "246/461 215/461; 232/331 99/331 | 30/151 121/151; 319/727 408/727",
    "82/137 55/137; 64/101 37/101 | 359/983 624/983; 195/491 296/491",
    "167/197 30/197; 117/853 736/853 | 458/631 173/631; 242/433 191/433",
    "167/367 200/367; 81/421 340/421 | 234/409 175/409; 274/313 39/313",
    "109/443 334/443; 147/353 206/353 | 372/613 241/613; 119/673 554/673",
    "34/193 159/193; 112/853 741/853 | 200/733 533/733; 209/241 32/241",
    "241/863 622/863; 230/733 503/733 | 175/281 106/281; 52/271 219/271",
    "114/277 163/277; 698/829 131/829 | 122/151 29/151; 818/983 165/983",
    "224/331 107/331; 160/503 343/503 | 217/859 642/859; 217/643 426/643",
    "388/443 55/443; 243/439 196/439 | 670/853 183/853; 600/991 391/991",
    "69/607 538/607; 271/997 726/997 | 360/457 97/457; 227/593 366/593",
    "329/769 440/769; 65/157 92/157 | 148/239 91/239; 159/223 64/223",
    "215/271 56/271; 447/863 416/863 | 47/127 80/127; 533/743 210/743",
    "196/229 33/229; 446/787 341/787 | 247/359 112/359; 349/419 70/419",
    "78/571 493/571; 565/839 274/839 | 318/379 61/379; 499/683 184/683",
    "284/397 113/397; 36/113 77/113 | 353/569 216/569; 59/283 224/283",
    "251/859 608/859; 46/101 55/101 | 87/113 26/113; 83/163 80/163",
    "493/967 474/967; 69/317 248/317 | 149/191 42/191; 316/971 655/971",
    "119/157 38/157; 359/419 60/419 | 88/503 415/503; 178/593 415/593",
    "146/223 77/223; 350/457 107/457 | 153/193 40/193; 581/739 158/739",
    "321/709 388/709; 112/257 145/257 | 294/367 73/367; 392/691 299/691",
    "346/601 255/601; 341/467 126/467 | 169/631 462/631; 40/349 309/349",
)
PRIMES_POOL_3 = (
    "58/89 21/89 10/89; 5/13 1/13 7/13; 14/67 15/67 38/67 | "
    "8/59 33/59 18/59; 32/97 39/97 26/97; 6/11 1/11 4/11"
)


def parse_matrices(text: str) -> tuple[list[list[str]], list[list[str]]]:
    m, r = text.split("|")
    return ([row.split() for row in m.split(";")], [row.split() for row in r.split(";")])


def format_matrices(m, r) -> str:
    def fmt(rows):
        return "; ".join(" ".join(str(x) for x in row) for row in rows)

    return f"{fmt(m)} | {fmt(r)}"


def model_file(text: str) -> dict:
    """The model-file JSON object of the CLI for an "M | R" text."""
    m, r = parse_matrices(text)
    return {"s": len(m), "M": m, "R": r}


def relabel(text: str, rng: random.Random) -> str:
    """Permute hidden states and observed symbols: same process, new matrices."""
    m, r = parse_matrices(text)
    s = len(m)
    states, symbols = list(range(s)), list(range(s))
    rng.shuffle(states)
    rng.shuffle(symbols)
    m2 = [[m[states[i]][states[j]] for j in range(s)] for i in range(s)]
    r2 = [[r[states[i]][symbols[y]] for y in range(s)] for i in range(s)]
    return format_matrices(m2, r2)


def _stochastic_row(rng: random.Random, s: int, den: int, least: int) -> list[str]:
    while True:
        cuts = sorted(rng.sample(range(1, den), s - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        if min(parts) >= least:
            return [str(Fraction(x, den)) for x in parts]


def _kvecs(n: int, weight: int) -> list[tuple[int, ...]]:
    return [k for k in itertools.product(range(weight + 1), repeat=n) if sum(k) == weight]


def _kvec_list() -> list[tuple[dict, tuple[int, ...]]]:
    """Per-site derivative orders: three per (anchor, window, weight) stratum,
    four for the dearest stratum (n = 6, weight 4)."""
    rng = random.Random(2005)
    return [(spec, kvec)
            for spec in (AM_ANCHOR, HS_ANCHOR) for n in (5, 6) for weight in (1, 2, 3, 4)
            for kvec in rng.sample(_kvecs(n, weight), 4 if (n, weight) == (6, 4) else 3)]


def random_model(rng: random.Random, s: int, den: int) -> str:
    least = max(1, den // (4 * s))
    m = [_stochastic_row(rng, s, den, least) for _ in range(s)]
    r = [_stochastic_row(rng, s, den, least) for _ in range(s)]
    return format_matrices(m, r)


JETS_KVECS = _kvec_list()


def relabel_regime(regime: dict, rng: random.Random) -> dict:
    """Permute the states of a regime (and the symbols, for almost-memoryless)."""
    s = regime["s"]
    states, symbols = list(range(s)), list(range(s))
    rng.shuffle(states)
    out = dict(regime)
    out["T"] = [[regime["T"][states[i]][states[j]] for j in range(s)] for i in range(s)]
    if regime["regime"] == "high-snr":
        # R = I + eps*T ties symbols to states, so they move together
        out["M"] = [[regime["M"][states[i]][states[j]] for j in range(s)] for i in range(s)]
    else:
        rng.shuffle(symbols)
        out["R"] = [[regime["R"][states[i]][symbols[y]] for y in range(s)] for i in range(s)]
    return out


def _jets(rng: random.Random) -> list[dict]:
    reqs = [
        {"op": "rate_series", "spec": AM_ANCHOR, "order": 13},
        {"op": "rate_series", "spec": AM_ANCHOR, "order": 17},
        {"op": "rate_series", "spec": HS_ANCHOR, "order": 13},
        {"op": "rate_series", "spec": {"regime": relabel_regime(JETS_BASE_AM3, rng)}, "order": 9},
        {"op": "rate_series", "spec": {"regime": relabel_regime(JETS_BASE_HS3, rng)}, "order": 9},
    ]
    reqs += [{"op": "multisite", "spec": spec, "kvec": list(kvec)} for spec, kvec in JETS_KVECS]
    return reqs


def _windows(rng: random.Random) -> list[dict]:
    # windows results at n <= 6 are checked against the enumeration oracle
    tri = relabel(WINDOWS_BASE_3, rng)
    small = relabel(WINDOWS_BASE_2, rng)
    reqs = [{"op": "entropy_report", "model": BINARY_ANCHOR, "n": n} for n in range(1, 13)]
    reqs += [{"op": "bracket", "model": BINARY_ANCHOR, "n": n} for n in range(2, 13)]
    reqs += [{"op": "entropy_report", "model": small, "n": n} for n in range(1, 11)]
    reqs += [{"op": "bracket", "model": small, "n": n} for n in range(2, 11)]
    reqs += [{"op": "entropy_report", "model": tri, "n": n} for n in range(1, 7)]
    reqs += [{"op": "bracket", "model": tri, "n": n} for n in range(2, 8)]
    for r in reqs:
        r["oracle"] = True
    reqs.append({"op": "settling", "spec": AM_ANCHOR, "k": 6, "ns": list(range(5, 11))})
    return reqs


def _primes(rng: random.Random) -> list[dict]:
    pool = [relabel(text, rng) for text in PRIMES_POOL_2]
    tri = relabel(PRIMES_POOL_3, rng)
    reqs = [{"op": "bracket", "model": PRIMES_ANCHOR, "n": n} for n in (2, 3, 4)]
    reqs += [{"op": "bracket", "model": text, "n": 2} for text in pool]
    reqs += [{"op": "bracket", "model": text, "n": 3} for text in pool[:6]]
    reqs += [{"op": "bracket", "model": tri, "n": n} for n in (2, 3)]
    return reqs


def _cli(rng: random.Random) -> tuple[list[dict], dict]:
    main = random_model(rng, 2, 20)
    sample_seed = rng.randrange(1 << 30)
    ns = ",".join(str(n) for n in range(1, 13))
    reqs = [
        {"argv": ["validate", "--model", "@main"]},
        {"argv": ["entropy", "--backend", "float64", "--n", ns, "--model", "@main"]},
        {"argv": ["bounds", "--backend", "bigfloat:128", "--n", "8,12", "--model", "@main"]},
        {"argv": ["expand", "--regime", "am", "--mu", "3/5", "--backend", "float64",
                  "--order", "21"], "golden": "expand-am-float64-21.csv"},
        {"argv": ["expand", "--regime", "am", "--mu", "3/5", "--order", "6"],
         "golden": "expand-am-exact-6.csv"},
        {"argv": ["settle", "--regime", "am", "--mu", "3/5", "--backend", "float64",
                  "--k", "6", "--n", "5,6,7,8,9,10"], "golden": "settle-am-float64-6.csv"},
        {"argv": ["radius", "--regime", "am", "--mu", "3/5", "--order", "21"],
         "golden": "radius-am-21.csv"},
        {"argv": ["scan", "--regime", "high-snr", "--p", "1/5", "--grid", "1/100:41/100:41",
                  "--orders", "9,10,11", "--bound-depth", "8"], "golden": "scan-hs-41.csv"},
        {"argv": ["sample", "--model", "@main", "--n", "2000", "--seed", str(sample_seed)]},
        {"argv": ["radius", "--regime", "high-snr", "--p", "1/5", "--order", "13"],
         "golden": "radius-hs-13.csv"},
        {"argv": ["expand", "--regime", "high-snr", "--p", "1/5", "--backend", "float64",
                  "--order", "13"], "golden": "expand-hs-float64-13.csv"},
    ]
    for r in reqs:
        r["op"] = "cli"
    return reqs, {"main": main}


def resolve_argv(argv: list[str], files: dict[str, str]) -> list[str]:
    """CLI arguments with each "@name" replaced by that model file's path."""
    return [files[a[1:]] if a.startswith("@") else a for a in argv]


def build(workload: str, seed: int) -> dict:
    """The full, deterministic input of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    groups = ({"jets": _jets, "windows": _windows, "primes": _primes}
              if workload == "exact" else {"cli": _cli})
    lists, models = [], {}
    for group, make in groups.items():
        made = make(random.Random(f"{group}:{seed}"))
        if group == "cli":
            made, models = made
        lists.append([dict(r, id=f"{group}.{i:02d}") for i, r in enumerate(made)])
    return {"workload": workload, "seed": seed, "requests": interleave(lists),
            "models": models}


def interleave(lists: list[list[dict]]) -> list[dict]:
    """The requests of all groups, each group spread evenly over the pass in
    its own order.  The machine's speed drifts within a pass.  Spread out
    like this, the requests behind each latency percentile run all through
    the pass, not within one group's few seconds."""
    keyed = [((i + 0.5) / len(g), gi, r) for gi, g in enumerate(lists) for i, r in enumerate(g)]
    return [r for *_, r in sorted(keyed, key=lambda t: t[:2])]


def dumps(inputs: dict) -> str:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"))
