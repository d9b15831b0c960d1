"""Seeded generator of Cora-shaped bibliographic records with duplicate clusters.

Follows the Febrl recipe (Christen, "Probabilistic Data Generation for
Deduplication and Data Linkage", IDEAL 2005): draw one clean original per
entity from value pools, then derive its duplicates by perturbing the
original. Records carry Cora's four attributes (author, title, venue,
year). Perturbations are the ones citation data shows: character typos,
dropped and swapped tokens, venue abbreviations, author-name formats and
missing years.

Cluster sizes are 1 + Poisson(7), which puts the match rate of all C(n, 2)
pairs near Cora's 1:49.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from pathlib import Path

SCHEMA = ("author", "title", "venue", "year")

CLUSTER_POISSON_MEAN = 7.0

FIRST_NAMES = (
    "Alan Andrew Anna Barbara Bernhard Carla Christopher Daniel David Dana Eric "
    "Emily Frank Gerald Geoffrey Hans Helen Ian Isabelle James Jan John Judea "
    "Karen Kevin Leslie Lisa Manuela Mark Martin Michael Nils Oren Pat Paul Peter "
    "Philip Rich Richard Robert Ross Sebastian Stuart Susan Thomas Tom Vladimir "
    "Wei William Yann Yoav Zoubin"
).split()

LAST_NAMES = (
    "Aha Anderson Bishop Blum Breiman Brodley Buntine Caruana Cestnik Cohen "
    "Cooper Cortes Dietterich Domingos Fayyad Fisher Freund Friedman Geiger "
    "Ghahramani Haussler Heckerman Hinton Holte Jordan Kaelbling Kearns Kibler "
    "Kohavi Kononenko Koller Langley Lauritzen Littlestone Mahadevan Michalski "
    "Mitchell Moore Mooney Muggleton Neal Nilsson Pazzani Pearl Quinlan Rivest "
    "Russell Schapire Shavlik Singh Smyth Spirtes Sutton Tesauro Thrun Towell "
    "Utgoff Valiant Vapnik Watkins Weiss Williams Wolpert Zhang"
).split()

TITLE_WORDS = (
    "learning induction decision trees rules neural networks bayesian inference "
    "probabilistic reasoning reinforcement temporal differences markov models "
    "hidden boosting bagging classifiers ensemble genetic algorithms search "
    "heuristic planning knowledge acquisition concept formation clustering "
    "incremental instance based nearest neighbor feature selection pruning "
    "generalization bias variance error estimation cross validation theory "
    "computational complexity pac queries membership noise tolerant robust "
    "efficient scaling large databases discovery explanation analogical case "
    "belief propagation graphical structure causal dynamic programming "
    "function approximation gradient descent backpropagation recurrent "
    "connectionist representation relational logic programs inductive "
    "constructive multistrategy theory refinement empirical comparison "
    "evaluation boolean concepts finite automata grammatical stochastic "
    "optimization convergence agents exploration control robot navigation"
).split()

TITLE_GLUE = "a an the of for to in with by on and using via from".split()

# (full name, abbreviations): duplicates switch to an abbreviation.
VENUES = (
    ("Machine Learning", ("Mach. Learn.", "Machine Learn.", "ML Journal")),
    ("Proceedings of the Eleventh International Conference on Machine Learning",
     ("ICML-94", "Proc. 11th ICML", "In Proc. of ICML")),
    ("Proceedings of the Twelfth International Conference on Machine Learning",
     ("ICML-95", "Proc. 12th ICML", "In Proc. ICML 95")),
    ("Proceedings of the National Conference on Artificial Intelligence",
     ("AAAI", "Proc. AAAI", "In AAAI-94")),
    ("Advances in Neural Information Processing Systems",
     ("NIPS", "Adv. Neural Inf. Proc. Sys.", "NIPS 7")),
    ("Journal of Artificial Intelligence Research", ("JAIR", "J. Artif. Intell. Res.")),
    ("Artificial Intelligence", ("Artif. Intell.", "AI Journal")),
    ("Neural Computation", ("Neural Comput.", "Neural Comp.")),
    ("Proceedings of the International Joint Conference on Artificial Intelligence",
     ("IJCAI", "Proc. IJCAI-93", "In IJCAI")),
    ("Computational Learning Theory", ("COLT", "Proc. COLT", "In COLT 92")),
    ("Uncertainty in Artificial Intelligence", ("UAI", "Proc. UAI-95")),
    ("Knowledge Discovery and Data Mining", ("KDD", "Proc. KDD-96", "In KDD")),
    ("IEEE Transactions on Pattern Analysis and Machine Intelligence",
     ("IEEE PAMI", "IEEE Trans. PAMI", "PAMI")),
    ("Technical Report, Department of Computer Science",
     ("Tech. Rep.", "TR, Dept. of CS", "Technical report")),
    ("Journal of the American Statistical Association", ("JASA", "J. Amer. Statist. Assoc.")),
    ("Cognitive Science", ("Cogn. Sci.", "Cog. Science")),
)

# Per-duplicate perturbation probabilities. TYPO is the chance of each
# further typo in a field, so a field gets 0.43 typos on average.
DROP_AUTHOR = 0.15
SWAP_AUTHORS = 0.1
DROP_WORD = 0.3
SWAP_WORDS = 0.15
ABBREVIATE_VENUE = 0.5
DROP_YEAR = 0.1
TYPO = 0.3

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _typo(rng: random.Random, text: str) -> str:
    """One character insertion, deletion, substitution or transposition."""
    if len(text) < 2:
        return text
    i = rng.randrange(len(text) - 1)
    kind = rng.randrange(4)
    if kind == 0:
        return text[:i] + rng.choice(_LETTERS) + text[i:]
    if kind == 1:
        return text[:i] + text[i + 1:]
    if kind == 2:
        return text[:i] + rng.choice(_LETTERS) + text[i + 1:]
    return text[:i] + text[i + 1] + text[i] + text[i + 2:]


def _original(rng: random.Random) -> dict:
    """A clean entity: authors as (first, last), title words, venue, year."""
    authors = [
        (rng.choice(FIRST_NAMES), rng.choice(LAST_NAMES))
        for _ in range(rng.choice((1, 1, 2, 2, 2, 3, 3, 4)))
    ]
    words: list[str] = []
    for _ in range(rng.randint(4, 8)):
        if words and rng.random() < 0.35:
            words.append(rng.choice(TITLE_GLUE))
        words.append(rng.choice(TITLE_WORDS))
    return {
        "authors": authors,
        "title": words,
        "venue": rng.randrange(len(VENUES)),
        "year": str(rng.randint(1985, 1999)),
    }


def _author_text(authors, style: int) -> str:
    if style == 0:
        names = [f"{first} {last}" for first, last in authors]
    elif style == 1:
        names = [f"{first[0]}. {last}" for first, last in authors]
    else:
        names = [f"{last}, {first[0]}." for first, last in authors]
    return " and ".join(names)


def _render(rng: random.Random, entity: dict, noisy: bool) -> tuple[str, ...]:
    """Attribute strings of one record; noisy=False gives the clean original."""
    authors = list(entity["authors"])
    words = list(entity["title"])
    full, abbrevs = VENUES[entity["venue"]]
    if not noisy:
        return _author_text(authors, 0), " ".join(words), full, entity["year"]

    if len(authors) > 1 and rng.random() < DROP_AUTHOR:
        authors.pop()
    if len(authors) > 1 and rng.random() < SWAP_AUTHORS:
        authors[0], authors[1] = authors[1], authors[0]
    if len(words) > 3 and rng.random() < DROP_WORD:
        words.pop(rng.randrange(len(words)))
    if len(words) > 1 and rng.random() < SWAP_WORDS:
        i = rng.randrange(len(words) - 1)
        words[i], words[i + 1] = words[i + 1], words[i]
    fields = [
        _author_text(authors, rng.randrange(3)),
        " ".join(words),
        rng.choice(abbrevs) if rng.random() < ABBREVIATE_VENUE else full,
        entity["year"] if rng.random() >= DROP_YEAR else "",
    ]
    for k in range(3):  # years stay typo-free
        while rng.random() < TYPO:
            fields[k] = _typo(rng, fields[k])
    return tuple(fields)


def cluster_sizes(rng: random.Random, n_records: int) -> list[int]:
    """1 + Poisson(CLUSTER_POISSON_MEAN) sizes, the last trimmed to fit exactly."""
    sizes: list[int] = []
    while sum(sizes) < n_records:
        # Knuth's product-of-uniforms Poisson draw (random has no poisson)
        k, p, limit = 0, rng.random(), math.exp(-CLUSTER_POISSON_MEAN)
        while p > limit:
            k += 1
            p *= rng.random()
        sizes.append(1 + k)
    sizes[-1] -= sum(sizes) - n_records
    return sizes


def generate_records(n_records: int, seed: int):
    """Return (rows, clusters): rows are (id, author, title, venue, year)
    sorted by id; clusters are lists of the ids that denote one entity."""
    if n_records < 2:
        raise ValueError("need at least two records")
    rng = random.Random(seed)
    ids = [f"r{k:05d}" for k in range(n_records)]
    rng.shuffle(ids)  # cluster members are scattered through the id order
    rows, clusters = [], []
    it = iter(ids)
    for size in cluster_sizes(rng, n_records):
        entity = _original(rng)
        members = [next(it) for _ in range(size)]
        for k, rid in enumerate(members):
            rows.append((rid, *_render(rng, entity, noisy=k > 0)))
        clusters.append(sorted(members))
    rows.sort()
    return rows, clusters


def gold_pairs(clusters) -> list[tuple[str, str]]:
    """Every within-cluster pair, each once with the smaller id first."""
    return sorted(
        pair for members in clusters for pair in itertools.combinations(sorted(members), 2)
    )


def write_records(out_dir: str | Path, n_records: int, seed: int) -> dict:
    """Write records.csv and gold.csv; return their sizes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, clusters = generate_records(n_records, seed)
    with (out / "records.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", *SCHEMA))
        writer.writerows(rows)
    gold = gold_pairs(clusters)
    with (out / "gold.csv").open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(gold)
    pairs = n_records * (n_records - 1) // 2
    return {
        "records": n_records,
        "clusters": len(clusters),
        "pairs": pairs,
        "matches": len(gold),
        "match_rate": len(gold) / pairs,
    }
