"""Seeded request sequences for the three workloads.

A run replays a fixed sequence to completion; its length depends only on
--seconds (the nominal length of the window), never on how fast the host
is, so the program's counters repeat exactly for one seed. The seed only
orders the requests and picks update targets and fresh corpus seeds; the op
mix is stratified per block, so every seed sends the same number of each
request.
"""

import json
import random

# Table III of the paper (lib/workload/queries.ml).
TABLE3 = [
    ("Q1", "Order/DeliverTo/Address[./City][./Country]/Street"),
    ("Q2", "Order/DeliverTo/Contact/EMail"),
    ("Q3", "Order/DeliverTo[./Address/City]/Contact/EMail"),
    ("Q4", "Order/POLine[./LineNo]//UnitPrice"),
    ("Q5", "Order/POLine[./LineNo][.//UnitPrice]/Quantity"),
    ("Q6", "Order/POLine[./BuyerPartID][./LineNo][.//UnitPrice]/Quantity"),
    ("Q7", "Order[./DeliverTo//Street]/POLine[.//BuyerPartID][.//UnitPrice]/Quantity"),
    ("Q8", "Order[./DeliverTo[.//EMail]//Street]/POLine[.//UnitPrice]/Quantity"),
    ("Q9", "Order[./Buyer/Contact]/POLine[.//BuyerPartID]/Quantity"),
    ("Q10", "Order[./Buyer/Contact][./DeliverTo//City]//BuyerPartID"),
]
PATTERN = dict(TABLE3)
QUERY_OF_PATTERN = {p: q for q, p in TABLE3}
# On D7, Q1-Q3 execute in well under a millisecond and Q4-Q10 in 6-8 ms:
# two cost classes. A read block sends each light query once and each heavy
# one four times, so 3 of 31 query samples are light and the p50 and p90
# order statistics fall at the heavy class's 45th and 89th percentiles.
# (With uniform Q1-Q10 the p50 would sit at the heavy class's 29th
# percentile, in its lower tail, where a run's share of fast host phases
# moves it most.)
LIGHT = {"Q1", "Q2", "Q3"}
HEAVY_REPEAT = 4
# query_topk uses only the heavy patterns, so its samples form one class.
TOPK_QUERIES = ["Q4", "Q5", "Q6", "Q7", "Q8", "Q9"]

H = 100
TAU = 0.2
TOPK_K = 10
D7_SEED = 42
CORPUS = "d7"
ONBOARD_CORPUS = "ob"
ONBOARD_DATASET = "D2"
# D2's schemas are small, so the default 3468-node generated document would
# cost half of a register; a 500-node one leaves the matcher most of it.
ONBOARD_DOC_NODES = 500


def line(obj):
    return json.dumps(obj, separators=(",", ":"))


def query(qid, k=None, corpus=CORPUS):
    obj = {"op": "query" if k is None else "query_topk", "corpus": corpus,
           "query": PATTERN[qid], "h": H, "tau": TAU}
    if k is not None:
        obj["k"] = k
    return line(obj)


def mappings():
    return line({"op": "mappings", "corpus": CORPUS, "h": H})


def register(name, dataset, seed, doc_nodes=None):
    obj = {"op": "register", "name": name, "dataset": dataset, "seed": seed}
    if doc_nodes is not None:
        obj["doc_nodes"] = doc_nodes
    return line(obj)


# One block of reads: 31 query (Q1-Q3 once, Q4-Q10 four times), 6
# query_topk (Q4-Q9) and 1 mappings (about 2.6%), shuffled.
def read_block():
    return ([query(q) for q, _ in TABLE3 if q in LIGHT]
            + [query(q) for q, _ in TABLE3 if q not in LIGHT] * HEAVY_REPEAT
            + [query(q, k=TOPK_K) for q in TOPK_QUERIES]
            + [mappings()])


# Sequence lengths are calibrated so that a window (the requests, plus the
# replay chunks interleaved with them where there are any) takes about
# --seconds on a 2-core Xeon VM. The floor keeps at least 100 samples
# behind every p90 of the run record (6 query_topk or 4 updates per block)
# whatever --seconds is.
MIN_BLOCKS = 25


def distinct(lines):
    return list(dict.fromkeys(lines))


class Plan:
    """A workload instance: set-up lines, window lines (update lines are
    placeholders until the server's match reply supplies targets), how many
    times set-up is repeated, and which op the second latency metric
    times. A read-only window changes no server state after set-up, so
    every reply is a function of its request line alone."""

    def __init__(self, seed, setup, window, setups, second_op, read_only=False):
        self.seed = seed
        self.setup = setup
        self.window = window
        self.setups = setups
        self.second_op = second_op
        self.read_only = read_only

    def resolve_updates(self, match_reply):
        """Render the update placeholders from the correspondences of the
        server's `match` reply. Updates come in pairs: the first moves one
        correspondence 0.05 away from its registered score, the second
        restores it, so the corpus is never more than one correspondence
        away from the registered one. The moved correspondences are evenly
        spaced over the reply's list and only their order is seeded: how
        much a move changes the top-h set differs a lot between
        correspondences, and every seed must pay for the same moves."""
        corrs = match_reply["correspondences"]
        slots = [j for j, ln in enumerate(self.window) if isinstance(ln, dict)]
        moves = len(slots) // 2
        targets = [corrs[k * len(corrs) // moves] for k in range(moves)]
        random.Random(f"updates/{self.seed}").shuffle(targets)
        for k, j in enumerate(slots):
            c = targets[k // 2]
            if k % 2 == 0:
                s = c["score"]
                score = round(s - 0.05, 3) if s >= 0.06 else round(s + 0.05, 3)
            else:
                score = c["score"]
            self.window[j] = line({"op": "update", "corpus": CORPUS, "set": [
                {"source": c["source"], "target": c["target"], "score": score}]})


def query_hot(seed, seconds):
    rng = random.Random(f"query_hot/{seed}")
    window = []
    # One block takes about 0.28 s, and nothing is interleaved with the
    # requests (the replay answers each distinct line once, after them).
    for _ in range(max(MIN_BLOCKS, round(seconds * 3.6))):
        block = read_block()
        rng.shuffle(block)
        window += block
    setup = [register(CORPUS, "D7", D7_SEED)] + distinct(read_block())
    return Plan(seed, setup, window, setups=1, second_op="query_topk", read_only=True)


def update_mix(seed, seconds):
    rng = random.Random(f"update_mix/{seed}")
    window = []
    # One block takes about 0.45 s, and the replay of each chunk doubles
    # the window's wall time.
    for _ in range(max(MIN_BLOCKS, round(seconds * 1.1))):
        block = read_block() + [{"op": "update"} for _ in range(4)]
        rng.shuffle(block)
        window += block
    setup = ([register(CORPUS, "D7", D7_SEED), line({"op": "match", "corpus": CORPUS})]
             + distinct(read_block()))
    return Plan(seed, setup, window, setups=1, second_op="update")


def onboard_seed(seed, i):
    """A corpus seed no other cycle of the run uses: Dataset.matching
    memoises by (dataset, seed) for the life of the server, so a repeated
    seed would skip the matcher."""
    return 1_000_000 + (seed % 100_000) * 10_000 + i


def onboard(seed, seconds):
    rng = random.Random(f"onboard/{seed}")
    window = []
    # One cycle takes about 32 ms, and the replay of each chunk doubles the
    # window's wall time.
    cycles = max(MIN_BLOCKS * 4, round(seconds * 15.5))
    order = []
    while len(order) < cycles:
        block = [q for q, _ in TABLE3]
        rng.shuffle(block)
        order += block
    for i in range(cycles):
        window += [register(ONBOARD_CORPUS, ONBOARD_DATASET, onboard_seed(seed, i),
                            ONBOARD_DOC_NODES),
                   query(order[i], corpus=ONBOARD_CORPUS)]
    setup = [register(ONBOARD_CORPUS, ONBOARD_DATASET, onboard_seed(seed, 9_999),
                      ONBOARD_DOC_NODES),
             query("Q4", corpus=ONBOARD_CORPUS)]
    # One set-up is about 45 ms, so a host stall moves it; the median of 25
    # does not move with one.
    return Plan(seed, setup, window, setups=25, second_op="register")


WORKLOADS = {"query_hot": query_hot, "update_mix": update_mix, "onboard": onboard}
