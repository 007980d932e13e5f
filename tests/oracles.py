"""Independent brute-force reimplementations used as test oracles.

Everything here works on plain dicts and position lists with naive loops so
that results can be checked against the package without sharing code paths.
"""

import heapq
import math
import re
from collections import Counter


# ---------------------------------------------------------------------------
# counting


def word_tokens(text, lowercase=True, sentences=False):
    """Runs of word characters other than "_", each lowercased on its own.

    With ``sentences``, a ``None`` goes between two tokens that a ``.``,
    ``!`` or ``?`` stands between.
    """
    tokens = []
    stopped = False
    for piece in re.findall(r"[^\W_]+|[.!?]", text):
        if piece in (".", "!", "?"):
            stopped = sentences
        else:
            if stopped and tokens:
                tokens.append(None)
            stopped = False
            tokens.append(piece.lower() if lowercase else piece)
    return tokens


def window_pairs(segments, radius):
    """Double loop over every position pair within each segment."""
    pairs = Counter()
    for segment in segments:
        n = len(segment)
        for i in range(n):
            for j in range(n):
                if i != j and abs(i - j) <= radius:
                    pairs[(segment[i], segment[j])] += 1
    return pairs


def triple_pairs(records):
    """Direct per-record tally of both directions of each triple."""
    pairs = Counter()
    for head, relation, dependent in records:
        pairs[(head, (relation, dependent))] += 1
        pairs[(dependent, (relation + "^-1", head))] += 1
    return pairs


def occurrence_contexts(segments, radius):
    """(word, window context) of every position, the context left to right."""
    for segment in segments:
        for i, word in enumerate(segment):
            yield word, segment[max(i - radius, 0) : i] + segment[i + 1 : i + radius + 1]


def bootstrap_cells(segments, senses, positive, radius):
    """One disambiguating pass, occurrence by occurrence: {word: {category: events}}.

    ``senses`` maps a word to its candidate categories and ``positive`` a
    category to {word: positive PMI}.  Each candidate's score adds its
    context's values left to right; the first best in sorted order wins, and
    the occurrence gives its category one event per context word.
    """
    cells = {}
    for occurrence, context in occurrence_contexts(segments, radius):
        cats = senses.get(occurrence)
        if not cats or not context:
            continue
        chosen, best = None, -1.0
        for cat in sorted(cats):
            row = positive.get(cat, {})
            total = 0.0
            for word in context:
                total += row.get(word, 0.0)
            if total > best:
                best, chosen = total, cat
        for word in context:
            row = cells.setdefault(word, {})
            row[chosen] = row.get(chosen, 0) + 1
    return cells


def matrix_cells(matrix):
    """{word: {category: count}} of a category-by-word matrix read through ``items()``."""
    cells = {}
    for category, word, n in matrix.items():
        cells.setdefault(word, {})[category] = n
    return cells


# ---------------------------------------------------------------------------
# contingency and association


def contingency_from_pairs(pairs, target, feature):
    total = sum(pairs.values())
    n_wc = pairs.get((target, feature), 0)
    row = sum(v for (t, _), v in pairs.items() if t == target)
    col = sum(v for (_, f), v in pairs.items() if f == feature)
    return (
        float(n_wc),
        float(row - n_wc),
        float(col - n_wc),
        float(total - row - col + n_wc),
    )


def soa_value(table, kind, base=2.0):
    """One association statistic from a 4-tuple; None when undefined."""
    n_wc, n_w_nc, n_nw_c, n_nw_nc = table
    row = n_wc + n_w_nc
    col = n_wc + n_nw_c
    total = n_wc + n_w_nc + n_nw_c + n_nw_nc
    if kind == "cp":
        return None if row == 0 else n_wc / row
    if kind == "pmi":
        if n_wc == 0 or row == 0 or col == 0:
            return None
        return math.log(n_wc * total / (row * col), base)
    if kind == "phi":
        denom = row * col * (n_nw_c + n_nw_nc) * (n_w_nc + n_nw_nc)
        if denom == 0:
            return None
        return (n_wc * n_nw_nc - n_w_nc * n_nw_c) / math.sqrt(denom)
    if kind == "odds":
        if n_w_nc * n_nw_c == 0:
            return None
        return (n_wc * n_nw_nc) / (n_w_nc * n_nw_c)
    if kind == "yule":
        a = n_wc * n_nw_nc
        b = n_w_nc * n_nw_c
        return None if a + b == 0 else (a - b) / (a + b)
    if kind == "dice":
        return None if row + col == 0 else 2 * n_wc / (row + col)
    if kind == "cos":
        return None if row * col == 0 else n_wc / math.sqrt(row * col)
    raise ValueError(kind)


def cp_profile(pairs, target):
    row = {f: v for (t, f), v in pairs.items() if t == target and v > 0}
    total = sum(row.values())
    return {f: v / total for f, v in row.items()}


def pmi_profile(pairs, target, base=2.0):
    profile = {}
    for (t, f), v in pairs.items():
        if t != target or v == 0:
            continue
        value = soa_value(contingency_from_pairs(pairs, target, f), "pmi", base)
        if value is not None and value != 0.0:
            profile[f] = value
    return profile


# ---------------------------------------------------------------------------
# measures over plain dicts


def union(p, q):
    return sorted(set(p) | set(q), key=_key)


def _key(feature):
    if isinstance(feature, tuple):
        return (1, feature[0], feature[1])
    return (0, str(feature), "")


def smooth_both(p, q, eps):
    keys = union(p, q)

    def one_side(source):
        raw = [source.get(k, 0.0) for k in keys]
        zeros = sum(1 for v in raw if v <= 0)
        if zeros == 0:
            return raw
        scale = sum(raw) / (sum(raw) + eps * zeros)
        return [(v if v > 0 else eps) * scale for v in raw]

    return keys, one_side(p), one_side(q)


def o_cosine(p, q):
    num = sum(p.get(k, 0.0) * q.get(k, 0.0) for k in union(p, q))
    np_ = math.sqrt(sum(v * v for v in p.values()))
    nq = math.sqrt(sum(v * v for v in q.values()))
    return num / (np_ * nq)


def o_l1(p, q):
    return sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in union(p, q))


def o_l2(p, q):
    return math.sqrt(sum((p.get(k, 0.0) - q.get(k, 0.0)) ** 2 for k in union(p, q)))


def o_kld(p, q, eps=1e-8, base=2.0):
    _, pv, qv = smooth_both(p, q, eps)
    return sum(a * math.log(a / b, base) for a, b in zip(pv, qv))


def o_kld_abs(p, q, eps=1e-8, base=2.0):
    _, pv, qv = smooth_both(p, q, eps)
    return sum(a * abs(math.log(a / b, base)) for a, b in zip(pv, qv))


def o_kld_unw_abs(p, q, eps=1e-8, base=2.0):
    _, pv, qv = smooth_both(p, q, eps)
    return sum(abs(math.log(a / b, base)) for a, b in zip(pv, qv))


def o_kld_com(p, q, base=2.0):
    shared = [k for k in union(p, q) if k in p and k in q]
    return sum(p[k] * math.log(p[k] / q[k], base) for k in shared)


def o_asd(p, q, alpha=0.99, base=2.0):
    total = 0.0
    for k in union(p, q):
        a = p.get(k, 0.0)
        if a <= 0:
            continue
        total += a * math.log(a / (alpha * q.get(k, 0.0) + (1 - alpha) * a), base)
    return total


def o_jsd(p, q, base=2.0, use_abs=False):
    total = 0.0
    for k in union(p, q):
        a = p.get(k, 0.0)
        b = q.get(k, 0.0)
        m = (a + b) / 2.0
        if a > 0:
            term = math.log(a / m, base)
            total += a * (abs(term) if use_abs else term)
        if b > 0:
            term = math.log(b / m, base)
            total += b * (abs(term) if use_abs else term)
    return total


def o_hindle(p, q, relations=None):
    total = 0.0
    for k in set(p) & set(q):
        if relations is not None:
            if not (isinstance(k, tuple) and k[0] in relations):
                continue
        a, b = p[k], q[k]
        if a > 0 and b > 0:
            total += min(a, b)
        elif a < 0 and b < 0:
            total += abs(max(a, b))
    return total


def o_lin(p, q):
    t1 = {k: v for k, v in p.items() if v > 0}
    t2 = {k: v for k, v in q.items() if v > 0}
    shared = set(t1) & set(t2)
    if not shared:
        return 0.0
    return sum(t1[k] + t2[k] for k in shared) / (sum(t1.values()) + sum(t2.values()))


def o_dice_cp(p, q):
    num = sum(min(p.get(k, 0.0), q.get(k, 0.0)) for k in union(p, q))
    return 2 * num / (sum(p.values()) + sum(q.values()))


def o_jaccard_cp(p, q):
    num = sum(min(p.get(k, 0.0), q.get(k, 0.0)) for k in union(p, q))
    den = sum(max(p[k], q[k]) for k in set(p) & set(q))
    return num / den


def pcm_weights(p, q, scheme, n_terms):
    keys = union(p, q)
    if scheme == "none":
        return [1.0] * n_terms
    if scheme == "avg":
        return [(p.get(k, 0.0) + q.get(k, 0.0)) / 2.0 for k in keys]
    maxes = [max(p.get(k, 0.0), q.get(k, 0.0)) for k in keys]
    total = sum(maxes)
    return [m / total for m in maxes]


def o_dif(p, q, scheme="none"):
    keys = union(p, q)
    terms = [abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys]
    weights = pcm_weights(p, q, scheme, len(terms))
    return sum(w * t for w, t in zip(weights, terms))


def o_div(p, q, scheme="none", eps=1e-8, base=2.0):
    _, pv, qv = smooth_both(p, q, eps)
    terms = [abs(math.log(a / b, base)) for a, b in zip(pv, qv)]
    weights = pcm_weights(p, q, scheme, len(terms))
    return sum(w * t for w, t in zip(weights, terms))


def o_pdt_avg(p, q, scheme="none"):
    keys = union(p, q)
    terms = []
    for k in keys:
        a = p.get(k, 0.0)
        b = q.get(k, 0.0)
        if a + b <= 0:
            terms.append(0.0)
        else:
            terms.append(a * b / ((0.5 * (a + b)) ** 2))
    if scheme == "none":
        return sum(terms) / len(terms)
    weights = pcm_weights(p, q, scheme, len(terms))
    return sum(w * t for w, t in zip(weights, terms))


def o_pdt_avg_wt_closed(p, q):
    """Direct evaluation of the product over half-sum form."""
    total = 0.0
    for k in union(p, q):
        a = p.get(k, 0.0)
        b = q.get(k, 0.0)
        if a + b > 0:
            total += (a * b) / (0.5 * (a + b))
    return total


def o_crm_pr(p, q, kind, penalty):
    if kind == "mi":
        p = {k: v for k, v in p.items() if v > 0}
        q = {k: v for k, v in q.items() if v > 0}
    shared = set(p) & set(q)
    if kind == "type":
        if penalty == "add":
            return len(shared) / len(p), len(shared) / len(q)
        pr = sum(min(p[k], q[k]) / p[k] for k in shared) / len(p)
        rc = sum(min(p[k], q[k]) / q[k] for k in shared) / len(q)
        return pr, rc
    if kind == "token":
        if penalty == "add":
            return sum(p[k] for k in shared), sum(q[k] for k in shared)
        matched = sum(min(p[k], q[k]) for k in shared)
        return matched, matched
    if penalty == "add":
        return (
            sum(p[k] for k in shared) / sum(p.values()),
            sum(q[k] for k in shared) / sum(q.values()),
        )
    matched = sum(min(p[k], q[k]) for k in shared)
    return matched / sum(p.values()), matched / sum(q.values())


def o_crm(p, q, kind, penalty, gamma, beta):
    pr, rc = o_crm_pr(p, q, kind, penalty)
    harmonic = 0.0 if pr + rc == 0 else 2 * pr * rc / (pr + rc)
    return gamma * harmonic + (1 - gamma) * (beta * pr + (1 - beta) * rc)


def o_kld_max(p, q, eps=1e-8, base=2.0):
    return max(o_kld(p, q, eps, base), o_kld(q, p, eps, base))


def o_kld_avg(p, q, eps=1e-8, base=2.0):
    return 0.5 * (o_kld(p, q, eps, base) + o_kld(q, p, eps, base))


def o_kld_avg_closed(p, q, eps=1e-8, base=2.0):
    """Half the signed-difference-weighted log ratio over smoothed support."""
    _, pv, qv = smooth_both(p, q, eps)
    return 0.5 * sum((a - b) * math.log(a / b, base) for a, b in zip(pv, qv))


# ---------------------------------------------------------------------------
# taxonomy helpers


def all_paths(neighbors, start, goal, max_len):
    """Exhaustive simple-path enumeration with relation labels."""
    paths = []

    def walk(node, path_nodes, path_rels):
        if len(path_rels) > max_len:
            return
        if node == goal and path_rels:
            paths.append(list(path_rels))
            return
        for nxt, rel in neighbors.get(node, []):
            if nxt not in path_nodes:
                walk(nxt, path_nodes + [nxt], path_rels + [rel])

    walk(start, [start], [])
    return paths


def shortest_with_changes(neighbors, start, goal, max_len=12):
    if start == goal:
        return 0, 0
    paths = all_paths(neighbors, start, goal, max_len)
    if not paths:
        return None
    best_len = min(len(p) for p in paths)
    best_changes = min(
        sum(1 for a, b in zip(p, p[1:]) if a != b)
        for p in paths
        if len(p) == best_len
    )
    return best_len, best_changes


def dijkstra_with_changes(neighbors, start, goal):
    """(length, fewest relation changes) of a shortest path, or None if there is none.

    Dijkstra's algorithm over states (node, label of the last edge), with the
    cost (edges, changes) compared lexicographically.  A cheapest walk is a
    simple path, since a walk that repeats a node has a shorter one, so this
    agrees with :func:`shortest_with_changes` without enumerating paths.
    """
    if start == goal:
        return 0, 0
    best = {(start, None): (0, 0)}  # the start has no last edge
    heap = [(0, 0, start, None)]
    while heap:
        length, changes, node, label = heapq.heappop(heap)
        if best[(node, label)] < (length, changes):
            continue
        if node == goal:
            return length, changes
        for nxt, rel in neighbors.get(node, []):
            cost = (length + 1, changes + (label is not None and rel != label))
            if cost < best.get((nxt, rel), (math.inf, math.inf)):
                best[(nxt, rel)] = cost
                heapq.heappush(heap, (*cost, nxt, rel))
    return None


def hypernym_parents(nodes, edges, relation="isa"):
    """Each node's hypernyms in edge order, duplicates kept."""
    parents = {node: [] for node in nodes}
    for child, parent, label in edges:
        if label == relation:
            parents[child].append(parent)
    return parents


def hypernym_closure(parents, concept):
    """The concept and every hypernym above it, by breadth-first search."""
    seen, queue = {concept}, [concept]
    while queue:
        for parent in parents[queue.pop()]:
            if parent not in seen:
                seen.add(parent)
                queue.append(parent)
    return seen


def longest_depths(parents):
    """Longest hypernym chain from a root to each node of an acyclic ``parents``."""
    depths = {}

    def depth(node):
        if node not in depths:
            depths[node] = max((depth(p) + 1 for p in parents[node]), default=0)
        return depths[node]

    for node in parents:
        depth(node)
    return depths


def ic_by_word(nodes, parents, word_map, freqs, log_base=2.0):
    """(prob, ic, floored) with one closure search per (word, sense).

    Each occurrence of a word credits once every concept in the union of its
    senses' closures; words in sorted order, each credit added in turn.  A
    concept with no credit gets half of one occurrence's share, and the root
    an information content of 0.
    """
    (root,) = [node for node in nodes if not parents[node]]
    credit = {node: 0.0 for node in nodes}
    for word in sorted(freqs):
        if not word_map.get(word) or freqs[word] == 0:
            continue
        credited = set()
        for concept in word_map[word]:
            credited |= hypernym_closure(parents, concept)
        for node in credited:
            credit[node] += freqs[word]
    floor = 1.0 / (2.0 * credit[root])
    prob = {node: credit[node] / credit[root] if credit[node] > 0 else floor for node in nodes}
    ic = {node: -math.log(p) / math.log(log_base) for node, p in prob.items()}
    ic[root] = 0.0
    return prob, ic, sorted(node for node in nodes if credit[node] == 0)


# ---------------------------------------------------------------------------
# tagged TSV files, read one line at a time
#
# The loaders' rules line by line: the first bad line is reported; once every
# line parses, a unigram word given a second time, then a negative count or a
# WCCM value that is not a non-negative integer is refused, and then a cell
# given a second time.


class Refused(Exception):
    """A file the loaders refuse: ``args`` are the error's class name and message."""


def _parse_error(path, number, message):
    return Refused("ParseError", f"{path}:{number}: {message}")


def _tagged_body(path, tag, tags=()):
    """(line number, fields) after the ``#tag`` header, without blank and ``#manifest`` lines.

    A line whose first field is one of ``tags`` before the header, and a
    second header, are refused.
    """
    header_line = None
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            first = line.split("\t")[0]
            is_header = first == f"#{tag}"
            if header_line is None:
                if first in tags:
                    raise _parse_error(path, number, f"{first[1:]} line before the #{tag} header")
                header_line = number if is_header else None
            elif is_header:
                raise _parse_error(path, number, f"repeats the header of line {header_line}")
            elif line.strip() and not line.startswith("#manifest"):
                yield number, line.split("\t")


def _first_repeat(path, keyed_lines, what="cell"):
    first = {}
    for number, key in keyed_lines:
        if key in first:
            raise _parse_error(path, number, f"repeats the {what} of line {first[key]}")
        first[key] = number


def _integer(text):
    """The integer a count's text spells, if it is ASCII ``-?[0-9]+``, else None."""
    return int(text) if re.fullmatch("-?[0-9]+", text) else None


def counts_file(path):
    """({(target, feature text): count} without zero cells, unigrams) of a counts file.

    A unigram line before the header is refused.  After the first bad line,
    the first repeated unigram word is refused, then the first negative
    count, then the first repeated cell.
    """
    cells, unigrams, unigram_lines = [], {}, []
    for number, parts in _tagged_body(path, "counts", ["#unigram"]):
        if parts[0] == "#unigram":
            if len(parts) != 3:
                raise _parse_error(path, number, "malformed unigram line")
            unigram_lines.append((number, parts[1]))
            unigrams[parts[1]] = _integer(parts[2])
            if unigrams[parts[1]] is None or unigrams[parts[1]] < 0:
                raise _parse_error(path, number, f"bad count {parts[2]!r}")
        if parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise _parse_error(path, number, "expected target<TAB>feature<TAB>count")
        n = _integer(parts[2])
        if n is None or not -(2**63) <= n < 2**63:
            raise _parse_error(path, number, f"bad count {parts[2]!r}")
        cells.append((number, (parts[0], parts[1]), n))
    _first_repeat(path, unigram_lines, "unigram")
    for number, _, n in cells:
        if n < 0:
            raise _parse_error(path, number, f"negative count {n}")
    _first_repeat(path, [(number, key) for number, key, _ in cells])
    total = sum(n for _, _, n in cells)
    if total > 2**53:
        raise Refused(
            "ValidationError",
            f"{path}: counts add up to {total}, more than 2**53, which float64 cannot add exactly",
        )
    return {key: n for _, key, n in cells if n != 0}, unigrams


def wccm_file(path):
    """{(word, category): count} without zero cells of a WCCM file."""
    cells = []
    for number, parts in _tagged_body(path, "wccm"):
        if parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise _parse_error(path, number, "expected word<TAB>category<TAB>count")
        try:
            cells.append((number, (parts[0], parts[1]), float(parts[2])))
        except ValueError:
            raise _parse_error(path, number, f"bad count {parts[2]!r}") from None
    for _, (word, category), value in cells:
        if not (0 <= value < 2**63 and value == math.floor(value)):
            raise Refused(
                "ValidationError",
                f"{path}: cell ({word!r}, {category!r}) = {value!r}"
                " is not a non-negative integer count",
            )
    _first_repeat(path, [(number, key) for number, key, _ in cells])
    return {key: int(value) for _, key, value in cells if value != 0}


def ic_file(path):
    """(prob, ic) dicts of an information-content file.

    A prob must lie in (0, 1] and an ic be finite, at least 0 under the
    header's log base above 1 and at most 0 under one below 1; then a concept
    may come only once.
    """
    with open(path, encoding="utf-8") as handle:
        header = next(line for line in handle if line.split("\t")[0].rstrip() == "#ic")
    fields = dict(f.partition("=")[::2] for f in header.rstrip().split("\t")[1:])
    sign = 1.0 if float(fields.get("log_base", 2.0)) > 1.0 else -1.0
    lines = []
    for number, parts in _tagged_body(path, "ic"):
        if parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise _parse_error(path, number, "expected concept<TAB>prob<TAB>ic")
        try:
            lines.append((number, parts[0], float(parts[1]), float(parts[2])))
        except ValueError:
            raise _parse_error(path, number, "non-numeric prob or ic") from None
    if not lines:
        raise Refused("ValidationError", f"{path}: empty information-content table")
    for number, _, p, ic in lines:
        if not 0.0 < p <= 1.0:
            raise _parse_error(path, number, f"prob {p!r} is outside (0, 1]")
        if not (math.isfinite(ic) and ic * sign >= 0.0):
            bound = ">=" if sign > 0 else "<="
            raise _parse_error(path, number, f"ic {ic!r} must be finite and {bound} 0")
    _first_repeat(path, [(number, concept) for number, concept, _, _ in lines], "concept")
    return {c: p for _, c, p, _ in lines}, {c: ic for _, c, _, ic in lines}


# ---------------------------------------------------------------------------
# record files, read one line at a time


def _data_lines(path):
    """(line number, line) of each line of ``path`` that is not blank and not a ``#`` line.

    The file is read in text mode, which ends a line at ``\\n``, ``\\r\\n`` or ``\\r``.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip() and not line.startswith("#"):
            yield number, line


def taxonomy_file(path):
    """(nodes, edges, word_map) of a taxonomy file.

    The first bad line is refused; once every line reads, a file of no
    nodes; then the first edge, and then the first ``WORD`` line, naming a
    concept that no ``NODE`` line declares; then a file of several nodes but
    no ``isa`` edge.
    """
    nodes, edges, words = {}, [], []
    for number, line in _data_lines(path):
        parts = line.split("\t")
        shape = (parts[0], len(parts))
        if shape == ("NODE", 3):
            if parts[1] == "":
                raise _parse_error(path, number, "empty concept name")
            if parts[1] in nodes:
                raise _parse_error(path, number, f"duplicate node {parts[1]!r}")
            nodes[parts[1]] = parts[2]
        elif shape == ("EDGE", 4):
            if parts[1] == "" or parts[2] == "":
                raise _parse_error(path, number, "empty concept name")
            if parts[3] == "":
                raise _parse_error(path, number, "empty relation")
            edges.append((number, parts[1], parts[2], parts[3]))
        elif shape == ("WORD", 3):
            if parts[1] == "":
                raise _parse_error(path, number, "empty word")
            if parts[2] == "":
                raise _parse_error(path, number, "empty concept name")
            words.append((number, parts[1], parts[2]))
        else:
            raise _parse_error(path, number, f"unrecognized record {line!r}")
    if not nodes:
        raise Refused("ConfigurationError", f"{path}: taxonomy file has no nodes")
    for number, child, parent, _ in edges:
        if child not in nodes or parent not in nodes:
            raise _parse_error(path, number, f"edge {child!r} -> {parent!r} uses unknown node")
    word_map = {}
    for number, word, concept in words:
        if concept not in nodes:
            raise _parse_error(path, number, f"word {word!r} maps to unknown concept {concept!r}")
        word_map.setdefault(word, set()).add(concept)
    edges = [edge[1:] for edge in edges]
    if len(nodes) > 1 and not any(label == "isa" for _, _, label in edges):
        raise Refused("ValidationError", "hypernymy subgraph has no edges")
    return nodes, edges, {word: frozenset(concepts) for word, concepts in word_map.items()}


def frequency_file(path):
    """{word: count} of a ``word<TAB>count`` file, the counts of a repeated word added up.

    The first bad line is refused, and then the first negative count.
    """
    freqs, negative = {}, None
    for number, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise _parse_error(path, number, "expected word<TAB>count")
        n = _integer(parts[1])
        if n is None:
            raise _parse_error(path, number, f"bad count {parts[1]!r}")
        if n < 0 and negative is None:
            negative = _parse_error(path, number, f"negative count {n}")
        freqs[parts[0]] = freqs.get(parts[0], 0) + n
    if negative is not None:
        raise negative
    return freqs
