"""The lifts of a d-branch, walked by residue-class pair.

A d-branch of the search (search._dbranch_candidates) puts -d at a point
v and +d at a point w.  Every other weight of v lies in [-(d-1), d-1],
and w is a lift of them: each weight of residue r mod d becomes r or
r - d.  The pairing excess of v and w is decided pair by pair of residue
classes {x, d - x}, so the lifts are listed by class, one down count per
pair, and a class's excess is taken once for all its lifts.
"""


def _classes(others, d, downs, budget):
    """(lifts, classes): how many lifts of v's weights beside -d send
    `downs` of them down, and those lifts by class.  Class r mod d sends
    j_r of its m_r members to r - d and keeps the rest at r.  In a residue
    pair {x, y = d - x}, the joint excess of v and w at x and y depends
    only on s = j_x + j_y (e[x] = a - s, e[y] = b - s), so a class takes
    one s per pair.  It is listed as (downs, forced, picks): forced the
    weights its excess puts on the third point (-x per unit of e[x] > 0,
    x per unit below 0), and one (x, y, m_x, m_y, s) per pair.  A class is
    cut as soon as its pairs so far force more than budget weights.
    lifts is read off prod_r (1 + X + ... + X^m_r) at X = 2^(len(others)
    + 1), past every coefficient.
    """
    width, lifts, room, classes = len(others) + 1, 1, len(others), [(0, [], ())]
    for x in {min(w % d, -w % d) for w in others}:
        # class x holds x and x - d = -y, class y holds y and -x
        y, up, down = d - x, others.count(x), others.count(-x)
        mx, my = up + others.count(-y), others.count(y) + down
        a, b = up - down + mx, others.count(y) - others.count(-y) + my
        if x == y:  # one class: a down turns x into -x, 2 off e[x]
            my, a, b = 0, up, up
        for m in (mx, my):
            lifts *= ((1 << width * (m + 1)) - 1) // ((1 << width) - 1)
        room -= mx + my  # what the later pairs can still send down
        classes = [
            (t + s, forced + [-x] * (a - s) + [x] * (s - a) + [-y] * (b - s) + [y] * (s - b),
             picks + ((x, y, mx, my, s),))
            for t, forced, picks in classes
            for s in range(max(0, downs - t - room), min(mx + my, downs - t) + 1)
            if len(forced) + abs(a - s) + abs(b - s) <= budget
        ]
    return lifts >> width * downs & (1 << width) - 1, classes
