"""The compiled right-hand side of the coupled system (compile_stage): its
DSL expressions, Python code as Leaf nodes and the averaged drive by f's
separated form (averaged), split by the method of steps into a part that
reads t alone, a part evaluated once per delay interval and a generated RK4
kernel.  CoupledProblem.stage_at compiles it once per problem and regime.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import expr as dsl
from .errors import BlowupError


def state_columns(k: int, s: int):
    """The DSL's component names of x, y, xd and yd, one list each."""
    return [[f"{p}{j + 1}" for j in range(n)] for p, n in zip(("x", "y", "xd", "yd"), (k, s, k, s))]


def _state_free_subtrees(node, free, out: list):
    """Append to out, left to right, the maximal subtrees of node that are
    operations (a Leaf too) reading no variable outside free."""
    if isinstance(node, (dsl.Num, dsl.Var)):
        return
    if dsl.Expr(node, frozenset()).free_vars() <= free:
        out.append(node)
    elif isinstance(node, dsl.BinOp):
        _state_free_subtrees(node.left, free, out)
        _state_free_subtrees(node.right, free, out)
    elif not isinstance(node, dsl.Leaf):
        _state_free_subtrees(node.operand if isinstance(node, dsl.Neg) else node.arg, free, out)


def _reads(node):
    return dsl.Expr(node, frozenset()).free_vars()


def _undelayed(node):
    """node with each xd<i>, yd<j> read as x<i>, y<j>, as a variable or as
    the argument of a Leaf (node itself if none)."""
    if isinstance(node, dsl.Var):
        return dsl.Var(node.name[0] + node.name[2:]) if node.name[1:2] == "d" else node
    if isinstance(node, dsl.Leaf):
        args = tuple(_undelayed(dsl.Var(a)).name if isinstance(a, str) else a for a in node.args)
        return node._replace(args=args) if args != node.args else node
    kids = {key: _undelayed(getattr(node, key)) for key in ("operand", "left", "right", "arg") if hasattr(node, key)}
    return node._replace(**kids) if any(kids[key] is not getattr(node, key) for key in kids) else node


def _masked(node, timed: bool):
    """The product or quotient node with 1 for each factor that reads t
    (timed False) or that does not (timed True), and no product by 1."""
    if not (isinstance(node, dsl.BinOp) and node.op in "*/"):
        return node if ("t" in _reads(node)) == timed else dsl.Num(1.0)
    left, right, one = _masked(node.left, timed), _masked(node.right, timed), dsl.Num(1.0)
    return left if right == one else right if left == one and node.op == "*" else node._replace(left=left, right=right)


def averaged(node, cs: list):
    """The period average of an f component at (t, x, y, x, y) by its
    separated form, a node in x, y and c<i>, the mean of the node cs[i]
    that reads t alone, which it appends.  node must be a sum (+, -, unary
    -) of terms that read no t (as they are), t alone (one mean), or a
    product or quotient of such factors (<c> * phi); else None.  A Leaf is
    such a factor by the variables it is called with: a Python phi(y1,
    yd1) of lienard_reduce reads no t, so phi/gamma(t) gives <1/gamma> *
    phi(y1, y1), and a Python f(t, y1, yd1) reads t with the state."""
    read = _reads(node)
    if "t" not in read:
        return _undelayed(node)
    if read == {"t"}:
        cs.append(node)
        return dsl.Var(f"c{len(cs) - 1}")
    if isinstance(node, dsl.Neg) or (isinstance(node, dsl.BinOp) and node.op in "+-"):
        kids = {key: averaged(getattr(node, key), cs) for key in ("operand", "left", "right") if hasattr(node, key)}
        return None if any(kid is None for kid in kids.values()) else node._replace(**kids)
    if not (isinstance(node, dsl.BinOp) and node.op in "*/") or _reads(_masked(node, True)) != {"t"}:
        return None  # such as sin(t*y1), or a product with a factor t*y1
    return dsl.BinOp("*", averaged(_masked(node, True), cs), _undelayed(_masked(node, False)))


class Stage(NamedTuple):
    """A compiled right-hand side (compile_stage): times, the generated
    function of its time-only subtrees; bind, the generated factory of a
    sweep's interval part and RK4 kernel; width, the columns of
    a delayed block (the d delayed state components, then one per hoisted
    subtree)."""

    times: Callable
    bind: Callable
    width: int


#: The generated factory of compile_stage; each field is a block of
#: generated lines.
_KERNEL = """\
def fn(lam, mu, T, at, nt, D, S, K, work, threshold):
    Y, K2, K3, K4, scratch = work
    {once}
    def interval(lo, n):
        {interval}
    def step(j, i):
        t1 = nt[j + 1]
        ae = at[2 * j + 2]
        {end}
        if j >= 0:
            t0 = nt[j]
            dt = t1 - t0  # exact (Sterbenz), so t0 + dt is t1
            th = t0 + 0.5 * dt
            ah = at[2 * j + 1]
            y0 = S[j]
            K1 = K[j]
            y1 = S[j + 1]
            {mid}
            add(y0, multiply(0.5 * dt, K1, out=Y), out=Y)
            {k2}
            add(y0, multiply(0.5 * dt, K2, out=Y), out=Y)
            {k3}
            add(y0, multiply(dt, K3, out=Y), out=Y)
            {k4}
            add(y0, (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4), out=y1)
            norm = maximum.reduce(absolute(y1, out=scratch), axis=None)
            if not norm <= threshold:  # also catches inf and nan
                raise BlowupError(t1, float(norm), threshold)
        {node}
    return interval, step
"""


def compile_stage(k: int, s: int, f, g, h=None, drive=None) -> Stage:
    """The right-hand side from the expressions of f (k of them), g and h
    (s each; f and h may be None), split by the method of steps into at
    most two generated functions (see Stage).

    Its components are lam * f_i (0 when f is None) and at * g_j
    (+ lam * h_j); with drive = (wf, abar, cs, average), they are
    lam * (mu * f_i + (1 - mu) * (at / abar) * wf_i) (no mu * f_i when f
    is None) and at * g_j (+ (lam * mu) * h_j): the operations, in order,
    of evaluating the fields one by one.  wf_i may read c<i>, the mean of
    the node cs[i] that reads t alone (averaged): a column of the time
    part, which average(times) averages once, here.  A Python field,
    and a wf without that form, is given as the Leaf of its first
    component, and an expression may hold the Leaf of a Python function
    (lienard_reduce's phi(y1, yd1) and gamma(t)).

    Every maximal subtree that reads only t, xd, yd and lam, such as
    lam*(sin(yd1)/sigma(t)), is hoisted: evaluated once per delay interval
    on that interval's rows; a Leaf reads the variables it is called with,
    so gamma(t) is hoisted and phi(y1, yd1) is called in each stage.
    Within those, every maximal subtree that reads t alone, such as
    sigma(t), is evaluated once per sweep grid: times(t), on the stage
    times t as an (N, 1, 1) array, returns an (N, 1, 1 + n) block holding
    t and those subtrees and the cs: one column per distinct node, matched
    by node equality, so a subtree that is also a c<i> node, or that
    recurs, is evaluated once, and columns share a Leaf call (emit).

    bind(lam, mu, T, at, nt, D, S, K, work, threshold) binds, once per
    sweep, column views of the block T of times, of the delayed block D
    (R, B, width), of the states and slopes S and K (n_nodes, B, d), and of
    the (5, B, d) work buffers (the stage input, k2, k3, k4 and the |state|
    scratch), and returns two closures:

    * interval(lo, n) evaluates the hoisted subtrees on rows :n of D and
      rows lo .. lo + n - 1 of T, into D's hoisted columns;
    * step(j, i) is one whole RK4 step from node j, its delayed rows i + 1
      (midpoint) and i + 2 (end): the three stage inputs, the four stage
      evaluations, the update into S[j + 1], the blowup check of that
      state (BlowupError unless its largest |component| is <= threshold)
      and then its node slope into K[j + 1] (time nt[j + 1], coefficient
      at[2 j + 2], delayed row i + 2).  step(-1, -2) is node 0's slope
      alone: everything before the node slope is skipped for j < 0.

    The four stage evaluations (k2, k3, k4 and the node slope) are
    inlined, each a copy of the stage's generated lines.

    A domain error is raised by the first failing time-only node, when
    times is called (with cs, first by average), then by the first
    failing hoisted node, then by f's nodes before g's and g's before h's.
    The DSL cannot name at, lam, mu or c<i>."""
    at, lam, mu = dsl.Var("at"), dsl.Var("lam"), dsl.Var("mu")

    def mul(left, right):
        return dsl.BinOp("*", left, right)

    def roots(given, n):
        return [given._replace(j=j) for j in range(n)] if isinstance(given, dsl.Leaf) else [e.root for e in given]

    f, h = (None if e is None else roots(e, n) for e, n in ((f, k), (h, s)))
    wf, abar, cs, average = drive or (None, None, [], None)
    if drive is None:
        parts = [dsl.Num(0.0)] * k if f is None else [mul(lam, e) for e in f]
        lam_h = lam
    else:
        scale = mul(dsl.BinOp("-", dsl.Num(1.0), mu), dsl.BinOp("/", at, dsl.Num(abar)))
        parts = [mul(scale, w) for w in roots(wf, k)]
        if f is not None:
            parts = [dsl.BinOp("+", mul(mu, e), w) for e, w in zip(f, parts)]
        parts = [mul(lam, w) for w in parts]
        lam_h = mul(lam, mu)
    for j, e in enumerate(roots(g, s)):
        part = mul(at, e)
        parts.append(part if h is None else dsl.BinOp("+", part, mul(lam_h, h[j])))
    x, y, xd, yd = state_columns(k, s)
    hoisted, timed = [], []
    for part in parts:
        _state_free_subtrees(part, {"t", "lam", *xd, *yd}, hoisted)
    for node in hoisted:
        _state_free_subtrees(node, {"t"}, timed)
    d = k + s
    column = {node: c for c, node in enumerate(dict.fromkeys([dsl.Var("t")] + timed + cs))}
    if len(column) > 1:
        times = dsl.compile_function([dsl.Expr(node, frozenset()) for node in column], [["t"]]).__wrapped__
    else:
        def times(t):
            return t
    averages = average(times) if cs else None
    means = {f"c{i}": float(averages[column[node]]) for i, node in enumerate(cs)}

    def used(nodes, bound):
        out: set = set()
        for node in nodes:
            dsl._collect_vars(node, out, {id(b) for b in bound})
        return out

    # The columns of the state (x, y), a delayed row (xd, yd, then the
    # hoisted subtrees, by id) and the time block (t, then the subtrees
    # that read t alone) that the stage and the interval part read, by
    # variable, group (a (start, stop) pair) or subtree.
    in_stage, in_interval = used(parts, hoisted), used(hoisted, timed)
    cols = {**dict(zip(x + y, range(d))), **dict(zip(xd + yd, range(d))),
            "x": (0, k), "y": (k, d), "xd": (0, k), "yd": (k, d)}
    state = {v: cols[v] for v in [*x, *y, "x", "y"] if v in in_stage}
    row = ({v: cols[v] for v in [*xd, *yd, "xd", "yd"] if v in in_stage}
           | {id(n): d + c for c, n in enumerate(hoisted)})
    interval_row = {v: cols[v] for v in xd + yd if v in in_interval}
    interval_t = ({"t": 0} if "t" in in_interval else {}) | {id(n): column[n] for n in timed}
    ns = {"add": np.add, "multiply": np.multiply, "maximum": np.maximum, "absolute": np.absolute,
          "BlowupError": BlowupError, **means}

    def name(array, col):
        return f"{array}_{col}" if isinstance(col, int) else f"{array}_{col[0]}to{col[1]}"

    def columns(array, cols):
        """Lines binding a view of each column of array (once per sweep)."""
        return [f"{name(array, c)} = {array}[..., {c if isinstance(c, int) else '%d:%d' % c}]"
                for c in dict.fromkeys(cols)]

    def rows(local, array, cols, index):
        """Lines binding the row index of each column view of array."""
        return [f"{name(local, c)} = {name(array, c)}[{index}]" for c in dict.fromkeys(cols)]

    def evaluate(roots, names, targets):
        """Lines computing roots (dsl.emit), each value written to its target."""
        lines, values = dsl.emit(roots, names, ns)
        return lines + [f"{target} = {v}" for target, v in zip(targets, values)]

    def stage(t, a, s_local, r_local, targets):
        """One stage evaluation at time t and coefficient a, from the state
        and delayed row columns bound as s_local and r_local."""
        names = {"lam": "lam", "mu": "mu", "t": t, "at": a, **{c: c for c in means},
                 **{v: name(s_local, c) for v, c in state.items()},
                 **{v: name(r_local, c) for v, c in row.items()}}
        return evaluate(parts, names, targets)

    interval = (rows("IT", "T", interval_t.values(), "lo:lo + n") + rows("ID", "D", interval_row.values(), ":n")
                + evaluate(hoisted, {"lam": "lam", **{v: name("IT", c) for v, c in interval_t.items()},
                                     **{v: name("ID", c) for v, c in interval_row.items()}},
                           [f"D_{d + c}[:n]" for c in range(len(hoisted))]))
    parts_of = {
        "once": columns("T", interval_t.values())
        + columns("D", [*interval_row.values(), *range(d, d + len(hoisted)), *row.values()])
        + columns("S", state.values()) + columns("Y", state.values())
        + [line for array in ("K", "K2", "K3", "K4") for line in columns(array, range(d))],
        "interval": interval or ["pass"],
        "end": rows("RE", "D", row.values(), "i + 2"),
        "mid": rows("RH", "D", row.values(), "i + 1"),
        "k2": stage("th", "ah", "Y", "RH", [f"K2_{c}[...]" for c in range(d)]),
        "k3": stage("th", "ah", "Y", "RH", [f"K3_{c}[...]" for c in range(d)]),
        "k4": stage("t1", "ae", "Y", "RE", [f"K4_{c}[...]" for c in range(d)]),
        "node": rows("N", "S", state.values(), "j + 1")
        + stage("t1", "ae", "N", "RE", [f"K_{c}[j + 1]" for c in range(d)]),
    }
    indent = {"once": 4, "interval": 8, "end": 8, "node": 8}  # the rest is under `if j >= 0`
    source = _KERNEL.format(**{key: ("\n" + " " * indent.get(key, 12)).join(lines)
                               for key, lines in parts_of.items()})
    return Stage(times, dsl.define(source, ns), d + len(hoisted))
