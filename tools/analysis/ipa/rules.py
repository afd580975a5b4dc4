"""Interprocedural rules over the whole-program call-graph model.

Each rule targets a bug class that only exists across call boundaries —
the classes the million-connection scale-out era makes likely:

  pool-use-after-release       an ObjectPool/BytesPool handle or EventId
                               used on a path after a release()/cancel()
                               reachable through calls: the ABA hazard the
                               PR 7 generation tags catch at runtime,
                               caught at analysis time.
  lock-order-cycle             a cycle in the global acquired-while-held
                               graph over util::Mutex — the deadlock
                               class clang -Wthread-safety cannot see.
  blocking-under-lock          cv waits, SweepRunner job submission, or
                               file I/O reachable while a mutex is held.
  callback-outlives-capture    interprocedural deferred-raw-this: a
                               capture escaping into a deferred-execution
                               registration through a callee, where the
                               registration outlives the captured frame
                               or object.

Rules emit (rel, line, message) triples; the IPA engine turns them into
the shared Finding format. Anything the model cannot resolve degrades to
silence — a partial call graph must never manufacture findings.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

from ..ast.astmodel import Block, Stmt
from ..ast.parser import split_commas
from ..ast.rules import (
    _DEFER_FNS, _SAFE_CAPTURE_HINT, _find_lambdas, _raw_this_captures,
)
from .callgraph import (
    FunctionNode, Program, _Env, releases_in_stmt,
)

IPAFinding = Tuple[str, int, str]  # (rel, line, message)


class IPARule(NamedTuple):
    name: str
    applies_to: Callable[[str], bool]
    check: Callable[[Program], List[IPAFinding]]
    doc: str


def _src_only(rel: str) -> bool:
    return "src/" in rel


def _fmt_locks(locks) -> str:
    return ", ".join(f"'{m}'" for m in sorted(set(locks)))


# --- rule 1: pool-use-after-release ------------------------------------------


_EXIT_KINDS = ("return", "break", "continue", "goto")


def _stmt_exits(stmt: Stmt) -> bool:
    if stmt.kind in _EXIT_KINDS:
        return True
    return stmt.kind == "expr" and bool(stmt.head) and \
        stmt.head[0].kind == "id" and stmt.head[0].text == "throw"


def _uses_in_head(stmt: Stmt, var: str) -> bool:
    return any(t.kind == "id" and t.text == var for t in stmt.head)


def _uar_block(block: Block, taint: Dict[str, object], env: _Env,
               node: FunctionNode, program: Program,
               out: List[IPAFinding]) -> bool:
    """Walks one block; mutates `taint` (var -> ReleaseSite). Returns True
    when every path through the block exits the enclosing construct, so a
    release inside `if (...) { release; return; }` never taints the
    fall-through path."""
    for stmt in block.stmts:
        # Uses of already-released handles, before this statement's own
        # releases are recorded.
        for var in list(taint):
            if not stmt.head or not _uses_in_head(stmt, var):
                continue
            r = taint[var]
            if stmt.kind == "decl" and stmt.decl_name == var:
                del taint[var]  # redeclaration shadows the stale handle
                continue
            texts = [t.text for t in stmt.head]
            if len(texts) >= 2 and texts[0] == var and texts[1] == "=":
                del taint[var]  # reassignment heals the handle
                continue
            if "kInvalidEventId" in texts:
                continue  # validity check / sentinel reset idiom
            if "cancel" in texts:
                continue  # re-cancel of a stale id is a designed no-op
            noun = "event id" if r.kind == "cancel" else "pool handle"
            after = "cancel" if r.kind == "cancel" else "release"
            out.append((
                node.rel, stmt.line,
                f"{noun} '{var}' used after {after} (line {r.line}, "
                f"reachable through calls); the slot can be re-acquired "
                f"and its generation bumped (ABA) — reassign the handle "
                f"or reset it to the invalid sentinel first"))
            del taint[var]
        env.see_decl(stmt)
        if stmt.for_init is not None:
            env.see_decl(stmt.for_init)
        if stmt.head:
            for r in releases_in_stmt(stmt, env, program, node):
                taint[r.var] = r
        if stmt.kind == "if" and len(stmt.blocks) == 2:
            t1, t2 = dict(taint), dict(taint)
            x1 = _uar_block(stmt.blocks[0], t1, env, node, program, out)
            x2 = _uar_block(stmt.blocks[1], t2, env, node, program, out)
            if not x1:
                taint.update(t1)
            if not x2:
                taint.update(t2)
        else:
            for sub in stmt.blocks:
                tsub = dict(taint)
                exits = _uar_block(sub, tsub, env, node, program, out)
                if not exits:
                    taint.update(tsub)
        if _stmt_exits(stmt):
            return True
    return False


def _check_pool_uar(program: Program) -> List[IPAFinding]:
    out: List[IPAFinding] = []
    for node in program.nodes:
        if node.fn.body is None or node.is_callback:
            continue
        env = _Env(node)
        _uar_block(node.fn.body, {}, env, node, program, out)
    return out


# --- rule 2: lock-order-cycle ------------------------------------------------


def _lock_edges(program: Program):
    """(held, acquired) -> earliest (rel, line) evidence, from intra-
    function nesting and from calls made with locks held into callees'
    transitive acquire sets."""
    edges: Dict[Tuple[str, str], Tuple[str, int]] = {}

    def add(a: str, b: str, rel: str, line: int) -> None:
        key = (a, b)
        if key not in edges or (rel, line) < edges[key]:
            edges[key] = (rel, line)

    for node in program.nodes:
        s = node.summary
        for acq in s.acquires:
            for h in acq.held:
                add(h, acq.mutex, node.rel, acq.line)
        for cs in s.calls:
            if not cs.held or cs.kind == "callback" or cs.resolved is None:
                continue
            for m in sorted(cs.resolved.summary.all_acquires):
                for h in cs.held:
                    add(h, m, node.rel, cs.line)
    return edges


def _sccs(adj: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan strongly-connected components, iterative, deterministic."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = [0]
    out: List[List[str]] = []

    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(sorted(adj.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    advanced = True
                    break
                elif on_stack.get(w):
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    return out


def _check_lock_order(program: Program) -> List[IPAFinding]:
    edges = _lock_edges(program)
    adj: Dict[str, List[str]] = {}
    for (a, b) in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    out: List[IPAFinding] = []
    for comp in _sccs(adj):
        in_comp = set(comp)
        comp_edges = sorted(
            (a, b, edges[(a, b)]) for (a, b) in edges
            if a in in_comp and b in in_comp)
        cyclic = len(comp) > 1 or any(a == b for a, b, _ in comp_edges)
        if not cyclic or not comp_edges:
            continue
        ev = "; ".join(
            f"{a} -> {b} at {rel}:{line}"
            for a, b, (rel, line) in comp_edges[:4])
        rel0, line0 = comp_edges[0][2]
        if len(comp) == 1:
            msg = (f"mutex '{comp[0]}' acquired while already held "
                   f"({ev}); util::Mutex is non-recursive — this path "
                   "self-deadlocks")
        else:
            msg = (f"lock-order cycle over {_fmt_locks(comp)}: {ev}; two "
                   "threads interleaving these paths deadlock — pick one "
                   "global acquisition order (or order by address)")
        out.append((rel0, line0, msg))
    return out


# --- rule 3: blocking-under-lock ---------------------------------------------


def _check_blocking(program: Program) -> List[IPAFinding]:
    out: List[IPAFinding] = []
    for node in program.nodes:
        s = node.summary
        for op in s.blocking:
            if op.what == "CondVar::wait":
                other = [h for h in op.held if h != op.waited_mutex]
                if op.waited_mutex is None and len(op.held) <= 1:
                    continue  # waiting on the (single) held lock: designed
                if not other:
                    continue
                out.append((
                    node.rel, op.line,
                    f"condition-variable wait while also holding "
                    f"{_fmt_locks(other)}; the wait only releases its own "
                    "mutex, so every contender on the other lock stalls "
                    "for the full wait"))
                continue
            if op.held:
                out.append((
                    node.rel, op.line,
                    f"blocking operation '{op.what}' while holding "
                    f"{_fmt_locks(op.held)}; I/O and job submission under "
                    "a mutex stall every contender — move the blocking "
                    "work off the critical section"))
        # Lines already modeled as direct blocking ops (a cv.wait(lock)
        # carries its waited-mutex exemption there) must not re-report
        # through the resolved-call path.
        modeled = {op.line for op in s.blocking}
        for cs in s.calls:
            if not cs.held or cs.kind == "callback" or cs.resolved is None:
                continue
            if cs.line in modeled:
                continue
            reason = cs.resolved.summary.may_block
            if reason is None:
                continue
            out.append((
                node.rel, cs.line,
                f"call to '{cs.callee}()' may block ({reason}) while "
                f"holding {_fmt_locks(cs.held)} — hoist the blocking "
                "work out of the lock scope"))
    return out


# --- rule 4: callback-outlives-capture ---------------------------------------


def _capture_hazards(caps, in_method: bool, direct: bool):
    """Hazardous capture descriptions for a lambda escaping into deferred
    execution. For direct defer-fn calls the AST layer already owns the
    raw-this cases, so only explicit by-reference locals (and default
    &-capture in free functions) are reported; for indirect escapes every
    raw-this and by-ref form is in scope."""
    entries = split_commas(caps)
    for entry in entries:
        if any(_SAFE_CAPTURE_HINT.search(t.text) for t in entry
               if t.kind == "id"):
            return []
    hazards: List[str] = []
    if not direct:
        why = _raw_this_captures(caps, in_method)
        if why is not None:
            hazards.append(why)
    for entry in entries:
        texts = [t.text for t in entry]
        if texts == ["&"] and not in_method:
            hazards.append("default &-capture takes every local by "
                           "reference")
        elif len(texts) == 2 and texts[0] == "&" and \
                entry[1].kind == "id" and not texts[1].endswith("_"):
            hazards.append(f"captures local '{texts[1]}' by reference")
    return hazards


def _check_callback_capture(program: Program) -> List[IPAFinding]:
    out: List[IPAFinding] = []
    seen = set()
    for node in program.nodes:
        if node.is_callback:
            continue
        in_method = node.fn.class_name is not None
        for cs in node.summary.calls:
            if cs.kind == "callback":
                continue
            direct = cs.callee in _DEFER_FNS
            if direct:
                positions = list(range(len(cs.args)))
                where = f"deferred-execution call '{cs.callee}()'"
            else:
                callee = cs.resolved
                if callee is None or not callee.summary.registers_params:
                    continue
                positions = sorted(callee.summary.registers_params)
                where = (f"'{cs.callee}()' which registers its callback "
                         f"into deferred execution "
                         f"({callee.rel}:{callee.fn.line})")
            for k in positions:
                if k >= len(cs.args):
                    continue
                for _i, caps, _after in _find_lambdas(cs.args[k]):
                    for why in _capture_hazards(caps, in_method, direct):
                        key = (node.rel, cs.line, k, why)
                        if key in seen:
                            continue
                        seen.add(key)
                        out.append((
                            node.rel, cs.line,
                            f"lambda passed to {where} {why}; the "
                            "registration outlives the capturing frame "
                            "(PR 1 use-after-free class) — capture a "
                            "weak live-token or copy the value"))
    return out


# --- registry ----------------------------------------------------------------


IPA_RULES: Tuple[IPARule, ...] = (
    IPARule(
        "pool-use-after-release", _src_only, _check_pool_uar,
        "ObjectPool/BytesPool handle or EventId used on a path after a "
        "release()/cancel() reachable through calls (compile-time ABA)."),
    IPARule(
        "lock-order-cycle", _src_only, _check_lock_order,
        "Cycle (or recursive acquisition) in the global acquired-while-"
        "held graph over util::Mutex — the deadlock class "
        "-Wthread-safety cannot see."),
    IPARule(
        "blocking-under-lock", _src_only, _check_blocking,
        "Condition-variable waits, SweepRunner job submission, or file "
        "I/O reachable while a mutex is held."),
    IPARule(
        "callback-outlives-capture", _src_only, _check_callback_capture,
        "Interprocedural deferred-raw-this: a capture escaping into a "
        "deferred-execution registration that outlives the captured "
        "frame or object."),
)

IPA_RULES_BY_NAME = {r.name: r for r in IPA_RULES}
