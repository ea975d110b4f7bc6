"""Seeded synthetic packages for the benchmark.

A package is made in two steps so that timing the builders measures only
the builders:

* `make_plan(seed, ...)` draws every random choice up front and returns a
  plain-data plan (nested tuples, no IR).
* `build(plan)` turns the plan into an IR package through `oogen.builders`
  and `oogen.patterns`, and nothing else.

`expected_stdout(plan)` runs the plan with a small evaluator of its own, so
the reference output never comes from a renderer or from the IR.

The shape is fixed by the size arguments (functions x statement groups x
if-nesting depth); the seed picks operators within groups that build,
encode and render through the same code (`#+`/`#-`, the four orderings,
`==`/`!=`, `&&`/`||`), single-digit literals, strings of a fixed length and
the chosen strategy. Different seeds therefore give programs of the same
size and almost the same cost, with different output.

Left out on purpose, because each fails today (see CHANGES.md): `#/` on two
ints, expression chains deep enough to hit the recursion limit, comment
text with newlines and throw messages with quotes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oogen import builders as bd
from oogen import ir
from oogen import patterns as pt

ADD = ("#+", "#-")
CMP = ("?<", "?<=", "?>", "?>=")
EQ = ("?==", "?!=")
LOGIC = ("?&&", "?||")

# r is brought back inside [-CLAMP, CLAMP] after every statement group; one
# group moves it by at most (9 + 9) * 9, so every value fits a 32-bit int.
CLAMP = 300


@dataclass(frozen=True)
class Plan:
    seed: int
    name: str
    functions: tuple  # (name, (a, b), blocks)
    step_k: int
    counter: tuple  # (start, bump)
    word: str
    strategy: tuple  # (chosen, start, k)
    labels: tuple
    label_index: int


# ---------------------------------------------------------------------------
# Plan: expressions are ("lit", v) | ("var", name) | ("bin", op, l, r) |
# ("un", op, x) | ("ifx", c, t, e) | ("size", lst) | ("at", lst, i);
# statements are ("decl"|"set"|"addeq", name, e) | ("list", name, items) |
# ("if", c, then, else) | ("while", c, body) | ("range", var, lo, hi, body) |
# ("each", var, lst, body) | ("comment", text) | ("return", e).


def _lit(v):
    return ("lit", v)


def _var(name):
    return ("var", name)


def _bin(op, left, right):
    return ("bin", op, left, right)


def _digit(rng):
    return rng.randint(1, 9)


def _word(rng, n=6):
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))


def _cond(rng, level):
    r, a, b = _var("r"), _var("a"), _var("b")
    kind = level % 3
    if kind == 0:  # logic over comparison and equality, one negated
        return _bin(rng.choice(LOGIC),
                    ("un", "?!", _bin(rng.choice(CMP), r, _lit(_digit(rng)))),
                    _bin(rng.choice(EQ), a, b))
    if kind == 1:  # unary minus, additive, multiplicative under a comparison
        return _bin(rng.choice(CMP),
                    _bin(rng.choice(ADD), ("un", "#~", r), _lit(_digit(rng))),
                    _bin("#*", b, _lit(_digit(rng))))
    # abs and a float power under a comparison
    return _bin(rng.choice(CMP),
                ("un", "#|", _bin(rng.choice(ADD), r, a)),
                _bin("#^", _lit(_digit(rng)), _lit(2)))


def _update(rng, kind):
    r, a, b = _var("r"), _var("a"), _var("b")
    if kind == 0:
        value = _bin("#*", _bin(rng.choice(ADD), a, _lit(_digit(rng))), _lit(_digit(rng)))
    elif kind == 1:
        value = ("at", "lst", _lit(1))
    else:
        value = ("ifx", _bin(rng.choice(CMP), r, _lit(_digit(rng))), b, ("size", "lst"))
    return ("set", "r", _bin(rng.choice(ADD), r, value))


def _nested_if(rng, depth, level=0):
    cond = _cond(rng, level)
    if level + 1 == depth:
        then = (_update(rng, 0),)
    else:
        then = (_nested_if(rng, depth, level + 1),)
    return ("if", cond, then, (_update(rng, 1 + level % 2),))


def _function(rng, index, groups, depth):
    a, b, r = _var("a"), _var("b"), _var("r")
    blocks = [(
        ("decl", "r", _bin("#-", _bin("#*", _bin(rng.choice(ADD), a, _lit(_digit(rng))),
                                      _lit(_digit(rng))), b)),
        ("list", "lst", (a, b, _lit(_digit(rng)))),
    )]
    for g in range(groups):
        blocks.append((
            ("comment", f"group {g}"),
            _nested_if(rng, depth),
            ("while", _bin("?>", r, _lit(CLAMP)), (("set", "r", _bin("#-", r, _lit(97))),)),
            ("while", _bin("?<", r, _lit(-CLAMP)), (("set", "r", _bin("#+", r, _lit(89))),)),
        ))
    blocks.append((
        ("range", "i", _lit(0), _lit(_digit(rng)), (("addeq", "r", _var("i")),)),
        ("each", "x", "lst", (("addeq", "r", _var("x")),)),
        ("return", r),
    ))
    return (f"kernel{index:03d}", (_digit(rng) - 1, _digit(rng) - 1), tuple(blocks))


def make_plan(seed: int, functions: int = 24, groups: int = 6, depth: int = 3) -> Plan:
    rng = random.Random(seed)
    funcs = tuple(_function(rng, i, groups, depth) for i in range(functions))
    labels = tuple(_word(rng) for _ in range(4))
    return Plan(
        seed=seed, name="Synth", functions=funcs, step_k=_digit(rng),
        counter=(_digit(rng), _digit(rng)), word=_word(rng),
        strategy=(rng.choice(("grow", "shrink")), _digit(rng), _digit(rng)),
        labels=labels, label_index=rng.randrange(len(labels)),
    )


# ---------------------------------------------------------------------------
# Reference: run the plan directly.


def _ev(e, env):
    tag = e[0]
    if tag == "lit":
        return e[1]
    if tag == "var":
        return env[e[1]]
    if tag == "bin":
        x, y = _ev(e[2], env), _ev(e[3], env)
        return {
            "#+": lambda: x + y, "#-": lambda: x - y, "#*": lambda: x * y,
            "#^": lambda: float(x) ** float(y),
            "?<": lambda: x < y, "?<=": lambda: x <= y,
            "?>": lambda: x > y, "?>=": lambda: x >= y,
            "?==": lambda: x == y, "?!=": lambda: x != y,
            "?&&": lambda: x and y, "?||": lambda: x or y,
        }[e[1]]()
    if tag == "un":
        x = _ev(e[2], env)
        return {"?!": lambda: not x, "#~": lambda: -x, "#|": lambda: abs(x)}[e[1]]()
    if tag == "ifx":
        return _ev(e[2], env) if _ev(e[1], env) else _ev(e[3], env)
    if tag == "size":
        return len(env[e[1]])
    if tag == "at":
        return env[e[1]][_ev(e[2], env)]
    raise ValueError(tag)


class _Returned(Exception):
    def __init__(self, value):
        self.value = value


def _run(stmts, env):
    for s in stmts:
        tag = s[0]
        if tag in ("decl", "set"):
            env[s[1]] = _ev(s[2], env)
        elif tag == "addeq":
            env[s[1]] += _ev(s[2], env)
        elif tag == "list":
            env[s[1]] = [_ev(x, env) for x in s[2]]
        elif tag == "if":
            _run(s[2] if _ev(s[1], env) else s[3], env)
        elif tag == "while":
            while _ev(s[1], env):
                _run(s[2], env)
        elif tag == "range":
            for v in range(_ev(s[2], env), _ev(s[3], env) + 1):
                env[s[1]] = v
                _run(s[4], env)
        elif tag == "each":
            for v in list(env[s[2]]):
                env[s[1]] = v
                _run(s[3], env)
        elif tag == "return":
            raise _Returned(_ev(s[1], env))
        elif tag != "comment":
            raise ValueError(tag)


def _call(func):
    _, (a, b), blocks = func
    try:
        _run([s for blk in blocks for s in blk], {"a": a, "b": b})
    except _Returned as ret:
        return ret.value
    raise ValueError(f"{func[0]} returned nothing")


def expected_stdout(plan: Plan) -> str:
    lines = [str(_call(f)) for f in plan.functions]
    r0 = _call(plan.functions[0]) + plan.step_k
    lines += [str(r0), "big" if r0 > 100 else "small"]
    start, bump = plan.counter
    lines.append(str(start + 2 * bump))
    lines += [plan.word, plan.word]
    chosen, s0, k = plan.strategy
    lines.append(str(s0 + k if chosen == "grow" else s0 - k))
    lines.append(plan.labels[plan.label_index])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Build: plan -> IR through the builders.


def _expr(e, scope):
    tag = e[0]
    if tag == "lit":
        return bd.lit_int(e[1])
    if tag == "var":
        return bd.value_of(scope[e[1]])
    if tag == "bin":
        return bd.apply_binary(e[1], _expr(e[2], scope), _expr(e[3], scope))
    if tag == "un":
        return bd.apply_unary(e[1], _expr(e[2], scope))
    if tag == "ifx":
        return bd.inline_if(_expr(e[1], scope), _expr(e[2], scope), _expr(e[3], scope))
    if tag == "size":
        return pt.list_size(bd.value_of(scope[e[1]]))
    if tag == "at":
        return pt.list_access(bd.value_of(scope[e[1]]), _expr(e[2], scope))
    raise ValueError(tag)


def _stmts(stmts, scope):
    out = []
    for s in stmts:
        tag = s[0]
        if tag == "decl":
            scope[s[1]] = bd.var(s[1], ir.INT)
            out.append(bd.var_dec_def(scope[s[1]], _expr(s[2], scope)))
        elif tag == "set":
            out.append(bd.assign(scope[s[1]], _expr(s[2], scope)))
        elif tag == "addeq":
            out.append(bd.add_eq(scope[s[1]], _expr(s[2], scope)))
        elif tag == "list":
            lst = scope[s[1]] = bd.var(s[1], ir.list_of(ir.INT))
            out.append(bd.var_dec(lst))
            out += [bd.call_stmt(pt.list_append(bd.value_of(lst), _expr(x, scope)))
                    for x in s[2]]
        elif tag == "if":
            out.append(bd.if_cond([(_expr(s[1], scope), _body(s[2], scope))],
                                  _body(s[3], scope)))
        elif tag == "while":
            out.append(bd.while_loop(_expr(s[1], scope), _body(s[2], scope)))
        elif tag == "range":
            scope[s[1]] = bd.var(s[1], ir.INT)
            out.append(bd.for_range(scope[s[1]], _expr(s[2], scope), _expr(s[3], scope),
                                    bd.lit_int(1), _body(s[4], scope)))
        elif tag == "each":
            scope[s[1]] = bd.var(s[1], ir.INT)
            out.append(bd.for_each(scope[s[1]], bd.value_of(scope[s[2]]),
                                   _body(s[3], scope)))
        elif tag == "comment":
            out.append(bd.comment(s[1]))
        elif tag == "return":
            out.append(bd.return_stmt(_expr(s[1], scope)))
        else:
            raise ValueError(tag)
    return out


def _body(stmts, scope):
    return bd.body_statements(_stmts(stmts, scope))


def _kernel(func):
    name, _, blocks = func
    a, b = bd.var("a", ir.INT), bd.var("b", ir.INT)
    scope = {"a": a, "b": b}
    body = bd.body([bd.block(_stmts(blk, scope)) for blk in blocks])
    method = bd.function(name, ir.Scope.PUBLIC, ir.Binding.STATIC, ir.INT,
                         [bd.param(a), bd.param(b)], body)
    return bd.doc_func(f"Synthetic kernel {name}", [("a", "first input"), ("b", "second input")],
                       "the folded value", method)


def _step():
    r, k, big = bd.var("r", ir.INT), bd.var("k", ir.INT), bd.var("big", ir.BOOL)
    body = bd.body_statements([
        bd.assign(r, bd.apply_binary("#+", bd.value_of(r), bd.value_of(k))),
        bd.assign(big, bd.apply_binary("?>", bd.value_of(r), bd.lit_int(100))),
    ])
    step = pt.in_out_func("step", ir.Scope.PUBLIC, ir.Binding.STATIC,
                          ins=[k], outs=[big], inouts=[r], body_=body)
    return bd.doc_func("Adds k to r and reports whether r passed 100",
                       [("r", "value to move"), ("k", "amount"), ("big", "r > 100 after")],
                       None, step)


def _counter_class():
    count = bd.var("count", ir.INT)
    k = bd.var("k", ir.INT)
    member = bd.self_var("count", ir.INT)
    bump = bd.method("bump", "Counter", ir.Scope.PUBLIC, ir.Binding.DYNAMIC, ir.VOID,
                     [bd.param(k)], bd.one_liner(bd.assign(
                         member, bd.apply_binary("#+", bd.value_of(member), bd.value_of(k)))))
    cls = bd.build_class("Counter", None, ir.Scope.PUBLIC, [bd.priv_m_var(count)],
                         [pt.get_method("Counter", count), pt.set_method("Counter", count), bump])
    return bd.doc_class("A counter with a getter, a setter and a bump method", cls), count


def _listener_class(word):
    hear = bd.method("hear", "Listener", ir.Scope.PUBLIC, ir.Binding.DYNAMIC, ir.VOID, [],
                     bd.one_liner(pt.print_str_ln(word)))
    cls = bd.build_class("Listener", None, ir.Scope.PUBLIC, [], [hear])
    return bd.doc_class("An observer that prints one word", cls)


def build(plan: Plan) -> ir.PackageTree:
    kernels = [_kernel(f) for f in plan.functions]
    step = _step()
    counter_cls, count = _counter_class()
    listener_cls = _listener_class(plan.word)

    calls = [pt.print_ln(bd.func_app(name, ir.INT, [bd.lit_int(a), bd.lit_int(b)]))
             for name, (a, b), _ in plan.functions]
    name0, (a0, b0), _ = plan.functions[0]
    r0, big = bd.var("r0", ir.INT), bd.var("big", ir.BOOL)
    in_out = [
        bd.var_dec_def(r0, bd.func_app(name0, ir.INT, [bd.lit_int(a0), bd.lit_int(b0)])),
        bd.var_dec(big),
        pt.in_out_call(step, ins=[bd.lit_int(plan.step_k)], outs=[big], inouts=[r0]),
        pt.print_ln(bd.value_of(r0)),
        bd.if_cond([(bd.value_of(big), bd.one_liner(pt.print_str_ln("big")))],
                   bd.one_liner(pt.print_str_ln("small"))),
    ]
    start, bump = plan.counter
    c = bd.var("c", ir.obj_of("Counter"))
    counter = [
        bd.var_dec_def(c, bd.new_obj("Counter", [])),
        pt.set_(bd.value_of(c), count, bd.lit_int(start)),
        bd.call_stmt(bd.method_call(bd.value_of(c), "bump", ir.VOID, [bd.lit_int(bump)])),
        bd.call_stmt(bd.method_call(bd.value_of(c), "bump", ir.VOID, [bd.lit_int(bump)])),
        pt.print_ln(pt.get(bd.value_of(c), count)),
    ]
    listener_t = ir.obj_of("Listener")
    l1, l2 = bd.var("l1", listener_t), bd.var("l2", listener_t)
    observer = [
        bd.var_dec_def(l1, bd.new_obj("Listener", [])),
        bd.var_dec_def(l2, bd.new_obj("Listener", [])),
        pt.init_observer_list(listener_t, [bd.value_of(l1)]),
        pt.add_observer(bd.value_of(l2)),
        pt.notify_observers("hear", listener_t),
    ]
    chosen, s0, k = plan.strategy
    s = bd.var("s", ir.INT)
    strategies = {
        name: bd.one_liner(bd.assign(s, bd.apply_binary(op, bd.value_of(s), bd.lit_int(k))))
        for name, op in (("grow", "#+"), ("shrink", "#-"))
    }
    # run_strategy gives a block of its own: a block nested as a statement
    # renders, but jsonio cannot encode it.
    strategy = [
        bd.block([bd.var_dec_def(s, bd.lit_int(s0))]),
        pt.run_strategy(chosen, strategies),
        bd.block([pt.print_ln(bd.value_of(s))]),
    ]
    state = [
        pt.init_state("phase", plan.labels[0]),
        pt.change_state("phase", plan.labels[plan.label_index]),
        pt.check_state("phase", [(bd.lit_string(label), bd.one_liner(pt.print_str_ln(label)))
                                 for label in plan.labels],
                       bd.one_liner(pt.print_str_ln("none"))),
    ]
    main = bd.main_function(bd.body(
        [bd.block(part) for part in (calls, in_out, counter, observer)]
        + strategy + [bd.block(state)]))
    module = bd.build_module(plan.name, [], kernels + [step, main],
                             [counter_cls, listener_cls])
    module = bd.doc_mod(f"Synthetic package, seed {plan.seed}", module)
    program = bd.prog(plan.name, [module])
    return bd.package(program, [ir.AuxFileSpec("makefile", with_doc_rule=True),
                                ir.AuxFileSpec("doxygen")])
