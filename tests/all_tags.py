"""A package, built through the builders and patterns, that uses every
expression and statement tag of the JSON schema (39) and every optional
field in both its default and non-default form. It pins the schema and
each target's spelling of every construct, and is not meant to run: only
its Python is compiled."""

from oogen import builders as bd, ir, patterns as pt

PUB, PRIV = ir.Scope.PUBLIC, ir.Scope.PRIVATE
DYN, STAT = ir.Binding.DYNAMIC, ir.Binding.STATIC


def _lit(n):
    return bd.lit_int(n)


def _at(v):
    return bd.value_of(v)


def _observer_class() -> ir.ClassDeclRepr:
    hits = bd.var("hits", ir.INT)
    update = bd.method("update", "Obs", PUB, DYN, ir.VOID, [],
                       bd.one_liner(bd.inc(bd.self_var("hits", ir.INT))))
    update = bd.doc_func("counts", [], None, update)
    cls = bd.build_class("Obs", "Base", PUB,
                         [bd.pub_m_var(hits), bd.state_var(PRIV, STAT, bd.var("cap", ir.INT))],
                         [update, pt.get_method("Obs", hits)])
    return bd.doc_class("an observer", cls)


def _swap() -> ir.MethodRepr:
    a, b, c = bd.var("a", ir.INT), bd.var("b", ir.INT), bd.var("c", ir.INT)
    func = pt.in_out_func("swap", PUB, STAT, [a], [b], [c],
                          bd.body_statements([bd.assign(b, _at(c)), bd.assign(c, _at(a))]))
    return bd.doc_func("swaps", [("a", "in"), ("c", "both")], "nothing", func)


def _twice() -> ir.MethodRepr:
    x = bd.var("x", ir.FLOAT)
    return bd.function("twice", PRIV, STAT, ir.FLOAT, [bd.param(x)], bd.one_liner(
        bd.return_stmt(bd.apply_binary("#*", _at(x), bd.lit_float(2.0)))))


def _main(swap: ir.MethodRepr) -> ir.MethodRepr:
    n, s, ok = bd.var("n", ir.INT), bd.var("s", ir.STRING), bd.var("ok", ir.BOOL)
    xs, ys = bd.var("xs", ir.list_of(ir.INT)), bd.var("ys", ir.list_of(ir.INT))
    o, i = bd.var("o", ir.obj_of("Obs")), bd.var("i", ir.INT)
    positive = bd.apply_binary("?>", _at(n), _lit(0))
    # Call arguments are not type-checked, so one call carries most expressions.
    uses = bd.func_app("use", ir.VOID, [
        bd.apply_unary("?!", bd.lit_bool(False)),
        bd.inline_if(positive, bd.lit_string("p"), pt.arg_at(_lit(0))),
        bd.lit_char("c"),
        pt.args_list(),
        bd.method_call(bd.new_obj("Obs", []), "update", ir.VOID, []),
        bd.func_app("twice", ir.FLOAT, [pt.math_fn("sqrt", bd.lit_float(1.5))]),
        bd.ext_func_app("lib", "size", ir.INT, [pt.list_size(_at(xs))]),
        pt.list_append(_at(xs), pt.list_access(_at(xs), _lit(0))),
        pt.arg_exists(_lit(1)),
        pt.list_index_exists(_at(xs), _lit(2)),
        pt.index_of(_at(bd.ext_var("lib", "xs", ir.list_of(ir.INT))),
                    _at(bd.obj_var("o", "hits", ir.INT))),
    ])
    return bd.main_function(bd.body([
        bd.block([
            bd.var_dec_def(o, bd.new_obj("Obs", [])),
            bd.call_stmt(uses),
            bd.add_eq(n, _at(bd.class_var("Obs", "cap", ir.INT))),
        ]),
        bd.block([
            bd.var_dec(ys),
            pt.list_set(_at(xs), _lit(0), _lit(1)),
            pt.list_slice(ys, _at(xs), _lit(1), _lit(3), _lit(1)),
            pt.list_slice(ys, _at(xs)),
            bd.if_cond([(positive, bd.one_liner(bd.comment("pos"))),
                        (_at(ok), bd.one_liner(bd.throw("bad")))],
                       bd.body([])),
            bd.if_cond([(_at(ok), bd.body([]))]),
            bd.switch(_at(s), [(bd.lit_string("a"), bd.one_liner(pt.print_str("a")))],
                      bd.one_liner(pt.print_ln(_at(n)))),
            bd.switch(_at(n), [(_lit(1), bd.body([]))]),
            bd.for_loop(bd.var_dec_def(i, _lit(0)), bd.apply_binary("?<", _at(i), _lit(3)),
                        bd.inc(i), bd.one_liner(bd.continue_stmt())),
            bd.for_range(i, _lit(0), _lit(9), _lit(2), bd.one_liner(bd.dec(n))),
            bd.for_each(i, _at(xs), bd.one_liner(bd.sub_eq(n, _at(i)))),
            bd.while_loop(_at(ok), bd.one_liner(bd.break_stmt())),
            bd.try_catch(bd.one_liner(pt.read_line(s)), bd.one_liner(pt.read_int(n))),
            pt.in_out_call(swap, [_lit(1)], [n], [i]),
            pt.init_observer_list(ir.obj_of("Obs"), [_at(o)]),
            pt.add_observer(_at(o)),
            pt.notify_observers("update", ir.obj_of("Obs")),
            pt.run_strategy("fast", {"fast": bd.one_liner(bd.inc(n)),
                                     "slow": bd.one_liner(bd.dec(n))}),
        ]),
    ]))


def package() -> ir.PackageTree:
    swap = _swap()
    main = bd.doc_mod("entry", bd.build_module(
        "Main", ["Lib"], [_twice(), swap, _main(swap)], [_observer_class()]))
    lib = bd.build_module("Lib", [], [], [])
    return bd.package(bd.prog("AllTags", [main, lib]),
                      [ir.AuxFileSpec("makefile", with_doc_rule=True),
                       ir.AuxFileSpec("doxygen")])


def tags(doc: object) -> set[str]:
    """Every `op` and `stmt` tag in a decoded JSON document."""
    found: set[str] = set()
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            found.update(node[key] for key in ("op", "stmt") if isinstance(node.get(key), str))
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return found
