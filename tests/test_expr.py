"""Expression and .bnet parsing."""
from itertools import product
from pathlib import Path

import pytest

from mpunfold import (
    BnetParseError,
    RandomNetSpec,
    UnfoldSpec,
    build_function,
    parse_bnet,
    parse_bnet_file,
    print_bnet,
    random_network,
    unfold,
)
from mpunfold import expr as ex
from mpunfold.bdd import DiagramManager
from mpunfold.expr import (
    And,
    Const,
    Not,
    Or,
    Var,
    format_expr,
    parse_diagram,
    parse_expression,
    to_nnf,
    variables,
)
from mpunfold.models import EXAMPLE_A_BNET
from mpunfold.network import infer_regulatory_graph
from mpunfold.oracle import _eval
from mpunfold.reach import fixed_points, reaches
from mpunfold.unfold import UnfoldSpec, _Unfolding, unfold

NAMES = {"a": 0, "b": 1, "c": 2}


def test_parse_literals_and_constants():
    assert parse_expression("a", NAMES) == Var(0)
    assert parse_expression("!a", NAMES) == Not(Var(0))
    assert parse_expression("!!a", NAMES) == Not(Not(Var(0)))
    assert parse_expression("0", NAMES) == Const(0)
    assert parse_expression("1", NAMES) == Const(1)


def test_parse_precedence():
    # & binds tighter than |
    assert parse_expression("a | b & c", NAMES) == Or(Var(0), And(Var(1), Var(2)))
    assert parse_expression("a & b | c", NAMES) == Or(And(Var(0), Var(1)), Var(2))
    assert parse_expression("(a | b) & c", NAMES) == And(Or(Var(0), Var(1)), Var(2))
    # left associativity
    assert parse_expression("a & b & c", NAMES) == And(And(Var(0), Var(1)), Var(2))


def test_parse_whitespace_insensitive():
    assert parse_expression("a&!b", NAMES) == parse_expression("  a &  ! b ", NAMES)


@pytest.mark.parametrize(
    "text,col",
    [
        ("a &", 4),      # dangling operator
        ("a b", 3),      # missing operator
        ("(a", 3),       # unbalanced paren
        ("| a", 1),      # leading operator
        ("a @ b", 3),    # stray character
    ],
)
def test_parse_expression_errors_carry_position(text, col):
    with pytest.raises(BnetParseError) as err:
        parse_expression(text, NAMES, line=7)
    assert err.value.line == 7
    assert err.value.col == col


def test_parse_undeclared_identifier():
    with pytest.raises(BnetParseError, match="undeclared identifier 'z'"):
        parse_expression("a & z", NAMES, line=2)


def test_evaluate_and_variables():
    e = parse_expression("a & !c | b", NAMES)
    assert _eval(e, [1, 0, 0]) == 1
    assert _eval(e, [1, 0, 1]) == 0
    assert _eval(e, [0, 1, 1]) == 1
    assert variables(e) == {0, 1, 2}


def test_to_nnf_pushes_negation_to_leaves():
    e = parse_expression("!(a & !b | !(c | 0))", NAMES)
    n = to_nnf(e)
    assert n == And(Or(Not(Var(0)), Var(1)), Or(Var(2), Const(0)))
    for bits in [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]:
        assert _eval(n, bits) == _eval(e, bits)


def test_format_expr_round_trips():
    for text in ["a & !c | b", "!(a | b) & c", "!(a & b)", "0", "a"]:
        e = parse_expression(text, NAMES)
        again = parse_expression(format_expr(e, ["a", "b", "c"]), NAMES)
        for bits in [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]:
            assert _eval(again, bits) == _eval(e, bits)


# --- whole files -------------------------------------------------------------

def test_parse_bnet_example_a():
    net = parse_bnet(EXAMPLE_A_BNET)
    assert net.names == ("x1", "x2", "x3")
    assert net.rules[0] == And(Var(0), Not(Var(2)))
    assert net.rules[1] == Var(0)
    assert net.rules[2] == Not(Var(0))


def test_parse_bnet_forward_references_and_order():
    # declaration order is file order; rules may reference later components
    net = parse_bnet(
        """\
x1, signal
x2, x1
x3, !x1 & x2
signal, signal
"""
    )
    assert net.names == ("x1", "x2", "x3", "signal")
    assert net.rules[0] == Var(3)


def test_parse_bnet_header_and_comments():
    text = """\
# a comment line
TARGETS, Factors   # header, any case
a, b  # trailing comment
b, !a
"""
    net = parse_bnet(text)
    assert net.names == ("a", "b")
    # header only recognized on the first content line
    net2 = parse_bnet("targets, factors\ntargets, targets\n")
    assert net2.names == ("targets",)
    assert net2.rules[0] == Var(0)


def test_parse_bnet_duplicate_target():
    with pytest.raises(BnetParseError, match="duplicate target 'a'"):
        parse_bnet("a, b\nb, a\na, 1\n")


def test_parse_bnet_empty():
    with pytest.raises(BnetParseError, match="no rules"):
        parse_bnet("# nothing\n\n")


def test_parse_bnet_bad_target():
    with pytest.raises(BnetParseError, match="invalid target name"):
        parse_bnet("2x, 1\n")
    with pytest.raises(BnetParseError, match="expected 'target, expression'"):
        parse_bnet("just a line without comma\n")


def test_parse_bnet_error_reports_file_line():
    with pytest.raises(BnetParseError) as err:
        parse_bnet("a, b\nb, a &\n")
    assert err.value.line == 2


def test_print_bnet_golden_example_a():
    net = parse_bnet(EXAMPLE_A_BNET)
    assert print_bnet(net) == EXAMPLE_A_BNET


def test_print_bnet_constant_and_product_order():
    net = parse_bnet("a, 0\nb, 1\nc, b | a & b\n")
    text = print_bnet(net)
    assert "a, 0" in text
    assert "b, 1" in text
    assert text.endswith("c, b\n")  # a & b | b collapses to b
    # products sorted lexicographically
    net2 = parse_bnet("a, a\nb, b\ny, a | !a & b\n")
    assert print_bnet(net2).splitlines()[-1] == "y, !a & b | a"


def test_print_parse_round_trip_preserves_functions():
    from mpunfold import build_function, random_network
    from mpunfold.oracle import RandomNetSpec

    for seed in range(20):
        net = random_network(RandomNetSpec(n=4, seed=seed))
        again = parse_bnet(print_bnet(net))
        assert again.names == net.names
        for j in range(net.n):
            assert build_function(again, j).truth_table() == build_function(
                net, j
            ).truth_table()


def _print_bnet_by_cubes(net):
    """The .bnet text as print_bnet once wrote it: each path that
    iter_cubes lists, joined as a product, the products sorted."""
    lines = ["targets, factors"]
    for j, name in enumerate(net.names):
        node = build_function(net, j).node
        cubes = list(net.manager.iter_cubes(node))
        if not cubes:
            body = "0"
        elif cubes == [[]]:
            body = "1"
        else:
            body = " | ".join(sorted(
                " & ".join(("" if bit else "!") + net.names[var] for var, bit in cube)
                for cube in cubes
            ))
        lines.append(f"{name}, {body}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_print_bnet_matches_the_cube_renderer(n):
    nets = [parse_bnet("a, 0\nb, 1\nc, a & !b | c\n")]
    for seed in range(4):
        net = random_network(RandomNetSpec(n=n, seed=seed))
        nets.append(net)
        for mode in ("exact", "syntactic"):
            for components in (None, net.names[:1]):
                nets.append(unfold(net, UnfoldSpec(components=components, mode=mode)))
    for net in nets:
        assert print_bnet(net) == _print_bnet_by_cubes(net)


# --- diagrams built by the reader --------------------------------------------

MODELS = Path(__file__).resolve().parent.parent / "models"


def assert_diagrams_match_trees(net):
    """Every rule diagram the network holds is the node from_expr builds
    from the rule's own tree in the network's manager, where node ids are
    canonical."""
    for j, rule in enumerate(net.rules):
        assert build_function(net, j).node == net.manager.from_expr(rule), (net.names[j], rule)


@pytest.mark.parametrize("n", range(1, 9))
def test_reader_diagrams_match_from_expr_on_printed_nets(n):
    for seed in range(3):
        net = random_network(RandomNetSpec(n=n, seed=seed))
        assert_diagrams_match_trees(parse_bnet(print_bnet(net)))
        # the trees as `show` writes them: negations, nested parentheses
        shown = "".join(
            f"{name}, {format_expr(rule, net.names)}\n" for name, rule in net.components()
        )
        again = parse_bnet(shown)
        assert_diagrams_match_trees(again)
        for j in range(net.n):
            assert build_function(again, j).truth_table() == build_function(
                net, j
            ).truth_table()


@pytest.mark.parametrize("name", ["example_a", "signal"])
def test_reader_diagrams_match_from_expr_on_bundled_models(name):
    assert_diagrams_match_trees(parse_bnet_file(str(MODELS / f"{name}.bnet")))


# Rule bodies on the reader's edges: repeated variables, constants inside
# "&" chains, double negations, parentheses around literals.
EDGE_SHAPES = [
    "a & a",
    "a & !a",
    "!a & a",
    "a & b & a",
    "a & 1",
    "1 & a & b",
    "a & 0 & b",
    "0",
    "1",
    "!!a",
    "!!a & b",
    "!(a | b)",
    "!(a & !b) & c",
    "((a))",
    "(((a | (b & !c))))",
    "(a) & !(b) & c",
    "c & a & !b",
    "!c & !b & !a",
    "(a & b) & (b & c)",
    "a | !a",
    "a & !b | !a & b | c & !c",
]


@pytest.mark.parametrize("body", EDGE_SHAPES)
def test_parse_rule_diagram_is_from_expr_of_its_tree(body):
    m = DiagramManager(3)
    node = parse_diagram(body, NAMES, m)
    assert node == m.from_expr(parse_expression(body, NAMES))


def test_reader_networks_rebuild_no_diagram():
    net = parse_bnet("a, a & !b | c\nb, !(a | c)\nc, 1\n")
    before = len(net.manager._triples)
    assert before > 0
    print_bnet(net)
    net.evaluator
    assert len(net.manager._triples) == before


# Messages, lines and columns as the reader reports them.  The column counts
# within the whole line, as editors do, and a bad character anywhere in the
# body is reported before any other error.
MALFORMED = [
    ("a, b @ c", "unexpected character '@'", 1, 6),
    ("a, a @", "unexpected character '@'", 1, 6),
    ("a, 2a", "unexpected character '2'", 1, 4),
    ("a, é", "unexpected character 'é'", 1, 4),
    ("a, a, b", "unexpected character ','", 1, 5),
    ("a, z", "undeclared identifier 'z'", 1, 4),
    ("a, a & !(b | c)", "undeclared identifier 'b'", 1, 10),
    ("a, (a | a", "expected ')', found end of line", 1, 10),
    ("a, ((a)", "expected ')', found end of line", 1, 8),
    ("a, !(a | a", "expected ')', found end of line", 1, 11),
    ("a, (a & a b", "expected ')', found 'b'", 1, 11),
    ("a, a b", "trailing input 'b'", 1, 6),
    ("a, a )", "trailing input ')'", 1, 6),
    ("a, 0x1", "trailing input 'x1'", 1, 5),
    ("a, (((a)))) ", "trailing input ')'", 1, 11),
    ("a, 1 1", "trailing input '1'", 1, 6),
    ("a, ", "expected a literal, found end of line", 1, 4),
    ("a,", "expected a literal, found end of line", 1, 3),
    ("a, # only a comment", "expected a literal, found end of line", 1, 4),
    ("a, a &", "expected a literal, found end of line", 1, 7),
    ("a, a & a & ", "expected a literal, found end of line", 1, 12),
    ("a, a |", "expected a literal, found end of line", 1, 7),
    ("a, a\t|\t", "expected a literal, found end of line", 1, 8),
    ("a, !", "expected a literal, found end of line", 1, 5),
    ("a, !!", "expected a literal, found end of line", 1, 6),
    ("a, a & !", "expected a literal, found end of line", 1, 9),
    ("a, & a", "expected a literal, found '&'", 1, 4),
    ("a, | a", "expected a literal, found '|'", 1, 4),
    ("a, ()", "expected a literal, found ')'", 1, 5),
    ("a, a & | b", "expected a literal, found '|'", 1, 8),
    ("a, a&&a", "expected a literal, found '&'", 1, 6),
    ("a, a||a", "expected a literal, found '|'", 1, 6),
    ("a, a\nb, a & #c", "expected a literal, found end of line", 2, 8),
    ("b, a\na, (b | !)", "expected a literal, found ')'", 2, 10),
]


@pytest.mark.parametrize("text,message,line,col", MALFORMED)
def test_malformed_bodies_report_message_line_and_column(text, message, line, col):
    with pytest.raises(BnetParseError) as err:
        parse_bnet(text + "\n")
    assert str(err.value) == f"line {line}, column {col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("text,message,line,col", MALFORMED)
def test_diagram_reader_errors_match_tree_reader(text, message, line, col):
    lines = text.split("\n")
    names = {ln.split(",", 1)[0].strip(): j for j, ln in enumerate(lines)}
    target, body = lines[line - 1].split("#", 1)[0].split(",", 1)
    where = (line, len(target) + 2)
    with pytest.raises(BnetParseError) as tree_err:
        parse_expression(body, names, *where)
    with pytest.raises(BnetParseError) as node_err:
        parse_diagram(body, names, DiagramManager(len(names)), *where)
    for err in (tree_err.value, node_err.value):
        assert str(err) == f"line {line}, column {col}: {message}"
        assert (err.line, err.col) == (line, col)


# --- the path reader: print_bnet's sums of diagram paths ----------------------------


def _check_reader_parity(body):
    """parse_diagram raises parse_expression's error, or builds from_expr's
    function; where the path reader declines, it made no node, and a valid
    body is read into from_expr's nodes, in from_expr's order.
    Returns whether the path reader took the body."""
    m = DiagramManager(3)
    try:
        tree = parse_expression(body, NAMES, 2, 5)
    except BnetParseError as err:
        tree = None
        with pytest.raises(BnetParseError) as got:
            parse_diagram(body, NAMES, m, 2, 5)
        assert (str(got.value), got.value.line, got.value.col) == (str(err), err.line, err.col)
    else:
        assert parse_diagram(body, NAMES, m, 2, 5) == m.from_expr(tree)
    probe = DiagramManager(3)
    if ex._read_paths(body, NAMES, probe) is not None:
        return True
    assert probe._triples == []
    if tree is not None:
        _check_one_builder(body)
    return False


def _check_one_builder(body):
    """Reading a body the path reader declines and from_expr of its tree,
    each in a fresh manager, make the same nodes in the same order: both
    run the manager's one diagram builder."""
    read, folded = DiagramManager(3), DiagramManager(3)
    parse_diagram(body, NAMES, read)
    folded.from_expr(parse_expression(body, NAMES))
    assert read._triples == folded._triples


@pytest.mark.parametrize("body", EDGE_SHAPES)
def test_reading_and_from_expr_make_the_same_nodes(body):
    assert _check_reader_parity(body) == (body in ("c & a & !b", "!c & !b & !a", "a | !a"))


# Path-shaped, or nearly: the reader's edges, all of which the grammar reads
PATH_SHAPES = [
    "a",
    "!a",
    " ! a ",
    "\x1f!\x1fa\x1f",
    "\ta&!b|!a&c",
    "a & b | a & !b",
    "!a | a & !b | a & b & c",
    "a & b & c | a & b & !c",
    "b & a | !a & c",
    "a & b | !a & !c",
    "a | a",
    "a & !b | a & !b",
    "a | a & b",
    "a & b | !c",
    "a & !b | b & c",
    "a & !a",
    "a & a",
    "!!a",
    "! !a",
    "a & 1",
    "a | 0",
    "a b",
    "a | | b",
    "a &",
    "!",
    "",
    "a | b)",
    "z",
]


def test_path_reader_takes_the_sums_of_paths_and_only_those():
    taken = [body for body in PATH_SHAPES if _check_reader_parity(body)]
    assert taken == PATH_SHAPES[:10]


def test_path_reader_agrees_with_the_grammar_on_drawn_bodies():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    blank = st.sampled_from(["", "", " ", "\t", "\x1f", "  "])

    @st.composite
    def sums(draw):
        """A sum of products of literals over a, b, c: the paths to 1 of a
        drawn decision tree, or products drawn freely, in any order."""
        if draw(st.booleans()):
            paths, todo = [], [((), 0)]
            while todo:  # each node tests a variable after its parent's, or is a leaf
                path, first = todo.pop()
                var = draw(st.integers(first, 3))
                if var < 3:
                    todo += [(path + ((var, bit),), var + 1) for bit in (0, 1)]
                elif draw(st.booleans()):
                    paths.append(path)
        else:
            literal = st.tuples(st.integers(0, 2), st.integers(0, 1))
            paths = draw(st.lists(st.lists(literal, min_size=1, max_size=3), min_size=1, max_size=5))
        products = []
        for path in draw(st.permutations(paths)):
            products.append("&".join(
                draw(blank) + ("" if bit else "!" + draw(blank)) + "abc"[var] + draw(blank)
                for var, bit in draw(st.permutations(path))
            ))
        return "|".join(products)

    bodies = st.one_of(st.text(alphabet="abc!&|01() \t\x1f", max_size=30), sums())

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(bodies)
    def check(body):
        _check_reader_parity(body)

    check()


def test_unfolded_files_read_back_with_only_the_reachable_nodes():
    for name in ("example_a", "signal"):
        net = parse_bnet_file(str(MODELS / f"{name}.bnet"))
        for mode in ("exact", "syntactic"):
            for components in (None, net.names[:1]):
                text = print_bnet(unfold(net, UnfoldSpec(components=components, mode=mode)))
                back = parse_bnet(text)
                m = back.manager
                reached = set()
                for j in range(back.n):
                    reached.update(m.postorder(build_function(back, j).node, reached))
                assert len(m._triples) == len(reached)
                assert print_bnet(back) == text


# --- rule trees only on demand -------------------------------------------------


def _bodies(text):
    """The rule bodies of .bnet text with one rule per line and no comments."""
    return [ln.split(",", 1)[1] for ln in text.splitlines()[1:] if ln.strip()]


def _reader_inputs():
    for name in ("example_a", "signal"):
        yield (MODELS / f"{name}.bnet").read_text()
    for n in range(1, 9):
        for seed in range(3):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            yield print_bnet(net)
            yield "targets, factors\n" + "".join(
                f"{name}, {format_expr(rule, net.names)}\n"
                for name, rule in net.components()
            )
    yield "targets, factors\n" + "".join(
        f"{name}, {body}\n" for name, body in zip("abc", EDGE_SHAPES)
    ) + "".join(f"x{i}, {body}\n" for i, body in enumerate(EDGE_SHAPES[3:]))


def test_lazy_rules_are_the_trees_of_their_bodies():
    for text in _reader_inputs():
        net = parse_bnet(text)
        names = {name: j for j, name in enumerate(net.names)}
        assert net.rules == tuple(parse_expression(b, names) for b in _bodies(text))


def test_read_networks_explore_and_unfold_exactly_without_trees(monkeypatch):
    def no_tree(*args):
        raise AssertionError("an expression tree was built")

    texts = list(_reader_inputs())
    for cls in ("Var", "Not", "And", "Or"):
        monkeypatch.setattr(ex, cls, no_tree)
    nets = []
    for text in texts:
        net = parse_bnet(text)
        fixed_points(net)
        infer_regulatory_graph(net)
        for semantics in ("async", "mp"):
            reaches(net, semantics, "0" * net.n, "1" * net.n)
        ctx = _Unfolding(net, UnfoldSpec(mode="exact"))
        for out_index in range(len(ctx.out_names)):
            ctx.rule_node(out_index)
        nets.append(net)
    monkeypatch.undo()
    # unfold writes its output's trees, but reads no tree of its input
    for net in nets:
        unfold(net)
        assert net._rules is None


# --- walkers on deep trees ---------------------------------------------------


def _chain(terms=5000):
    """A flat sum of `terms` products `a & !b` over a, b, c, as the reader
    makes it: a left chain `terms` deep.  Returns (tree, body, the terms'
    (positive, negative) variable pairs)."""
    pairs = [(i % 3, (i + 1 + i // 3 % 2) % 3) for i in range(terms)]
    tree = And(Var(pairs[0][0]), Not(Var(pairs[0][1])))
    for p, q in pairs[1:]:
        tree = Or(tree, And(Var(p), Not(Var(q))))
    body = " | ".join(f"{'abc'[p]} & !{'abc'[q]}" for p, q in pairs)
    return tree, body, pairs


def test_format_expr_on_a_5000_deep_chain():
    tree, body, _ = _chain()
    assert format_expr(tree, "abc") == body


def test_evaluate_on_a_5000_deep_chain():
    tree, _, pairs = _chain()
    for bits in product((0, 1), repeat=3):
        assert _eval(tree, bits) == int(any(bits[p] and not bits[q] for p, q in pairs))


def test_from_expr_on_a_5000_deep_chain():
    tree, body, _ = _chain()
    m = DiagramManager(3)
    assert m.from_expr(tree) == parse_diagram(body, NAMES, m)


def test_from_expr_of_a_3000_literal_product():
    # x0 & !x1 & x2 & ..., nested to the left: one cube, one node per
    # literal, with no apply of the product so far onto the next literal
    n = 3000
    names = {f"x{k}": k for k in range(n)}
    body = " & ".join(f"x{k}" if k % 2 == 0 else f"!x{k}" for k in range(n))
    m = DiagramManager(n)
    u = m.from_expr(parse_expression(body, names))
    assert len(m._triples) == n
    fresh = DiagramManager(n)
    assert parse_diagram(body, names, fresh) == u
    assert fresh._triples == m._triples
    assert parse_diagram(body, names, m) == u
    assert len(m._triples) == n


def test_to_nnf_on_a_5000_deep_chain():
    tree, body, pairs = _chain()
    assert format_expr(to_nnf(tree), "abc") == body
    assert format_expr(to_nnf(tree, negate=True), "abc") == " & ".join(
        f"(!{'abc'[p]} | {'abc'[q]})" for p, q in pairs
    )


def test_fold_visits_left_operands_first():
    tree = parse_expression("!(a & b) | c & !a", NAMES)
    seen = []
    value = ex.fold(
        tree,
        lambda k: seen.append(k) or f"x{k}",
        str,
        lambda v: f"!{v}",
        lambda v, w: f"({v}&{w})",
        lambda v, w: f"({v}|{w})",
    )
    assert seen == [0, 1, 2, 0]
    assert value == "(!(x0&x1)|(x2&!x0))"


@pytest.mark.parametrize(
    "walk",
    [
        to_nnf,
        lambda e: format_expr(e, "abc"),
        lambda e: DiagramManager(3).from_expr(e),
    ],
    ids=["to_nnf", "format_expr", "from_expr"],
)
def test_walkers_reject_what_is_not_a_tree(walk):
    with pytest.raises(TypeError, match=r"not a BooleanExpr: 'x'"):
        walk(Or(Var(0), And(Var(1), "x")))
