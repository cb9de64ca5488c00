"""A tree evaluator of the tests' own: the reference that diagrams, walks
and the unfolded rules are compared against.  It reads expression trees
directly and shares no code with the package's evaluators."""
from mpunfold import expr as ex


# on _eval's stack: complement the last value; AND, OR it into the one before
_NEGATE, _AND, _OR = object(), object(), object()


def _eval(e, bits, full: int = 1) -> int:
    """Rule e's value on readings packed one per bit: bits[k] is the mask of
    the readings where variable k is 1, full the mask of them all (with
    full = 1 and bits of 0/1, e's value on one reading)."""
    # a loop with an explicit stack, so a rule's depth is not bounded by
    # Python's stack
    todo = [e]
    done: list[int] = []  # values of the operands evaluated so far
    while todo:
        e = todo.pop()
        if isinstance(e, ex.Var):
            done.append(bits[e.index])
        elif isinstance(e, ex.Const):
            done.append(full if e.value else 0)
        elif isinstance(e, ex.Not):
            todo.append(_NEGATE)
            todo.append(e.operand)
        elif e is _NEGATE:
            done[-1] ^= full
        elif e is _AND:
            right = done.pop()
            done[-1] &= right
        elif e is _OR:
            right = done.pop()
            done[-1] |= right
        elif isinstance(e, tuple):  # (right operand, its operator, absorbing value)
            right, op, absorbing = e
            if done[-1] != absorbing:  # else the left operand decides
                todo.append(op)
                todo.append(right)
        elif isinstance(e, ex.And):
            todo.append((e.right, _AND, 0))
            todo.append(e.left)
        else:
            todo.append((e.right, _OR, full))
            todo.append(e.left)
    return done[0]
