"""Files that grow with ``n`` in one shape each, for the scaling guards and the differential run.

Each builder returns a protocol file's text and a trace that runs it to
completion. The shapes are those on which a name lookup or a per-step
copy that scans what came before would make a command quadratic:

- ``call_chain``: ``n`` protocols, each calling the next;
- ``parametric_chain``: ``n`` parametric protocols, each instantiating the next;
- ``wide_variant``: a ``read`` over a type of ``n`` constructors;
- ``many_params``: a protocol of ``n`` parameters, each called from one ``read`` arm;
- ``fork_free_chain``: one protocol of ``n`` refined messages, each sent on, with no ``read``;
- ``many_roles``: one protocol of ``n`` participants, each making one message and sending it on;
- ``nested_reads``: ``n`` ``read``s, each in an arm of the one before;
- ``rec_loop``: one ``read`` whose arm recurses, and a trace that goes round it ``n`` times.

Each ``read`` nests one level, so ``nested_reads`` is run at the sizes
of ``CAPPED_SIZES``, under the parser's 100-level cap.

``tests/test_scaling.py`` and ``tests/differential.py`` use them.
"""

from __future__ import annotations

HEAD = "roles A, B\n\n"
SEND = "  msg m : Int by A;\n  send m A -> B;\n"


def call_chain(n: int) -> tuple[str, str]:
    """``P0`` calls ``P1`` … calls ``P{n-1}``, which ends; each sends one message first."""
    protocols = [f"protocol P{i} [A, B] {{\n{SEND}  {f'call P{i + 1}' if i + 1 < n else 'end'}\n}}\n" for i in range(n)]
    return HEAD + "\n".join(protocols) + "\nentry P0\n", "m = 1\n" * n


def parametric_chain(n: int) -> tuple[str, str]:
    """``Main`` calls ``P0(Leaf)``; each ``P{i}`` calls ``P{i+1}(Leaf)`` and the last calls
    its argument, so every parametric protocol is instantiated once."""
    protocols = ["protocol Leaf [A, B] {\n  end\n}\n", "protocol Main [A, B] {\n  call P0(Leaf)\n}\n"]
    for i in range(n):
        call = f"call P{i + 1}(Leaf)" if i + 1 < n else "call body"
        protocols.append(f"protocol P{i}<body : protocol[A, B]> [A, B] {{\n{SEND}  {call}\n}}\n")
    return HEAD + "\n".join(protocols) + "\nentry Main\n", "m = 1\n" * n


def wide_variant(n: int) -> tuple[str, str]:
    """A ``read`` with one arm per constructor of an ``n``-constructor type, and a trace
    whose value has the last tag."""
    tags = [f"C{i}" for i in range(n)]
    arms = ";\n".join(f"    {tag} => end" for tag in tags)
    text = (f"{HEAD}type T = {' | '.join(tags)}\n\nprotocol P [A, B] {{\n  msg t : T by A;\n"
            f"  send t A -> B;\n  read t {{\n{arms}\n  }}\n}}\n\nentry P\n")
    return text, f"t = {tags[-1]}\n"


def many_params(n: int) -> tuple[str, str]:
    """``Sel`` takes ``n`` protocol parameters and calls the ``i``-th from the ``read`` arm
    for ``i``; ``Main`` instantiates it, and the trace takes the last arm."""
    params = ", ".join(f"x{i} : protocol[A, B]" for i in range(n))
    arms = "".join(f"    {i} => call x{i};\n" for i in range(n))
    protocols = [
        "protocol Leaf [A, B] {\n  end\n}\n",
        f"protocol Sel<{params}> [A, B] {{\n  msg t : Int by A;\n  send t A -> B;\n  read t {{\n{arms}    _ => end\n  }}\n}}\n",
        f"protocol Main [A, B] {{\n  call Sel({', '.join(['Leaf'] * n)})\n}}\n",
    ]
    return HEAD + "\n".join(protocols) + "\nentry Main\n", f"t = {n - 1}\n"


def fork_free_chain(n: int) -> tuple[str, str]:
    """``n`` messages, each refined to be one more than the one before and sent on by
    the role that received it; no ``read`` forks the path."""
    lines = ["  msg m0 : Int by A;", "  send m0 A -> B;"]
    for i in range(1, n):
        creator, receiver = ("B", "A") if i % 2 else ("A", "B")
        before = f"m{i - 1}" if i == 1 else f"m{i - 1}!"
        lines += [f"  dep m{i} : (x : Int) where x == {before} + 1 by {creator};", f"  send m{i} {creator} -> {receiver};"]
    text = HEAD + "protocol P [A, B] {\n" + "\n".join(lines) + "\n  end\n}\n\nentry P\n"
    return text, "".join(f"m{i} = {i}\n" for i in range(n))


def many_roles(n: int) -> tuple[str, str]:
    """``n`` roles, all participants of one protocol; role ``R{i}`` makes ``m{i}`` and
    sends it to the next role, the last to the first."""
    roles = [f"R{i}" for i in range(n)]
    lines = []
    for i, role in enumerate(roles):
        lines += [f"  msg m{i} : Int by {role};", f"  send m{i} {role} -> {roles[(i + 1) % n]};"]
    text = (f"roles {', '.join(roles)}\n\nprotocol P [{', '.join(roles)}] {{\n" + "\n".join(lines)
            + "\n  end\n}\n\nentry P\n")
    return text, "".join(f"m{i} = {i}\n" for i in range(n))


def nested_reads(n: int) -> tuple[str, str]:
    """``m0`` … ``m{n-1}``, each made, sent and read inside the ``0`` arm of the
    ``read`` before; every other arm ends, and the trace takes each ``0`` arm."""
    body = "end"
    for i in reversed(range(n)):
        body = f"msg m{i} : Int by A; send m{i} A -> B; read m{i} {{ 0 => {body}; _ => end }}"
    return HEAD + f"protocol P [A, B] {{\n  {body}\n}}\n\nentry P\n", "".join(f"m{i} = 0\n" for i in range(n))


def rec_loop(n: int) -> tuple[str, str]:
    """One message made, sent and read per round: ``1`` recurses and ``0`` ends,
    and the trace goes round ``n`` times before it ends."""
    text = HEAD + "protocol P [A, B] {\n" + SEND + "  read m {\n    0 => end;\n    _ => rec\n  }\n}\n\nentry P\n"
    return text, "m = 1\n" * n + "m = 0\n"


SHAPES = {
    f.__name__: f
    for f in (
        call_chain, parametric_chain, wide_variant, many_params, fork_free_chain, many_roles, nested_reads, rec_loop
    )
}

# The sizes to run a shape at that the parser's nesting cap bounds.
CAPPED_SIZES = {"nested_reads": (20, 40, 80)}
