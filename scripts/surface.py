#!/usr/bin/env python3
"""The option surface of an icmap source tree: what a caller can set.

    python3 scripts/surface.py SRC

SRC is a `src/` directory (holding `icmap/`), as for scripts/parity.py. The
script imports that tree's `icmap.cli` and prints:

- for the `icmap` parser and for each subcommand of `build_parser()`, its
  declared long flags and how many abbreviations of them the parser
  accepts, then both counts summed over the subcommands. An abbreviation
  is a proper prefix of a flag, longer than `--` and not itself a flag,
  that the parser reads as a flag;
- the number of config keys: `len(SCENE_KEYS)` and `len(PIPELINE_KEYS)`;
- every function and method of SRC/icmap with a defaulted parameter,
  found by `ast` in the source, and how many such parameters there are;
- each module's public module-level functions and classes (names without
  a leading underscore, found by `ast` in the source), and their total.

Run it on two trees (say, a `git archive` of a base commit and this
checkout) to compare their surfaces line by line.
"""
import argparse
import ast
import contextlib
import io
import sys
from pathlib import Path


def reads_as_flag(parser: argparse.ArgumentParser, text: str) -> bool:
    """Whether `parser` reads the argument `text` as one of its flags, as
    `parse_args` does for each argument it is given."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            found = parser._parse_optional(text)
    except SystemExit:  # a prefix of several flags, which argparse rejects
        return False
    if isinstance(found, list):  # Python >= 3.12.7 returns every reading
        found = found[0] if len(found) == 1 else None
    return found is not None and found[0] is not None


def flag_surface(parser: argparse.ArgumentParser) -> tuple[list[str], int]:
    """(the long flags of `parser`, the number of abbreviations it accepts)."""
    flags = sorted({f for a in parser._actions for f in a.option_strings if f.startswith("--")})
    prefixes = {flag[:end] for flag in flags for end in range(3, len(flag))} - set(flags)
    return flags, sum(reads_as_flag(parser, p) for p in sorted(prefixes))


def functions(tree: ast.AST, prefix: str):
    """(qualified name, node) of every function and method under `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from functions(node, f"{name}.")
        else:
            yield from functions(node, prefix)


def defaulted_params(pkg: Path) -> list[tuple[str, list[str]]]:
    """(module.function, its defaulted parameters) for every function or
    method in the package's modules that has one, in source order."""
    found = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in functions(tree, f"{path.stem}."):
            args = node.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if names:
                found.append((name, names))
    return found


def public_names(pkg: Path) -> list[tuple[str, list[str]]]:
    """(module, its public module-level functions and classes) for every
    module of the package, in file order."""
    return [(path.stem, [node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                         and not node.name.startswith("_")])
            for path in sorted(pkg.glob("*.py"))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", type=Path, help="a src/ directory holding icmap/")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import icmap.cli as cli

    if Path(cli.__file__).resolve().parent != src / "icmap":
        raise SystemExit(f"surface: imported icmap from {cli.__file__}, not {src}")
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    total_flags = total_abbrevs = 0
    for name, p in [("icmap", parser), *sub.choices.items()]:
        flags, abbrevs = flag_surface(p)
        print(f"{name}: long flags {len(flags)}, abbreviations accepted {abbrevs}: "
              f"{' '.join(flags)}")
        if p is not parser:
            total_flags += len(flags)
            total_abbrevs += abbrevs
    print(f"subcommands: long flags {total_flags}, abbreviations accepted {total_abbrevs}")
    print(f"config keys: SCENE_KEYS {len(cli.SCENE_KEYS)}, "
          f"PIPELINE_KEYS {len(cli.PIPELINE_KEYS)}")
    params = defaulted_params(src / "icmap")
    print(f"defaulted parameters: {sum(len(names) for _, names in params)} "
          f"in {len(params)} functions")
    for func, names in params:
        print(f"  {func}: {', '.join(names)}")
    modules = public_names(src / "icmap")
    print(f"public functions and classes: {sum(len(names) for _, names in modules)} "
          f"in {len(modules)} modules")
    for module, names in modules:
        print(f"  {module} ({len(names)}): {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
