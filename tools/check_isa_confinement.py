#!/usr/bin/env python3
"""Checks that AVX-512 code in a binary stays inside the AVX-512 table.

    python3 tools/check_isa_confinement.py BINARY [--objdump PATH]
        [--table-file kernels_avx512.cpp] [--expect-table]

The kernel engine picks its ISA at run time, so a binary built on any
x86 host must run on one without AVX-512.  That holds only if every
instruction that needs AVX-512 sits in a function the AVX-512 table
alone reaches: the internal-linkage template instantiations of
src/exec/kernels_avx512.cpp.  Should one leak into a shared inline (say
a standard-library template instantiated in that file and merged across
files by the linker), a host without AVX-512 dies of SIGILL, which an
AVX-512 CI runner never shows.

The check disassembles BINARY with `objdump -d -C` and finds every
function that names an AVX-512-only register: zmm0-31, xmm16-31,
ymm16-31 or the k0-k7 mask registers.  It maps each function to its
source file through `objdump -t`, which lists every file's local symbols
after that file's FILE entry.  It fails when such a function is not a
local symbol of --table-file.  With --expect-table it also fails when
that file has no AVX-512 code at all, i.e. the table was compiled away.
The binary needs its symbol table (an unstripped build).

Exit codes: 0 confined, 1 a leak (or no table under --expect-table),
2 bad arguments or objdump failed.
"""

import argparse
import re
import subprocess
import sys

AVX512_REGISTER = re.compile(
    r"%(?:zmm\d+|[xy]mm(?:1[6-9]|2\d|3[01])|k[0-7])\b")
FUNCTION_HEADER = re.compile(r"^([0-9a-f]+) <(.*)>:$")


def local_function_files(symbol_table):
    """{address: source file} for local function symbols (objdump -t)."""
    files = {}
    current = None
    for line in symbol_table.splitlines():
        fields = line.split()
        if len(fields) < 5 or not re.fullmatch(r"[0-9a-f]+", fields[0]):
            continue
        flags = line[len(fields[0]) + 1:len(fields[0]) + 8]
        if "f" in flags and "d" in flags:  # FILE entry: "l    df *ABS*"
            current = fields[-1]
        elif flags.startswith("l") and "F" in flags:
            files[int(fields[0], 16)] = current
    return files


def avx512_functions(disassembly):
    """[(address, demangled name)] of functions using AVX-512 registers."""
    found = []
    current = None
    for line in disassembly.splitlines():
        header = FUNCTION_HEADER.match(line)
        if header:
            current = (int(header.group(1), 16), header.group(2))
        elif current is not None and AVX512_REGISTER.search(line):
            found.append(current)
            current = None  # one report per function
    return found


def objdump(tool, args, binary):
    try:
        done = subprocess.run([tool] + args + [binary], capture_output=True,
                              text=True, check=False)
    except OSError as e:
        print(f"check_isa_confinement: cannot run {tool}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if done.returncode != 0:
        print(f"check_isa_confinement: {tool} {' '.join(args)} {binary} "
              f"failed:\n{done.stderr}", file=sys.stderr)
        sys.exit(2)
    return done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("binary")
    parser.add_argument("--objdump", default="objdump")
    parser.add_argument("--table-file", default="kernels_avx512.cpp")
    parser.add_argument("--expect-table", action="store_true")
    args = parser.parse_args()

    files = local_function_files(objdump(args.objdump, ["-t"], args.binary))
    if not files:
        print(f"check_isa_confinement: {args.binary} has no local symbols "
              "(stripped?)", file=sys.stderr)
        return 2
    functions = avx512_functions(
        objdump(args.objdump, ["-d", "-C", "--no-show-raw-insn"],
                args.binary))
    leaks = [name for address, name in functions
             if files.get(address) != args.table_file]
    confined = len(functions) - len(leaks)
    print(f"{len(functions)} functions use AVX-512 registers: {confined} "
          f"in {args.table_file}, {len(leaks)} elsewhere")
    for name in leaks:
        print(f"  leak: {name}")
    if leaks:
        return 1
    if args.expect_table and confined == 0:
        print(f"no AVX-512 code in {args.table_file}: the table was "
              "compiled away")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
