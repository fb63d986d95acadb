# Convenience targets for the PKRU-Safe reproduction.

.PHONY: all build test check globals bench examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force

# Everything CI runs: full build (all targets) + the complete test suite.
check:
	dune build @all
	dune runtest --force

# Pins the module-level mutable globals in lib/ to tools/globals.allow.
globals:
	sh tools/globals.sh

bench:
	dune exec bench/main.exe

bench-json:
	dune exec bench/main.exe -- --json bench-results

examples:
	dune exec examples/quickstart.exe
	dune exec examples/servo_like.exe
	dune exec examples/exploit_demo.exe
	dune exec examples/callback_ffi.exe
	dune exec examples/static_analysis.exe
	dune exec examples/stack_protection.exe

clean:
	dune clean
