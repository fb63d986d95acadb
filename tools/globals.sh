#!/bin/sh
# Lists the module-level mutable globals in lib/ (top-level `let` bindings
# to a `ref` or a `Hashtbl.create`, as "file name") and fails when the
# list differs from tools/globals.allow.  Run from the repository root:
# `make globals`.
set -eu
allow="$(dirname "$0")/globals.allow"
grep -rE --include='*.ml' "^let [a-z_][A-Za-z0-9_']* *(:[^=]*)?= *(ref\b|Hashtbl\.create)" lib \
  | sed -E "s/^([^:]*):let ([A-Za-z0-9_']+).*/\1 \2/" | LC_ALL=C sort \
  | diff -u "$allow" - || {
  echo "module-level globals differ from $allow (-: allowed, +: found)"
  exit 1
}
echo "$(wc -l < "$allow" | tr -d ' ') module-level globals, as allowed"
