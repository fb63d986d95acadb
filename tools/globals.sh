#!/bin/sh
# Lists the module-level mutable globals in lib/ (top-level `let` bindings
# to a `ref`, a `Hashtbl.create` or a record from a `create ()` call, as
# "file name") and fails when the list differs from tools/globals.allow,
# whose `#` comment and blank lines are skipped.  Also fails when
# `Obs.ambient` is named outside lib/telemetry and `Machine.create`, so
# every telemetry site reads its machine's own observation context.  Run
# from the repository root: `make globals`.
set -eu
allow="$(dirname "$0")/globals.allow"
allowed="$(mktemp)"
trap 'rm -f "$allowed"' EXIT
grep -vE '^[[:space:]]*(#|$)' "$allow" | LC_ALL=C sort > "$allowed"
global="^let [a-z_][A-Za-z0-9_']* *(:[^=]*)?= *"
global="$global(ref\b|Hashtbl\.create|([A-Z][A-Za-z0-9_]*\.)*create *\(\))"
grep -rE --include='*.ml' "$global" lib \
  | sed -E "s/^([^:]*):let ([A-Za-z0-9_']+).*/\1 \2/" | LC_ALL=C sort \
  | diff -u "$allowed" - || {
  echo "module-level globals differ from $allow (-: allowed, +: found)"
  exit 1
}
# Each use of Obs.ambient outside lib/telemetry, with the top-level `let`
# that encloses it; only lib/machine/machine.ml's `create` may name it.
bypass="$(grep -rlE --include='*.ml' 'Obs\.ambient' lib bin bench test examples \
  | grep -v '^lib/telemetry/' \
  | xargs -r awk '
      FNR == 1 { name = "" }
      /^let (rec )?[a-z_]/ { name = $2 == "rec" ? $3 : $2 }
      /Obs\.ambient/ && !(FILENAME == "lib/machine/machine.ml" && name == "create") {
        print FILENAME ":" FNR ": in `" name "`"
      }')"
if [ -n "$bypass" ]; then
  echo "$bypass"
  echo "Obs.ambient named outside lib/telemetry and Machine.create"
  exit 1
fi
echo "$(wc -l < "$allowed" | tr -d ' ') module-level globals, as allowed"
