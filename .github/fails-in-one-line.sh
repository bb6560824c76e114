#!/usr/bin/env bash
# Usage: fails-in-one-line.sh CODE [TEXT] -- CMD...
#
# Runs CMD and prints what it wrote to stderr. Fails unless CMD exits with
# CODE, writes exactly one stderr line and no Traceback, and, when TEXT is
# given, that line contains TEXT.
set -u
if [ $# -ge 3 ] && [ "$2" = "--" ]; then
  code=$1 text=""
  shift 2
elif [ $# -ge 4 ] && [ "$3" = "--" ]; then
  code=$1 text=$2
  shift 3
else
  echo "usage: fails-in-one-line.sh CODE [TEXT] -- CMD..." >&2
  exit 2
fi
stderr=$(mktemp)
trap 'rm -f "$stderr"' EXIT
status=0
"$@" 2> "$stderr" || status=$?
cat "$stderr"
fail() {
  echo "fails-in-one-line: $*" >&2
  exit 1
}
[ "$status" -eq "$code" ] || fail "exit code $status, expected $code"
[ "$(wc -l < "$stderr")" -eq 1 ] || fail "$(wc -l < "$stderr") stderr lines, expected 1"
if grep -q Traceback "$stderr"; then fail "a traceback on stderr"; fi
if [ -n "$text" ] && ! grep -qF -- "$text" "$stderr"; then fail "stderr does not contain: $text"; fi
