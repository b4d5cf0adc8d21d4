#!/usr/bin/env bash
# Fails unless `check.sh --help` names every flag that check.sh's argument
# `case` accepts, so the help text cannot drift from the parser.
#
# Usage: tools/check_help_test.sh tools/check.sh
set -euo pipefail

script="${1:?usage: check_help_test.sh PATH/TO/check.sh}"
help="$(bash "$script" --help)"

# The parser's patterns: `    --fast) MODE="fast" ;;`, `    --help | -h)`.
flags="$(grep -oE '^ +--[a-z-]+( \| -[a-z])?\)' "$script" |
  grep -oE -- '--[a-z-]+')"
if [ -z "$flags" ]; then
  echo "no flags found in $script's argument case" >&2
  exit 1
fi

missing=0
for flag in $flags; do
  if ! grep -qwF -- "$flag" <<<"$help"; then
    echo "check.sh --help does not mention $flag" >&2
    missing=1
  fi
done
if [ "$missing" != 0 ]; then
  exit 1
fi
echo "check.sh --help names all $(wc -w <<<"$flags") flags"
