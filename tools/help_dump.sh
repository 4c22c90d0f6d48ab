#!/bin/sh
# Print the plain --help page of every dbmeta command: the top-level
# page, then each name its COMMANDS section lists, recursively.
# Usage: help_dump.sh PATH/TO/dbmeta
set -eu

walk() {
  page=$("$DBMETA" "$@" --help=plain)
  printf '%s\n' "$page"
  # command names sit at the section's first indent; their summaries deeper
  printf '%s\n' "$page" |
    awk '/^[A-Z]/ { listing = ($0 == "COMMANDS") } listing && /^       [a-z]/ { print $1 }' |
    while read -r sub; do walk "$@" "$sub"; done
}

DBMETA=$1
walk
