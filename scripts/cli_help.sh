#!/bin/sh
# Render --help=plain for each given binary and for every subcommand its
# help lists under COMMANDS. Each rendering must exit 0 and print nothing
# on stderr: cmdliner reports a malformed doc string on stderr and still
# exits 0, so the exit status alone would not catch it. Silent on success.
#
#   scripts/cli_help.sh _build/default/bin/mlds_cli.exe ...
set -eu
for bin in "$@"; do
  case $bin in */*) ;; *) bin=./$bin ;; esac
  subs=$("$bin" --help=plain |
    awk '/^[A-Z]/ { on = ($0 == "COMMANDS") ; next }
         on && /^       [a-z]/ { print $1 }')
  for sub in "" $subs; do
    if ! err=$("$bin" $sub --help=plain 2>&1 >/dev/null); then
      echo "$bin $sub --help=plain: non-zero exit" >&2
      exit 1
    fi
    if [ -n "$err" ]; then
      echo "$bin $sub --help=plain: $err" >&2
      exit 1
    fi
  done
done
