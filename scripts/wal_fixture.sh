#!/bin/sh
# Recover the checked-in snapshot + WAL fixture with mlds_cli (\load runs
# Persist.load_report: restore the snapshot, then replay the log past its
# %WAL stamp), re-save the recovered database, and compare the REPL
# transcript and the saved snapshot with the committed expected files.
# The fixture was written by an earlier encoder, so any change to the
# bytes the WAL or snapshot printer produces, or to how old logs replay,
# fails here. Silent on success.
#
#   scripts/wal_fixture.sh _build/default/bin/mlds_cli.exe test/fixtures
set -eu
cli=$1
dir=$2
case $cli in /*) ;; *) cli=$(pwd)/$cli ;; esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# recovery trims the torn tail in place: work on a copy
cp "$dir/fixture.mlds" "$dir/fixture.mlds.wal" "$tmp/"
(
  cd "$tmp"
  printf '\\load fixture.mlds\n\\save recovered.mlds\n' |
    "$cli" repl --fresh --lang abdl >out 2>err
  cat out err >transcript
)
diff "$dir/fixture.transcript" "$tmp/transcript"
cmp "$dir/fixture.recovered.mlds" "$tmp/recovered.mlds"
