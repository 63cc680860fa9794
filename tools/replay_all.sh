#!/bin/sh
# Replay every counterexample saved in DIR: each must reproduce (exit 1
# and "counterexample REPRODUCED").  Build bin/ffcli.exe first.
#   usage: tools/replay_all.sh DIR
ffcli=_build/default/bin/ffcli.exe
n=0
for cx in "$1"/cx-*.json; do
  [ -e "$cx" ] || break
  n=$((n + 1))
  status=0
  out=$("$ffcli" check --replay "$cx") || status=$?
  if [ "$status" -ne 1 ] || ! printf '%s\n' "$out" | grep -q 'counterexample REPRODUCED'; then
    printf '%s\n' "$out"
    echo "$cx did not reproduce (exit $status)"
    exit 1
  fi
done
if [ "$n" -eq 0 ]; then
  echo "no counterexamples in $1"
  exit 1
fi
echo "$n counterexamples in $1 replay REPRODUCED"
