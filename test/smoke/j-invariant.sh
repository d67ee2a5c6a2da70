#!/bin/sh
# The determinism gate every smoke alias shares: run one artifact-writing
# command at -j 1 and at -j 2 and require the two artifacts byte-identical.
#
#   j-invariant.sh EXE FLAG STEM ARGS...
#
# runs `EXE ARGS -j J FLAG STEM-jJ.json` for J = 1, 2, then compares
# STEM-j1.json with STEM-j2.json.
set -e
exe=$1 flag=$2 stem=$3
shift 3
for j in 1 2; do
  "$exe" "$@" -j "$j" "$flag" "$stem-j$j.json"
done
cmp "$stem-j1.json" "$stem-j2.json"
