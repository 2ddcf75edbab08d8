#!/bin/sh
# Build the Lime toolchain and this benchmark from source, then run one
# workload:
#
#   sh perfbench/run.sh --workload compile|serve|run|tune --seed N --seconds S --trace 0|1
#
# Run it from anywhere inside a source checkout; it works from the
# checkout's root and writes only there (_build/ and .perfbench/).
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no Lime sources here (need dune-project, lib/ and bin/ next to perfbench/)" >&2
  exit 2
fi
dune build --root . -j 2 ./perfbench/main.exe ./bin/limec.exe >&2
exec ./_build/default/perfbench/main.exe --limec ./_build/default/bin/limec.exe "$@"
