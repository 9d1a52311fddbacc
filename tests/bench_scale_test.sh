#!/bin/sh
# A grid bench given a malformed or zero scale variable must stop before any
# run: `error: bad <VAR> '<value>'` on stderr, nothing on stdout, exit 2.
#
#   bench_scale_test.sh BENCH [BENCH ...]
fail=0
for bench in "$@"; do
  for case in RMAC_SEEDS=abc RMAC_SEEDS=0 RMAC_SEEDS=-1 RMAC_PACKETS=0 \
              RMAC_PACKETS=junk RMAC_PACKETS=1e3 RMAC_THREADS=2x RMAC_FULL=yes; do
    var=${case%%=*}
    value=${case#*=}
    out=$(env "$case" "$bench" 2>/dev/null)
    err=$(env "$case" "$bench" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -ne 2 ] || [ -n "$out" ] ||
       [ "$err" != "error: bad $var '$value'" ]; then
      echo "FAIL: $case $bench: exit $code, stderr '$err', stdout '$out'"
      fail=1
    fi
  done
done
exit $fail
