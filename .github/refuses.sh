# Sourced by the console-script steps of tests.yml.
# refuses NAME CODE PREFIX ARGS...: `flexsat --out $RUNNER_TEMP/NAME-out ARGS...` must exit
# CODE with one stderr line that starts with PREFIX, and leave no output directory.
refuses() {
  local name=$1 code=$2 prefix=$3 rc=0
  shift 3
  flexsat --out "$RUNNER_TEMP/$name-out" "$@" 2> "$RUNNER_TEMP/$name.err" || rc=$?
  cat "$RUNNER_TEMP/$name.err"
  test "$rc" -eq "$code"
  test "$(wc -l < "$RUNNER_TEMP/$name.err")" -eq 1
  grep -q "^$prefix" "$RUNNER_TEMP/$name.err"
  test ! -e "$RUNNER_TEMP/$name-out"
}
