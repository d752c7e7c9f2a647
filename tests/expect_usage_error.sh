#!/bin/sh
# Usage: expect_usage_error.sh PROGRAM ARGS...
# Passes when PROGRAM rejects ARGS as a usage error: a non-zero exit
# that is not a signal (so not an abort) and exactly one line on
# stderr.
err=$("$@" 2>&1 >/dev/null)
rc=$?
lines=$(printf '%s\n' "$err" | wc -l)
if [ "$rc" -eq 0 ] || [ "$rc" -ge 128 ] || [ "$lines" -ne 1 ]; then
    echo "expected one error line and a plain non-zero exit;" \
         "got exit $rc and $lines line(s):" >&2
    printf '%s\n' "$err" >&2
    exit 1
fi
