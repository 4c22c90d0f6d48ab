#!/bin/sh
# Fail, naming file and line, when a library module other than
# lib/storage/disk.ml and lib/storage/fault.ml makes a durable file call
# or calls a disk-fault hook: every such call belongs to Storage.Disk.
# Usage: disk_calls.sh FILE.ml...
calls='Unix\.(openfile|write|single_write|write_substring|read|lseek|fsync|ftruncate|rename|unlink)\b|Sys\.rename\b|Fault\.(io|bit_flip|torn_write|with_retries)\b'
status=0
for f in "$@"; do
  case "$f" in
  */storage/disk.ml | */storage/fault.ml) ;;
  *)
    if grep -nHE "$calls" "$f"; then status=1; fi
    ;;
  esac
done
if [ "$status" -ne 0 ]; then
  echo "durable file calls belong to Storage.Disk (lib/storage/disk.ml)" >&2
fi
exit $status
