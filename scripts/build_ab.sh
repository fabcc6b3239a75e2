# Sourced by payload_diff.sh and perf_ab.sh, not run on its own.
#
#   build_ab NAME BASE
#
# resolves BASE (any git revision), exports it with `git archive` into a
# temporary directory under $TMPDIR (default /tmp; removed on exit) and
# builds alps-sweep there and in the working tree's build-payload/, both
# Release. NAME prefixes its messages. It sets base_sha, tmp (the temporary
# directory, free for the caller's own files), base_sweep and head_sweep,
# and exits 2 on an unknown revision or a failed build.

build_ab_one() {  # build_ab_one NAME SOURCE_DIR BUILD_DIR
  if ! { cmake -S "$2" -B "$3" -DCMAKE_BUILD_TYPE=Release -DALPS_BUILD_TESTS=OFF \
           -DALPS_BUILD_EXAMPLES=OFF &&
         cmake --build "$3" -j"$(nproc)" --target alps-sweep; } >"$tmp/build.log" 2>&1; then
    tail -n 30 "$tmp/build.log" >&2
    echo "$1: build of $2 failed" >&2
    exit 2
  fi
}

build_ab() {  # build_ab NAME BASE
  base_sha=$(git rev-parse --verify --quiet "$2^{commit}") || {
    echo "$1: unknown revision '$2'" >&2
    exit 2
  }
  tmp=$(mktemp -d -t "alps-$1.XXXXXX")
  trap 'rm -rf "$tmp"' EXIT
  mkdir "$tmp/base"
  git archive "$base_sha" | tar -x -C "$tmp/base"
  echo "building base ${base_sha:0:12} ..."
  build_ab_one "$1" "$tmp/base" "$tmp/base/build"
  echo "building working tree ..."
  build_ab_one "$1" . build-payload
  base_sweep=$tmp/base/build/tools/alps-sweep
  head_sweep=build-payload/tools/alps-sweep
}
