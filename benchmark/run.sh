#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see `run.sh --help` or README.md).  Needs the repository around
# it: the package depends on the umbrella crate one directory up.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the benchmark's report.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --bin abft-benchmark 1>&2

exec "$target/release/abft-benchmark" "$@"
