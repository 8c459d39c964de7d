#!/usr/bin/env bash
# Lists the `pub` items of the library and binary sources (`crates/*/src`
# and `src/`) whose name has no whole-word reference in any other tracked
# `.rs` file (`benchmark/` included) or in README.md, then prints their
# count on the last line.
#
#   ci/unreferenced-pub.sh
#
# An item is a `pub` fn, struct, enum, trait, type, const or static;
# modules are namespaces, and what callers use of them is their items.
# Such an item is either one the compiler needs public (a `FromStr::Err`,
# a type in a public signature) or a candidate for `pub(crate)`: as long
# as it is `pub`, rustc's dead-code lint cannot see that nothing uses it.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

item='^\s*pub (const |async |unsafe )*(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*'
count=0
while IFS= read -r hit; do
  file=${hit%%:*}
  name=$(sed -E "s/.*pub (const |async |unsafe )*(fn|struct|enum|trait|type|const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\3/" <<<"$hit")
  if ! git grep -qw "$name" -- '*.rs' README.md ":!$file"; then
    echo "$hit"
    count=$((count + 1))
  fi
done < <(git grep -nE "$item" -- 'crates/*/src/*.rs' 'src/*.rs')
echo "pub items with no reference outside their file: $count"
