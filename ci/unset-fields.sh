#!/usr/bin/env bash
# Lists each `pub` field of a `pub struct` in the library and binary
# sources (`crates/*/src` and `src/`) that no non-test code outside the
# defining file assigns, then prints their count on the last line.
#
#   ci/unset-fields.sh
#
# Non-test code is every tracked `.rs` file outside `tests/` directories
# and `shims/` (`benchmark/src` and the examples included), without its
# `#[cfg(test)]` items. A field counts as assigned when such code names it
# in a literal of its struct (`Name { field: … }` or `Name { field }`) or
# assigns any field of that name (`x.field = …`, `x.field += …`). Such a
# field holds one value for every caller, so it is a candidate for a
# constant next to the code that reads it. The sweep is textual: a
# literal spelled `Self { … }` in another file, or a macro that builds
# one, is not seen, and a destructuring pattern counts as a literal.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Prints `file<TAB>line<TAB>text` for the non-test lines of each file,
# `//` comments and brace char literals removed.
non_test() {
  awk '
    FNR == 1 { skip = 0; depth = 0; pending = 0 }
    {
      line = $0
      sub(/\/\/.*$/, "", line)
      gsub(/'\''[{}]'\''/, "'\'''\''", line)
      if (!skip && line ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) { pending = 1; next }
      if (pending) {
        pending = 0
        if (line !~ /\{/ && line ~ /;[ \t]*$/) next
        skip = 1; depth = 0
      }
      if (skip) {
        opened = gsub(/\{/, "{", line); closed = gsub(/\}/, "}", line)
        depth += opened - closed
        if ((opened || closed) && depth <= 0) skip = 0
        next
      }
      print FILENAME "\t" FNR "\t" line
    }' "$@"
}

mapfile -t defining < <(git ls-files 'crates/*/src/*.rs' 'src/*.rs')
mapfile -t using < <(git ls-files '*.rs' ':!tests' ':!*/tests/*' ':!shims')

# `file<TAB>line<TAB>Struct<TAB>field` for every pub field of a pub struct.
defs=$(non_test "${defining[@]}" | awk -F'\t' '
  $3 ~ /^pub struct [A-Za-z_][A-Za-z0-9_]*(<[^>]*>)? *\{ *$/ {
    name = $3; sub(/^pub struct /, "", name); sub(/[<{ ].*$/, "", name); next
  }
  name != "" && $3 ~ /^}/ { name = ""; next }
  name != "" && $3 ~ /^    pub [a-z_][a-z0-9_]*:/ {
    field = $3; sub(/^    pub /, "", field); sub(/:.*$/, "", field)
    print $1 "\t" $2 "\t" name "\t" field
  }')

# `file<TAB>Struct<TAB>field` for each field named in a struct literal,
# and `file<TAB>.<TAB>field` for each `.field = …` assignment.
uses=$(non_test "${using[@]}" | awk -F'\t' -v structs="$(cut -f3 <<<"$defs" | sort -u)" '
  BEGIN { n = split(structs, s, "\n"); for (i = 1; i <= n; i++) known[s[i]] = 1 }
  $1 != file { if (file != "") scan(); file = $1; text = "" }
  { text = text $3 "\n" }
  END { if (file != "") scan() }
  function ident_at(str, i,   c, j) {
    j = i
    while (j <= length(str)) {
      c = substr(str, j, 1)
      if (c !~ /[A-Za-z0-9_]/) break
      j++
    }
    return substr(str, i, j - i)
  }
  function skip_space(str, i) {
    while (i <= length(str) && substr(str, i, 1) ~ /[ \t\n]/) i++
    return i
  }
  function literal(str, i, name,   depth, c, id, k) {
    depth = 1; expect = 1
    for (; i <= length(str) && depth > 0; i++) {
      c = substr(str, i, 1)
      if (c == "{" || c == "(" || c == "[") { depth++; expect = 0; continue }
      if (c == "}" || c == ")" || c == "]") { depth--; continue }
      if (depth == 1 && c == ",") { expect = 1; continue }
      if (c ~ /[ \t\n]/) continue
      if (depth == 1 && expect && c ~ /[a-z_]/) {
        id = ident_at(str, i)
        k = skip_space(str, i + length(id))
        c = substr(str, k, 1)
        if ((c == ":" && substr(str, k + 1, 1) != ":") || c == "," || c == "}")
          print file "\t" name "\t" id
        i += length(id) - 1
      }
      expect = 0
    }
  }
  function scan(   rest, off, name, before, word) {
    rest = text; off = 0
    while (match(rest, /[A-Z][A-Za-z0-9_]*[ \t\n]*\{/)) {
      name = substr(rest, RSTART, RLENGTH); sub(/[ \t\n]*\{$/, "", name)
      before = substr(rest, 1, RSTART - 1); sub(/[ \t\n]+$/, "", before)
      word = before; sub(/^.*[^A-Za-z0-9_>-]/, "", word)
      if (name in known && word !~ /^(struct|enum|union|trait|impl|for|mod|->)$/)
        literal(rest, RSTART + RLENGTH, name)
      off = RSTART + RLENGTH; rest = substr(rest, off)
    }
    rest = text
    while (match(rest, /\.[a-z_][a-z0-9_]*[ \t]*([-+*\/|&^]|<<|>>)?=[^=]/)) {
      id = substr(rest, RSTART + 1, RLENGTH); sub(/[^a-z0-9_].*$/, "", id)
      print file "\t.\t" id
      rest = substr(rest, RSTART + RLENGTH)
    }
  }')

count=0
while IFS=$'\t' read -r file line name field; do
  if ! awk -F'\t' -v f="$file" -v s="$name" -v x="$field" \
    '$1 != f && ($2 == s || $2 == ".") && $3 == x { found = 1; exit } END { exit !found }' \
    <<<"$uses"; then
    echo "$file:$line: $name::$field"
    count=$((count + 1))
  fi
done <<<"$defs"
echo "pub fields no code outside their file assigns: $count"
