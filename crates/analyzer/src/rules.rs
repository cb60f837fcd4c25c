//! The `sslint` rule set: repo-specific determinism rules clippy cannot
//! express, evaluated over the [`crate::lexer`] token stream.
//!
//! | id  | rule               | scope                | fires on |
//! |-----|--------------------|----------------------|----------|
//! | R1  | `unordered-iter`   | digest-path crates   | iteration over `HashMap`/`HashSet` |
//! | R2  | `ambient-authority`| every scanned crate  | `Instant::now`, `SystemTime::now`, `thread_rng`, `rand::random`, `thread::spawn` |
//! | R3  | `ckpt-contract`    | every scanned crate  | stateful `impl Operator` without `checkpoint` + `restore` |
//! | R4  | `float-digest`     | digest-path crates   | `f32`/`f64` in digest/state-encode contexts without a bit-preserving encoding |
//!
//! Every rule honors `// sslint: allow(rule, reason)` on the offending line
//! or the line immediately above. Allows must carry a non-empty reason
//! (`bad-allow` otherwise) and must suppress at least one finding
//! (`unused-allow` otherwise), so the allowlist can never silently rot.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;

pub const R1_UNORDERED_ITER: &str = "unordered-iter";
pub const R2_AMBIENT_AUTHORITY: &str = "ambient-authority";
pub const R3_CKPT_CONTRACT: &str = "ckpt-contract";
pub const R4_FLOAT_DIGEST: &str = "float-digest";
pub const BAD_ALLOW: &str = "bad-allow";
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Every rule id an `allow(...)` may name.
pub const ALLOWABLE_RULES: &[&str] = &[
    R1_UNORDERED_ITER,
    R2_AMBIENT_AUTHORITY,
    R3_CKPT_CONTRACT,
    R4_FLOAT_DIGEST,
];

/// One diagnostic within a single file.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// How the caller classifies the file being checked.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileClass {
    /// File lives in a crate on the digest path (`sim`, `engine`, `runtime`,
    /// `model`, `harness`): R1 and R4 apply.
    pub digest_path: bool,
    /// File is on the built-in R2 allowlist (e.g. `harness/src/pool.rs`,
    /// whose scoped worker threads feed a deterministic index-ordered fold).
    pub ambient_allowed: bool,
}

/// Runs every applicable rule over one file's source.
pub fn check_file(src: &str, class: FileClass) -> Vec<Finding> {
    let lexed = lex(src);
    let toks = strip_cfg_test(&lexed.toks);

    let mut raw: Vec<Finding> = Vec::new();
    if class.digest_path {
        raw.extend(check_unordered_iter(&toks));
        raw.extend(check_float_digest(&toks));
    }
    if !class.ambient_allowed {
        raw.extend(check_ambient_authority(&toks));
    }
    raw.extend(check_ckpt_contract(&toks));

    // Apply allow annotations: an allow covers findings of its rule on its
    // own line or the line directly below (annotation-above style).
    let mut used = vec![false; lexed.allows.len()];
    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        let allowed = lexed.allows.iter().enumerate().any(|(i, a)| {
            let covers = a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line);
            if covers {
                used[i] = true;
            }
            covers
        });
        if !allowed {
            out.push(f);
        }
    }
    for b in &lexed.bad_allows {
        out.push(Finding {
            rule: BAD_ALLOW,
            line: b.line,
            message: b.message.clone(),
        });
    }
    for (i, a) in lexed.allows.iter().enumerate() {
        if !ALLOWABLE_RULES.contains(&a.rule.as_str()) {
            out.push(Finding {
                rule: BAD_ALLOW,
                line: a.line,
                message: format!("allow names unknown rule `{}`", a.rule),
            });
        } else if !used[i] {
            out.push(Finding {
                rule: UNUSED_ALLOW,
                line: a.line,
                message: format!("allow({}, …) suppresses nothing here; remove it", a.rule),
            });
        }
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// Drops token runs belonging to `#[cfg(test)] mod … { … }` blocks: test-only
/// code may use whatever it likes (test clocks, ad-hoc operators) without
/// tripping the production rules.
fn strip_cfg_test(toks: &[Tok]) -> Vec<Tok> {
    let mut skip: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if is_cfg_test {
            // Expect `mod <name> {` next; anything else keeps the tokens.
            let j = i + 7;
            if toks.get(j).is_some_and(|t| t.text == "mod")
                && toks.get(j + 2).is_some_and(|t| t.text == "{")
            {
                if let Some(end) = matching_brace(toks, j + 2) {
                    skip.push((i, end));
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    toks.iter()
        .enumerate()
        .filter(|(idx, _)| !skip.iter().any(|&(a, b)| *idx >= a && *idx <= b))
        .map(|(_, t)| t.clone())
        .collect()
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// R1: unordered-iter
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

/// Idents that mark a line as feeding a sorting adapter: a flagged iteration
/// whose surrounding statement sorts (or collects into an ordered container)
/// is deterministic by construction.
const SORT_ADAPTERS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
];

fn check_unordered_iter(toks: &[Tok]) -> Vec<Finding> {
    let names = collect_hash_names(toks);
    if names.is_empty() {
        return Vec::new();
    }
    let sort_lines: BTreeSet<u32> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && SORT_ADAPTERS.contains(&t.text.as_str()))
        .map(|t| t.line)
        .collect();
    let sorted_nearby = |line: u32| (line..=line + 2).any(|l| sort_lines.contains(&l));

    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `map.iter()`, `self.map.keys()`, …
        if names.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.text == ".")
            && toks
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && toks.get(i + 3).is_some_and(|p| p.text == "(")
        {
            let line = toks[i + 2].line;
            if !sorted_nearby(line) {
                out.push(Finding {
                    rule: R1_UNORDERED_ITER,
                    line,
                    message: format!(
                        "iteration order of `{}.{}()` is unordered and feeds a digest-path crate; \
                         use BTreeMap/BTreeSet, sort the result, or justify with an allow",
                        t.text,
                        toks[i + 2].text
                    ),
                });
            }
        }
        // `for x in &map {` / `for (k, v) in &mut self.map {`
        if t.text == "for" {
            if let Some(f) = check_for_loop(toks, i, &names) {
                if !sorted_nearby(f.line) {
                    out.push(f);
                }
            }
        }
    }
    out
}

/// Detects `for … in [&|&mut] [self.]name {` where `name` is a known
/// hash-container binding.
fn check_for_loop(toks: &[Tok], for_idx: usize, names: &BTreeSet<String>) -> Option<Finding> {
    // Find the `in` at nesting depth 0 (patterns may contain parens).
    let mut depth = 0i64;
    let mut in_idx = None;
    for (i, t) in toks.iter().enumerate().skip(for_idx + 1).take(64) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 && t.kind == TokKind::Ident => {
                in_idx = Some(i);
                break;
            }
            "{" => return None,
            _ => {}
        }
    }
    let in_idx = in_idx?;
    // Collect the iterated expression up to the loop body `{`.
    let mut expr: Vec<&Tok> = Vec::new();
    for t in toks.iter().skip(in_idx + 1).take(16) {
        if t.text == "{" {
            break;
        }
        expr.push(t);
    }
    // Strip leading `&` / `mut`.
    let mut s = 0usize;
    while s < expr.len() && (expr[s].text == "&" || expr[s].text == "mut") {
        s += 1;
    }
    let expr = &expr[s..];
    // Accept `name` or `receiver.name` chains ending in a known name.
    let last = expr.last()?;
    let shape_ok = match expr.len() {
        1 => expr[0].kind == TokKind::Ident,
        3 => expr[0].kind == TokKind::Ident && expr[1].text == "." && last.kind == TokKind::Ident,
        _ => false,
    };
    if shape_ok && names.contains(&last.text) {
        return Some(Finding {
            rule: R1_UNORDERED_ITER,
            line: last.line,
            message: format!(
                "`for … in {}` iterates a HashMap/HashSet in unordered order on the digest path; \
                 use BTreeMap/BTreeSet, sort first, or justify with an allow",
                last.text
            ),
        });
    }
    None
}

/// Names bound to `HashMap`/`HashSet` values in this file: struct fields and
/// params (`name: HashMap<…>`) and let-bindings (`let name = HashMap::new()`).
fn collect_hash_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over a `std::collections::` style path prefix.
        let mut j = i;
        while j >= 2 && toks[j - 1].text == "::" && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        // `name : [&] [mut] HashMap<…>` — field, param, or typed binding
        // (the reference/mut sigils sit between the colon and the type).
        let mut q = j;
        while q >= 1 && (toks[q - 1].text == "&" || toks[q - 1].text == "mut") {
            q -= 1;
        }
        if q >= 2 && toks[q - 1].text == ":" && toks[q - 2].kind == TokKind::Ident {
            names.insert(toks[q - 2].text.clone());
            continue;
        }
        // `let [mut] name = HashMap::new()` — walk back to the statement's
        // `let` (bounded by statement/block punctuation).
        let mut k = i;
        while k > 0 {
            let p = &toks[k - 1];
            if p.text == ";" || p.text == "{" || p.text == "}" {
                break;
            }
            if p.text == "let" {
                let mut n = k;
                if toks.get(n).is_some_and(|t| t.text == "mut") {
                    n += 1;
                }
                if toks.get(n).is_some_and(|t| t.kind == TokKind::Ident) {
                    names.insert(toks[n].text.clone());
                }
                break;
            }
            k -= 1;
        }
    }
    names
}

// ---------------------------------------------------------------------------
// R2: ambient-authority
// ---------------------------------------------------------------------------

fn check_ambient_authority(toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let path2 = |a: &str, b: &str| {
            t.text == a
                && toks.get(i + 1).is_some_and(|n| n.text == "::")
                && toks.get(i + 2).is_some_and(|m| m.text == b)
        };
        let hit = if path2("Instant", "now") {
            Some("`Instant::now()` reads the wall clock; simulation code must use SimTime")
        } else if path2("SystemTime", "now") || path2("SystemTime", "UNIX_EPOCH") {
            Some("`SystemTime` reads the wall clock; simulation code must use SimTime")
        } else if t.text == "thread_rng" {
            Some("`thread_rng()` is ambient randomness; use a seeded SimRng stream")
        } else if path2("rand", "random") {
            Some("`rand::random()` is ambient randomness; use a seeded SimRng stream")
        } else if path2("thread", "spawn") {
            Some(
                "`thread::spawn` introduces scheduling nondeterminism; route parallelism \
                 through the deterministic indexed pool",
            )
        } else {
            None
        };
        if let Some(msg) = hit {
            out.push(Finding {
                rule: R2_AMBIENT_AUTHORITY,
                line: t.line,
                message: msg.to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R3: ckpt-contract
// ---------------------------------------------------------------------------

const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

const MUT_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "push_str",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "clear",
    "extend",
    "drain",
    "take",
    "replace",
    "entry",
    "retain",
    "truncate",
    "append",
    "record",
    "merge",
    "advance",
    "get_or_insert_with",
];

struct ImplBlock {
    type_name: String,
    is_operator: bool,
    line: u32,
    start: usize,
    end: usize,
}

fn check_ckpt_contract(toks: &[Tok]) -> Vec<Finding> {
    let impls = collect_impls(toks);
    let structs_with_fields = collect_structs_with_fields(toks);

    // Mutation evidence is gathered from *every* impl block of a type, so
    // state mutated in inherent helper methods still counts.
    let mut mutated: BTreeSet<&str> = BTreeSet::new();
    for b in &impls {
        if block_mutates_self(&toks[b.start..=b.end]) {
            mutated.insert(&b.type_name);
        }
    }

    let mut out = Vec::new();
    for b in impls.iter().filter(|b| b.is_operator) {
        if !structs_with_fields.contains(&b.type_name) || !mutated.contains(b.type_name.as_str()) {
            continue;
        }
        let body = &toks[b.start..=b.end];
        let has = |name: &str| {
            body.windows(2)
                .any(|w| w[0].text == "fn" && w[1].text == name)
        };
        let (ckpt, restore) = (has("checkpoint"), has("restore"));
        if !(ckpt && restore) {
            out.push(Finding {
                rule: R3_CKPT_CONTRACT,
                line: b.line,
                message: format!(
                    "`{}` mutates per-instance state but its `impl Operator` {} — implement both \
                     `checkpoint` and `restore`, or declare the logical op `not_checkpointable()` \
                     and record that decision in an allow",
                    b.type_name,
                    match (ckpt, restore) {
                        (false, false) => "overrides neither `checkpoint` nor `restore`",
                        (true, false) => "overrides `checkpoint` but not `restore`",
                        (false, true) => "overrides `restore` but not `checkpoint`",
                        _ => unreachable!(),
                    }
                ),
            });
        }
    }
    out
}

/// All `impl` blocks in the file, with the implemented type's name and
/// whether the block is an `impl Operator for …`.
fn collect_impls(toks: &[Tok]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "impl" || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Scan the header up to the opening `{` (depth-0).
        let mut depth = 0i64;
        let mut open = None;
        for (j, t) in toks.iter().enumerate().skip(i + 1).take(64) {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                "<<" => depth += 2,
                ">>" => depth -= 2,
                "{" if depth <= 0 => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => {}
            }
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let header: Vec<&Tok> = toks[i + 1..open].iter().collect();
        let for_pos = header
            .iter()
            .position(|t| t.kind == TokKind::Ident && t.text == "for");
        // The implemented type: the path after `for` (trait impl) or the
        // whole header (inherent impl). Its name is the first ident of the
        // type path outside generics.
        let type_toks: Vec<&&Tok> = match for_pos {
            Some(p) => header.iter().skip(p + 1).collect(),
            None => header.iter().collect(),
        };
        let type_name = first_type_ident(&type_toks);
        let is_operator = match for_pos {
            Some(p) => header[..p]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident)
                .is_some_and(|t| t.text == "Operator"),
            None => false,
        };
        let end = matching_brace(toks, open).unwrap_or(toks.len() - 1);
        if let Some(type_name) = type_name {
            out.push(ImplBlock {
                type_name,
                is_operator,
                line: toks[i].line,
                start: open,
                end,
            });
        }
        i = open + 1;
    }
    out
}

/// First identifier of a type path, skipping a leading generics group
/// (`impl<'m> Expander<'m>` → `Expander`).
fn first_type_ident(toks: &[&&Tok]) -> Option<String> {
    let mut depth = 0i64;
    let mut iter = toks.iter().peekable();
    while let Some(t) = iter.next() {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            _ if depth == 0 && t.kind == TokKind::Ident => {
                // Skip path prefixes: `crate :: op :: Operator` — keep the
                // *last* ident of the leading path.
                let mut name = t.text.clone();
                while iter.peek().is_some_and(|n| n.text == "::") {
                    iter.next();
                    if let Some(n) = iter.next() {
                        name = n.text.clone();
                    }
                }
                return Some(name);
            }
            _ => {}
        }
    }
    None
}

/// Struct names declared in this file with at least one field.
fn collect_structs_with_fields(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].text != "struct" || toks[i].kind != TokKind::Ident {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        // Find the struct body delimiter at depth 0 (skipping generics and
        // where clauses).
        let mut depth = 0i64;
        for (j, t) in toks.iter().enumerate().skip(i + 2).take(128) {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                ";" if depth <= 0 => break, // unit struct or tuple struct end
                "(" if depth <= 0 => {
                    // Tuple struct: non-empty parens mean fields.
                    if toks.get(j + 1).is_some_and(|n| n.text != ")") {
                        out.insert(name_tok.text.clone());
                    }
                    break;
                }
                "{" if depth <= 0 => {
                    // Named struct: any `ident :` at depth 1 means fields.
                    if let Some(end) = matching_brace(toks, j) {
                        let mut d = 0i64;
                        for k in j..end {
                            match toks[k].text.as_str() {
                                "{" | "(" | "[" => d += 1,
                                "}" | ")" | "]" => d -= 1,
                                ":" if d == 1
                                    && toks[k - 1].kind == TokKind::Ident
                                    && toks.get(k + 1).is_some_and(|n| n.text != ":") =>
                                {
                                    out.insert(name_tok.text.clone());
                                    break;
                                }
                                _ => {}
                            }
                        }
                    }
                    break;
                }
                _ => {}
            }
        }
    }
    out
}

/// Does the block mutate `self` state? (`self.x = …`, `self.x += …`, or
/// `self.x.push(…)`-style calls from the mutating-method list.)
fn block_mutates_self(toks: &[Tok]) -> bool {
    for i in 0..toks.len() {
        if toks[i].text != "self" || toks[i].kind != TokKind::Ident {
            continue;
        }
        if toks.get(i + 1).is_none_or(|t| t.text != ".") {
            continue;
        }
        let Some(field) = toks.get(i + 2) else {
            continue;
        };
        if field.kind != TokKind::Ident {
            continue;
        }
        match toks.get(i + 3) {
            Some(t) if ASSIGN_OPS.contains(&t.text.as_str()) => return true,
            Some(t)
                if t.text == "."
                    && toks
                        .get(i + 4)
                        .is_some_and(|m| MUT_METHODS.contains(&m.text.as_str()))
                    && toks.get(i + 5).is_some_and(|p| p.text == "(") =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------------
// R4: float-digest
// ---------------------------------------------------------------------------

/// Type names whose impl blocks are digest contexts.
const DIGEST_TYPES: &[&str] = &["StateWriter", "StateReader", "DigestWriter"];

/// Idents that mark a bit-preserving float encoding — a digest-context
/// function routing floats through these is canonical by construction.
fn is_bit_preserving(text: &str) -> bool {
    text.contains("to_bits") || text.contains("from_bits") || text.ends_with("_le")
}

fn check_float_digest(toks: &[Tok]) -> Vec<Finding> {
    let impls = collect_impls(toks);
    let digest_impl_ranges: Vec<(usize, usize)> = impls
        .iter()
        .filter(|b| DIGEST_TYPES.contains(&b.type_name.as_str()))
        .map(|b| (b.start, b.end))
        .collect();

    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "fn" || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            break;
        };
        // Signature runs to the body `{` (or `;` for a bodyless decl).
        let mut open = None;
        for (j, t) in toks.iter().enumerate().skip(i + 2).take(256) {
            if t.text == "{" {
                open = Some(j);
                break;
            }
            if t.text == ";" {
                break;
            }
        }
        let Some(open) = open else {
            i += 2;
            continue;
        };
        let Some(end) = matching_brace(toks, open) else {
            i += 2;
            continue;
        };
        let sig = &toks[i..open];
        let in_digest_impl = digest_impl_ranges.iter().any(|&(a, b)| i >= a && end <= b);
        let is_context = name.text.contains("digest")
            || in_digest_impl
            || sig
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "DigestWriter");
        if is_context {
            let span = &toks[i..=end];
            let exempt = span
                .iter()
                .any(|t| t.kind == TokKind::Ident && is_bit_preserving(&t.text));
            if !exempt {
                let mut seen_lines = BTreeSet::new();
                for t in span {
                    let is_float_ty =
                        t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64");
                    let is_float_lit = t.kind == TokKind::Number
                        && (t.text.ends_with("f32") || t.text.ends_with("f64"));
                    if (is_float_ty || is_float_lit) && seen_lines.insert(t.line) {
                        out.push(Finding {
                            rule: R4_FLOAT_DIGEST,
                            line: t.line,
                            message: format!(
                                "float value in digest context `{}` without a bit-preserving \
                                 encoding (`to_bits`/`from_bits`/`*_le`); floats must enter \
                                 digests and checkpoints as bits, never as formatted text",
                                name.text
                            ),
                        });
                    }
                }
            }
        }
        i = open + 1;
    }
    out
}
