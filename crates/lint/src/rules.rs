//! The determinism & wire-safety rule set for Rust sources.
//!
//! Every execution mode of the simulator (lockstep dense/sparse, parallel,
//! mailbox) and every checkpoint/resume must be **byte-identical**; these
//! rules statically reject the nondeterminism sources that would break that
//! invariant, plus the panic paths that would turn hostile bytes into crashes
//! instead of typed errors:
//!
//! | rule | scope | says |
//! |------|-------|------|
//! | D01  | the protocol paths ([`PROTOCOL_CRATES`]: `crates/distsim`, `crates/core`, the shard partitioner) | no `HashMap`/`HashSet`: hash iteration order is nondeterministic — use `BTreeMap`/`BTreeSet` or an indexed arena (keyed-lookup-only uses carry an allow annotation) |
//! | D02  | whole workspace | `Instant::now` / `SystemTime` only inside the metrics allowlist ([`D02_ALLOWLIST`]); wall clock must never feed a deterministic counter |
//! | D03  | the protocol paths ([`PROTOCOL_CRATES`]) | no direct `rand::` / `thread_rng` / `from_entropy` / `OsRng`: protocol randomness routes through the seeded splitmix64 helpers (`dkc_distsim::faults`) |
//! | D04  | the defensive decode files ([`D04_DECODE_PATHS`]) | no `panic!` family, `.unwrap()`, or `.expect()`: decode paths return typed errors, never panic |
//! | D05  | whole workspace | every `unsafe` needs a `// SAFETY:` comment on the same or one of the two preceding lines |
//! | D06  | every crate root (`lib.rs`, `main.rs`, `src/bin/*.rs`) | must carry `#![deny(deprecated)]` so retired APIs cannot creep back into internal call sites |
//!
//! `#[cfg(test)]` / `#[test]` items are exempt from D01–D04 (tests exercise
//! rejection paths and use the vendored seeded `StdRng` freely); D05 and D06
//! apply everywhere.
//!
//! ## The escape hatch
//!
//! `// lint: allow(Dxx) — reason` suppresses a diagnostic on its own line or
//! the line directly below, but only with a non-empty justification; a bare
//! `lint: allow(...)` without one is itself an error (**L01**), and an allow
//! that suppresses nothing is a warning (**L02**) so stale annotations are
//! garbage-collected.

use crate::lexer::{lex_rust, Comment, Lexed, Tok, TokKind};

/// Files allowed to read the wall clock (metrics-only timing). Matched as
/// path suffixes against `/`-separated workspace-relative paths.
pub const D02_ALLOWLIST: &[&str] = &[
    "crates/distsim/src/network.rs",
    "crates/bench/src/experiments.rs",
];

/// The defensive decode paths D04 protects: wire readers, checkpoint decode,
/// and dataset parsers. Hostile bytes through these files must surface as
/// typed errors, never as panics.
pub const D04_DECODE_PATHS: &[&str] = &[
    "crates/distsim/src/wire.rs",
    "crates/distsim/src/shard.rs",
    "crates/distsim/src/checkpoint.rs",
    "crates/core/src/checkpoint.rs",
    "crates/graph/src/ingest.rs",
];

/// Crates whose sources are protocol paths for D01/D03. Matched by
/// `contains`, so an entry may scope a whole crate (trailing slash) or a
/// single file: the shard partitioner lives in `dkc-graph` but its hash
/// assignment is protocol state, so it is held to the same determinism rules.
pub const PROTOCOL_CRATES: &[&str] = &[
    "crates/distsim/",
    "crates/core/",
    "crates/graph/src/partition.rs",
];

/// Diagnostic severity. Errors always fail the run; warnings fail only under
/// `--deny-all` (the CI configuration).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, annotated or not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D01`…`D06`, `S01`/`S02`, `L01`/`L02`).
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
    /// Whether a well-formed `lint: allow(...)` suppressed this finding.
    pub allowed: bool,
    /// The justification string of the suppressing annotation.
    pub justification: Option<String>,
}

impl Diagnostic {
    /// Whether this diagnostic fails the run under the given strictness.
    pub fn is_failure(&self, deny_all: bool) -> bool {
        !self.allowed && (self.severity == Severity::Error || deny_all)
    }
}

/// A parsed `lint: allow(RULE) — reason` annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowComment {
    pub rule: String,
    pub reason: String,
    pub line: usize,
    /// Standalone comment lines cover the next line too.
    pub covers_next_line: bool,
}

/// The outcome of looking at one comment: not an annotation at all, a good
/// one, or a malformed one (kept for the L01 diagnostic).
pub enum AllowParse {
    NotAnAllow,
    Ok(AllowComment),
    Malformed { line: usize, problem: String },
}

/// Parses the allow-comment grammar:
/// `lint: allow(<RULE>) <— | -- | :> <non-empty justification>`.
/// Leading doc-comment sigils (`/`, `!`) and whitespace are ignored.
pub fn parse_allow_comment(c: &Comment) -> AllowParse {
    let text = c.text.trim_start_matches(['/', '!']).trim();
    let Some(rest) = text.strip_prefix("lint:") else {
        return AllowParse::NotAnAllow;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return AllowParse::Malformed {
            line: c.line,
            problem: "expected `allow(<RULE>)` after `lint:`".into(),
        };
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return AllowParse::Malformed {
            line: c.line,
            problem: "expected `(` after `lint: allow`".into(),
        };
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Malformed {
            line: c.line,
            problem: "unclosed rule id: expected `)`".into(),
        };
    };
    let rule = rest[..close].trim();
    let well_formed_id = rule.len() >= 2
        && rule.starts_with(|ch: char| ch.is_ascii_uppercase())
        && rule[1..].chars().all(|ch| ch.is_ascii_digit());
    if !well_formed_id {
        return AllowParse::Malformed {
            line: c.line,
            problem: format!("bad rule id {rule:?} (expected e.g. `D01`)"),
        };
    }
    let after = rest[close + 1..].trim_start();
    let reason = ["—", "--", "-", ":"]
        .iter()
        .find_map(|sep| after.strip_prefix(sep))
        .map(str::trim);
    match reason {
        Some(r) if !r.is_empty() => AllowParse::Ok(AllowComment {
            rule: rule.to_string(),
            reason: r.to_string(),
            line: c.line,
            covers_next_line: !c.trailing,
        }),
        _ => AllowParse::Malformed {
            line: c.line,
            problem: format!(
                "allow({rule}) carries no justification — write \
                 `lint: allow({rule}) — <why this use is sound>`"
            ),
        },
    }
}

/// Computes, per token index, whether the token sits inside a test-gated item
/// (`#[cfg(test)]` / `#[test]` attribute followed by the item's block or
/// terminating semicolon).
fn test_gated_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Scan the attribute body for a `test` identifier.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut is_test_attr = false;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident(s) if s == "test" => is_test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr && j < toks.len() {
                // Skip any further attributes stacked on the same item.
                let mut k = j + 1;
                while k < toks.len()
                    && toks[k].is_punct('#')
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('['))
                {
                    let mut d = 0usize;
                    while k < toks.len() {
                        match &toks[k].kind {
                            TokKind::Punct('[') => d += 1,
                            TokKind::Punct(']') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // The item extends to its matching close brace, or to a `;`
                // reached before any brace opens (e.g. `#[cfg(test)] use …;`).
                let mut brace = 0usize;
                let end = loop {
                    if k >= toks.len() {
                        break toks.len() - 1;
                    }
                    match &toks[k].kind {
                        TokKind::Punct('{') => brace += 1,
                        TokKind::Punct('}') => {
                            brace = brace.saturating_sub(1);
                            if brace == 0 {
                                break k;
                            }
                        }
                        TokKind::Punct(';') if brace == 0 => break k,
                        _ => {}
                    }
                    k += 1;
                };
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// A raw (pre-allow-matching) finding.
pub(crate) struct Raw {
    pub(crate) rule: &'static str,
    pub(crate) line: usize,
    pub(crate) message: String,
}

fn path_has_suffix(path: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|s| path.ends_with(s))
}

fn in_protocol_crate(path: &str) -> bool {
    PROTOCOL_CRATES.iter().any(|c| path.contains(c))
}

/// Whether `path` names a crate root that D06 requires to carry
/// `#![deny(deprecated)]`: `src/lib.rs`, `src/main.rs`, or a `src/bin/*.rs`
/// binary target.
pub fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs")
        || path.ends_with("src/main.rs")
        || (path.contains("/src/bin/") && path.ends_with(".rs"))
        || path == "src/lib.rs"
        || path == "src/main.rs"
}

/// Runs every rule over one Rust source file. `path` is the
/// workspace-relative `/`-separated path (rule scoping keys off it).
pub fn check_rust_file(path: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lex_rust(src);
    let mask = test_gated_mask(&lexed.toks);
    let mut raw: Vec<Raw> = Vec::new();

    scan_tokens(path, &lexed, &mask, &mut raw);
    if is_crate_root(path) {
        check_d06(&lexed, &mut raw);
    }
    check_d05(&lexed, &mut raw);

    apply_allows(path, &lexed.comments, raw)
}

fn scan_tokens(path: &str, lexed: &Lexed, mask: &[bool], raw: &mut Vec<Raw>) {
    let protocol = in_protocol_crate(path);
    let clock_allowed = path_has_suffix(path, D02_ALLOWLIST);
    let decode_path = path_has_suffix(path, D04_DECODE_PATHS);
    let toks = &lexed.toks;

    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let TokKind::Ident(id) = &t.kind else {
            continue;
        };
        let followed_by_path_sep = toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'));
        match id.as_str() {
            "HashMap" | "HashSet" if protocol => raw.push(Raw {
                rule: "D01",
                line: t.line,
                message: format!(
                    "`{id}` in a protocol crate: hash iteration order is nondeterministic \
                     and would break byte-identity across runs — use `BTreeMap`/`BTreeSet` \
                     or an indexed arena for ordered traversal (a keyed-lookup-only use \
                     needs `// lint: allow(D01) — <why>`)"
                ),
            }),
            "Instant"
                if !clock_allowed
                    && followed_by_path_sep
                    && toks.get(i + 3).is_some_and(|a| a.is_ident("now")) =>
            {
                raw.push(Raw {
                    rule: "D02",
                    line: t.line,
                    message: "`Instant::now` outside the metrics allowlist: wall-clock time \
                              must stay confined to timing-only fields (see D02_ALLOWLIST \
                              in dkc-lint)"
                        .into(),
                });
            }
            "SystemTime" if !clock_allowed => raw.push(Raw {
                rule: "D02",
                line: t.line,
                message: "`SystemTime` outside the metrics allowlist: wall-clock time is \
                          nondeterministic and must never feed protocol state"
                    .into(),
            }),
            "rand" if protocol && followed_by_path_sep => raw.push(Raw {
                rule: "D03",
                line: t.line,
                message: "direct `rand::` path in a protocol crate: route randomness through \
                          the seeded splitmix64 helpers (`dkc_distsim::faults`) so every \
                          execution mode replays identically"
                    .into(),
            }),
            "thread_rng" | "from_entropy" | "OsRng" if protocol => raw.push(Raw {
                rule: "D03",
                line: t.line,
                message: format!(
                    "`{id}` seeds from ambient entropy: protocol randomness must be \
                     seeded (splitmix64 helpers) so runs are reproducible"
                ),
            }),
            "panic" | "unreachable" | "todo" | "unimplemented"
                if decode_path && toks.get(i + 1).is_some_and(|a| a.is_punct('!')) =>
            {
                raw.push(Raw {
                    rule: "D04",
                    line: t.line,
                    message: format!(
                        "`{id}!` in a defensive decode path: hostile input must surface \
                         as a typed error, never a panic"
                    ),
                });
            }
            "unwrap" | "expect"
                if decode_path
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|a| a.is_punct('(')) =>
            {
                raw.push(Raw {
                    rule: "D04",
                    line: t.line,
                    message: format!(
                        "`.{id}()` in a defensive decode path: return the typed error \
                         instead (or justify a provably-unreachable case with \
                         `// lint: allow(D04) — <proof>`)"
                    ),
                });
            }
            _ => {}
        }
    }
}

/// D05: every `unsafe` token needs a `SAFETY:` comment on its own line or one
/// of the two lines above. Applies to test code too — safety arguments do not
/// get a holiday in `#[cfg(test)]`.
fn check_d05(lexed: &Lexed, raw: &mut Vec<Raw>) {
    for t in &lexed.toks {
        if !t.is_ident("unsafe") {
            continue;
        }
        let justified = lexed.comments.iter().any(|c| {
            c.text.contains("SAFETY:") && c.line <= t.line && t.line.saturating_sub(c.line) <= 2
        });
        if !justified {
            raw.push(Raw {
                rule: "D05",
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment on the same or the two \
                          preceding lines"
                    .into(),
            });
        }
    }
}

/// D06: the crate root must carry the inner attribute `#![deny(deprecated)]`
/// (possibly alongside other lints in the same `deny(...)` list).
fn check_d06(lexed: &Lexed, raw: &mut Vec<Raw>) {
    let toks = &lexed.toks;
    let mut found = false;
    let mut i = 0;
    while i + 4 < toks.len() {
        if toks[i].is_punct('#')
            && toks[i + 1].is_punct('!')
            && toks[i + 2].is_punct('[')
            && toks[i + 3].is_ident("deny")
            && toks[i + 4].is_punct('(')
        {
            let mut j = i + 5;
            while j < toks.len() && !toks[j].is_punct(']') {
                if toks[j].is_ident("deprecated") {
                    found = true;
                }
                j += 1;
            }
        }
        i += 1;
    }
    if !found {
        raw.push(Raw {
            rule: "D06",
            line: 1,
            message: "crate root lacks `#![deny(deprecated)]`: deprecated wrappers \
                      (e.g. `Network::new` → `NetworkBuilder`) must not creep back \
                      into internal call sites"
                .into(),
        });
    }
}

/// Matches raw findings against allow annotations, emitting the final
/// diagnostics plus L01 (malformed allow) and L02 (unused allow). Shared by
/// the Rust and shell checkers (shell comments parse with the same grammar).
pub(crate) fn apply_allows(path: &str, comments: &[Comment], raw: Vec<Raw>) -> Vec<Diagnostic> {
    let mut allows: Vec<(AllowComment, bool)> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();

    for c in comments {
        match parse_allow_comment(c) {
            AllowParse::NotAnAllow => {}
            AllowParse::Ok(a) => allows.push((a, false)),
            AllowParse::Malformed { line, problem } => diags.push(Diagnostic {
                rule: "L01",
                severity: Severity::Error,
                file: path.to_string(),
                line,
                message: format!("malformed lint annotation: {problem}"),
                allowed: false,
                justification: None,
            }),
        }
    }

    for r in raw {
        let hit = allows.iter_mut().find(|(a, _)| {
            a.rule == r.rule && (a.line == r.line || (a.covers_next_line && a.line + 1 == r.line))
        });
        let (allowed, justification) = match hit {
            Some((a, used)) => {
                *used = true;
                (true, Some(a.reason.clone()))
            }
            None => (false, None),
        };
        diags.push(Diagnostic {
            rule: r.rule,
            severity: Severity::Error,
            file: path.to_string(),
            line: r.line,
            message: r.message,
            allowed,
            justification,
        });
    }

    for (a, used) in &allows {
        if !used {
            diags.push(Diagnostic {
                rule: "L02",
                severity: Severity::Warning,
                file: path.to_string(),
                line: a.line,
                message: format!(
                    "unused `lint: allow({})` — the annotation suppresses nothing; \
                     delete it or move it onto the violating line",
                    a.rule
                ),
                allowed: false,
                justification: None,
            });
        }
    }

    diags.sort_by(|x, y| (x.line, x.rule).cmp(&(y.line, y.rule)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_grammar_accepts_em_dash_double_dash_and_colon() {
        for sep in ["—", "--", ":"] {
            let c = Comment {
                line: 3,
                text: format!(" lint: allow(D01) {sep} keyed lookup only"),
                trailing: true,
            };
            match parse_allow_comment(&c) {
                AllowParse::Ok(a) => {
                    assert_eq!(a.rule, "D01");
                    assert_eq!(a.reason, "keyed lookup only");
                    assert!(!a.covers_next_line);
                }
                _ => panic!("separator {sep:?} rejected"),
            }
        }
    }

    #[test]
    fn allow_without_justification_is_malformed() {
        for text in [
            " lint: allow(D04)",
            " lint: allow(D04) —",
            " lint: allow(D04) --   ",
            " lint: allow()",
            " lint: allow(d04) — lowercase id",
            " lint: allow D04 — no parens",
        ] {
            let c = Comment {
                line: 1,
                text: text.into(),
                trailing: false,
            };
            assert!(
                matches!(parse_allow_comment(&c), AllowParse::Malformed { .. }),
                "{text:?} should be malformed"
            );
        }
    }

    #[test]
    fn unrelated_comments_are_not_allows() {
        let c = Comment {
            line: 1,
            text: " just a note about linting things".into(),
            trailing: false,
        };
        assert!(matches!(parse_allow_comment(&c), AllowParse::NotAnAllow));
    }
}
