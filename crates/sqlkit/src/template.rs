//! SQL templates: literal normalization and fingerprinting (Definition II.3).
//!
//! A template replaces every literal with `?`, collapses `IN (?, ?, …)`
//! lists to `IN (?)` (so queries differing only in list arity share a
//! template, matching MySQL digest behaviour), uppercases keywords, and
//! joins tokens with canonical spacing. The 64-bit FNV-1a hash of the
//! canonical text is the template's [`SqlId`].

use crate::classify::{classify, StatementKind};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::tables::extract_tables;
use std::fmt;

/// Unique identifier of a SQL template (the "SQL ID" of Fig. 1).
///
/// Displays as upper-case hex; [`SqlId::short`] yields the 4-hex-digit
/// abbreviation the paper uses in figures (`E6DC`, `2304`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SqlId(pub u64);

impl SqlId {
    /// The four most significant hex digits, as shown in the paper's figures.
    pub fn short(&self) -> String {
        format!("{:04X}", self.0 >> 48)
    }
}

impl fmt::Display for SqlId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016X}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A set of keywords that get uppercased in the canonical template text.
/// Identifiers keep their case so `user_table` and `USER_TABLE` remain
/// distinct templates (they are different objects on case-sensitive
/// filesystems, which is MySQL's default on Linux).
const KEYWORDS: &[&str] = &[
    "select", "from", "where", "and", "or", "not", "in", "insert", "into", "values", "update",
    "set", "delete", "join", "inner", "left", "right", "outer", "cross", "on", "as", "group",
    "by", "order", "having", "limit", "offset", "distinct", "union", "all", "exists", "between",
    "like", "is", "null", "case", "when", "then", "else", "end", "create", "alter", "drop",
    "table", "index", "truncate", "rename", "begin", "commit", "rollback", "start",
    "transaction", "for", "share", "lock", "mode", "show", "status", "call", "replace", "desc",
    "asc", "count", "sum", "avg", "min", "max", "force", "use", "ignore", "straight_join",
];

fn is_keyword(word: &str) -> bool {
    KEYWORDS.iter().any(|k| word.eq_ignore_ascii_case(k))
}

/// Normalizes a token stream into canonical template tokens: literals become
/// `?`, keywords are uppercased, and `IN ( ? , ? , … )` collapses to
/// `IN ( ? )`.
fn normalize_tokens(tokens: &[Token]) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(tokens.len());
    // True when the previously *emitted* token can be the left operand of a
    // binary operator (identifier, `?`, `)`): used to tell the unary minus
    // of a signed literal (`a = -1`) apart from binary subtraction
    // (`a - 1`) so both `-1` and `1` normalize to the same `?`.
    let mut prev_is_value = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        // Fold a sign in literal position into the literal.
        if t.kind == TokenKind::Operator
            && (t.text == "-" || t.text == "+")
            && !prev_is_value
            && tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Number)
        {
            if !ends_with_open_placeholder(&out) {
                out.push("?".to_string());
                prev_is_value = true;
            }
            i += 2;
            continue;
        }
        match t.kind {
            TokenKind::Number | TokenKind::Str | TokenKind::Placeholder => {
                // Collapse a literal list `(?,?,?)` as we emit: if the tail
                // is `( ?` the additional literal is dropped.
                if !ends_with_open_placeholder(&out) {
                    out.push("?".to_string());
                }
                prev_is_value = true;
            }
            TokenKind::Punct if t.text == "," => {
                // If the tail is `( ?` and a literal/placeholder follows,
                // skip the comma and the literal: the list collapses.
                if ends_with_open_placeholder(&out)
                    && matches!(
                        tokens.get(i + 1).map(|n| n.kind),
                        Some(TokenKind::Number | TokenKind::Str | TokenKind::Placeholder)
                    )
                {
                    i += 2; // skip comma and the literal
                    prev_is_value = true; // tail is still `( ?`
                    continue;
                }
                // A signed literal inside a collapsing list: `( ? , -5`.
                if ends_with_open_placeholder(&out)
                    && tokens.get(i + 1).is_some_and(|n| {
                        n.kind == TokenKind::Operator && (n.text == "-" || n.text == "+")
                    })
                    && tokens.get(i + 2).is_some_and(|n| n.kind == TokenKind::Number)
                {
                    i += 3; // skip comma, sign and the literal
                    prev_is_value = true;
                    continue;
                }
                out.push(",".to_string());
                prev_is_value = false;
            }
            TokenKind::Word => {
                if is_keyword(&t.text) {
                    out.push(t.text.to_ascii_uppercase());
                    prev_is_value = false;
                } else {
                    out.push(t.text.clone());
                    prev_is_value = true;
                }
            }
            TokenKind::QuotedIdent => {
                out.push(format!("`{}`", t.text));
                prev_is_value = true;
            }
            _ => {
                prev_is_value = t.text == ")";
                out.push(t.text.clone());
            }
        }
        i += 1;
    }
    collapse_row_lists(&mut out);
    out
}

/// Collapses multi-row literal lists — `( ? ) , ( ? ) , ( ? )` → `( ? )` —
/// so `INSERT … VALUES (1,2),(3,4),(5,6)` shares a template with the
/// single-row form, matching MySQL digest behaviour for batched inserts.
fn collapse_row_lists(out: &mut Vec<String>) {
    let mut i = 0;
    while out.len() >= i + 7 {
        let row = ["(", "?", ")"];
        let first_is_row = out[i..i + 3].iter().map(String::as_str).eq(row);
        if first_is_row {
            // Delete every following `, ( ? )` group.
            while out.len() >= i + 7
                && out[i + 3] == ","
                && out[i + 4..i + 7].iter().map(String::as_str).eq(row)
            {
                out.drain(i + 3..i + 7);
            }
        }
        i += 1;
    }
}

/// True when the emitted tail is `( ?` — i.e. we are inside a literal list
/// whose first element was already emitted and further elements collapse.
fn ends_with_open_placeholder(out: &[String]) -> bool {
    let n = out.len();
    n >= 2 && out[n - 1] == "?" && out[n - 2] == "("
}

/// Joins canonical tokens with template spacing: no space before commas,
/// closing parens, dots, or semicolons; no space after opening parens/dots.
fn join_tokens(tokens: &[String]) -> String {
    let mut s = String::new();
    for (i, tok) in tokens.iter().enumerate() {
        let no_space_before = matches!(tok.as_str(), "," | ")" | ";" | ".");
        let prev_no_space_after =
            i > 0 && matches!(tokens[i - 1].as_str(), "(" | ".");
        if i > 0 && !no_space_before && !prev_no_space_after {
            s.push(' ');
        }
        s.push_str(tok);
    }
    s
}

/// Normalizes a raw SQL statement into canonical template text.
///
/// ```
/// use pinsql_sqlkit::normalize;
/// assert_eq!(
///     normalize("select * from user_table where uid = 123456"),
///     "SELECT * FROM user_table WHERE uid = ?"
/// );
/// assert_eq!(
///     normalize("SELECT a FROM t WHERE id IN (1, 2, 3)"),
///     "SELECT a FROM t WHERE id IN (?)"
/// );
/// ```
pub fn normalize(sql: &str) -> String {
    join_tokens(&normalize_tokens(&tokenize(sql)))
}

/// Fingerprints a raw SQL statement to its template's [`SqlId`].
pub fn fingerprint(sql: &str) -> SqlId {
    let tokens = normalize_tokens(&tokenize(sql));
    let mut hash = FNV_OFFSET;
    for tok in &tokens {
        hash = fnv1a(tok.as_bytes(), hash);
        hash = fnv1a(&[0x1f], hash); // token separator
    }
    SqlId(hash)
}

/// A SQL template: canonical text, fingerprint, statement kind, and the
/// tables the statement references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlTemplate {
    pub id: SqlId,
    pub text: String,
    pub kind: StatementKind,
    pub tables: Vec<String>,
}

impl SqlTemplate {
    /// Builds the template of a raw SQL statement.
    pub fn of(sql: &str) -> Self {
        let tokens = tokenize(sql);
        let norm = normalize_tokens(&tokens);
        let mut hash = FNV_OFFSET;
        for tok in &norm {
            hash = fnv1a(tok.as_bytes(), hash);
            hash = fnv1a(&[0x1f], hash);
        }
        Self {
            id: SqlId(hash),
            text: join_tokens(&norm),
            kind: classify(&tokens),
            tables: extract_tables(&tokens),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_become_placeholders() {
        assert_eq!(
            normalize("SELECT * FROM t WHERE a = 5 AND b = 'x' AND c = 2.5"),
            "SELECT * FROM t WHERE a = ? AND b = ? AND c = ?"
        );
    }

    #[test]
    fn keywords_uppercase_identifiers_preserved() {
        assert_eq!(
            normalize("select MyCol from MyTable where MyCol > 1"),
            "SELECT MyCol FROM MyTable WHERE MyCol > ?"
        );
    }

    #[test]
    fn in_list_collapses() {
        let a = normalize("SELECT * FROM t WHERE id IN (1,2,3)");
        let b = normalize("SELECT * FROM t WHERE id IN (9)");
        let c = normalize("SELECT * FROM t WHERE id IN (1, 2, 3, 4, 5, 6, 7)");
        assert_eq!(a, "SELECT * FROM t WHERE id IN (?)");
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(fingerprint("SELECT * FROM t WHERE id IN (1,2)"), fingerprint(&c));
    }

    #[test]
    fn values_row_collapses_like_mysql_digest() {
        let a = normalize("INSERT INTO t (a, b) VALUES (1, 'x')");
        // MySQL collapses each literal; our IN-list collapse also folds the
        // VALUES row, which keeps arity-insensitive templates. Structural
        // columns are preserved.
        assert_eq!(a, "INSERT INTO t (a, b) VALUES (?)");
    }

    #[test]
    fn mixed_placeholders_and_literals_share_template() {
        assert_eq!(
            fingerprint("SELECT * FROM t WHERE a = ? AND b = 3"),
            fingerprint("SELECT * FROM t WHERE a = 1 AND b = ?")
        );
    }

    #[test]
    fn column_lists_are_not_collapsed() {
        // `(a, b, c)` is a column list, not a literal list: preserved.
        assert_eq!(
            normalize("INSERT INTO t (a, b, c) VALUES (1, 2, 3)"),
            "INSERT INTO t (a, b, c) VALUES (?)"
        );
    }

    #[test]
    fn multi_row_values_collapse() {
        let one = normalize("INSERT INTO t (a, b) VALUES (1, 2)");
        let three = normalize("INSERT INTO t (a, b) VALUES (1, 2), (3, 4), (5, 6)");
        assert_eq!(one, "INSERT INTO t (a, b) VALUES (?)");
        assert_eq!(one, three);
        assert_eq!(
            fingerprint("INSERT INTO t (a) VALUES (1)"),
            fingerprint("INSERT INTO t (a) VALUES (1), (2), (3), (4)")
        );
        // Tuple comparisons elsewhere are unaffected: `(a, b)` is a column
        // list, not a literal row.
        assert_eq!(
            normalize("SELECT * FROM t WHERE (a, b) IN ((1, 2))"),
            "SELECT * FROM t WHERE (a, b) IN ((?))"
        );
    }

    #[test]
    fn signed_literals_share_template_with_unsigned() {
        assert_eq!(
            fingerprint("SELECT * FROM t WHERE a = -1"),
            fingerprint("SELECT * FROM t WHERE a = 0")
        );
        assert_eq!(
            normalize("SELECT * FROM t WHERE a = -1.5"),
            "SELECT * FROM t WHERE a = ?"
        );
        assert_eq!(
            normalize("SELECT * FROM t WHERE a IN (-1, 2, -3)"),
            "SELECT * FROM t WHERE a IN (?)"
        );
        // Binary subtraction keeps its operator.
        assert_eq!(normalize("SELECT a - 1 FROM t"), "SELECT a - ? FROM t");
        assert_eq!(normalize("SELECT * FROM t WHERE a - 1 > 0"), "SELECT * FROM t WHERE a - ? > ?");
    }

    #[test]
    fn short_id_is_four_hex_digits() {
        let id = fingerprint("SELECT 1");
        assert_eq!(id.short().len(), 4);
        assert!(id.short().chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(id.to_string().len(), 16);
    }

    #[test]
    fn whitespace_and_comments_do_not_change_template() {
        let a = fingerprint("SELECT a FROM t WHERE x = 1");
        let b = fingerprint("  SELECT /* hint */ a\n FROM t -- c\n WHERE x = 99  ");
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_separates_token_boundaries() {
        // "ab, c" vs "a, bc" must hash differently despite equal
        // concatenated text.
        assert_ne!(fingerprint("SELECT ab, c FROM t"), fingerprint("SELECT a, bc FROM t"));
    }

    #[test]
    fn empty_statement() {
        let t = SqlTemplate::of("");
        assert_eq!(t.text, "");
        assert_eq!(t.kind, StatementKind::Other);
        assert!(t.tables.is_empty());
    }

    #[test]
    fn quoted_identifiers_kept_distinct_from_bare() {
        assert_ne!(fingerprint("SELECT `a` FROM t"), fingerprint("SELECT a FROM t"));
    }
}
