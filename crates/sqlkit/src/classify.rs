//! Statement-kind classification.
//!
//! PinSQL's lock model and repairing module behave differently per statement
//! class: DDL statements take metadata locks (§II, category 3-i), DML writes
//! take row locks (3-ii), reads are blockable victims, and transaction
//! control (`ROLLBACK` in Fig. 1) is tracked but never a lock holder.

use crate::lexer::{Token, TokenKind};

/// Sub-kinds of DDL. All of them take an exclusive metadata lock in the
/// simulator; the repairing module reports them distinctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DdlKind {
    Create,
    Alter,
    Drop,
    Truncate,
    Rename,
}

/// Coarse statement classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatementKind {
    Select,
    /// `SELECT … FOR UPDATE` / `LOCK IN SHARE MODE`: a locking read.
    SelectLocking,
    Insert,
    Update,
    Delete,
    Replace,
    Ddl(DdlKind),
    Begin,
    Commit,
    Rollback,
    Set,
    Show,
    Call,
    Other,
}

/// Classifies a tokenized statement by its leading keyword (and, for
/// SELECT, by a trailing locking clause).
pub fn classify(tokens: &[Token]) -> StatementKind {
    let first = tokens.iter().find(|t| t.kind == TokenKind::Word);
    let Some(first) = first else {
        return StatementKind::Other;
    };
    let up = first.text.to_ascii_uppercase();
    match up.as_str() {
        "SELECT" => {
            if has_locking_clause(tokens) {
                StatementKind::SelectLocking
            } else {
                StatementKind::Select
            }
        }
        "INSERT" => StatementKind::Insert,
        "UPDATE" => StatementKind::Update,
        "DELETE" => StatementKind::Delete,
        "REPLACE" => StatementKind::Replace,
        "CREATE" => StatementKind::Ddl(DdlKind::Create),
        "ALTER" => StatementKind::Ddl(DdlKind::Alter),
        "DROP" => StatementKind::Ddl(DdlKind::Drop),
        "TRUNCATE" => StatementKind::Ddl(DdlKind::Truncate),
        "RENAME" => StatementKind::Ddl(DdlKind::Rename),
        "BEGIN" | "START" => StatementKind::Begin,
        "COMMIT" => StatementKind::Commit,
        "ROLLBACK" => StatementKind::Rollback,
        "SET" => StatementKind::Set,
        "SHOW" => StatementKind::Show,
        "CALL" => StatementKind::Call,
        _ => StatementKind::Other,
    }
}

/// Detects `FOR UPDATE` / `FOR SHARE` / `LOCK IN SHARE MODE` suffixes.
fn has_locking_clause(tokens: &[Token]) -> bool {
    let words: Vec<String> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Word)
        .map(|t| t.text.to_ascii_uppercase())
        .collect();
    words.windows(2).any(|w| w[0] == "FOR" && (w[1] == "UPDATE" || w[1] == "SHARE"))
        || words
            .windows(4)
            .any(|w| w[0] == "LOCK" && w[1] == "IN" && w[2] == "SHARE" && w[3] == "MODE")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn kind(sql: &str) -> StatementKind {
        classify(&tokenize(sql))
    }

    #[test]
    fn dml_kinds() {
        assert_eq!(kind("SELECT 1"), StatementKind::Select);
        assert_eq!(kind("insert into t values (1)"), StatementKind::Insert);
        assert_eq!(kind("UPDATE t SET a = 1"), StatementKind::Update);
        assert_eq!(kind("DELETE FROM t"), StatementKind::Delete);
        assert_eq!(kind("REPLACE INTO t VALUES (1)"), StatementKind::Replace);
    }

    #[test]
    fn locking_reads() {
        assert_eq!(kind("SELECT * FROM t WHERE id = 1 FOR UPDATE"), StatementKind::SelectLocking);
        assert_eq!(kind("SELECT * FROM t FOR SHARE"), StatementKind::SelectLocking);
        assert_eq!(
            kind("SELECT * FROM t WHERE a = 1 LOCK IN SHARE MODE"),
            StatementKind::SelectLocking
        );
    }

    #[test]
    fn ddl_kinds() {
        assert_eq!(kind("CREATE TABLE t (a INT)"), StatementKind::Ddl(DdlKind::Create));
        assert_eq!(kind("ALTER TABLE t ADD COLUMN b INT"), StatementKind::Ddl(DdlKind::Alter));
        assert_eq!(kind("DROP TABLE t"), StatementKind::Ddl(DdlKind::Drop));
        assert_eq!(kind("TRUNCATE TABLE t"), StatementKind::Ddl(DdlKind::Truncate));
        assert_eq!(kind("RENAME TABLE t TO u"), StatementKind::Ddl(DdlKind::Rename));
        assert_eq!(kind("ALTER TABLE t ADD KEY (a)"), StatementKind::Ddl(DdlKind::Alter));
    }

    #[test]
    fn transaction_control() {
        assert_eq!(kind("BEGIN"), StatementKind::Begin);
        assert_eq!(kind("START TRANSACTION"), StatementKind::Begin);
        assert_eq!(kind("COMMIT"), StatementKind::Commit);
        assert_eq!(kind("ROLLBACK"), StatementKind::Rollback);
    }

    #[test]
    fn misc_kinds() {
        assert_eq!(kind("SET autocommit = 0"), StatementKind::Set);
        assert_eq!(kind("SHOW STATUS"), StatementKind::Show);
        assert_eq!(kind("CALL proc(1)"), StatementKind::Call);
        assert_eq!(kind("EXPLAIN SELECT 1"), StatementKind::Other);
        assert_eq!(kind(""), StatementKind::Other);
        assert_eq!(kind("/* just a comment */"), StatementKind::Other);
    }

    #[test]
    fn leading_comment_does_not_confuse_classifier() {
        assert_eq!(kind("/* route=primary */ UPDATE t SET a = 1"), StatementKind::Update);
    }
}
