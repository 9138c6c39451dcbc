//! SQL substrate for the PinSQL reproduction.
//!
//! PinSQL aggregates raw SQL queries into *SQL templates* (Definition II.3,
//! also called digests): statements that are structurally identical but
//! differ in literal values share a template, identified by a unique SQL ID.
//! This crate implements that machinery from scratch:
//!
//! * [`lexer`] — a hand-written SQL tokenizer (strings, numbers, quoted
//!   identifiers, comments, operators) sufficient for templating the OLTP
//!   dialect the paper's workloads use;
//! * [`template`] — literal normalization (`WHERE uid = 123456` →
//!   `WHERE uid = ?`), `IN`-list collapsing, canonical text, and the 64-bit
//!   FNV-1a fingerprint that becomes the [`SqlId`];
//! * [`classify`] — statement-kind classification (SELECT / UPDATE / DDL /
//!   transaction control…), which the lock model and the repairing module
//!   both key off;
//! * [`tables`] — best-effort referenced-table extraction (FROM / JOIN /
//!   UPDATE / INSERT INTO …), used by the simulator's lock managers.

#![forbid(unsafe_code)]

pub mod classify;
pub mod lexer;
pub mod tables;
pub mod template;

pub use classify::{DdlKind, StatementKind};
pub use lexer::{tokenize, Token, TokenKind};
pub use template::{fingerprint, normalize, SqlId, SqlTemplate};

#[cfg(test)]
mod integration {
    use super::*;

    #[test]
    fn paper_example_templates_share_an_id() {
        // Definition II.3's example: three SELECTs on user_table differing
        // only in the uid literal share one template.
        let qs = [
            "SELECT * FROM user_table WHERE uid = 123456",
            "SELECT * FROM user_table WHERE uid = 654321",
            "select * from user_table where uid = 123321",
        ];
        let ids: Vec<SqlId> = qs.iter().map(|q| SqlTemplate::of(q).id).collect();
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
        let t = SqlTemplate::of(qs[0]);
        assert_eq!(t.text, "SELECT * FROM user_table WHERE uid = ?");
        assert_eq!(t.kind, StatementKind::Select);
        assert_eq!(t.tables, vec!["user_table"]);
    }

    #[test]
    fn different_structure_gets_different_id() {
        let a = SqlTemplate::of("SELECT * FROM t WHERE a = 1");
        let b = SqlTemplate::of("SELECT * FROM t WHERE b = 1");
        assert_ne!(a.id, b.id);
    }
}
