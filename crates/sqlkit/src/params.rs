//! Literal-parameter extraction.
//!
//! Templating replaces literals with `?`; diagnosis sometimes needs to go
//! the other way — given a raw statement, list the literal values that the
//! placeholders stand for (e.g. to show a DBA a *sample* query for a
//! template, or to check whether a template's parameters are skewed). The
//! extraction mirrors [`crate::template::normalize`]'s decisions exactly:
//! the `i`-th extracted parameter corresponds to the `i`-th emitted `?`,
//! with collapsed `IN`-lists / multi-row `VALUES` contributing their
//! *full* value list to the single surviving placeholder.

use crate::lexer::{tokenize, Token, TokenKind};

/// One extracted literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A numeric literal, kept as its source text (no precision loss).
    Number(String),
    /// A string literal (unescaped).
    Str(String),
    /// An explicit `?` in the source — no value available.
    Placeholder,
}

impl Literal {
    /// The literal's source-ish text.
    pub fn text(&self) -> &str {
        match self {
            Literal::Number(s) | Literal::Str(s) => s,
            Literal::Placeholder => "?",
        }
    }
}

/// A parameter slot: the literals that one template placeholder stands
/// for. Scalar positions hold exactly one literal; collapsed lists hold
/// all of their members.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSlot {
    pub values: Vec<Literal>,
}

impl ParamSlot {
    /// True when the slot came from a collapsed list.
    pub fn is_list(&self) -> bool {
        self.values.len() > 1
    }
}

/// Extracts the parameter slots of a raw statement, in placeholder order.
pub fn extract_params(sql: &str) -> Vec<ParamSlot> {
    let tokens = tokenize(sql);
    let mut slots: Vec<ParamSlot> = Vec::new();
    let mut i = 0;
    // Mirrors template::normalize_tokens's value-position tracking.
    let mut prev_is_value = false;
    // Index (into slots) of the list currently being collapsed, if the
    // emitted tail is `( ?`.
    let mut open_list: Option<usize> = None;
    // Multi-row chaining state (`(…) , (…)` as in batched VALUES): the
    // rows all collapse into the slot of the first row.
    let mut last_closed_list: Option<usize> = None;
    let mut chain_pending = false;

    while i < tokens.len() {
        let t = &tokens[i];
        // Signed literal in value position folds into one literal.
        if t.kind == TokenKind::Operator
            && (t.text == "-" || t.text == "+")
            && !prev_is_value
            && tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Number)
        {
            let lit = Literal::Number(format!("{}{}", t.text, tokens[i + 1].text));
            push_literal(&mut slots, &mut open_list, lit, prev_open(&tokens, i));
            prev_is_value = true;
            i += 2;
            continue;
        }
        match t.kind {
            TokenKind::Number | TokenKind::Str | TokenKind::Placeholder => {
                let lit = match t.kind {
                    TokenKind::Number => Literal::Number(t.text.clone()),
                    TokenKind::Str => Literal::Str(t.text.clone()),
                    _ => Literal::Placeholder,
                };
                push_literal(&mut slots, &mut open_list, lit, prev_open(&tokens, i));
                prev_is_value = true;
            }
            TokenKind::Punct if t.text == "(" => {
                prev_is_value = false;
                // A paren opening right after `) ,` chains a multi-row
                // list back into the previous row's slot; otherwise it may
                // start a new list.
                open_list = if chain_pending { last_closed_list } else { None };
                chain_pending = false;
            }
            TokenKind::Punct if t.text == "," => {
                prev_is_value = false;
                chain_pending = last_closed_list.is_some() && prev_was_close(&tokens, i);
                // keep open_list: `, literal` continues the collapse
            }
            TokenKind::Punct if t.text == ")" => {
                prev_is_value = true;
                last_closed_list = open_list.take();
                chain_pending = false;
            }
            TokenKind::Punct | TokenKind::Operator => {
                prev_is_value = false;
                open_list = None;
                last_closed_list = None;
                chain_pending = false;
            }
            TokenKind::Word | TokenKind::QuotedIdent => {
                prev_is_value = true;
                open_list = None;
                last_closed_list = None;
                chain_pending = false;
            }
        }
        i += 1;
    }
    slots
}

/// Was the token before index `i` (skipping nothing) an opening paren or a
/// comma chaining from one — i.e. is this literal part of a parenthesized
/// list?
fn prev_open(tokens: &[Token], i: usize) -> bool {
    matches!(
        tokens.get(i.wrapping_sub(1)),
        Some(p) if p.kind == TokenKind::Punct && (p.text == "(" || p.text == ",")
    )
}

/// Was the token before index `i` a closing paren (for `) , (` chains)?
fn prev_was_close(tokens: &[Token], i: usize) -> bool {
    matches!(
        tokens.get(i.wrapping_sub(1)),
        Some(p) if p.kind == TokenKind::Punct && p.text == ")"
    )
}

fn push_literal(
    slots: &mut Vec<ParamSlot>,
    open_list: &mut Option<usize>,
    lit: Literal,
    in_list_position: bool,
) {
    match open_list {
        Some(idx) if in_list_position => slots[*idx].values.push(lit),
        _ => {
            slots.push(ParamSlot { values: vec![lit] });
            if in_list_position {
                *open_list = Some(slots.len() - 1);
            } else {
                *open_list = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::normalize;

    /// The invariant the module promises: slot count == placeholder count
    /// of the normalized template.
    fn assert_slots_match_template(sql: &str) -> Vec<ParamSlot> {
        let slots = extract_params(sql);
        let placeholders = normalize(sql).matches('?').count();
        assert_eq!(
            slots.len(),
            placeholders,
            "slots vs placeholders for {sql:?} → {}",
            normalize(sql)
        );
        slots
    }

    #[test]
    fn scalars_extract_in_order() {
        let slots = assert_slots_match_template("SELECT * FROM t WHERE a = 5 AND b = 'x'");
        assert_eq!(slots[0].values, vec![Literal::Number("5".into())]);
        assert_eq!(slots[1].values, vec![Literal::Str("x".into())]);
        assert!(!slots[0].is_list());
    }

    #[test]
    fn in_list_collapses_into_one_slot() {
        let slots = assert_slots_match_template("SELECT * FROM t WHERE id IN (1, 2, 3)");
        assert_eq!(slots.len(), 1);
        assert!(slots[0].is_list());
        assert_eq!(
            slots[0].values.iter().map(Literal::text).collect::<Vec<_>>(),
            vec!["1", "2", "3"]
        );
    }

    #[test]
    fn signed_literals_keep_their_sign() {
        let slots = assert_slots_match_template("SELECT * FROM t WHERE a = -7 AND b = +3.5");
        assert_eq!(slots[0].values, vec![Literal::Number("-7".into())]);
        assert_eq!(slots[1].values, vec![Literal::Number("+3.5".into())]);
    }

    #[test]
    fn explicit_placeholders_are_recorded() {
        let slots = assert_slots_match_template("SELECT * FROM t WHERE a = ? AND b = 9");
        assert_eq!(slots[0].values, vec![Literal::Placeholder]);
        assert_eq!(slots[1].values, vec![Literal::Number("9".into())]);
    }

    #[test]
    fn mixed_expression_literals() {
        let slots = assert_slots_match_template("SELECT a - 1 FROM t WHERE b > 2");
        // `a - 1` is binary minus: literal is plain 1.
        assert_eq!(slots[0].values, vec![Literal::Number("1".into())]);
        assert_eq!(slots[1].values, vec![Literal::Number("2".into())]);
    }

    #[test]
    fn multi_row_values_collapse_into_one_slot() {
        let slots =
            assert_slots_match_template("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (3, 'z')");
        assert_eq!(slots.len(), 1);
        assert_eq!(
            slots[0].values.iter().map(Literal::text).collect::<Vec<_>>(),
            vec!["1", "x", "2", "y", "3", "z"]
        );
    }

    #[test]
    fn nested_tuple_in_list() {
        let slots = assert_slots_match_template("SELECT * FROM t WHERE (a, b) IN ((1, 2), (3, 4))");
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].values.len(), 4);
    }

    #[test]
    fn no_literals_no_slots() {
        assert!(extract_params("SELECT a FROM t").is_empty());
        assert!(extract_params("").is_empty());
    }
}
