//! A hand-written SQL tokenizer.
//!
//! The tokenizer is deliberately forgiving: its job is templating and
//! classification, not validation, so malformed input degrades to `Other`
//! tokens rather than errors. It understands:
//!
//! * line comments (`-- …`, `# …`) and block comments (`/* … */`);
//! * single- and double-quoted strings with doubled-quote (`''`) and
//!   backslash escapes;
//! * backquoted identifiers (`` `order` ``);
//! * integer, decimal, and exponent numeric literals, plus `0x…` hex;
//! * multi-character operators (`<=`, `>=`, `<>`, `!=`, `||`, `:=`).

/// The lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Bare word: keyword, function, or identifier. Case is preserved in the
    /// token text; comparison helpers are case-insensitive.
    Word,
    /// Backquoted identifier; text excludes the backquotes.
    QuotedIdent,
    /// Numeric literal.
    Number,
    /// String literal; text excludes the quotes.
    Str,
    /// An explicit `?` placeholder already present in the input.
    Placeholder,
    /// Operator such as `=`, `<=`, `||`.
    Operator,
    /// Punctuation: parentheses, commas, semicolons, dots.
    Punct,
}

/// A lexed token: kind plus its (possibly unescaped) text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
}

impl Token {
    fn new(kind: TokenKind, text: impl Into<String>) -> Self {
        Self { kind, text: text.into() }
    }

    /// Case-insensitive comparison against a keyword (for `Word` tokens).
    pub fn is_word(&self, word: &str) -> bool {
        self.kind == TokenKind::Word && self.text.eq_ignore_ascii_case(word)
    }
}

/// Tokenizes `sql`, skipping whitespace and comments.
pub fn tokenize(sql: &str) -> Vec<Token> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => i = skip_line_comment(bytes, i + 2),
            b'#' => i = skip_line_comment(bytes, i + 1),
            b'/' if bytes.get(i + 1) == Some(&b'*') => i = skip_block_comment(bytes, i + 2),
            b'\'' | b'"' => {
                let (text, next) = lex_quoted(bytes, i, c);
                tokens.push(Token::new(TokenKind::Str, text));
                i = next;
            }
            b'`' => {
                let (text, next) = lex_quoted(bytes, i, b'`');
                tokens.push(Token::new(TokenKind::QuotedIdent, text));
                i = next;
            }
            b'?' => {
                tokens.push(Token::new(TokenKind::Placeholder, "?"));
                i += 1;
            }
            b'0'..=b'9' => {
                let (text, next) = lex_number(bytes, i);
                tokens.push(Token::new(TokenKind::Number, text));
                i = next;
            }
            // A leading dot starting a decimal like `.5`.
            b'.' if bytes.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                let (text, next) = lex_number(bytes, i);
                tokens.push(Token::new(TokenKind::Number, text));
                i = next;
            }
            b'(' | b')' | b',' | b';' | b'.' => {
                tokens.push(Token::new(TokenKind::Punct, (c as char).to_string()));
                i += 1;
            }
            _ if is_word_start(c) => {
                let (text, next) = lex_word(bytes, i);
                tokens.push(Token::new(TokenKind::Word, text));
                i = next;
            }
            _ => {
                let (text, next) = lex_operator(bytes, i);
                tokens.push(Token::new(TokenKind::Operator, text));
                i = next;
            }
        }
    }
    tokens
}

fn skip_line_comment(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i] != b'\n' {
        i += 1;
    }
    i
}

fn skip_block_comment(bytes: &[u8], mut i: usize) -> usize {
    while i + 1 < bytes.len() {
        if bytes[i] == b'*' && bytes[i + 1] == b'/' {
            return i + 2;
        }
        i += 1;
    }
    bytes.len()
}

fn lex_quoted(bytes: &[u8], start: usize, quote: u8) -> (String, usize) {
    let mut text = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\\' && quote != b'`' && i + 1 < bytes.len() {
            text.push(bytes[i + 1] as char);
            i += 2;
        } else if c == quote {
            if bytes.get(i + 1) == Some(&quote) {
                // doubled quote escape: '' or `` or ""
                text.push(quote as char);
                i += 2;
            } else {
                return (text, i + 1);
            }
        } else {
            text.push(c as char);
            i += 1;
        }
    }
    // Unterminated quote: take the rest (forgiving mode).
    (text, bytes.len())
}

fn lex_number(bytes: &[u8], start: usize) -> (String, usize) {
    let mut i = start;
    // hex literal
    if bytes[i] == b'0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X')) {
        i += 2;
        while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
            i += 1;
        }
        return (ascii(bytes, start, i), i);
    }
    let mut seen_dot = false;
    let mut seen_exp = false;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_digit() {
            i += 1;
        } else if c == b'.' && !seen_dot && !seen_exp {
            seen_dot = true;
            i += 1;
        } else if (c == b'e' || c == b'E')
            && !seen_exp
            && bytes.get(i + 1).is_some_and(|&n| n.is_ascii_digit() || n == b'+' || n == b'-')
        {
            seen_exp = true;
            i += 1;
            if matches!(bytes.get(i), Some(b'+') | Some(b'-')) {
                i += 1;
            }
        } else {
            break;
        }
    }
    (ascii(bytes, start, i), i)
}

fn is_word_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b'$' || c == b'@' || c >= 0x80
}

fn is_word_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'$' || c >= 0x80
}

fn lex_word(bytes: &[u8], start: usize) -> (String, usize) {
    let mut i = start + 1;
    while i < bytes.len() && is_word_continue(bytes[i]) {
        i += 1;
    }
    (ascii(bytes, start, i), i)
}

const MULTI_OPS: &[&str] = &["<=>", "<=", ">=", "<>", "!=", "||", "&&", ":=", "<<", ">>"];

fn lex_operator(bytes: &[u8], start: usize) -> (String, usize) {
    for op in MULTI_OPS {
        let end = start + op.len();
        if bytes.len() >= end && &bytes[start..end] == op.as_bytes() {
            return ((*op).to_string(), end);
        }
    }
    ((bytes[start] as char).to_string(), start + 1)
}

fn ascii(bytes: &[u8], start: usize, end: usize) -> String {
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).into_iter().map(|t| t.kind).collect()
    }

    fn texts(sql: &str) -> Vec<String> {
        tokenize(sql).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn basic_select_tokenizes() {
        let toks = tokenize("SELECT a, b FROM t WHERE x = 10");
        assert_eq!(
            toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            vec!["SELECT", "a", ",", "b", "FROM", "t", "WHERE", "x", "=", "10"]
        );
        assert_eq!(toks[9].kind, TokenKind::Number);
        assert_eq!(toks[8].kind, TokenKind::Operator);
    }

    #[test]
    fn strings_with_escapes() {
        let toks = tokenize(r#"SELECT 'it''s', "a\"b", 'c\'d'"#);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["it's", "a\"b", "c'd"]);
    }

    #[test]
    fn unterminated_string_is_forgiven() {
        let toks = tokenize("SELECT 'oops");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].kind, TokenKind::Str);
        assert_eq!(toks[1].text, "oops");
    }

    #[test]
    fn backquoted_identifiers() {
        let toks = tokenize("SELECT `order` FROM `my``table`");
        assert_eq!(toks[1].kind, TokenKind::QuotedIdent);
        assert_eq!(toks[1].text, "order");
        assert_eq!(toks[3].text, "my`table");
    }

    #[test]
    fn numbers_variants() {
        let toks = tokenize("SELECT 1, 2.5, .5, 1e10, 3.2E-4, 0xFF");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["1", "2.5", ".5", "1e10", "3.2E-4", "0xFF"]);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = texts("SELECT 1 -- trailing\n, 2 /* block */ , 3 # hash");
        assert_eq!(toks, vec!["SELECT", "1", ",", "2", ",", "3"]);
    }

    #[test]
    fn unterminated_block_comment_consumes_rest() {
        assert_eq!(texts("SELECT 1 /* never closed SELECT 2"), vec!["SELECT", "1"]);
    }

    #[test]
    fn multi_char_operators() {
        let toks = texts("a <= b >= c <> d != e || f := g <=> h");
        assert!(toks.contains(&"<=".to_string()));
        assert!(toks.contains(&">=".to_string()));
        assert!(toks.contains(&"<>".to_string()));
        assert!(toks.contains(&"!=".to_string()));
        assert!(toks.contains(&"||".to_string()));
        assert!(toks.contains(&":=".to_string()));
        assert!(toks.contains(&"<=>".to_string()));
    }

    #[test]
    fn placeholders_are_recognized() {
        let ks = kinds("SELECT * FROM t WHERE a = ? AND b = ?");
        assert_eq!(ks.iter().filter(|&&k| k == TokenKind::Placeholder).count(), 2);
    }

    #[test]
    fn dots_split_qualified_names() {
        let toks = texts("SELECT db.t.col FROM db.t");
        assert_eq!(toks, vec!["SELECT", "db", ".", "t", ".", "col", "FROM", "db", ".", "t"]);
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n\t ").is_empty());
    }

    #[test]
    fn word_is_case_insensitive() {
        let toks = tokenize("select");
        assert!(toks[0].is_word("SELECT"));
        assert!(toks[0].is_word("select"));
        assert!(!toks[0].is_word("UPDATE"));
    }
}
