//! Property sweeps for the SQL substrate: the templating invariants that
//! Definition II.3 relies on, each on `CASES` seeded random inputs; a
//! failure names the seed.

use pinsql_sqlkit::{fingerprint, normalize, tokenize, SqlTemplate, TokenKind};
use pinsql_testkit::sweep;
use pinsql_workload::rng::{RngExt, StdRng};

const CASES: u64 = 256;

/// `lo..=hi` characters drawn from `alphabet`.
fn string_of(rng: &mut StdRng, alphabet: &[u8], lo: usize, hi: usize) -> String {
    (0..rng.random_range(lo..=hi))
        .map(|_| alphabet[rng.random_range(0..alphabet.len())] as char)
        .collect()
}

/// A simple literal value as SQL text: unsigned, signed, decimal or string.
fn literal(rng: &mut StdRng) -> String {
    match rng.random_range(0..4u32) {
        0 => rng.random::<u32>().to_string(),
        1 => (rng.random::<u32>() as i32).to_string(),
        2 => {
            let n = rng.random_range(0..1_000_000u32);
            format!("{n}.{:02}", n % 100)
        }
        _ => format!("'{}'", string_of(rng, b"abcdefghijklmnopqrstuvwxyz", 0, 12)),
    }
}

/// `[a-z][a-z0-9_]{0,10}`.
fn ident(rng: &mut StdRng) -> String {
    string_of(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 1)
        + &string_of(rng, b"abcdefghijklmnopqrstuvwxyz0123456789_", 0, 10)
}

#[test]
fn same_shape_same_template() {
    sweep(0..CASES, |_, rng| {
        let (table, col) = (ident(rng), ident(rng));
        let q1 = format!("SELECT * FROM {table} WHERE {col} = {}", literal(rng));
        let q2 = format!("SELECT * FROM {table} WHERE {col} = {}", literal(rng));
        assert_eq!(fingerprint(&q1), fingerprint(&q2), "{q1} / {q2}");
        assert_eq!(normalize(&q1), normalize(&q2), "{q1} / {q2}");
    });
}

#[test]
fn normalization_is_idempotent() {
    sweep(0..CASES, |_, rng| {
        let q = format!(
            "UPDATE {} SET {} = {} WHERE id = 7",
            ident(rng),
            ident(rng),
            literal(rng)
        );
        let once = normalize(&q);
        assert_eq!(once, normalize(&once), "{q}");
    });
}

#[test]
fn normalized_text_contains_no_literals() {
    sweep(0..CASES, |_, rng| {
        let table = ident(rng);
        let vs: Vec<String> = (0..rng.random_range(1..6usize)).map(|_| literal(rng)).collect();
        let norm = normalize(&format!("SELECT * FROM {table} WHERE id IN ({})", vs.join(", ")));
        for tok in tokenize(&norm) {
            assert!(
                !matches!(tok.kind, TokenKind::Number | TokenKind::Str),
                "literal {tok:?} survived normalization: {norm}"
            );
        }
    });
}

#[test]
fn in_list_arity_is_irrelevant() {
    sweep(0..CASES, |_, rng| {
        let table = ident(rng);
        let mut q = || {
            let vs: Vec<String> =
                (0..rng.random_range(1..8usize)).map(|_| rng.random::<u32>().to_string()).collect();
            format!("SELECT * FROM {table} WHERE id IN ({})", vs.join(","))
        };
        let (q1, q2) = (q(), q());
        assert_eq!(fingerprint(&q1), fingerprint(&q2), "{q1} / {q2}");
    });
}

/// Up to 200 arbitrary non-control characters: half ASCII, where the
/// lexer's branches are, half anywhere in Unicode.
#[test]
fn tokenizer_never_panics_on_arbitrary_input() {
    sweep(0..CASES, |_, rng| {
        let s: String = (0..rng.random_range(0..=200usize))
            .filter_map(|_| {
                let hi = if rng.random_range(0..2u32) == 0 { 0x7f } else { 0x11_0000 };
                char::from_u32(rng.random_range(0x20..hi)).filter(|c| !c.is_control())
            })
            .collect();
        let _ = tokenize(&s);
        let _ = SqlTemplate::of(&s);
    });
}

#[test]
fn case_of_keywords_is_irrelevant() {
    sweep(0..CASES, |_, rng| {
        let (table, col) = (ident(rng), ident(rng));
        let lower = format!("select {col} from {table} where {col} > 3");
        let upper = format!("SELECT {col} FROM {table} WHERE {col} > 3");
        assert_eq!(fingerprint(&lower), fingerprint(&upper), "{lower}");
    });
}

#[test]
fn template_tables_found_for_basic_selects() {
    sweep(0..CASES, |_, rng| {
        let table = ident(rng);
        let t = SqlTemplate::of(&format!("SELECT * FROM {table} WHERE id = 1"));
        assert_eq!(t.tables, vec![table]);
    });
}
