//! Robustness: the front end must never panic, whatever bytes it is fed —
//! it reports diagnostics and recovers instead. Inputs come from the
//! in-repo seeded PRNG, so failures reproduce from the seed.

use lss_ast::{lex, parse, DiagnosticBag, SourceMap, TokenKind};
use lss_types::SplitMix64;

/// A random string of printable-and-weird characters, 0..=200 long.
fn gen_noise(rng: &mut SplitMix64) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '0', '9', '_', ' ', '\t', '\n', '{', '}', '(', ')', '[', ']', ';',
        ':', '=', '-', '>', '<', '+', '*', '/', '"', '\'', '.', ',', '|', '?', '!', '#', '@', '\\',
        '\u{0}', '\u{7f}', 'é', '☃', '𝔘',
    ];
    let len = rng.index(201);
    (0..len).map(|_| POOL[rng.index(POOL.len())]).collect()
}

/// The lexer terminates without panicking on arbitrary input and always
/// ends the stream with EOF.
#[test]
fn lexer_never_panics() {
    let mut rng = SplitMix64::new(0x2001);
    for case in 0..256 {
        let input = gen_noise(&mut rng);
        let mut sources = SourceMap::new();
        let file = sources.add_file("fuzz.lss", input.as_str());
        let mut diags = DiagnosticBag::new();
        let tokens = lex(file, &input, &mut diags);
        assert!(
            matches!(tokens.last().map(|t| &t.kind), Some(TokenKind::Eof)),
            "case {case}: {input:?}"
        );
    }
}

/// The parser terminates and recovers on arbitrary input.
#[test]
fn parser_never_panics() {
    let mut rng = SplitMix64::new(0x2002);
    for _ in 0..256 {
        let input = gen_noise(&mut rng);
        let mut sources = SourceMap::new();
        let file = sources.add_file("fuzz.lss", input.as_str());
        let mut diags = DiagnosticBag::new();
        let _ = parse(file, &input, &mut diags);
    }
}

/// The parser also survives syntactically plausible garbage made of real
/// LSS token fragments.
#[test]
fn parser_survives_token_soup() {
    const PIECES: &[&str] = &[
        "module",
        "instance",
        "parameter",
        "inport",
        "outport",
        "var",
        "for",
        "if",
        "->",
        "::",
        "{",
        "}",
        "(",
        ")",
        "[",
        "]",
        ";",
        ":",
        "=",
        "x",
        "delay",
        "'a",
        "int",
        "|",
        "42",
        "\"s\"",
        ",",
        "=>",
        "userpoint",
        "struct",
    ];
    let mut rng = SplitMix64::new(0x2003);
    for _ in 0..256 {
        let n = rng.index(60);
        let input = (0..n)
            .map(|_| PIECES[rng.index(PIECES.len())])
            .collect::<Vec<_>>()
            .join(" ");
        let mut sources = SourceMap::new();
        let file = sources.add_file("soup.lss", input.as_str());
        let mut diags = DiagnosticBag::new();
        let program = parse(file, &input, &mut diags);
        // Whatever came out must pretty-print without panicking too.
        let _ = lss_ast::pretty::program_to_string(&program);
        // And diagnostics must render.
        let _ = diags.render(&sources);
    }
}

/// Whatever parses cleanly must also survive full compilation attempts
/// (elaboration may reject it, but must not panic).
#[test]
fn elaboration_never_panics_on_parsed_soup() {
    const PIECES: &[&str] = &[
        "instance a:delay;",
        "instance b:source;",
        "a.initial_state = 1;",
        "a.out -> a.in;",
        "b.out -> a.in;",
        "b.out :: int;",
        "var i:int = 0;",
        "i = i + 1;",
        "a.nonsense = 3;",
        "collector a : out_fire = \"n = n + 1;\";",
    ];
    let mut rng = SplitMix64::new(0x2004);
    for _ in 0..64 {
        let n = rng.index(12);
        let input = (0..n)
            .map(|_| PIECES[rng.index(PIECES.len())])
            .collect::<Vec<_>>()
            .join("\n");
        let mut driver = liberty::Driver::with_corelib();
        driver.add_source("soup.lss", &input);
        // Ok or Err both fine; panics are not.
        let _ = driver.elaborate();
    }
}
