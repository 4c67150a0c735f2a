//! Hand-written lexer for LSS source text.
//!
//! Comments follow C conventions: `// ...` to end of line and `/* ... */`
//! (non-nesting). String literals support `\"`, `\\`, `\n`, `\t` escapes.

use crate::diag::{Diagnostic, DiagnosticBag};
use crate::span::{FileId, Span};
use crate::token::{Token, TokenKind};

/// Escapes `s` as the body of an LSS string literal (without the quotes):
/// `"`, `\`, newline and tab become the four escapes [`lex`] reads back,
/// and every other character stays raw.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Lexes `text` (registered as `file`) into a token vector ending in `Eof`.
///
/// Lexical errors are reported into `diags`; the offending characters are
/// skipped so parsing can continue and report more problems.
pub fn lex(file: FileId, text: &str, diags: &mut DiagnosticBag) -> Vec<Token> {
    Lexer {
        file,
        text,
        bytes: text.as_bytes(),
        pos: 0,
        diags,
    }
    .run()
}

struct Lexer<'a> {
    file: FileId,
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    diags: &'a mut DiagnosticBag,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        let mut tokens = Vec::new();
        loop {
            self.skip_trivia();
            let start = self.pos;
            let Some(b) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: self.span_from(start),
                });
                return tokens;
            };
            let kind = match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                b'0'..=b'9' => self.number(),
                b'"' => self.string(),
                b'\'' => self.type_var(),
                _ => self.punct(),
            };
            // `None` means the error is reported and its text consumed.
            if let Some(kind) = kind {
                tokens.push(Token {
                    kind,
                    span: self.span_from(start),
                });
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(self.file, start as u32, self.pos as u32)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    let mut closed = false;
                    while let Some(b) = self.peek() {
                        if b == b'*' && self.peek2() == Some(b'/') {
                            self.pos += 2;
                            closed = true;
                            break;
                        }
                        self.pos += 1;
                    }
                    if !closed {
                        self.diags.push(Diagnostic::error(
                            "unterminated block comment",
                            self.span_from(start),
                        ));
                    }
                }
                _ => return,
            }
        }
    }

    fn ident(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        while let Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        Some(TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_string())))
    }

    fn type_var(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        self.pos += 1; // consume '
        let name_start = self.pos;
        while let Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') = self.peek() {
            self.pos += 1;
        }
        if self.pos == name_start {
            self.diags.push(Diagnostic::error(
                "expected type variable name after `'`",
                self.span_from(start),
            ));
            return None;
        }
        Some(TokenKind::TypeVar(
            self.text[name_start..self.pos].to_string(),
        ))
    }

    fn number(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        // A float has a dot followed by a digit (so `3.x` lexes as `3` `.` `x`).
        let is_float = self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9'));
        if is_float {
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            match text.parse::<f64>() {
                Ok(v) => Some(TokenKind::Float(v)),
                Err(_) => {
                    self.diags.push(Diagnostic::error(
                        "invalid float literal",
                        self.span_from(start),
                    ));
                    None
                }
            }
        } else {
            match text.parse::<i64>() {
                Ok(v) => Some(TokenKind::Int(v)),
                Err(_) => {
                    self.diags.push(Diagnostic::error(
                        "integer literal out of range",
                        self.span_from(start),
                    ));
                    None
                }
            }
        }
    }

    fn string(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        self.pos += 1; // opening quote
        let mut value = String::new();
        loop {
            // Copy everything up to the next quote, backslash or newline as
            // one slice; those are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            while let Some(b) = self.peek() {
                if matches!(b, b'"' | b'\\' | b'\n') {
                    break;
                }
                self.pos += 1;
            }
            value.push_str(&self.text[run..self.pos]);
            match self.bump() {
                Some(b'"') => return Some(TokenKind::Str(value)),
                Some(b'\\') => {
                    let escaped = self.text[self.pos..].chars().next();
                    self.pos += escaped.map_or(0, char::len_utf8);
                    match escaped {
                        Some('"') => value.push('"'),
                        Some('\\') => value.push('\\'),
                        Some('n') => value.push('\n'),
                        Some('t') => value.push('\t'),
                        other => {
                            self.diags.push(Diagnostic::error(
                                format!("unknown escape `\\{}`", other.unwrap_or(' ')),
                                self.span_from(start),
                            ));
                        }
                    }
                }
                _ => {
                    self.diags.push(Diagnostic::error(
                        "unterminated string literal",
                        self.span_from(start),
                    ));
                    return None;
                }
            }
        }
    }

    fn punct(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        let b = self.bump().expect("punct called at eof");
        let two = |l: &mut Self, second: u8, yes: TokenKind, no: TokenKind| {
            if l.peek() == Some(second) {
                l.pos += 1;
                yes
            } else {
                no
            }
        };
        Some(match b {
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b'?' => TokenKind::Question,
            b'+' => TokenKind::Plus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b':' => two(self, b':', TokenKind::ColonColon, TokenKind::Colon),
            b'!' => two(self, b'=', TokenKind::NotEq, TokenKind::Bang),
            b'<' => two(self, b'=', TokenKind::Le, TokenKind::Lt),
            b'>' => two(self, b'=', TokenKind::Ge, TokenKind::Gt),
            b'-' => two(self, b'>', TokenKind::Arrow, TokenKind::Minus),
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::EqEq
                } else if self.peek() == Some(b'>') {
                    self.pos += 1;
                    TokenKind::FatArrow
                } else {
                    TokenKind::Eq
                }
            }
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.pos += 1;
                    TokenKind::AndAnd
                } else {
                    self.diags
                        .push(Diagnostic::error("expected `&&`", self.span_from(start)));
                    return None;
                }
            }
            b'|' => two(self, b'|', TokenKind::OrOr, TokenKind::Pipe),
            _ => {
                // One error per stray character, naming all of it.
                let c = self.text[start..].chars().next().expect("not at eof");
                self.pos = start + c.len_utf8();
                self.diags.push(Diagnostic::error(
                    format!("unexpected character `{c}`"),
                    self.span_from(start),
                ));
                return None;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SourceMap;

    fn lex_ok(src: &str) -> Vec<TokenKind> {
        let mut map = SourceMap::new();
        let id = map.add_file("t.lss", src);
        let mut diags = DiagnosticBag::new();
        let toks = lex(id, src, &mut diags);
        assert!(
            !diags.has_errors(),
            "unexpected lex errors: {}",
            diags.render(&map)
        );
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn an_error_skips_only_its_own_text() {
        // The stray `#` is consumed by its own error; `instance` survives.
        let (kinds, errors) = lex_errors("#instance x:sink;");
        assert_eq!(errors, vec!["unexpected character `#`".to_string()]);
        assert_eq!(kinds[0], TokenKind::Instance);
    }

    #[test]
    fn eof_after_an_unterminated_string_lies_inside_the_input() {
        let src = "instance gen:source \"abc";
        let mut map = SourceMap::new();
        let id = map.add_file("t.lss", src);
        let mut diags = DiagnosticBag::new();
        let toks = lex(id, src, &mut diags);
        assert!(diags.has_errors());
        let eof = toks.last().expect("an Eof token");
        assert_eq!(eof.kind, TokenKind::Eof);
        assert_eq!(
            (eof.span.start, eof.span.end),
            (src.len() as u32, src.len() as u32)
        );
    }

    #[test]
    fn lexes_module_header() {
        use TokenKind::*;
        let toks = lex_ok("module delay { inport in:int; }");
        assert_eq!(
            toks,
            vec![
                Module,
                Ident("delay".into()),
                LBrace,
                Inport,
                Ident("in".into()),
                Colon,
                IntTy,
                Semi,
                RBrace,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_connection_and_arrow() {
        use TokenKind::*;
        let toks = lex_ok("d1.out -> d2.in;");
        assert_eq!(
            toks,
            vec![
                Ident("d1".into()),
                Dot,
                Ident("out".into()),
                Arrow,
                Ident("d2".into()),
                Dot,
                Ident("in".into()),
                Semi,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_type_variables_and_disjunction() {
        use TokenKind::*;
        let toks = lex_ok("inport a: 'a | int;");
        assert_eq!(
            toks,
            vec![
                Inport,
                Ident("a".into()),
                Colon,
                TypeVar("a".into()),
                Pipe,
                IntTy,
                Semi,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        use TokenKind::*;
        assert_eq!(lex_ok("42 3.5 0"), vec![Int(42), Float(3.5), Int(0), Eof]);
        // `3.x` must not be a float: it is member access on an int.
        assert_eq!(lex_ok("3.x"), vec![Int(3), Dot, Ident("x".into()), Eof]);
    }

    #[test]
    fn lexes_strings_with_escapes() {
        use TokenKind::*;
        assert_eq!(
            lex_ok(r#""corelib/delay.tar" "a\"b\n""#),
            vec![Str("corelib/delay.tar".into()), Str("a\"b\n".into()), Eof]
        );
    }

    #[test]
    fn strings_keep_utf8_text() {
        use TokenKind::*;
        assert_eq!(
            lex_ok(r#""é☃" "a\"ü\n""#),
            vec![Str("é☃".into()), Str("a\"ü\n".into()), Eof]
        );
    }

    fn lex_errors(src: &str) -> (Vec<TokenKind>, Vec<String>) {
        let mut map = SourceMap::new();
        let id = map.add_file("t.lss", src);
        let mut diags = DiagnosticBag::new();
        let toks = lex(id, src, &mut diags);
        let kinds = toks.into_iter().map(|t| t.kind).collect();
        (kinds, diags.iter().map(|d| d.message.clone()).collect())
    }

    #[test]
    fn unknown_escape_names_the_whole_character() {
        let (kinds, errors) = lex_errors(r#""a\☃b""#);
        assert_eq!(errors, vec!["unknown escape `\\☃`".to_string()]);
        assert_eq!(kinds, vec![TokenKind::Str("ab".into()), TokenKind::Eof]);
    }

    #[test]
    fn non_ascii_stray_character_is_one_error() {
        let (kinds, errors) = lex_errors("a ☃ b");
        assert_eq!(errors, vec!["unexpected character `☃`".to_string()]);
        assert_eq!(
            kinds,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
        // An error consumes only its own text: a stray multi-byte
        // character right after it gets its own error.
        let (_, errors) = lex_errors("&é x");
        assert_eq!(
            errors,
            vec![
                "expected `&&`".to_string(),
                "unexpected character `é`".to_string()
            ]
        );
    }

    #[test]
    fn skips_comments() {
        use TokenKind::*;
        let toks = lex_ok("a // line\n /* block\n over lines */ b");
        assert_eq!(toks, vec![Ident("a".into()), Ident("b".into()), Eof]);
    }

    #[test]
    fn lexes_operators() {
        use TokenKind::*;
        assert_eq!(
            lex_ok("== != <= >= && || = < > ! :: => ? %"),
            vec![
                EqEq, NotEq, Le, Ge, AndAnd, OrOr, Eq, Lt, Gt, Bang, ColonColon, FatArrow,
                Question, Percent, Eof
            ]
        );
    }

    #[test]
    fn reports_unterminated_string() {
        let mut map = SourceMap::new();
        let id = map.add_file("t.lss", "\"abc");
        let mut diags = DiagnosticBag::new();
        let toks = lex(id, "\"abc", &mut diags);
        assert!(diags.has_errors());
        assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
    }

    #[test]
    fn reports_unknown_character_but_continues() {
        let mut map = SourceMap::new();
        let id = map.add_file("t.lss", "a # b");
        let mut diags = DiagnosticBag::new();
        let toks = lex(id, "a # b", &mut diags);
        assert!(diags.has_errors());
        let kinds: Vec<_> = toks.into_iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_are_accurate() {
        let mut map = SourceMap::new();
        let src = "module  delay";
        let id = map.add_file("t.lss", src);
        let mut diags = DiagnosticBag::new();
        let toks = lex(id, src, &mut diags);
        assert_eq!(
            &src[toks[0].span.start as usize..toks[0].span.end as usize],
            "module"
        );
        assert_eq!(
            &src[toks[1].span.start as usize..toks[1].span.end as usize],
            "delay"
        );
    }
}
