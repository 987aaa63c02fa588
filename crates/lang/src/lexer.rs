//! Hand-written lexer for MiniC.

use crate::token::{Token, TokenKind};
use crate::LangError;

/// Lexes `src` into a token stream terminated by [`TokenKind::Eof`].
///
/// Supports `//` line comments and `/* ... */` block comments.
///
/// # Errors
///
/// Returns an error on unterminated strings/comments and unknown characters.
pub fn lex(src: &str) -> Result<Vec<Token>, LangError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push {
        ($kind:expr) => {
            tokens.push(Token { kind: $kind, line })
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start_line = line;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LangError::lex(start_line, "unterminated block comment"));
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'"' => {
                let start_line = line;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LangError::lex(start_line, "unterminated string literal"));
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < bytes.len() => {
                            let esc = bytes[i + 1];
                            s.push(match esc {
                                b'n' => '\n',
                                b't' => '\t',
                                b'\\' => '\\',
                                b'"' => '"',
                                b'0' => '\0',
                                other => {
                                    return Err(LangError::lex(
                                        line,
                                        format!("unknown escape `\\{}`", other as char),
                                    ))
                                }
                            });
                            i += 2;
                        }
                        b'\n' => {
                            return Err(LangError::lex(start_line, "newline in string literal"))
                        }
                        other => {
                            s.push(other as char);
                            i += 1;
                        }
                    }
                }
                push!(TokenKind::Str(s));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let value: i64 = text.parse().map_err(|_| {
                    LangError::lex(line, format!("integer literal `{text}` too large"))
                })?;
                push!(TokenKind::Number(value));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                push!(match word {
                    "int" => TokenKind::Int,
                    "void" => TokenKind::Void,
                    "if" => TokenKind::If,
                    "else" => TokenKind::Else,
                    "while" => TokenKind::While,
                    "return" => TokenKind::Return,
                    "break" => TokenKind::Break,
                    "continue" => TokenKind::Continue,
                    _ => TokenKind::Ident(word.to_string()),
                });
            }
            _ if !c.is_ascii() => {
                // Outside comments and strings the language is ASCII. `i`
                // sits on a character boundary here (every other branch
                // stops on an ASCII byte), so the character decodes whole.
                let ch = src
                    .get(i..)
                    .and_then(|rest| rest.chars().next())
                    .unwrap_or(char::REPLACEMENT_CHARACTER);
                return Err(LangError::lex(
                    line,
                    format!(
                        "unexpected non-ASCII character `{ch}` (U+{:04X})",
                        ch as u32
                    ),
                ));
            }
            _ => {
                // Compare bytes, not `str` slices: slicing `src` at `i + 2`
                // could split a multi-byte character.
                let two = bytes.get(i..i + 2).unwrap_or(&[]);
                let (kind, len) = match two {
                    b"&&" => (TokenKind::AmpAmp, 2),
                    b"||" => (TokenKind::PipePipe, 2),
                    b"==" => (TokenKind::Eq, 2),
                    b"!=" => (TokenKind::Ne, 2),
                    b"<=" => (TokenKind::Le, 2),
                    b">=" => (TokenKind::Ge, 2),
                    _ => match c {
                        b'(' => (TokenKind::LParen, 1),
                        b')' => (TokenKind::RParen, 1),
                        b'{' => (TokenKind::LBrace, 1),
                        b'}' => (TokenKind::RBrace, 1),
                        b',' => (TokenKind::Comma, 1),
                        b';' => (TokenKind::Semi, 1),
                        b'&' => (TokenKind::Amp, 1),
                        b'!' => (TokenKind::Bang, 1),
                        b'=' => (TokenKind::Assign, 1),
                        b'<' => (TokenKind::Lt, 1),
                        b'>' => (TokenKind::Gt, 1),
                        b'+' => (TokenKind::Plus, 1),
                        b'-' => (TokenKind::Minus, 1),
                        b'*' => (TokenKind::Star, 1),
                        b'/' => (TokenKind::Slash, 1),
                        b'%' => (TokenKind::Percent, 1),
                        other => {
                            return Err(LangError::lex(
                                line,
                                format!("unexpected character `{}`", other as char),
                            ))
                        }
                    },
                };
                push!(kind);
                i += len;
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn multi_byte_characters_are_lex_errors_not_panics() {
        // An ASCII operator byte followed by a multi-byte character: the
        // two-byte lookahead must not split the character.
        for src in ["x = 1 —;", "x =—1;", "&é", "int x; ∀", "!\u{1F600}"] {
            let err = lex(src).expect_err(src);
            assert!(matches!(err, LangError::Lex { .. }), "{src}: {err:?}");
        }
        let err = lex("int x;\ny = 1 — 2;").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains('—'), "{err}");
        // Inside comments and strings non-ASCII text stays legal.
        assert!(lex("// — comment\n/* ∀ */ int x;").is_ok());
        assert!(lex("printf(\"—\");").is_ok());
    }

    #[test]
    fn keywords_and_idents() {
        let ks = kinds("int foo while whilex");
        assert_eq!(
            ks,
            vec![
                TokenKind::Int,
                TokenKind::Ident("foo".into()),
                TokenKind::While,
                TokenKind::Ident("whilex".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers_and_operators() {
        let ks = kinds("x = 10 + 2 * -3;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Number(10),
                TokenKind::Plus,
                TokenKind::Number(2),
                TokenKind::Star,
                TokenKind::Minus,
                TokenKind::Number(3),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        let ks = kinds("<= >= == != && || < >");
        assert_eq!(
            ks,
            vec![
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::AmpAmp,
                TokenKind::PipePipe,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let ks = kinds(r#""%d\n""#);
        assert_eq!(ks, vec![TokenKind::Str("%d\n".into()), TokenKind::Eof]);
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = lex("// c1\nx /* c2\nc2 */ y").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("x".into()));
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks[1].kind, TokenKind::Ident("y".into()));
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn error_on_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn error_on_unknown_char() {
        assert!(lex("x @ y").is_err());
    }

    #[test]
    fn ampersand_single_vs_double() {
        let ks = kinds("&x && y");
        assert_eq!(
            ks,
            vec![
                TokenKind::Amp,
                TokenKind::Ident("x".into()),
                TokenKind::AmpAmp,
                TokenKind::Ident("y".into()),
                TokenKind::Eof
            ]
        );
    }
}
