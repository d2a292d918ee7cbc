//! Comment- and string-aware source preparation.
//!
//! Every rule scans a *masked* copy of the file in which comment and
//! string-literal bytes are blanked to spaces (newlines preserved), so
//! `".unwrap()"` inside a string or `// don't unwrap() here` inside a
//! comment never match. The masking is a small lexer that understands line
//! comments, nested block comments, string / raw-string / byte-string
//! literals, and the char-literal-versus-lifetime ambiguity.

/// Returns `src` with comment and string-literal content replaced by
/// spaces. Newlines are preserved, so byte offsets into the result map to
/// the same *lines* as the original (columns may shift on multi-byte
/// characters, which the rules never rely on).
pub fn mask(src: &str) -> String {
    lex(src).0
}

/// The complement of [`mask`]: only *comment* content survives (code and
/// string literals are blanked, newlines preserved). Rules about comment
/// conventions (R6) scan this, so markers inside string literals never
/// match.
pub fn comments(src: &str) -> String {
    lex(src).1
}

/// One pass over the source producing (code mask, comment mask).
fn lex(src: &str) -> (String, String) {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = String::with_capacity(src.len());
    let mut com = String::with_capacity(src.len());
    let mut i = 0;
    // Pushes one blanked character, keeping line structure.
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    while i < n {
        let c = b[i];
        // Line comment (includes /// and //! doc comments).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                com.push(b[i]);
                i += 1;
            }
            continue;
        }
        // Block comment, possibly nested (includes /** */ doc comments).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1u32;
            out.push_str("  ");
            com.push_str("/*");
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push_str("  ");
                    com.push_str("/*");
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push_str("  ");
                    com.push_str("*/");
                    i += 2;
                } else {
                    blank(&mut out, b[i]);
                    com.push(b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw string: r"..." / r#"..."# / br#"..."# (any hash count).
        if c == 'r' || (c == 'b' && i + 1 < n && b[i + 1] == 'r') {
            let prev_ident = i > 0 && is_ident(b[i - 1]);
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if !prev_ident && j < n && b[j] == '"' {
                for _ in i..=j {
                    out.push(' ');
                    com.push(' ');
                }
                i = j + 1;
                // Consume until `"` followed by `hashes` hashes.
                while i < n {
                    if b[i] == '"'
                        && b[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&h| h == '#')
                            .count()
                            == hashes
                    {
                        for _ in 0..=hashes {
                            out.push(' ');
                            com.push(' ');
                        }
                        i += 1 + hashes;
                        break;
                    }
                    blank(&mut out, b[i]);
                    blank(&mut com, b[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Byte-string prefix: blank the `b`, fall through to the `"` case.
        if c == 'b' && i + 1 < n && b[i + 1] == '"' && !(i > 0 && is_ident(b[i - 1])) {
            out.push(' ');
            com.push(' ');
            i += 1;
            continue;
        }
        // Ordinary string literal.
        if c == '"' {
            out.push(' ');
            com.push(' ');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    // `\<newline>` is a line continuation — keep the newline.
                    out.push(' ');
                    com.push(' ');
                    blank(&mut out, b[i + 1]);
                    blank(&mut com, b[i + 1]);
                    i += 2;
                } else if b[i] == '"' {
                    out.push(' ');
                    com.push(' ');
                    i += 1;
                    break;
                } else {
                    blank(&mut out, b[i]);
                    blank(&mut com, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime/loop-label.
        if c == '\'' {
            if i + 1 < n && b[i + 1] == '\\' {
                // Escaped char literal: '\n', '\'', '\x41', '\u{1F600}'.
                out.push(' ');
                com.push(' ');
                i += 1;
                while i < n {
                    if b[i] == '\\' && i + 1 < n {
                        out.push(' ');
                        com.push(' ');
                        blank(&mut out, b[i + 1]);
                        blank(&mut com, b[i + 1]);
                        i += 2;
                    } else if b[i] == '\'' {
                        out.push(' ');
                        com.push(' ');
                        i += 1;
                        break;
                    } else {
                        blank(&mut out, b[i]);
                        blank(&mut com, b[i]);
                        i += 1;
                    }
                }
                continue;
            }
            if i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\'' {
                // Simple char literal: 'x'.
                out.push_str("   ");
                com.push_str("   ");
                i += 3;
                continue;
            }
            // Lifetime or loop label: real code, keep it.
            out.push('\'');
            com.push(' ');
            i += 1;
            continue;
        }
        out.push(c);
        blank(&mut com, c);
        i += 1;
    }
    (out, com)
}

/// Whether `c` can appear in a Rust identifier.
pub fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of each line start in `s` (line 1 starts at offset 0).
pub fn line_starts(s: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in s.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 1-indexed line containing byte `offset`, given [`line_starts`] output.
pub fn line_of(starts: &[usize], offset: usize) -> usize {
    starts.partition_point(|&s| s <= offset)
}

/// 1-indexed line ranges (inclusive) of items annotated `#[cfg(test)]` in
/// masked source: from the attribute to the matching close brace of the
/// item it gates (or its trailing semicolon for braceless items).
pub fn cfg_test_ranges(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let starts = line_starts(masked);
    let mut ranges = Vec::new();
    for (at, _) in masked.match_indices("#[cfg(test)]") {
        let first_line = line_of(&starts, at);
        let mut i = at + "#[cfg(test)]".len();
        // Find the gated item's body: first top-level `{`, or `;` for
        // braceless items (`#[cfg(test)] use ...;`).
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                _ => i += 1,
            }
        }
        let end = match open {
            Some(mut j) => {
                let mut depth = 0i64;
                loop {
                    match bytes.get(j) {
                        Some(b'{') => depth += 1,
                        Some(b'}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        None => break,
                        _ => {}
                    }
                    j += 1;
                }
                j.min(bytes.len().saturating_sub(1))
            }
            None => i.min(bytes.len().saturating_sub(1)),
        };
        ranges.push((first_line, line_of(&starts, end)));
    }
    ranges
}

/// ASCII identifier-byte check (multi-byte UTF-8 bytes are all >= 0x80 and
/// count as identifier-ish to stay conservative).
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Every offset where `needle` occurs in `hay` as a standalone token (the
/// neighbouring bytes are not identifier bytes).
pub fn token_offsets(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    hay.match_indices(needle)
        .filter(|&(at, _)| {
            let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
            let after = at + needle.len();
            let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
            before_ok && after_ok
        })
        .map(|(at, _)| at)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_doc_comments() {
        let m = mask("let x = 1; // unwrap() here\n/// docs unwrap()\nlet y = 2;");
        assert!(!m.contains("unwrap"));
        assert!(m.contains("let x = 1;"));
        assert!(m.contains("let y = 2;"));
        assert_eq!(m.matches('\n').count(), 2, "newlines preserved");
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = mask("a /* outer /* inner panic!() */ still */ b");
        assert!(!m.contains("panic"));
        assert!(m.starts_with("a "));
        assert!(m.ends_with(" b"));
    }

    #[test]
    fn masks_strings_and_escapes() {
        let m = mask(r#"let s = "call .unwrap() \" quoted"; s.len()"#);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("s.len()"));
    }

    #[test]
    fn string_line_continuations_keep_newlines() {
        let src = "let s = \"\\\nline two \\\nline three\";\nlet t = 1;";
        let m = mask(src);
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
        assert!(!m.contains("line two"));
        assert_eq!(
            comments(src).matches('\n').count(),
            src.matches('\n').count()
        );
    }

    #[test]
    fn masks_raw_and_byte_strings() {
        let m = mask(r##"let s = r#"panic!("x")"#; let b = b"panic!"; let br2 = br"panic!";"##);
        assert!(!m.contains("panic"), "got: {m}");
    }

    #[test]
    fn char_literals_masked_lifetimes_kept() {
        let m = mask("fn f<'a>(x: &'a str) -> char { let q = '\\''; let z = 'z'; q }");
        assert!(m.contains("<'a>"));
        assert!(m.contains("&'a str"));
        assert!(!m.contains("'z'"));
    }

    #[test]
    fn cfg_test_ranges_cover_the_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let ranges = cfg_test_ranges(&mask(src));
        assert_eq!(ranges, vec![(2, 5)]);
    }

    #[test]
    fn token_offsets_respect_boundaries() {
        assert_eq!(token_offsets("thread_rng()", "thread_rng").len(), 1);
        assert!(token_offsets("my_thread_rng()", "thread_rng").is_empty());
        assert!(token_offsets("thread_rngx()", "thread_rng").is_empty());
    }
}
