//! Lexical analysis: lowercase alphanumeric token extraction.
//!
//! Tokens are maximal runs of alphanumeric characters (Unicode-aware),
//! lowercased. Pure digit runs are kept (years and page numbers are
//! meaningful in bibliographic data); runs shorter than
//! [`MIN_TOKEN_LEN`] or longer than [`MAX_TOKEN_LEN`] characters, counted
//! after lowercasing, are dropped. [`for_each_token`] is the one loop;
//! [`tokenize`] collects what it visits.

/// Minimum kept token length in characters.
pub const MIN_TOKEN_LEN: usize = 2;
/// Maximum kept token length in characters.
pub const MAX_TOKEN_LEN: usize = 40;

/// Splits `text` into lowercase tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, &mut String::new(), |token| {
        tokens.push(token.to_string())
    });
    tokens
}

/// Calls `visit` with each token of `text`, in order — the one token loop
/// every preprocessing path runs. Each token is built in `buffer`, which
/// is reused from token to token (and may be reused across calls), so the
/// loop itself allocates only when a token outgrows the buffer.
pub fn for_each_token(text: &str, buffer: &mut String, mut visit: impl FnMut(&str)) {
    buffer.clear();
    // Characters in `buffer`, counted after lowercasing.
    let mut len = 0usize;
    for c in text.chars() {
        if c.is_alphanumeric() {
            for lower in c.to_lowercase() {
                buffer.push(lower);
                len += 1;
            }
        } else if len > 0 {
            emit(buffer, len, &mut visit);
            len = 0;
        }
    }
    if len > 0 {
        emit(buffer, len, &mut visit);
    }
}

/// Visits `token` (of `len` characters) if its length is kept, then
/// empties the buffer.
fn emit(token: &mut String, len: usize, visit: &mut impl FnMut(&str)) {
    if (MIN_TOKEN_LEN..=MAX_TOKEN_LEN).contains(&len) {
        visit(token);
    }
    token.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(
            tokenize("XRules: an effective algorithm!"),
            vec!["xrules", "an", "effective", "algorithm"]
        );
    }

    #[test]
    fn lowercases_everything() {
        assert_eq!(tokenize("KDD Conference"), vec!["kdd", "conference"]);
    }

    #[test]
    fn keeps_digits_and_mixed_tokens() {
        assert_eq!(
            tokenize("pages 316-325 (2003)"),
            vec!["pages", "316", "325", "2003"]
        );
        assert_eq!(tokenize("mp3 x86"), vec!["mp3", "x86"]);
    }

    #[test]
    fn drops_single_characters() {
        assert_eq!(tokenize("M J Zaki"), vec!["zaki"]);
    }

    #[test]
    fn drops_overlong_runs() {
        let long = "a".repeat(41);
        assert!(tokenize(&long).is_empty());
        let ok = "a".repeat(40);
        assert_eq!(tokenize(&ok).len(), 1);
    }

    #[test]
    fn empty_and_symbol_only_inputs_yield_nothing() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ???").is_empty());
    }

    #[test]
    fn lengths_count_characters_after_lowercasing() {
        // `İ` lowercases to two characters, so "İx" is a 3-character token
        // and a lone `İ` a 2-character one.
        assert_eq!(tokenize("İ x"), vec!["i\u{307}"]);
        let mut buffer = String::from("stale");
        let mut seen = Vec::new();
        for_each_token("ab, c; İx", &mut buffer, |t| seen.push(t.to_string()));
        assert_eq!(seen, vec!["ab", "i\u{307}x"]);
    }

    #[test]
    fn unicode_words_are_kept() {
        assert_eq!(tokenize("café naïve"), vec!["café", "naïve"]);
    }
}
