//! The Porter stemming algorithm (M.F. Porter, 1980).
//!
//! A faithful implementation of the original five-step suffix-stripping
//! algorithm, operating on ASCII lowercase words. Non-ASCII words are
//! returned unchanged (the corpora here are English; accented tokens are
//! rare and stemming them would be meaningless anyway).
//!
//! Notation from the paper: a word is `[C](VC)^m[V]`; `m` is the *measure*.
//! `*v*` — the stem contains a vowel; `*d` — ends with a double consonant;
//! `*o` — ends consonant-vowel-consonant where the final consonant is not
//! `w`, `x` or `y`.

/// Stems `word`, returning the stem. Words shorter than 3 characters are
/// returned unchanged, per the original algorithm's guard.
pub fn stem(word: &str) -> String {
    stem_into(word, &mut Vec::new()).to_string()
}

/// [`stem`] into `buffer`, which is cleared first and reused: the stem is
/// returned borrowed from it, so a caller stemming word after word through
/// one buffer allocates only when a word outgrows it.
pub fn stem_into<'b>(word: &str, buffer: &'b mut Vec<u8>) -> &'b str {
    buffer.clear();
    buffer.extend_from_slice(word.as_bytes());
    if word.len() > 2 && word.bytes().all(|b| b.is_ascii_lowercase()) {
        step_1a(buffer);
        step_1b(buffer);
        step_1c(buffer);
        step_2(buffer);
        step_3(buffer);
        step_4(buffer);
        step_5a(buffer);
        step_5b(buffer);
    }
    // The buffer holds `word` or the ASCII the steps left of it, so it is
    // always UTF-8.
    std::str::from_utf8(buffer).unwrap_or_default()
}

/// Is `w[i]` a consonant (Porter's definition: `y` is a consonant when it
/// follows a vowel-position; concretely `y` preceded by a consonant is a
/// vowel)?
fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => i == 0 || !is_consonant(w, i - 1),
        _ => true,
    }
}

/// The measure `m` of `w[..len]`: the number of VC sequences.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_consonant(w, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < len && !is_consonant(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // Skip consonants: one full VC found.
        while i < len && is_consonant(w, i) {
            i += 1;
        }
        m += 1;
        if i >= len {
            return m;
        }
    }
}

/// `*v*`: does `w[..len]` contain a vowel?
fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(w, i))
}

/// `*d`: does `w[..len]` end with a double consonant?
fn ends_double_consonant(w: &[u8], len: usize) -> bool {
    len >= 2 && w[len - 1] == w[len - 2] && is_consonant(w, len - 1)
}

/// `*o`: does `w[..len]` end consonant-vowel-consonant, the last not being
/// `w`, `x` or `y`?
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    is_consonant(w, len - 3)
        && !is_consonant(w, len - 2)
        && is_consonant(w, len - 1)
        && !matches!(w[len - 1], b'w' | b'x' | b'y')
}

fn ends_with(w: &[u8], suffix: &str) -> bool {
    w.len() >= suffix.len() && &w[w.len() - suffix.len()..] == suffix.as_bytes()
}

/// If `w` ends with `suffix` and the stem before it has measure > `min_m`,
/// replace the suffix with `replacement` and return true.
fn replace_if_measure(w: &mut Vec<u8>, suffix: &str, replacement: &str, min_m: usize) -> bool {
    if !ends_with(w, suffix) {
        return false;
    }
    let stem_len = w.len() - suffix.len();
    if measure(w, stem_len) > min_m {
        w.truncate(stem_len);
        w.extend_from_slice(replacement.as_bytes());
        true
    } else {
        false
    }
}

fn step_1a(w: &mut Vec<u8>) {
    if ends_with(w, "sses") {
        w.truncate(w.len() - 2); // sses -> ss
    } else if ends_with(w, "ies") {
        w.truncate(w.len() - 2); // ies -> i
    } else if ends_with(w, "ss") {
        // keep
    } else if ends_with(w, "s") {
        w.truncate(w.len() - 1);
    }
}

fn step_1b(w: &mut Vec<u8>) {
    if ends_with(w, "eed") {
        let stem_len = w.len() - 3;
        if measure(w, stem_len) > 0 {
            w.truncate(w.len() - 1); // eed -> ee
        }
        return;
    }
    let stripped = if ends_with(w, "ed") && has_vowel(w, w.len() - 2) {
        w.truncate(w.len() - 2);
        true
    } else if ends_with(w, "ing") && has_vowel(w, w.len() - 3) {
        w.truncate(w.len() - 3);
        true
    } else {
        false
    };
    if !stripped {
        return;
    }
    // Post-strip fix-ups.
    if ends_with(w, "at") || ends_with(w, "bl") || ends_with(w, "iz") {
        w.push(b'e');
    } else if ends_double_consonant(w, w.len()) && !matches!(w[w.len() - 1], b'l' | b's' | b'z') {
        w.truncate(w.len() - 1);
    } else if measure(w, w.len()) == 1 && ends_cvc(w, w.len()) {
        w.push(b'e');
    }
}

fn step_1c(w: &mut [u8]) {
    if ends_with(w, "y") && has_vowel(w, w.len() - 1) {
        let last = w.len() - 1;
        w[last] = b'i';
    }
}

fn step_2(w: &mut Vec<u8>) {
    // Ordered longest-match-first within each final-letter family, as in the
    // original algorithm's switch on the penultimate letter.
    const RULES: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    for (suffix, replacement) in RULES {
        if ends_with(w, suffix) {
            replace_if_measure(w, suffix, replacement, 0);
            return;
        }
    }
}

fn step_3(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    for (suffix, replacement) in RULES {
        if ends_with(w, suffix) {
            replace_if_measure(w, suffix, replacement, 0);
            return;
        }
    }
}

/// Porter's step-4 suffixes, longest first; suffixes of equal length keep
/// the order of Porter's list (`al ance ence er ic able ible ant ement
/// ment ent ion ou ism ate iti ous ive ize`).
const STEP_4_SUFFIXES: [&str; 19] = [
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ion", "ism", "ate", "iti",
    "ous", "ive", "ize", "al", "er", "ic", "ou",
];

fn step_4(w: &mut Vec<u8>) {
    for suffix in STEP_4_SUFFIXES {
        if ends_with(w, suffix) {
            let stem_len = w.len() - suffix.len();
            if measure(w, stem_len) > 1 {
                // "ion" requires the stem to end in 's' or 't'.
                if suffix == "ion" && !(stem_len > 0 && matches!(w[stem_len - 1], b's' | b't')) {
                    return;
                }
                w.truncate(stem_len);
            }
            return;
        }
    }
}

fn step_5a(w: &mut Vec<u8>) {
    if ends_with(w, "e") {
        let stem_len = w.len() - 1;
        let m = measure(w, stem_len);
        if m > 1 || (m == 1 && !ends_cvc(w, stem_len)) {
            w.truncate(stem_len);
        }
    }
}

fn step_5b(w: &mut Vec<u8>) {
    if measure(w, w.len()) > 1 && ends_double_consonant(w, w.len()) && w[w.len() - 1] == b'l' {
        w.truncate(w.len() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(cases: &[(&str, &str)]) {
        for (input, expected) in cases {
            assert_eq!(stem(input), *expected, "stem({input})");
        }
    }

    #[test]
    fn step_1a_plurals() {
        check(&[
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
        ]);
    }

    #[test]
    fn step_1b_past_and_gerund() {
        check(&[
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
        ]);
    }

    #[test]
    fn step_1c_y_to_i() {
        check(&[("happy", "happi"), ("sky", "sky")]);
    }

    #[test]
    fn step_2_suffix_map() {
        check(&[
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
        ]);
    }

    #[test]
    fn step_3_suffix_map() {
        check(&[
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
        ]);
    }

    #[test]
    fn step_4_strips_latin_suffixes() {
        check(&[
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
        ]);
    }

    #[test]
    fn step_4_table_is_porters_list_longest_first() {
        const PORTER: [&str; 19] = [
            "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion",
            "ou", "ism", "ate", "iti", "ous", "ive", "ize",
        ];
        assert!(STEP_4_SUFFIXES
            .windows(2)
            .all(|pair| pair[0].len() >= pair[1].len()));
        // Exactly Porter's 19 suffixes, ties in his order: the stable sort
        // by length that step 4 used to run on every call.
        let mut sorted = PORTER.to_vec();
        sorted.sort_by_key(|s| std::cmp::Reverse(s.len()));
        assert_eq!(STEP_4_SUFFIXES.to_vec(), sorted);
    }

    #[test]
    fn stem_into_reuses_its_buffer() {
        let mut buffer = Vec::new();
        for word in ["clustering", "a", "café", "relational", "2003", "documents"] {
            assert_eq!(stem_into(word, &mut buffer), stem(word), "{word}");
        }
        let long = stem("generalizations");
        assert_eq!(stem_into("generalizations", &mut buffer), long);
        let capacity = buffer.capacity();
        assert_eq!(stem_into("mining", &mut buffer), "mine");
        assert_eq!(buffer.capacity(), capacity);
    }

    #[test]
    fn step_5_final_e_and_double_l() {
        check(&[
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ]);
    }

    #[test]
    fn domain_vocabulary() {
        check(&[
            ("clustering", "cluster"),
            ("clusters", "cluster"),
            ("distributed", "distribut"),
            ("collaborative", "collabor"),
            ("documents", "document"),
            ("mining", "mine"),
            ("networks", "network"),
        ]);
    }

    #[test]
    fn equivalence_classes_collapse() {
        assert_eq!(stem("connect"), stem("connected"));
        assert_eq!(stem("connect"), stem("connecting"));
        assert_eq!(stem("connect"), stem("connection"));
        assert_eq!(stem("connect"), stem("connections"));
    }

    #[test]
    fn short_words_unchanged() {
        check(&[("as", "as"), ("be", "be"), ("on", "on"), ("a", "a")]);
    }

    #[test]
    fn non_ascii_words_unchanged() {
        assert_eq!(stem("café"), "café");
        assert_eq!(stem("naïve"), "naïve");
    }

    #[test]
    fn digits_pass_through() {
        assert_eq!(stem("2003"), "2003");
        assert_eq!(stem("mp3"), "mp3");
    }

    #[test]
    fn idempotent_on_sample() {
        for w in [
            "clustering",
            "relational",
            "hopefulness",
            "caresses",
            "troubled",
            "electriciti",
        ] {
            let once = stem(w);
            let twice = stem(&once);
            // Porter is not guaranteed idempotent in general, but these
            // common cases must be stable.
            assert_eq!(once, twice, "{w}");
        }
    }
}
