//! Tokenization for code-search documents: lowercasing, splitting on
//! non-alphanumerics, and camelCase / snake_case splitting so identifiers
//! like `isValidCreditCard` match the query "credit card".

/// Tokenize text into lowercase terms. Any character that is not an ASCII
/// letter or digit separates tokens, non-ASCII ones included.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for run in text.split(|c: char| !c.is_ascii_alphanumeric()) {
        if run.is_empty() {
            continue;
        }
        // The run is all ASCII, so every byte index is a char boundary.
        // Split camelCase boundaries and letter/digit boundaries.
        let bytes = run.as_bytes();
        let mut start = 0;
        for i in 1..bytes.len() {
            let (prev, c) = (bytes[i - 1], bytes[i]);
            if (c.is_ascii_uppercase() && prev.is_ascii_lowercase())
                || c.is_ascii_digit() != prev.is_ascii_digit()
            {
                tokens.push(run[start..i].to_ascii_lowercase());
                start = i;
            }
        }
        tokens.push(run[start..].to_ascii_lowercase());
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(tokenize("credit card"), vec!["credit", "card"]);
        assert_eq!(tokenize("ip-address.v4"), vec!["ip", "address", "v", "4"]);
    }

    #[test]
    fn splits_camel_case_identifiers() {
        assert_eq!(
            tokenize("isValidCreditCard"),
            vec!["is", "valid", "credit", "card"]
        );
    }

    #[test]
    fn splits_snake_case_and_digits() {
        assert_eq!(tokenize("parse_ipv4"), vec!["parse", "ipv", "4"]);
        assert_eq!(tokenize("isbn13"), vec!["isbn", "13"]);
    }

    #[test]
    fn lowercases_everything() {
        assert_eq!(tokenize("SWIFT Message"), vec!["swift", "message"]);
    }

    #[test]
    fn non_ascii_characters_separate_tokens() {
        assert_eq!(
            tokenize("naïveCafé中文ABC12xY"),
            vec!["na", "ve", "caf", "abc", "12", "x", "y"]
        );
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("---").is_empty());
    }
}
