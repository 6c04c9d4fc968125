//! Checksum algorithms used by rich semantic data types.
//!
//! The paper's running examples are Luhn (credit cards, Figure 2) and the
//! GS1 check digit (ISBN-13/EAN/UPC, Figure 3); the benchmark types pull in
//! many more industry-standard algorithms, all implemented here and used by
//! both the ground-truth validators and the corpus snippet generators.

/// Luhn (mod-10 "double every second digit") checksum over an ASCII digit
/// string, including the trailing check digit. Used by credit cards, IMEI,
/// and (over an expanded alphabet) ISIN and NPI.
pub fn luhn_valid(digits: &str) -> bool {
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    luhn_sum(digits).is_multiple_of(10)
}

/// The Luhn sum of a digit string (doubling starts from the second digit
/// from the right).
pub fn luhn_sum(digits: &str) -> u32 {
    digits
        .bytes()
        .rev()
        .enumerate()
        .map(|(i, b)| {
            let d = (b - b'0') as u32;
            if i % 2 == 1 {
                let doubled = d * 2;
                if doubled > 9 {
                    doubled - 9
                } else {
                    doubled
                }
            } else {
                d
            }
        })
        .sum()
}

/// Compute the Luhn check digit to append to `partial`.
pub fn luhn_check_digit(partial: &str) -> u8 {
    // Appending the check digit shifts parity: double from the rightmost of
    // `partial`.
    let sum: u32 = partial
        .bytes()
        .rev()
        .enumerate()
        .map(|(i, b)| {
            let d = (b - b'0') as u32;
            if i % 2 == 0 {
                let doubled = d * 2;
                if doubled > 9 {
                    doubled - 9
                } else {
                    doubled
                }
            } else {
                d
            }
        })
        .sum();
    ((10 - (sum % 10)) % 10) as u8
}

/// GS1 mod-10 checksum (EAN-8/13, UPC-A, GTIN-14, GLN, ISBN-13): weights
/// alternate 3,1 from the digit immediately left of the check digit.
pub fn gs1_valid(digits: &str) -> bool {
    if digits.len() < 2 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    let (body, check) = digits.split_at(digits.len() - 1);
    gs1_check_digit(body) == check.as_bytes()[0] - b'0'
}

/// GS1 check digit for `body` (all digits).
pub fn gs1_check_digit(body: &str) -> u8 {
    let sum: u32 = body
        .bytes()
        .rev()
        .enumerate()
        .map(|(i, b)| {
            let d = (b - b'0') as u32;
            if i % 2 == 0 {
                d * 3
            } else {
                d
            }
        })
        .sum();
    ((10 - (sum % 10)) % 10) as u8
}

/// ISBN-10 checksum: `sum(i * d_i for i in 1..=10) % 11 == 0` with the last
/// position allowed to be `X` (= 10).
pub fn isbn10_valid(s: &str) -> bool {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() != 10 {
        return false;
    }
    let mut sum: u32 = 0;
    for (i, c) in chars.iter().enumerate() {
        let v = match c {
            '0'..='9' => *c as u32 - '0' as u32,
            'X' | 'x' if i == 9 => 10,
            _ => return false,
        };
        sum += (i as u32 + 1) * v;
    }
    sum.is_multiple_of(11)
}

/// ISBN-10 check character for a 9-digit body.
pub fn isbn10_check_char(body: &str) -> char {
    let sum: u32 = body
        .bytes()
        .enumerate()
        .map(|(i, b)| (i as u32 + 1) * (b - b'0') as u32)
        .sum();
    match sum % 11 {
        10 => 'X',
        d => (b'0' + d as u8) as char,
    }
}

/// ISSN checksum: 8 characters, weights 8..=2 over the first seven, check
/// digit `X` = 10.
pub fn issn_valid(s: &str) -> bool {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() != 8 {
        return false;
    }
    let mut sum: u32 = 0;
    for (i, c) in chars.iter().take(7).enumerate() {
        let v = match c {
            '0'..='9' => *c as u32 - '0' as u32,
            _ => return false,
        };
        sum += (8 - i as u32) * v;
    }
    let check = match chars[7] {
        '0'..='9' => chars[7] as u32 - '0' as u32,
        'X' | 'x' => 10,
        _ => return false,
    };
    (sum + check).is_multiple_of(11)
}

/// ISSN check character for a 7-digit body.
pub fn issn_check_char(body: &str) -> char {
    let sum: u32 = body
        .bytes()
        .enumerate()
        .map(|(i, b)| (8 - i as u32) * (b - b'0') as u32)
        .sum();
    match (11 - sum % 11) % 11 {
        10 => 'X',
        d => (b'0' + d as u8) as char,
    }
}

/// ISO 7064 mod-97-10 over a string where letters expand to `10 + index`
/// (IBAN after rotation, LEI directly). Valid when the remainder is 1.
pub fn mod97_remainder(s: &str) -> Option<u32> {
    let mut rem: u32 = 0;
    for c in s.chars() {
        let v = match c {
            '0'..='9' => c as u32 - '0' as u32,
            'A'..='Z' => c as u32 - 'A' as u32 + 10,
            'a'..='z' => c as u32 - 'a' as u32 + 10,
            _ => return None,
        };
        if v < 10 {
            rem = (rem * 10 + v) % 97;
        } else {
            rem = (rem * 100 + v) % 97;
        }
    }
    Some(rem)
}

/// IBAN validation: rotate the first four characters to the end, expand
/// letters, remainder mod 97 must be 1. Length checked per a country table
/// subset.
pub fn iban_valid(s: &str) -> bool {
    let compact: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    if compact.len() < 15 || compact.len() > 34 {
        return false;
    }
    let bytes = compact.as_bytes();
    if !bytes[0].is_ascii_uppercase() || !bytes[1].is_ascii_uppercase() {
        return false;
    }
    if !bytes[2].is_ascii_digit() || !bytes[3].is_ascii_digit() {
        return false;
    }
    let rotated = format!("{}{}", &compact[4..], &compact[..4]);
    mod97_remainder(&rotated) == Some(1)
}

/// ISIN: 2-letter country + 9 alphanumerics + Luhn check over the
/// digit-expanded form.
pub fn isin_valid(s: &str) -> bool {
    if s.len() != 12 {
        return false;
    }
    let bytes = s.as_bytes();
    if !bytes[0].is_ascii_uppercase() || !bytes[1].is_ascii_uppercase() {
        return false;
    }
    if !bytes[11].is_ascii_digit() {
        return false;
    }
    let mut expanded = String::with_capacity(24);
    for c in s.chars() {
        match c {
            '0'..='9' => expanded.push(c),
            'A'..='Z' => expanded.push_str(&(c as u32 - 'A' as u32 + 10).to_string()),
            _ => return false,
        }
    }
    luhn_valid(&expanded)
}

/// CUSIP: 9 characters; digits keep value, letters are `position + 9`,
/// `*`=36 `@`=37 `#`=38; every second value doubled; digit-sum mod 10.
pub fn cusip_valid(s: &str) -> bool {
    if s.len() != 9 {
        return false;
    }
    let mut sum: u32 = 0;
    for (i, c) in s.chars().enumerate().take(8) {
        let mut v = match c {
            '0'..='9' => c as u32 - '0' as u32,
            'A'..='Z' => c as u32 - 'A' as u32 + 10,
            'a'..='z' => c as u32 - 'a' as u32 + 10,
            '*' => 36,
            '@' => 37,
            '#' => 38,
            _ => return false,
        };
        if i % 2 == 1 {
            v *= 2;
        }
        sum += v / 10 + v % 10;
    }
    let check = match s.chars().nth(8) {
        Some(c @ '0'..='9') => c as u32 - '0' as u32,
        _ => return false,
    };
    (10 - sum % 10) % 10 == check
}

/// SEDOL: 7 characters (letters exclude vowels), weights 1,3,1,7,3,9 plus a
/// final check digit making the weighted sum divisible by 10.
pub fn sedol_valid(s: &str) -> bool {
    const WEIGHTS: [u32; 7] = [1, 3, 1, 7, 3, 9, 1];
    if s.len() != 7 {
        return false;
    }
    let mut sum = 0u32;
    for (i, c) in s.chars().enumerate() {
        let v = match c {
            '0'..='9' => c as u32 - '0' as u32,
            'B' | 'C' | 'D' | 'F' | 'G' | 'H' | 'J' | 'K' | 'L' | 'M' | 'N' | 'P' | 'Q' | 'R'
            | 'S' | 'T' | 'V' | 'W' | 'X' | 'Y' | 'Z' => c as u32 - 'A' as u32 + 10,
            _ => return false,
        };
        if i == 6 && !c.is_ascii_digit() {
            return false;
        }
        sum += WEIGHTS[i] * v;
    }
    sum.is_multiple_of(10)
}

/// SEDOL check digit for a 6-character body.
pub fn sedol_check_digit(body: &str) -> Option<u8> {
    const WEIGHTS: [u32; 6] = [1, 3, 1, 7, 3, 9];
    if body.len() != 6 {
        return None;
    }
    let mut sum = 0u32;
    for (i, c) in body.chars().enumerate() {
        let v = match c {
            '0'..='9' => c as u32 - '0' as u32,
            'A'..='Z' => c as u32 - 'A' as u32 + 10,
            _ => return None,
        };
        sum += WEIGHTS[i] * v;
    }
    Some(((10 - sum % 10) % 10) as u8)
}

/// ABA routing number: 9 digits with 3-7-1 weighted sum divisible by 10.
pub fn aba_valid(s: &str) -> bool {
    if s.len() != 9 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    let d: Vec<u32> = s.bytes().map(|b| (b - b'0') as u32).collect();
    let sum = 3 * (d[0] + d[3] + d[6]) + 7 * (d[1] + d[4] + d[7]) + (d[2] + d[5] + d[8]);
    sum.is_multiple_of(10)
}

/// VIN (ISO 3779): 17 characters excluding I, O, Q; position 9 is a check
/// digit computed from transliterated values and positional weights.
pub fn vin_valid(s: &str) -> bool {
    const WEIGHTS: [u32; 17] = [8, 7, 6, 5, 4, 3, 2, 10, 0, 9, 8, 7, 6, 5, 4, 3, 2];
    if s.len() != 17 {
        return false;
    }
    let mut sum = 0u32;
    for (i, c) in s.chars().enumerate() {
        let v = match vin_translit(c) {
            Some(v) => v,
            None => return false,
        };
        sum += WEIGHTS[i] * v;
    }
    let expected = match sum % 11 {
        10 => 'X',
        d => (b'0' + d as u8) as char,
    };
    s.chars().nth(8) == Some(expected)
}

/// VIN character transliteration values (I, O, Q are illegal).
pub fn vin_translit(c: char) -> Option<u32> {
    Some(match c.to_ascii_uppercase() {
        '0'..='9' => c as u32 - '0' as u32,
        'A' => 1,
        'B' => 2,
        'C' => 3,
        'D' => 4,
        'E' => 5,
        'F' => 6,
        'G' => 7,
        'H' => 8,
        'J' => 1,
        'K' => 2,
        'L' => 3,
        'M' => 4,
        'N' => 5,
        'P' => 7,
        'R' => 9,
        'S' => 2,
        'T' => 3,
        'U' => 4,
        'V' => 5,
        'W' => 6,
        'X' => 7,
        'Y' => 8,
        'Z' => 9,
        _ => return None,
    })
}

/// IMO ship identification number: `IMO` + 7 digits, weighted 7..=2 over the
/// first six with the units digit of the sum as check digit.
pub fn imo_valid(s: &str) -> bool {
    let digits = match s.strip_prefix("IMO ").or_else(|| s.strip_prefix("IMO")) {
        Some(d) => d.trim(),
        None => s,
    };
    if digits.len() != 7 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    let d: Vec<u32> = digits.bytes().map(|b| (b - b'0') as u32).collect();
    let sum: u32 = (0..6).map(|i| d[i] * (7 - i as u32)).sum();
    sum % 10 == d[6]
}

/// NHS number: 10 digits, weights 10..=2, check digit `11 - (sum mod 11)`
/// with 11 mapped to 0 and 10 invalid.
pub fn nhs_valid(s: &str) -> bool {
    let compact: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    if compact.len() != 10 || !compact.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    let d: Vec<u32> = compact.bytes().map(|b| (b - b'0') as u32).collect();
    let sum: u32 = (0..9).map(|i| d[i] * (10 - i as u32)).sum();
    let check = match 11 - (sum % 11) {
        11 => 0,
        10 => return false,
        v => v,
    };
    check == d[9]
}

/// NPI (US National Provider Identifier): 10 digits; Luhn over `80840` +
/// first nine digits, with the tenth as check digit.
pub fn npi_valid(s: &str) -> bool {
    if s.len() != 10 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    let expanded = format!("80840{s}");
    luhn_valid(&expanded)
}

/// ISO 7064 mod 11-2 check character (used by ORCID and ISNI): returns the
/// expected final character for the 15-digit body.
pub fn mod11_2_check_char(body: &str) -> Option<char> {
    let mut total: u32 = 0;
    for b in body.bytes() {
        if !b.is_ascii_digit() {
            return None;
        }
        total = (total + (b - b'0') as u32) * 2;
    }
    let remainder = total % 11;
    let result = (12 - remainder) % 11;
    Some(match result {
        10 => 'X',
        d => (b'0' + d as u8) as char,
    })
}

/// ORCID: four dash-separated groups of 4, mod 11-2 check character.
pub fn orcid_valid(s: &str) -> bool {
    let parts: Vec<&str> = s.split('-').collect();
    if parts.len() != 4 || parts.iter().any(|p| p.len() != 4) {
        return false;
    }
    let compact: String = parts.concat();
    let (body, check) = compact.split_at(15);
    mod11_2_check_char(body) == check.chars().next()
}

/// Chinese resident identity number: 18 characters, ISO 7064 mod 11-2
/// variant with weights `2^(17-i) mod 11` and check map `10X98765432`.
pub fn china_id_valid(s: &str) -> bool {
    const CHECK_MAP: [char; 11] = ['1', '0', 'X', '9', '8', '7', '6', '5', '4', '3', '2'];
    let chars: Vec<char> = s.chars().collect();
    if chars.len() != 18 {
        return false;
    }
    // Weights are 2^(17-i) mod 11: 7 9 10 5 8 4 2 1 6 3 7 9 10 5 8 4 2.
    const WEIGHTS: [u32; 17] = [7, 9, 10, 5, 8, 4, 2, 1, 6, 3, 7, 9, 10, 5, 8, 4, 2];
    let mut sum: u32 = 0;
    for (i, c) in chars.iter().take(17).enumerate() {
        let v = match c {
            '0'..='9' => *c as u32 - '0' as u32,
            _ => return false,
        };
        sum += v * WEIGHTS[i];
    }
    let check = CHECK_MAP[(sum % 11) as usize];
    chars[17].to_ascii_uppercase() == check
}

/// IMEI: 15 digits with Luhn.
pub fn imei_valid(s: &str) -> bool {
    let compact: String = s.chars().filter(|c| *c != '-' && *c != ' ').collect();
    compact.len() == 15 && luhn_valid(&compact)
}

/// LEI (Legal Entity Identifier): 20 alphanumerics, mod-97 remainder 1.
pub fn lei_valid(s: &str) -> bool {
    if s.len() != 20 {
        return false;
    }
    if !s.chars().all(|c| c.is_ascii_alphanumeric()) {
        return false;
    }
    if !s[18..].bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    mod97_remainder(s) == Some(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luhn_known_values() {
        // Paper Figure 6 examples.
        assert!(luhn_valid("4147202263232835"));
        assert!(luhn_valid("371449635398431"));
        assert!(luhn_valid("6011016011016011"));
        assert!(!luhn_valid("4147202263232836"));
        assert!(!luhn_valid("4147a02263232835"));
        assert!(!luhn_valid(""));
    }

    #[test]
    fn luhn_check_digit_roundtrip() {
        for partial in ["414720226323283", "37144963539843", "123456789"] {
            let check = luhn_check_digit(partial);
            let full = format!("{partial}{check}");
            assert!(luhn_valid(&full), "{full} should be Luhn-valid");
        }
    }

    #[test]
    fn gs1_isbn13_and_ean() {
        // Paper §9.2 example ISBN-13.
        assert!(gs1_valid("9784063641561"));
        assert!(!gs1_valid("9784063641562"));
        // EAN-8.
        assert!(gs1_valid("96385074"));
        // UPC-A.
        assert!(gs1_valid("036000291452"));
    }

    #[test]
    fn gs1_check_digit_roundtrip() {
        for body in ["978406364156", "03600029145", "9638507"] {
            let check = gs1_check_digit(body);
            assert!(gs1_valid(&format!("{body}{check}")));
        }
    }

    #[test]
    fn isbn10_known() {
        assert!(isbn10_valid("0306406152"));
        assert!(isbn10_valid("097522980X"));
        assert!(!isbn10_valid("0306406153"));
        assert_eq!(isbn10_check_char("030640615"), '2');
    }

    #[test]
    fn issn_known() {
        assert!(issn_valid("03784371"));
        assert!(issn_valid("0024936X"));
        assert!(!issn_valid("03784372"));
        assert_eq!(issn_check_char("0378437"), '1');
    }

    #[test]
    fn iban_known() {
        assert!(iban_valid("GB82WEST12345698765432"));
        assert!(iban_valid("DE89370400440532013000"));
        assert!(iban_valid("GB82 WEST 1234 5698 7654 32"));
        assert!(!iban_valid("GB82WEST12345698765433"));
        assert!(!iban_valid("XX00"));
    }

    #[test]
    fn isin_known() {
        assert!(isin_valid("US0378331005")); // Apple
        assert!(isin_valid("GB0002634946")); // BAE
        assert!(!isin_valid("US0378331006"));
        assert!(!isin_valid("us0378331005"));
    }

    #[test]
    fn cusip_known() {
        assert!(cusip_valid("037833100")); // Apple
        assert!(cusip_valid("17275R102")); // Cisco
        assert!(!cusip_valid("037833101"));
    }

    #[test]
    fn sedol_known() {
        assert!(sedol_valid("0263494")); // BAE Systems
        assert!(sedol_valid("B0WNLY7"));
        assert!(!sedol_valid("0263495"));
        assert_eq!(sedol_check_digit("026349"), Some(4));
    }

    #[test]
    fn aba_known() {
        assert!(aba_valid("111000025"));
        assert!(aba_valid("021000021"));
        assert!(!aba_valid("111000026"));
        assert!(!aba_valid("11100002"));
    }

    #[test]
    fn vin_known() {
        assert!(vin_valid("1M8GDM9AXKP042788"));
        assert!(vin_valid("11111111111111111"));
        assert!(!vin_valid("1M8GDM9AXKP042789"));
        assert!(!vin_valid("1M8GDM9AIKP042788")); // contains I
    }

    #[test]
    fn imo_known() {
        assert!(imo_valid("IMO 9074729"));
        assert!(imo_valid("9074729"));
        assert!(!imo_valid("9074728"));
    }

    #[test]
    fn nhs_known() {
        assert!(nhs_valid("9434765919"));
        assert!(!nhs_valid("9434765918"));
    }

    #[test]
    fn npi_known() {
        assert!(npi_valid("1245319599"));
        assert!(!npi_valid("1245319598"));
    }

    #[test]
    fn orcid_known() {
        assert!(orcid_valid("0000-0002-1825-0097"));
        assert!(!orcid_valid("0000-0002-1825-0098"));
        assert!(!orcid_valid("0000-0002-1825"));
    }

    #[test]
    fn imei_known() {
        assert!(imei_valid("490154203237518"));
        assert!(!imei_valid("490154203237519"));
    }

    #[test]
    fn lei_known() {
        assert!(lei_valid("5493001KJTIIGC8Y1R12"));
        assert!(!lei_valid("5493001KJTIIGC8Y1R13"));
    }

    #[test]
    fn china_id_known() {
        assert!(china_id_valid("11010519491231002X"));
        assert!(!china_id_valid("110105194912310021"));
    }

    #[test]
    fn mod97_rejects_non_alnum() {
        assert_eq!(mod97_remainder("AB-12"), None);
    }
}
