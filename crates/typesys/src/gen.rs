//! Random-generation helpers shared by the per-type positive-example
//! generators. All randomness flows through a caller-provided `StdRng` so
//! every experiment is reproducible from a seed.

use rand::rngs::StdRng;
use rand::Rng;

/// `n` random ASCII digits.
pub fn digits(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| char::from(b'0' + rng.gen_range(0..10)))
        .collect()
}

/// `n` random digits with a non-zero first digit.
pub fn digits_nz(rng: &mut StdRng, n: usize) -> String {
    let mut out = String::with_capacity(n);
    out.push(char::from(b'1' + rng.gen_range(0..9)));
    out.push_str(&digits(rng, n - 1));
    out
}

/// `n` random uppercase ASCII letters.
pub fn upper(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| char::from(b'A' + rng.gen_range(0..26)))
        .collect()
}

/// `n` random lowercase ASCII letters.
pub fn lower(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| char::from(b'a' + rng.gen_range(0..26)))
        .collect()
}

/// `n` random characters from `alphabet`.
pub fn from_alphabet(rng: &mut StdRng, alphabet: &str, n: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    (0..n)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

/// A uniformly random element of a slice of `Copy` items.
pub fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// Random hex string of length `n` (lowercase).
pub fn hex(rng: &mut StdRng, n: usize) -> String {
    from_alphabet(rng, "0123456789abcdef", n)
}

/// Common first names used by the person-name / address generators.
pub const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "John",
    "Patricia",
    "Robert",
    "Jennifer",
    "Michael",
    "Linda",
    "David",
    "Elizabeth",
    "William",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Carlos",
    "Karen",
    "Wei",
    "Nancy",
    "Ahmed",
    "Lisa",
    "Yuki",
    "Margaret",
    "Pierre",
    "Sandra",
    "Ivan",
    "Ashley",
];

/// Common last names.
pub const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Chen",
    "Nguyen",
    "Kim",
    "Patel",
    "Mueller",
    "Rossi",
    "Tanaka",
    "Kowalski",
    "Ivanov",
];

/// Street suffixes for mailing addresses.
pub const STREET_SUFFIXES: &[&str] = &[
    "St", "Ave", "Rd", "Blvd", "Ln", "Dr", "Ct", "Pl", "Way", "Ter",
];

/// Street base names.
pub const STREET_NAMES: &[&str] = &[
    "Main",
    "Oak",
    "Maple",
    "Cedar",
    "Pine",
    "Elm",
    "Washington",
    "Lake",
    "Hill",
    "Park",
    "Euclid",
    "Wall",
    "Broad",
    "Church",
    "Market",
    "Spring",
    "High",
    "Center",
    "Union",
    "River",
];

/// US cities (paired loosely with states below).
pub const CITIES: &[&str] = &[
    "Springfield",
    "Portland",
    "Madison",
    "Georgetown",
    "Franklin",
    "Arlington",
    "Salem",
    "Fairview",
    "Riverside",
    "Clinton",
    "Utica",
    "Houston",
    "Seattle",
    "Denver",
    "Austin",
    "Boston",
    "Phoenix",
    "Atlanta",
    "Chicago",
    "Dayton",
];

/// The 50 US state abbreviations plus DC.
pub const US_STATES: &[&str] = &[
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID", "IL", "IN", "IA", "KS",
    "KY", "LA", "ME", "MD", "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY",
    "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV",
    "WI", "WY", "DC",
];

/// ISO 3166-1 alpha-2 country codes (subset).
pub const COUNTRY_CODES_2: &[&str] = &[
    "US", "GB", "DE", "FR", "JP", "CN", "IN", "BR", "CA", "AU", "IT", "ES", "NL", "SE", "CH", "KR",
    "MX", "RU", "ZA", "NO", "DK", "FI", "PL", "BE", "AT", "IE", "PT", "GR", "CZ", "NZ",
];

/// ISO 3166-1 alpha-3 country codes (subset, aligned with the alpha-2 list).
pub const COUNTRY_CODES_3: &[&str] = &[
    "USA", "GBR", "DEU", "FRA", "JPN", "CHN", "IND", "BRA", "CAN", "AUS", "ITA", "ESP", "NLD",
    "SWE", "CHE", "KOR", "MEX", "RUS", "ZAF", "NOR", "DNK", "FIN", "POL", "BEL", "AUT", "IRL",
    "PRT", "GRC", "CZE", "NZL",
];

/// Country display names (aligned with the alpha-2 list).
pub const COUNTRY_NAMES: &[&str] = &[
    "United States",
    "United Kingdom",
    "Germany",
    "France",
    "Japan",
    "China",
    "India",
    "Brazil",
    "Canada",
    "Australia",
    "Italy",
    "Spain",
    "Netherlands",
    "Sweden",
    "Switzerland",
    "South Korea",
    "Mexico",
    "Russia",
    "South Africa",
    "Norway",
    "Denmark",
    "Finland",
    "Poland",
    "Belgium",
    "Austria",
    "Ireland",
    "Portugal",
    "Greece",
    "Czechia",
    "New Zealand",
];

/// IATA airport codes (subset).
pub const AIRPORT_CODES: &[&str] = &[
    "JFK", "LAX", "SEA", "SFO", "ORD", "ATL", "DFW", "DEN", "MIA", "BOS", "LHR", "CDG", "FRA",
    "AMS", "NRT", "HND", "PEK", "SYD", "YYZ", "DXB", "SIN", "ICN", "MAD", "FCO", "ZRH", "VIE",
    "CPH", "OSL", "ARN", "HEL",
];

/// Email domains.
pub const EMAIL_DOMAINS: &[&str] = &[
    "gmail.com",
    "yahoo.com",
    "outlook.com",
    "example.com",
    "mail.org",
    "company.net",
    "university.edu",
    "hotmail.com",
    "proton.me",
    "corp.io",
];

/// Stock tickers (subset of real symbols).
pub const TICKERS: &[&str] = &[
    "AAPL", "MSFT", "GOOG", "AMZN", "TSLA", "META", "NVDA", "IBM", "ORCL", "INTC", "AMD", "CRM",
    "NFLX", "DIS", "BA", "GE", "F", "GM", "T", "VZ", "KO", "PEP", "WMT", "COST", "JPM", "BAC",
    "GS", "MS", "V", "MA",
];

/// Known chemical element symbols (for chemical-formula validation).
pub const ELEMENTS: &[&str] = &[
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne", "Na", "Mg", "Al", "Si", "P", "S", "Cl",
    "Ar", "K", "Ca", "Fe", "Cu", "Zn", "Br", "Ag", "I", "Au", "Hg", "Pb", "Sn", "Ni", "Mn", "Cr",
    "Co", "Ti",
];

/// Common drug names (for the drug-name type).
pub const DRUG_NAMES: &[&str] = &[
    "Atorvastatin",
    "Lisinopril",
    "Metformin",
    "Amlodipine",
    "Metoprolol",
    "Omeprazole",
    "Simvastatin",
    "Losartan",
    "Albuterol",
    "Gabapentin",
    "Hydrochlorothiazide",
    "Sertraline",
    "Ibuprofen",
    "Acetaminophen",
    "Amoxicillin",
    "Azithromycin",
    "Prednisone",
    "Tramadol",
    "Trazodone",
    "Pantoprazole",
    "Fluoxetine",
    "Citalopram",
    "Warfarin",
    "Clopidogrel",
    "Montelukast",
    "Rosuvastatin",
    "Escitalopram",
    "Bupropion",
    "Furosemide",
    "Carvedilol",
];

/// Book titles (for the book-name type and ISBN transformations).
pub const BOOK_TITLES: &[&str] = &[
    "The Great Gatsby",
    "To Kill a Mockingbird",
    "Pride and Prejudice",
    "The Catcher in the Rye",
    "Moby Dick",
    "War and Peace",
    "Crime and Punishment",
    "Brave New World",
    "Jane Eyre",
    "Wuthering Heights",
    "The Odyssey",
    "Don Quixote",
    "Anna Karenina",
    "Great Expectations",
    "The Brothers Karamazov",
    "One Hundred Years of Solitude",
    "A Tale of Two Cities",
    "Les Miserables",
    "The Grapes of Wrath",
    "Lolita",
];

/// Month names and abbreviations for date generation/validation.
pub const MONTHS_FULL: &[&str] = &[
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

/// Three-letter month abbreviations.
pub const MONTHS_ABBR: &[&str] = &[
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Known HTTP status codes.
pub const HTTP_STATUS: &[&str] = &[
    "100", "101", "200", "201", "202", "204", "206", "301", "302", "303", "304", "307", "308",
    "400", "401", "403", "404", "405", "406", "408", "409", "410", "412", "413", "415", "418",
    "422", "429", "500", "501", "502", "503", "504",
];

/// ISO 4217 currency codes (subset).
pub const CURRENCY_CODES: &[&str] = &[
    "USD", "EUR", "GBP", "JPY", "CHF", "CAD", "AUD", "CNY", "INR", "BRL", "SEK", "NOK", "DKK",
    "KRW", "MXN", "ZAR", "PLN", "CZK", "NZD", "SGD",
];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn digit_helpers_produce_expected_lengths() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(digits(&mut rng, 10).len(), 10);
        let d = digits_nz(&mut rng, 5);
        assert_eq!(d.len(), 5);
        assert_ne!(d.as_bytes()[0], b'0');
        assert_eq!(upper(&mut rng, 4).len(), 4);
        assert_eq!(hex(&mut rng, 32).len(), 32);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(digits(&mut a, 20), digits(&mut b, 20));
    }

    #[test]
    fn country_tables_are_aligned() {
        assert_eq!(COUNTRY_CODES_2.len(), COUNTRY_CODES_3.len());
        assert_eq!(COUNTRY_CODES_2.len(), COUNTRY_NAMES.len());
    }
}
