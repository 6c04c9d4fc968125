//! Per-type snippet recipes: which PyLite code exists "in the wild" for
//! each covered benchmark type.
//!
//! Every covered type gets at least one faithful validator; popular types
//! additionally get parser/converter variants (the re-purposed code §8.2.2
//! observes), sloppy variants (the §9.2 false-positive sources), and
//! broken/keyword-bait files. Counts per type vary to reproduce the
//! Figure 9 distribution (1..33 relevant functions, mean ≈ 7.4).

use crate::misc;
use crate::model::{Quality, SnippetFile};
use crate::pylite;
use crate::snippets;
use crate::wrap;
use autotype_typesys::gen as pools;
use autotype_typesys::SemanticType;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A snippet before wrapping: base source + the name of its single-string
/// entry function.
struct Base {
    source: String,
    entry: &'static str,
    quality: Quality,
}

fn base(source: String, entry: &'static str) -> Base {
    Base {
        source,
        entry,
        quality: Quality::Good,
    }
}

fn sloppy(source: String, entry: &'static str) -> Base {
    Base {
        source,
        entry,
        quality: Quality::Sloppy,
    }
}

/// The primary and alternative implementations available for a type.
fn bases_for(slug: &str) -> Vec<Base> {
    match slug {
        // --- checksum family -------------------------------------------
        "creditcard" => vec![
            base(
                pylite::creditcard_validator("is_valid_card", true, true),
                "is_valid_card",
            ),
            base(pylite::creditcard_class(), "CreditCard.read_from_number"),
            sloppy(
                pylite::creditcard_validator("check_card", false, false),
                "check_card",
            ),
        ],
        "imei" => vec![base(
            pylite::luhn_fixed_len(
                "is_valid_imei",
                15,
                "validate IMEI mobile equipment identifiers",
            ),
            "is_valid_imei",
        )],
        "uic" => vec![base(
            pylite::luhn_fixed_len(
                "check_wagon_number",
                12,
                "validate UIC railway wagon numbers",
            ),
            "check_wagon_number",
        )],
        "isin" => vec![base(
            pylite::isin_validator("is_valid_isin"),
            "is_valid_isin",
        )],
        "upc" => vec![
            // The paper's §9.2 false positive: the best available UPC code
            // computes the checksum without verifying the length, so ISBN
            // columns (same GS1 algorithm) slip through.
            sloppy(
                pylite::gs1_validator(
                    "check_upc",
                    &[],
                    None,
                    "validate UPC universal product codes",
                ),
                "check_upc",
            ),
        ],
        "ean" => vec![
            base(
                pylite::gs1_validator(
                    "is_valid_ean",
                    &[8, 13],
                    None,
                    "validate EAN european article numbers",
                ),
                "is_valid_ean",
            ),
            sloppy(
                pylite::gs1_validator("ean_checksum_ok", &[], None, "EAN barcode checksum"),
                "ean_checksum_ok",
            ),
        ],
        "gtin" => vec![base(
            pylite::gs1_validator(
                "is_valid_gtin",
                &[14],
                None,
                "validate GTIN global trade item numbers",
            ),
            "is_valid_gtin",
        )],
        "gln" => vec![base(
            pylite::gs1_validator(
                "is_valid_gln",
                &[13],
                None,
                "validate GLN global location numbers",
            ),
            "is_valid_gln",
        )],
        "ismn" => vec![base(
            pylite::gs1_validator(
                "is_valid_ismn",
                &[13],
                Some("9790"),
                "validate ISMN music numbers",
            ),
            "is_valid_ismn",
        )],
        "isbn" => vec![
            base(pylite::isbn_validator("is_valid_isbn"), "is_valid_isbn"),
            base(pylite::isbn_parser(), "parse_isbn"),
        ],
        "issn" => vec![base(
            pylite::issn_validator("is_valid_issn"),
            "is_valid_issn",
        )],
        "iban" => vec![
            base(
                pylite::iban_validator("validate_iban", false),
                "validate_iban",
            ),
            base(pylite::iban_validator("parse_iban", true), "parse_iban"),
        ],
        "lei" => vec![base(pylite::lei_validator("is_valid_lei"), "is_valid_lei")],
        "cusip" => vec![base(
            pylite::cusip_validator("is_valid_cusip"),
            "is_valid_cusip",
        )],
        "sedol" => vec![base(
            pylite::sedol_validator("is_valid_sedol"),
            "is_valid_sedol",
        )],
        "aba" => vec![base(
            pylite::aba_validator("is_valid_routing"),
            "is_valid_routing",
        )],
        "vin" => vec![
            base(pylite::vin_validator("validate_vin", false), "validate_vin"),
            base(pylite::vin_validator("decode_vin", true), "decode_vin"),
        ],
        "imo" => vec![base(pylite::imo_validator("is_valid_imo"), "is_valid_imo")],
        "nhs" => vec![base(pylite::nhs_validator("is_valid_nhs"), "is_valid_nhs")],
        "dea" => vec![base(pylite::dea_validator("is_valid_dea"), "is_valid_dea")],
        "cas" => vec![base(pylite::cas_validator("is_valid_cas"), "is_valid_cas")],
        "orcid" => vec![base(
            pylite::orcid_validator("is_valid_orcid"),
            "is_valid_orcid",
        )],
        "chinaid" => vec![base(
            pylite::chinaid_validator("parse_resident_id"),
            "parse_resident_id",
        )],
        "nmea" => vec![base(
            pylite::nmea_validator("check_sentence"),
            "check_sentence",
        )],

        // --- structural parsers ----------------------------------------
        "ipv4" => vec![
            base(snippets::ipv4_parser("parse_ipv4", true), "parse_ipv4"),
            sloppy(snippets::ipv4_parser("split_ip", false), "split_ip"),
        ],
        "ipv6" => vec![base(
            snippets::ipv6_validator("is_valid_ipv6"),
            "is_valid_ipv6",
        )],
        "url" => vec![base(snippets::url_parser("parse_url"), "parse_url")],
        "email" => vec![
            base(
                snippets::email_validator("is_valid_email", false),
                "is_valid_email",
            ),
            base(
                snippets::email_validator("parse_email", true),
                "parse_email",
            ),
        ],
        "phone" => vec![base(snippets::phone_parser("parse_phone"), "parse_phone")],
        "address" => vec![base(
            snippets::address_parser("parse_address", pools::US_STATES, pools::STREET_SUFFIXES),
            "parse_address",
        )],
        "datetime" => vec![base(snippets::date_parser("parse_date"), "parse_date")],
        "json" => vec![base(snippets::json_validator("is_json"), "is_json")],
        "xml" => vec![base(
            snippets::xml_validator("is_well_formed_xml"),
            "is_well_formed_xml",
        )],
        "html" => vec![base(
            snippets::html_validator("looks_like_html"),
            "looks_like_html",
        )],
        "roman" => vec![base(snippets::roman_parser("roman_to_int"), "roman_to_int")],
        "currency" => vec![base(
            snippets::currency_parser("parse_money"),
            "parse_money",
        )],
        "chemformula" => vec![base(
            snippets::chemformula_parser("parse_formula"),
            "parse_formula",
        )],
        "smiles" => vec![base(
            snippets::smiles_validator("is_valid_smiles"),
            "is_valid_smiles",
        )],
        "inchi" => vec![base(
            snippets::inchi_validator("parse_inchi"),
            "parse_inchi",
        )],
        "fasta" => vec![base(snippets::fasta_validator("is_fasta"), "is_fasta")],
        "fastq" => vec![base(snippets::fastq_validator("is_fastq"), "is_fastq")],
        "geojson" => vec![base(
            snippets::geojson_validator("is_geojson"),
            "is_geojson",
        )],
        "fix" => vec![base(snippets::fix_parser("parse_fix"), "parse_fix")],
        "swift" => vec![base(
            snippets::swift_parser("parse_mt_message"),
            "parse_mt_message",
        )],
        "doi" => vec![base(snippets::doi_parser("parse_doi"), "parse_doi")],
        "personname" => vec![base(
            snippets::personname_checker("looks_like_name", pools::FIRST_NAMES),
            "looks_like_name",
        )],
        "longlat" => vec![base(
            snippets::longlat_parser("parse_coordinates"),
            "parse_coordinates",
        )],
        "oid" => vec![base(
            snippets::oid_validator("is_valid_oid"),
            "is_valid_oid",
        )],
        "unixtime" => vec![base(
            snippets::unixtime_validator("is_epoch_time"),
            "is_epoch_time",
        )],

        // --- shape / charset types --------------------------------------
        "md5" => vec![base(
            snippets::inline_shape_validator("is_md5", &"h".repeat(32), "detect MD5 hash digests"),
            "is_md5",
        )],
        "zipcode" => vec![base(
            snippets::shape_validator(
                "is_zipcode",
                &["ddddd", "ddddd-dddd"],
                "validate US zipcodes",
            ),
            "is_zipcode",
        )],
        "hexcolor" => vec![base(
            snippets::shape_validator(
                "is_hex_color",
                &["#hhhhhh", "#hhh"],
                "validate hex color codes",
            ),
            "is_hex_color",
        )],
        "guid" => vec![base(
            snippets::inline_shape_validator(
                "is_guid",
                "hhhhhhhh-hhhh-hhhh-hhhh-hhhhhhhhhhhh",
                "validate GUID unique identifiers",
            ),
            "is_guid",
        )],
        "mac" => vec![base(
            snippets::shape_validator(
                "is_mac_address",
                &["hh:hh:hh:hh:hh:hh", "hh-hh-hh-hh-hh-hh"],
                "validate MAC hardware addresses",
            ),
            "is_mac_address",
        )],
        "ssn" => vec![base(misc::ssn_validator("is_valid_ssn"), "is_valid_ssn")],
        "ein" => vec![base(misc::ein_validator("is_valid_ein"), "is_valid_ein")],
        "ndc" => vec![base(
            snippets::shape_validator(
                "is_ndc",
                &[
                    "dddd-ddd-d",
                    "dddd-ddd-dd",
                    "ddddd-ddd-d",
                    "ddddd-ddd-dd",
                    "dddd-dddd-d",
                    "dddd-dddd-dd",
                    "ddddd-dddd-d",
                    "ddddd-dddd-dd",
                ],
                "validate FDA national drug codes",
            ),
            "is_ndc",
        )],
        "hcpcs" => vec![base(
            snippets::inline_shape_validator("is_hcpcs", "udddd", "validate HCPCS procedure codes"),
            "is_hcpcs",
        )],
        "icd9" => vec![base(
            snippets::shape_validator(
                "is_icd9",
                &[
                    "ddd", "ddd.d", "ddd.dd", "Vdd", "Vdd.d", "Vdd.dd", "Eddd", "Eddd.d",
                ],
                "validate ICD-9 diagnosis codes",
            ),
            "is_icd9",
        )],
        "icd10" => vec![base(
            snippets::shape_validator(
                "is_icd10",
                &[
                    "udd", "udd.d", "udd.dd", "udd.ddd", "udn", "udn.d", "udn.dd", "udn.nnn",
                    "udn.nnnn",
                ],
                "validate ICD-10 diagnosis codes",
            ),
            "is_icd10",
        )],
        "atc" => vec![base(
            snippets::shape_validator(
                "is_atc",
                &["u", "udd", "uddu", "udduu", "udduudd"],
                "validate ATC therapeutic chemical codes",
            ),
            "is_atc",
        )],
        "uniprot" => vec![base(
            snippets::shape_validator(
                "is_uniprot",
                &["udnnnd"],
                "validate Uniprot protein accessions",
            ),
            "is_uniprot",
        )],
        "ensembl" => vec![base(
            snippets::shape_validator(
                "is_ensembl",
                &[
                    "ENSGddddddddddd",
                    "ENSTddddddddddd",
                    "ENSPddddddddddd",
                    "ENSEddddddddddd",
                ],
                "validate Ensembl gene identifiers",
            ),
            "is_ensembl",
        )],
        "snpid" => vec![base(
            misc::prefix_digits_validator("is_rsid", "rs", 1, 10, "validate dbSNP rs identifiers"),
            "is_rsid",
        )],
        "asin" => vec![base(
            snippets::shape_validator(
                "is_asin",
                &["B0nnnnnnnn", "dddddddddd", "ddddddddd*"],
                "validate amazon ASIN identifiers",
            ),
            "is_asin",
        )],
        "isrc" => vec![base(
            snippets::shape_validator(
                "is_isrc",
                &["uunnnddddddd", "uu-nnn-dd-ddddd"],
                "validate ISRC recording codes",
            ),
            "is_isrc",
        )],
        "bibcode" => vec![base(
            snippets::inline_shape_validator(
                "is_bibcode",
                "dddd**************u",
                "validate ADS bibcodes",
            ),
            "is_bibcode",
        )],
        "ukpostcode" => vec![base(
            snippets::shape_validator(
                "is_uk_postcode",
                &[
                    "ud duu", "udd duu", "uud duu", "uudd duu", "udu duu", "uudu duu",
                ],
                "validate UK postal codes",
            ),
            "is_uk_postcode",
        )],
        "capostcode" => vec![base(
            snippets::shape_validator(
                "is_ca_postcode",
                &["udu dud", "ududud"],
                "validate Canadian postal codes",
            ),
            "is_ca_postcode",
        )],
        "mgrs" => vec![base(misc::mgrs_validator("is_mgrs", false), "is_mgrs")],
        "usng" => vec![base(misc::mgrs_validator("is_usng", true), "is_usng")],
        "utm" => vec![base(misc::utm_validator("is_utm"), "is_utm")],
        "ticker" => vec![base(misc::ticker_validator("is_ticker"), "is_ticker")],
        "bitcoin" => vec![base(
            misc::bitcoin_validator("is_btc_address"),
            "is_btc_address",
        )],
        "msisdn" => vec![base(misc::msisdn_validator("is_msisdn"), "is_msisdn")],
        "rgbcolor" => vec![base(misc::rgb_validator("parse_rgb"), "parse_rgb")],
        "cmyk" => vec![base(
            misc::percent_color_validator("is_cmyk", "cmyk", 4, false, 0),
            "is_cmyk",
        )],
        "hsl" => vec![base(
            misc::percent_color_validator("is_hsl", "hsl", 3, true, 360),
            "is_hsl",
        )],

        // --- pool lookups ------------------------------------------------
        "country" => {
            let mut pool: Vec<&str> = Vec::new();
            pool.extend_from_slice(pools::COUNTRY_CODES_2);
            pool.extend_from_slice(pools::COUNTRY_CODES_3);
            pool.extend_from_slice(pools::COUNTRY_NAMES);
            vec![base(
                snippets::pool_validator(
                    "is_country",
                    &pool,
                    "look up ISO country codes and names",
                    false,
                ),
                "is_country",
            )]
        }
        "usstate" => vec![base(
            snippets::pool_validator(
                "is_us_state",
                pools::US_STATES,
                "look up US state abbreviations",
                false,
            ),
            "is_us_state",
        )],
        "airport" => vec![base(
            snippets::pool_validator(
                "is_airport_code",
                pools::AIRPORT_CODES,
                "look up IATA airport codes",
                false,
            ),
            "is_airport_code",
        )],
        "drugname" => vec![base(
            snippets::pool_validator(
                "is_drug_name",
                pools::DRUG_NAMES,
                "look up medication drug names",
                true,
            ),
            "is_drug_name",
        )],
        "bookname" => vec![base(
            snippets::pool_validator(
                "is_book_title",
                pools::BOOK_TITLES,
                "look up famous book titles",
                false,
            ),
            "is_book_title",
        )],
        "httpstatus" => vec![base(
            snippets::pool_validator(
                "is_http_status",
                pools::HTTP_STATUS,
                "look up HTTP status codes",
                false,
            ),
            "is_http_status",
        )],
        _ => Vec::new(),
    }
}

/// Build all repository snippet files for one benchmark type, wrapping
/// alternates into different invocation variants for coverage.
pub fn snippet_files_for(ty: &SemanticType, seed: u64) -> Vec<SnippetFile> {
    let bases = bases_for(ty.slug);
    if bases.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ ty.id as u64);
    let mut files = Vec::new();
    // A deterministic per-type "popularity" factor controls how many
    // wrapped copies exist (Figure 9's long-tailed distribution).
    let copies = if ty.popular {
        3 + (ty.id % 4)
    } else {
        1 + (ty.id % 3)
    };
    for (i, b) in bases.iter().enumerate() {
        files.push(SnippetFile {
            name: format!("{}_{}", ty.slug, i),
            source: b.source.clone(),
            intent: Some(ty.slug),
            quality: b.quality,
        });
    }
    // Popular types additionally get a "tagger" — validates internally but
    // returns an uninformative label (branch-only signal; see
    // snippets::tagger).
    let primary_entry_simple = !bases[0].entry.contains('.');
    let mut tagger_src: Option<String> = None;
    if ty.popular && primary_entry_simple {
        let inner = bases[0].entry;
        let src = snippets::tagger(&bases[0].source, inner, ty.slug);
        files.push(SnippetFile {
            name: format!("{}_tagger", ty.slug),
            source: src.clone(),
            intent: Some(ty.slug),
            quality: Quality::Good,
        });
        tagger_src = Some(src);
    }
    // Wrapped variants: alternate between the boolean validator and the
    // tagger so the RET baseline (black-box view) misses about half of the
    // re-wrapped relevant functions, as in the paper's Figure 8.
    let primary = &bases[0];
    let inner = primary
        .entry
        .split('.')
        .next()
        .unwrap_or(primary.entry)
        .to_string();
    // Class-style entries cannot be re-wrapped directly; skip those.
    let wrappable = !primary.entry.contains('.');
    if wrappable {
        let example = (ty.generate)(&mut rng);
        let tagged = |src: &Option<String>| -> (String, String) {
            match src {
                Some(s) => (s.clone(), "classify_value".to_string()),
                None => (primary.source.clone(), inner.clone()),
            }
        };
        let (t_src, t_inner) = tagged(&tagger_src);
        let wrappers: Vec<(&str, String)> = vec![
            ("argv", wrap::wrap_argv(&primary.source, &inner)),
            ("stdin", wrap::wrap_stdin(&t_src, &t_inner)),
            ("file", wrap::wrap_file(&primary.source, &inner)),
            ("cls", wrap::wrap_class_method(&t_src, &t_inner, "Checker")),
            (
                "obj",
                wrap::wrap_class_ctor(&primary.source, &inner, "Validator"),
            ),
            ("script", wrap::wrap_script(&t_src, &t_inner, &example)),
        ];
        for (suffix, source) in wrappers.into_iter().take(copies) {
            files.push(SnippetFile {
                name: format!("{}_{}", ty.slug, suffix),
                source,
                intent: Some(ty.slug),
                quality: primary.quality,
            });
        }
    }
    files
}
