//! More snippet emitters: shape/pool-based validators, bespoke parsers for
//! structural types, invocation-variant wrappers, and distractor code.

/// A validator delegating to the `relib` shape matcher (exercises
/// dependency installation, §4.2).
pub fn shape_validator(func: &str, shapes: &[&str], comment: &str) -> String {
    let list = shapes
        .iter()
        .map(|s| format!("'{s}'"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "# {comment}\nimport relib\n\ndef {func}(s):\n    shapes = [{list}]\n    if relib.match_any(s, shapes):\n        return True\n    return False\n"
    )
}

/// An inline (no-import) shape validator for a single fixed pattern.
pub fn inline_shape_validator(func: &str, shape: &str, comment: &str) -> String {
    format!(
        r#"# {comment}
def {func}(s):
    shape = '{shape}'
    if len(s) != len(shape):
        return False
    i = 0
    while i < len(s):
        c = s[i]
        k = shape[i]
        if k == 'd':
            if not c.isdigit():
                return False
        elif k == 'h':
            if c not in '0123456789abcdefABCDEF':
                return False
        elif k == 'u':
            if not c.isalpha():
                return False
            if not c.isupper():
                return False
        elif k == 'n':
            if not c.isalnum():
                return False
        elif k != '*':
            if c != k:
                return False
        i += 1
    return True
"#
    )
}

/// Membership-lookup validator over a constant pool (country codes, state
/// abbreviations, airport codes, drug names, ...).
pub fn pool_validator(func: &str, pool: &[&str], comment: &str, case_insensitive: bool) -> String {
    let entries = pool
        .iter()
        .map(|p| {
            format!(
                "'{}'",
                if case_insensitive {
                    p.to_lowercase()
                } else {
                    p.to_string()
                }
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let lookup = if case_insensitive {
        "s.strip().lower()"
    } else {
        "s.strip()"
    };
    format!(
        "# {comment}\nKNOWN = [{entries}]\n\ndef {func}(s):\n    key = {lookup}\n    if key in KNOWN:\n        return True\n    return False\n"
    )
}

/// IPv4 parser (raises on invalid input; exposes octets for Table 3).
pub fn ipv4_parser(func: &str, strict_segments: bool) -> String {
    let mut src = String::from("# parse ipv4 dotted-quad addresses into octets\n");
    src.push_str(&format!("def {func}(s):\n"));
    src.push_str("    parts = s.split('.')\n");
    if strict_segments {
        src.push_str("    if len(parts) != 4:\n        raise ValueError('ipv4 needs 4 octets')\n");
    }
    src.push_str(
        r#"    octets = []
    for p in parts:
        if len(p) == 0 or len(p) > 3:
            raise ValueError('bad octet')
        v = int(p)
        if v < 0 or v > 255:
            raise ValueError('octet out of range')
        octets.append(v)
    info = {}
    info['network'] = octets[0]
    info['host'] = octets[len(octets) - 1]
    if octets[0] == 10:
        info['private'] = True
    elif octets[0] == 192:
        info['private'] = True
    else:
        info['private'] = False
    return info
"#,
    );
    src
}

/// IPv6 validator (full and :: compressed forms).
pub fn ipv6_validator(func: &str) -> String {
    format!(
        r#"# validate ipv6 addresses including compressed forms
def group_ok(g):
    if len(g) < 1 or len(g) > 4:
        return False
    for c in g:
        if c not in '0123456789abcdefABCDEF':
            return False
    return True

def {func}(s):
    if len(s) == 0:
        return False
    double = s.count('::')
    if double > 1:
        return False
    if s.count(':::') > 0:
        return False
    if double == 1:
        halves = s.split('::')
        head = halves[0]
        tail = halves[1]
        count = 0
        if len(head) > 0:
            for g in head.split(':'):
                if not group_ok(g):
                    return False
                count += 1
        if len(tail) > 0:
            for g in tail.split(':'):
                if not group_ok(g):
                    return False
                count += 1
        return count <= 7
    groups = s.split(':')
    if len(groups) != 8:
        return False
    for g in groups:
        if not group_ok(g):
            return False
    return True
"#
    )
}

/// URL parser exposing scheme/host/path.
pub fn url_parser(func: &str) -> String {
    format!(
        r#"# parse urls into scheme, host and path
def {func}(s):
    marker = s.find('://')
    if marker < 0:
        raise ValueError('missing scheme')
    scheme = s[:marker]
    if scheme not in ['http', 'https', 'ftp', 'ftps']:
        raise ValueError('unknown scheme')
    rest = s[marker + 3:]
    slash = rest.find('/')
    if slash < 0:
        host = rest
        path = '/'
    else:
        host = rest[:slash]
        path = rest[slash:]
    if host.find('.') < 0:
        raise ValueError('host needs a dot')
    for c in host:
        if not c.isalnum() and c != '.' and c != '-' and c != ':':
            raise ValueError('bad host character')
    info = {{}}
    info['scheme'] = scheme
    info['host'] = host
    info['path'] = path
    domain_parts = host.split('.')
    info['tld'] = domain_parts[len(domain_parts) - 1]
    return info
"#
    )
}

/// Email validator with domain extraction.
pub fn email_validator(func: &str, parse: bool) -> String {
    let mut src = String::from("# validate email addresses and extract the domain\n");
    src.push_str(&format!("def {func}(s):\n"));
    src.push_str(
        r#"    at = s.find('@')
    if at <= 0:
        raise ValueError('missing @')
    local = s[:at]
    domain = s[at + 1:]
    if s.find(' ') >= 0:
        raise ValueError('no spaces allowed')
    for c in local:
        if not c.isalnum() and c not in '._%+-':
            raise ValueError('bad local character')
    labels = domain.split('.')
    if len(labels) < 2:
        raise ValueError('domain needs a dot')
    for label in labels:
        if len(label) == 0:
            raise ValueError('empty label')
        for c in label:
            if not c.isalnum() and c != '-':
                raise ValueError('bad domain character')
    tld = labels[len(labels) - 1]
    if len(tld) < 2:
        raise ValueError('short tld')
    for c in tld:
        if not c.isalpha():
            raise ValueError('tld must be letters')
"#,
    );
    if parse {
        src.push_str("    info = {}\n    info['local'] = local\n    info['domain'] = domain\n    info['tld'] = tld\n    return info\n");
    } else {
        src.push_str("    return True\n");
    }
    src
}

/// US phone-number parser.
pub fn phone_parser(func: &str) -> String {
    format!(
        r#"# parse north american phone numbers
def {func}(s):
    t = s.strip()
    country = '1'
    if t[:2] == '+1':
        t = t[2:].strip()
    digits = ''
    for c in t:
        if c.isdigit():
            digits = digits + c
        elif c not in ' ()-.':
            raise ValueError('bad character in phone number')
    if len(digits) == 11 and digits[0] == '1':
        digits = digits[1:]
    if len(digits) != 10:
        raise ValueError('need 10 digits')
    if int(digits[0]) < 2:
        raise ValueError('bad area code')
    info = {{}}
    info['country'] = country
    info['area_code'] = digits[:3]
    info['exchange'] = digits[3:6]
    info['line'] = digits[6:]
    return info
"#
    )
}

/// Mailing-address parser — the "address-parsing service" style function
/// (§9.2: the top function cannot handle partial addresses).
pub fn address_parser(func: &str, states: &[&str], suffixes: &[&str]) -> String {
    let state_list = states
        .iter()
        .map(|s| format!("'{s}'"))
        .collect::<Vec<_>>()
        .join(", ");
    let suffix_list = suffixes
        .iter()
        .map(|s| format!("'{}'", s.to_lowercase()))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        r#"# parse US mailing addresses into street, city, state and zip
STATES = [{state_list}]
SUFFIXES = [{suffix_list}]

def {func}(s):
    parts = s.split(',')
    if len(parts) < 3:
        raise ValueError('need street, city and state parts')
    street = parts[0].strip()
    words = street.split()
    if len(words) < 3:
        raise ValueError('street too short')
    number = words[0]
    for c in number:
        if not c.isdigit():
            raise ValueError('house number expected')
    suffix = words[len(words) - 1].lower()
    suffix = suffix.strip('.')
    if suffix not in SUFFIXES:
        raise ValueError('unknown street suffix')
    tail = parts[len(parts) - 1].strip()
    tail_words = tail.split()
    if len(tail_words) != 2:
        raise ValueError('state and zip expected')
    state = tail_words[0]
    if state not in STATES:
        raise ValueError('unknown state')
    zipcode = tail_words[1]
    zip5 = zipcode.split('-')[0]
    if len(zip5) != 5:
        raise ValueError('zip must be 5 digits')
    for c in zip5:
        if not c.isdigit():
            raise ValueError('zip must be digits')
    info = {{}}
    info['street_number'] = number
    info['city'] = parts[1].strip()
    info['state'] = state
    info['zipcode'] = zipcode
    return info
"#
    )
}

/// Date parser with month-name dictionary, numeric formats and range
/// checks — the paper's running example of *implicit* validation ("Sep" is
/// a month, "Abc" is not).
pub fn date_parser(func: &str) -> String {
    format!(
        r#"# parse date strings: 'Sep 15, 2011', '2011-09-15', '09/15/2011'
MONTHS = {{'jan': 1, 'feb': 2, 'mar': 3, 'apr': 4, 'may': 5, 'jun': 6, 'jul': 7, 'aug': 8, 'sep': 9, 'oct': 10, 'nov': 11, 'dec': 12, 'january': 1, 'february': 2, 'march': 3, 'april': 4, 'june': 6, 'july': 7, 'august': 8, 'september': 9, 'october': 10, 'november': 11, 'december': 12}}

def days_in(month, year):
    if month in [1, 3, 5, 7, 8, 10, 12]:
        return 31
    if month == 2:
        if year % 4 == 0 and year % 100 != 0:
            return 29
        if year % 400 == 0:
            return 29
        return 28
    return 30

def check_ymd(year, month, day):
    if year < 1000 or year > 2100:
        raise ValueError('year out of range')
    if month < 1 or month > 12:
        raise ValueError('month out of range')
    if day < 1 or day > days_in(month, year):
        raise ValueError('day out of range')
    info = {{}}
    info['year'] = year
    info['month'] = month
    info['day'] = day
    return info

def {func}(s):
    tokens = s.strip().split()
    while len(tokens) > 0:
        last = tokens[len(tokens) - 1]
        if last == 'AM' or last == 'PM' or last.find(':') >= 0:
            tokens.pop()
        else:
            break
    t = ' '.join(tokens)
    if t.find('-') > 0:
        parts = t.split('-')
        if len(parts) == 3 and len(parts[0]) == 4:
            return check_ymd(int(parts[0]), int(parts[1]), int(parts[2]))
        raise ValueError('bad dashed date')
    if t.find('/') > 0:
        parts = t.split('/')
        if len(parts) == 3 and len(parts[2]) == 4:
            return check_ymd(int(parts[2]), int(parts[0]), int(parts[1]))
        raise ValueError('bad slashed date')
    cleaned = t.replace(',', ' ')
    tokens = cleaned.split()
    if len(tokens) == 3:
        m = MONTHS.get(tokens[0].lower())
        if m != None:
            return check_ymd(int(tokens[2]), m, int(tokens[1]))
        m = MONTHS.get(tokens[1].lower())
        if m != None:
            return check_ymd(int(tokens[2]), m, int(tokens[0]))
    raise ValueError('unrecognized date format')
"#
    )
}

/// JSON syntax checker (stack-based: braces, brackets, strings, commas).
pub fn json_validator(func: &str) -> String {
    format!(
        r#"# check whether a string is a well-formed json document
def {func}(s):
    t = s.strip()
    if len(t) == 0:
        return False
    first = t[0]
    if first != '{{' and first != '[':
        return False
    stack = []
    in_string = False
    escaped = False
    i = 0
    while i < len(t):
        c = t[i]
        if in_string:
            if escaped:
                escaped = False
            elif c == '\\':
                escaped = True
            elif c == '"':
                in_string = False
        else:
            if c == '"':
                in_string = True
            elif c == '{{' or c == '[':
                stack.append(c)
            elif c == '}}':
                if len(stack) == 0 or stack.pop() != '{{':
                    return False
            elif c == ']':
                if len(stack) == 0 or stack.pop() != '[':
                    return False
        i += 1
    if in_string:
        return False
    return len(stack) == 0
"#
    )
}

/// XML well-formedness checker (tag stack).
pub fn xml_validator(func: &str) -> String {
    format!(
        r#"# check whether a string is well-formed xml
def {func}(s):
    t = s.strip()
    if len(t) == 0 or t[0] != '<':
        return False
    stack = []
    saw = False
    i = 0
    while i < len(t):
        if t[i] == '<':
            close = -1
            j = i + 1
            while j < len(t):
                if t[j] == '>':
                    close = j
                    break
                j += 1
            if close < 0:
                return False
            tag = t[i + 1:close]
            if len(tag) == 0:
                return False
            if tag[0] == '?' or tag[0] == '!':
                pass
            elif tag[0] == '/':
                name = tag[1:]
                if len(stack) == 0:
                    return False
                if stack.pop() != name:
                    return False
            elif tag[len(tag) - 1] == '/':
                saw = True
            else:
                name = tag.split()[0]
                if not name[0].isalpha():
                    return False
                stack.append(name)
                saw = True
            i = close + 1
        else:
            i += 1
    return len(stack) == 0 and saw
"#
    )
}

/// HTML sniffer.
pub fn html_validator(func: &str) -> String {
    format!(
        r#"# detect html markup fragments
TAGS = ['html', 'div', 'p', 'a', 'span', 'table', 'tr', 'td', 'ul', 'li', 'h1', 'h2', 'body', 'b', 'i', 'img', 'br', 'head', 'title']

def {func}(s):
    t = s.strip().lower()
    if len(t) < 3:
        return False
    if t[0] != '<':
        return False
    if t[len(t) - 1] != '>':
        return False
    for tag in TAGS:
        if t.find('<' + tag) >= 0:
            if t.find('</' + tag + '>') >= 0:
                return True
            if t.find('/>') >= 0:
                return True
    return False
"#
    )
}

/// Roman-numeral parser (value computation with subtractive checks).
pub fn roman_parser(func: &str) -> String {
    format!(
        r#"# convert roman numerals to integers with strict validation
VALUES = {{'I': 1, 'V': 5, 'X': 10, 'L': 50, 'C': 100, 'D': 500, 'M': 1000}}

def {func}(s):
    if len(s) == 0:
        raise ValueError('empty')
    total = 0
    i = 0
    prev = 0
    repeat = 0
    while i < len(s):
        c = s[i]
        if c not in VALUES:
            raise ValueError('not a roman numeral character')
        v = VALUES[c]
        if i + 1 < len(s):
            nxt = s[i + 1]
            if nxt not in VALUES:
                raise ValueError('not a roman numeral character')
            w = VALUES[nxt]
        else:
            w = 0
        if v == prev:
            repeat += 1
            if repeat >= 3:
                if c == 'V' or c == 'L' or c == 'D':
                    raise ValueError('illegal repeat')
                raise ValueError('too many repeats')
        else:
            repeat = 0
        if v < w:
            if w > v * 10:
                raise ValueError('illegal subtractive pair')
            if c == 'V' or c == 'L' or c == 'D':
                raise ValueError('illegal subtractive pair')
            total = total + w - v
            i += 2
            prev = 0
            continue
        total = total + v
        prev = v
        i += 1
    if total <= 0 or total > 3999:
        raise ValueError('out of range')
    return total
"#
    )
}

/// Currency-amount parser.
pub fn currency_parser(func: &str) -> String {
    format!(
        r#"# parse currency amounts like $1,234.56 or USD 25.00
CODES = ['USD', 'EUR', 'GBP', 'JPY', 'CHF', 'CAD', 'AUD', 'CNY', 'INR', 'BRL', 'SEK', 'NOK', 'DKK', 'KRW', 'MXN', 'ZAR', 'PLN', 'CZK', 'NZD', 'SGD']

def check_number(n):
    if len(n) == 0:
        raise ValueError('no amount')
    dot = n.find('.')
    if dot >= 0:
        frac = n[dot + 1:]
        if len(frac) != 2:
            raise ValueError('cents must be 2 digits')
        for c in frac:
            if not c.isdigit():
                raise ValueError('bad cents')
        whole = n[:dot]
    else:
        whole = n
    groups = whole.split(',')
    if len(groups) == 1:
        if len(whole) == 0:
            raise ValueError('no digits')
        for c in whole:
            if not c.isdigit():
                raise ValueError('bad digit')
        return True
    if len(groups[0]) == 0 or len(groups[0]) > 3:
        raise ValueError('bad grouping')
    gi = 0
    for g in groups:
        if gi > 0 and len(g) != 3:
            raise ValueError('bad thousands group')
        for c in g:
            if not c.isdigit():
                raise ValueError('bad digit')
        gi += 1
    return True

def {func}(s):
    t = s.strip()
    info = {{}}
    symbol = t[0]
    if symbol == '$' or symbol == '€' or symbol == '£' or symbol == '¥':
        info['currency'] = symbol
        check_number(t[1:].strip())
        return info
    if len(t) > 4 and t[:3] in CODES and t[3] == ' ':
        info['currency'] = t[:3]
        check_number(t[4:])
        return info
    if len(t) > 4 and t[len(t) - 3:] in CODES and t[len(t) - 4] == ' ':
        info['currency'] = t[len(t) - 3:]
        check_number(t[:len(t) - 4])
        return info
    raise ValueError('no currency marker')
"#
    )
}

/// Chemical-formula parser with atomic masses (Table 3: molecular mass).
pub fn chemformula_parser(func: &str) -> String {
    format!(
        r#"# parse chemical formulas and compute molecular mass
MASSES = {{'H': 1, 'He': 4, 'Li': 7, 'Be': 9, 'B': 11, 'C': 12, 'N': 14, 'O': 16, 'F': 19, 'Ne': 20, 'Na': 23, 'Mg': 24, 'Al': 27, 'Si': 28, 'P': 31, 'S': 32, 'Cl': 35, 'Ar': 40, 'K': 39, 'Ca': 40, 'Fe': 56, 'Cu': 64, 'Zn': 65, 'Br': 80, 'Ag': 108, 'I': 127, 'Au': 197, 'Hg': 201, 'Pb': 207, 'Sn': 119, 'Ni': 59, 'Mn': 55, 'Cr': 52, 'Co': 59, 'Ti': 48}}

def {func}(s):
    if len(s) == 0 or len(s) > 60:
        raise ValueError('bad length')
    mass = 0
    atoms = 0
    i = 0
    while i < len(s):
        sym = None
        if i + 1 < len(s):
            two = s[i:i + 2]
            if two in MASSES:
                sym = two
                i += 2
        if sym == None:
            one = s[i]
            if one not in MASSES:
                raise ValueError('unknown element')
            sym = one
            i += 1
        count = 0
        digits = ''
        while i < len(s) and s[i].isdigit():
            digits = digits + s[i]
            i += 1
        if len(digits) > 0:
            if digits[0] == '0':
                raise ValueError('count cannot start with zero')
            count = int(digits)
        else:
            count = 1
        mass = mass + MASSES[sym] * count
        atoms = atoms + count
    info = {{}}
    info['mass'] = mass
    info['atoms'] = atoms
    return info
"#
    )
}

/// OID validator.
pub fn oid_validator(func: &str) -> String {
    format!(
        r#"# validate dotted OID object identifiers
def {func}(s):
    parts = s.split('.')
    if len(parts) < 3:
        return False
    for p in parts:
        if len(p) == 0:
            return False
        for c in p:
            if not c.isdigit():
                return False
        if len(p) > 1 and p[0] == '0':
            return False
    first = int(parts[0])
    second = int(parts[1])
    if first > 2:
        return False
    if first < 2 and second > 39:
        return False
    return True
"#
    )
}

/// Long/lat pair parser with range checks.
pub fn longlat_parser(func: &str) -> String {
    format!(
        r#"# parse latitude, longitude coordinate pairs
def parse_coord(p):
    t = p.strip()
    if len(t) == 0:
        raise ValueError('empty coordinate')
    body = t
    if body[0] == '-':
        body = body[1:]
    dot = body.find('.')
    if dot < 0:
        raise ValueError('decimal point required')
    for c in body:
        if not c.isdigit() and c != '.':
            raise ValueError('bad coordinate character')
    return float(t)

def {func}(s):
    parts = s.split(',')
    if len(parts) != 2:
        raise ValueError('need two coordinates')
    lat = parse_coord(parts[0])
    lon = parse_coord(parts[1])
    if lat < -90.0 or lat > 90.0:
        raise ValueError('latitude out of range')
    if lon < -180.0 or lon > 180.0:
        raise ValueError('longitude out of range')
    info = {{}}
    info['latitude'] = lat
    info['longitude'] = lon
    if lat >= 0.0:
        info['hemisphere'] = 'N'
    else:
        info['hemisphere'] = 'S'
    return info
"#
    )
}

/// FIX-protocol message parser.
pub fn fix_parser(func: &str) -> String {
    format!(
        r#"# parse FIX protocol messages (tag=value fields)
def {func}(s):
    if s[:8] != '8=FIX.4.' and s[:9] != '8=FIXT.1.':
        raise ValueError('missing begin string')
    fields = s.split('|')
    tags = {{}}
    count = 0
    for f in fields:
        if len(f) == 0:
            continue
        eq = f.find('=')
        if eq <= 0:
            raise ValueError('field without tag')
        tag = f[:eq]
        for c in tag:
            if not c.isdigit():
                raise ValueError('tag must be numeric')
        tags[tag] = f[eq + 1:]
        count += 1
    if count < 4:
        raise ValueError('too few fields')
    if '35' not in tags:
        raise ValueError('missing msgtype')
    info = {{}}
    info['msg_type'] = tags['35']
    info['fields'] = count
    return info
"#
    )
}

/// SWIFT MT message parser.
pub fn swift_parser(func: &str) -> String {
    format!(
        r#"# parse SWIFT MT interbank financial messages (block format)
def {func}(s):
    if s[:6] != '{{1:F01':
        raise ValueError('missing basic header block')
    close = s.find('}}')
    if close < 0:
        raise ValueError('unterminated block 1')
    block1 = s[4:close]
    if len(block1) < 12:
        raise ValueError('short header')
    bic = block1[:8]
    for c in bic:
        if not c.isalnum():
            raise ValueError('bad BIC character')
    if s[close:close + 4] != '}}{{2:':
        raise ValueError('missing application header')
    info = {{}}
    info['bic'] = bic
    info['lt_address'] = block1[:12]
    return info
"#
    )
}

/// DOI parser.
pub fn doi_parser(func: &str) -> String {
    format!(
        r#"# parse DOI identifiers (10.prefix/suffix)
def {func}(s):
    if s[:3] != '10.':
        raise ValueError('doi must start with 10.')
    slash = s.find('/')
    if slash < 0:
        raise ValueError('missing suffix')
    registrant = s[3:slash]
    if len(registrant) < 4 or len(registrant) > 5:
        raise ValueError('bad registrant length')
    for c in registrant:
        if not c.isdigit():
            raise ValueError('registrant must be digits')
    suffix = s[slash + 1:]
    if len(suffix) == 0:
        raise ValueError('empty suffix')
    for c in suffix:
        if c == ' ':
            raise ValueError('no spaces in doi')
    info = {{}}
    info['registrant'] = registrant
    info['suffix'] = suffix
    return info
"#
    )
}

/// Person-name heuristic checker with a first-name table (the paper found
/// gender-prediction and profile-lookup code; this mirrors the lookup).
pub fn personname_checker(func: &str, first_names: &[&str]) -> String {
    let names = first_names
        .iter()
        .map(|n| format!("'{n}'"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        r#"# guess whether a string is a person name using a first-name table
FIRST_NAMES = [{names}]

def {func}(s):
    words = s.split()
    if len(words) < 2 or len(words) > 3:
        return False
    for w in words:
        if not w[0].isalpha():
            return False
        if not w[0].isupper():
            return False
        rest = w[1:]
        for c in rest:
            if not c.isalpha() and c != '.':
                return False
    if words[0] in FIRST_NAMES:
        return True
    return False
"#
    )
}

/// FASTA validator.
pub fn fasta_validator(func: &str) -> String {
    format!(
        r#"# validate FASTA gene sequence records
def {func}(s):
    lines = s.split('\n')
    if len(lines) < 2:
        return False
    header = lines[0]
    if len(header) < 2 or header[0] != '>':
        return False
    saw = False
    i = 1
    while i < len(lines):
        line = lines[i]
        if len(line) > 0:
            for c in line:
                if c.upper() not in 'ACGTUNRYKMSWBDHV':
                    return False
            saw = True
        i += 1
    return saw
"#
    )
}

/// FASTQ validator.
pub fn fastq_validator(func: &str) -> String {
    format!(
        r#"# validate FASTQ sequencing reads (4-line records)
def {func}(s):
    lines = s.split('\n')
    if len(lines) != 4:
        return False
    if len(lines[0]) < 2 or lines[0][0] != '@':
        return False
    seq = lines[1]
    if len(seq) == 0:
        return False
    for c in seq:
        if c not in 'ACGTN':
            return False
    if len(lines[2]) == 0 or lines[2][0] != '+':
        return False
    return len(lines[3]) == len(seq)
"#
    )
}

/// SMILES validator (balanced brackets + charset).
pub fn smiles_validator(func: &str) -> String {
    format!(
        r#"# validate SMILES molecular notation strings
def {func}(s):
    if len(s) == 0 or len(s) > 200:
        return False
    first = s[0]
    if not first.isalpha() and first != '[':
        return False
    paren = 0
    bracket = 0
    letters = 0
    for c in s:
        if c.isalpha():
            letters += 1
        elif c.isdigit():
            pass
        elif c in '()[]=#@+-/\\%.':
            if c == '(':
                paren += 1
            elif c == ')':
                paren -= 1
                if paren < 0:
                    return False
            elif c == '[':
                bracket += 1
            elif c == ']':
                bracket -= 1
                if bracket < 0:
                    return False
        else:
            return False
    return paren == 0 and bracket == 0 and letters > 0
"#
    )
}

/// InChI validator (prefix + formula layer via chemformula-style parse).
pub fn inchi_validator(func: &str) -> String {
    format!(
        r#"# validate InChI chemical identifiers
ELEMENTS = ['H', 'He', 'Li', 'Be', 'B', 'C', 'N', 'O', 'F', 'Ne', 'Na', 'Mg', 'Al', 'Si', 'P', 'S', 'Cl', 'Ar', 'K', 'Ca', 'Fe', 'Cu', 'Zn', 'Br', 'Ag', 'I', 'Au', 'Hg', 'Pb', 'Sn', 'Ni', 'Mn', 'Cr', 'Co', 'Ti']

def formula_ok(s):
    if len(s) == 0:
        return False
    i = 0
    while i < len(s):
        sym = None
        if i + 1 < len(s):
            if s[i:i + 2] in ELEMENTS:
                sym = s[i:i + 2]
                i += 2
        if sym == None:
            if s[i] not in ELEMENTS:
                return False
            i += 1
        while i < len(s) and s[i].isdigit():
            i += 1
    return True

def {func}(s):
    body = None
    if s[:9] == 'InChI=1S/':
        body = s[9:]
    elif s[:8] == 'InChI=1/':
        body = s[8:]
    else:
        raise ValueError('missing InChI prefix')
    layers = body.split('/')
    if not formula_ok(layers[0]):
        raise ValueError('bad formula layer')
    return layers[0]
"#
    )
}

/// GeoJSON validator (JSON structure + geometry type).
pub fn geojson_validator(func: &str) -> String {
    format!(
        r#"# validate geojson geometry documents
GEOMETRIES = ['Point', 'LineString', 'Polygon', 'MultiPoint', 'MultiLineString', 'MultiPolygon', 'Feature', 'FeatureCollection', 'GeometryCollection']

def balanced(t):
    stack = []
    in_string = False
    i = 0
    while i < len(t):
        c = t[i]
        if in_string:
            if c == '"':
                in_string = False
        else:
            if c == '"':
                in_string = True
            elif c == '{{' or c == '[':
                stack.append(c)
            elif c == '}}':
                if len(stack) == 0 or stack.pop() != '{{':
                    return False
            elif c == ']':
                if len(stack) == 0 or stack.pop() != '[':
                    return False
        i += 1
    return len(stack) == 0 and not in_string

def {func}(s):
    t = s.strip()
    if len(t) == 0 or t[0] != '{{':
        return False
    if not balanced(t):
        return False
    if t.find('"type"') < 0:
        return False
    for g in GEOMETRIES:
        if t.find('"' + g + '"') >= 0:
            return True
    return False
"#
    )
}

/// Unix-timestamp validator.
pub fn unixtime_validator(func: &str) -> String {
    format!(
        r#"# detect unix epoch timestamps
def {func}(s):
    if len(s) < 9 or len(s) > 10:
        return False
    for c in s:
        if not c.isdigit():
            return False
    v = int(s)
    if v < 100000000:
        return False
    if v > 2200000000:
        return False
    return True
"#
    )
}

/// A "tagger": classifies the input by running the validator internally and
/// returning a label string either way — never raising, never returning a
/// boolean. Its validity signal lives *only* in branch literals, which is
/// exactly the class of relevant function the RET baseline misses (§8.2.1,
/// the Listing 1 discussion).
pub fn tagger(module_src: &str, inner: &str, slug: &str) -> String {
    format!(
        r#"{module_src}

def classify_value(s):
    ok = False
    try:
        result = {inner}(s)
        if result == False:
            ok = False
        else:
            ok = True
    except:
        ok = False
    if ok:
        label = '{slug}'
    else:
        label = 'unknown'
    return label
"#
    )
}
