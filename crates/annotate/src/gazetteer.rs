//! Built-in gazetteers for the named-entity recognizer.
//!
//! The paper's NER was trained on proprietary IBM resources; our stand-in
//! uses curated word lists. Lists are intentionally *incomplete* — an NER
//! that recognized every synthetic entity perfectly would hide the error
//! propagation the paper discusses in §6 ("wrong annotation of company
//! and person names leads to incorrect trigger events"). Unknown
//! capitalised words are resolved by contextual rules in
//! [`crate::ner`], which is where realistic mistakes creep in.
//!
//! All lookups are case-sensitive exact matches against the canonical
//! casing stored here, except designations and units which are matched
//! case-insensitively.
//!
//! ## Storage: a byte trie, not a `HashSet<String>`
//!
//! Entries live in a single flat byte trie (`Vec` of nodes, sorted edge
//! lists), built once at load. Multi-word entries are stored with their
//! single-space separators, so the NER matcher can walk a candidate token
//! run **incrementally** — one [`Walk`] fed token bytes plus separators —
//! and read off every matching prefix length in one pass, without ever
//! materialising a `String` key per probe. When the walk dies at some
//! byte, no longer entry can match either (all longer keys share the
//! prefix), which is exactly the early-exit the old per-length
//! `HashSet::contains` loop could not express.

use etap_text::lower_into;

/// One trie node: sorted `(byte, child)` edges plus a terminal flag.
#[derive(Debug, Clone, Default)]
struct Node {
    edges: Vec<(u8, u32)>,
    terminal: bool,
}

/// A set of known (possibly multi-word) names, stored as a byte trie
/// keyed on the space-joined token sequence.
#[derive(Debug, Clone)]
pub struct Gazetteer {
    nodes: Vec<Node>,
    /// Number of distinct entries (terminal nodes).
    len: usize,
    /// Longest entry length in tokens (bounds the matcher's lookahead).
    max_len: usize,
}

impl Default for Gazetteer {
    fn default() -> Self {
        Gazetteer {
            nodes: vec![Node::default()],
            len: 0,
            max_len: 0,
        }
    }
}

impl Gazetteer {
    /// Build a gazetteer from a list of entries; multi-word entries are
    /// written with single spaces.
    #[must_use]
    pub fn from_entries(entries: &[&str]) -> Self {
        let mut g = Gazetteer::default();
        for e in entries {
            g.insert(e);
        }
        g
    }

    /// Insert an entry (idempotent).
    pub fn insert(&mut self, entry: &str) {
        let n = entry.split(' ').count();
        self.max_len = self.max_len.max(n);
        let mut node = 0u32;
        for b in entry.bytes() {
            node = match self.step(node, b) {
                Some(next) => next,
                None => {
                    let next = self.nodes.len() as u32;
                    self.nodes.push(Node::default());
                    let edges = &mut self.nodes[node as usize].edges;
                    let pos = edges.partition_point(|&(eb, _)| eb < b);
                    edges.insert(pos, (b, next));
                    next
                }
            };
        }
        let end = &mut self.nodes[node as usize].terminal;
        if !*end {
            *end = true;
            self.len += 1;
        }
    }

    /// Follow the edge labelled `b` out of `node`, if present.
    #[inline]
    fn step(&self, node: u32, b: u8) -> Option<u32> {
        let edges = &self.nodes[node as usize].edges;
        // Edge lists are tiny (branching factor of curated name lists);
        // a linear scan over the sorted pairs beats binary search here.
        for &(eb, next) in edges {
            if eb == b {
                return Some(next);
            }
            if eb > b {
                return None;
            }
        }
        None
    }

    /// Does the gazetteer contain this exact (possibly multi-word) entry?
    #[must_use]
    pub fn contains(&self, entry: &str) -> bool {
        let mut node = 0u32;
        for b in entry.bytes() {
            match self.step(node, b) {
                Some(next) => node = next,
                None => return false,
            }
        }
        self.nodes[node as usize].terminal
    }

    /// Whether some entry's first token is `text`: after `text` the walk
    /// stands on a complete entry or before the separator of a longer
    /// one. When false, no match of any length starts at a token `text`.
    #[must_use]
    pub fn starts_entry(&self, text: &str) -> bool {
        let mut walk = self.walk();
        walk.token(text) && (walk.matched() || walk.sep())
    }

    /// [`Gazetteer::starts_entry`] for entries stored lowercase, with
    /// `text` folded as [`Walk::token_folded`] folds it.
    #[must_use]
    pub fn starts_entry_folded(&self, text: &str, scratch: &mut String) -> bool {
        let mut walk = self.walk();
        walk.token_folded(text, scratch) && (walk.matched() || walk.sep())
    }

    /// Start an incremental walk from the trie root. Feed it tokens (and
    /// separators between them) to probe entries prefix-by-prefix.
    #[must_use]
    pub fn walk(&self) -> Walk<'_> {
        Walk {
            gaz: self,
            node: Some(0),
        }
    }

    /// Longest entry, in tokens.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the gazetteer has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An incremental matcher state over a [`Gazetteer`] trie.
///
/// The NER feeds one candidate token run through a walk: `token`,
/// `sep`, `token`, … After each token, [`Walk::matched`] says whether
/// the bytes fed so far form a complete entry. Once the walk leaves the
/// trie it stays dead (every `feed` returns `false`), letting callers
/// break out of the lookahead loop early.
#[derive(Debug, Clone)]
pub struct Walk<'a> {
    gaz: &'a Gazetteer,
    node: Option<u32>,
}

impl Walk<'_> {
    /// Feed the single-space separator between tokens.
    pub fn sep(&mut self) -> bool {
        self.feed_byte(b' ')
    }

    /// Feed a token verbatim (case-sensitive gazetteers).
    pub fn token(&mut self, text: &str) -> bool {
        text.bytes().all(|b| self.feed_byte(b))
    }

    /// Feed a token lowercased (case-insensitive gazetteers whose entries
    /// are stored lowercase). ASCII folds byte-by-byte with no
    /// allocation; non-ASCII tokens take the full Unicode lowering
    /// through the caller's scratch buffer.
    pub fn token_folded(&mut self, text: &str, scratch: &mut String) -> bool {
        if text.is_ascii() {
            text.bytes().all(|b| self.feed_byte(b.to_ascii_lowercase()))
        } else {
            lower_into(text, scratch);
            scratch.bytes().all(|b| self.feed_byte(b))
        }
    }

    /// Whether the bytes fed so far spell a complete entry.
    #[must_use]
    pub fn matched(&self) -> bool {
        self.node
            .is_some_and(|n| self.gaz.nodes[n as usize].terminal)
    }

    /// Whether the walk is still inside the trie.
    #[must_use]
    pub fn alive(&self) -> bool {
        self.node.is_some()
    }

    #[inline]
    fn feed_byte(&mut self, b: u8) -> bool {
        self.node = self.node.and_then(|n| self.gaz.step(n, b));
        self.node.is_some()
    }
}

/// Well-known company/organization names (single- and multi-word).
pub const ORGANIZATIONS: &[&str] = &[
    "IBM",
    "Microsoft",
    "Oracle",
    "Google",
    "Intel",
    "Cisco",
    "Dell",
    "Apple",
    "Amazon",
    "Sony",
    "Samsung",
    "Nokia",
    "Motorola",
    "Siemens",
    "Philips",
    "Toshiba",
    "Fujitsu",
    "Hitachi",
    "Infosys",
    "Wipro",
    "Daksh",
    "Satyam",
    "Accenture",
    "Deloitte",
    "Gartner",
    "Forrester",
    "Boeing",
    "Airbus",
    "Lockheed",
    "Raytheon",
    "Honeywell",
    "Caterpillar",
    "Monsanto",
    "Pfizer",
    "Merck",
    "Novartis",
    "Roche",
    "GlaxoSmithKline",
    "AstraZeneca",
    "Unilever",
    "Nestle",
    "Danone",
    "Coors",
    "Molson",
    "Heineken",
    "Diageo",
    "Pepsico",
    "Starbucks",
    "Walmart",
    "Target",
    "Costco",
    "Tesco",
    "Carrefour",
    "Citigroup",
    "Barclays",
    "HSBC",
    "UBS",
    "Wachovia",
    "Vodafone",
    "Verizon",
    "Sprint",
    "Comcast",
    "Disney",
    "Viacom",
    "Monster",
    "Jobsahead",
    "Ebay",
    "Yahoo",
    "Netscape",
    "Adobe",
    "Autodesk",
    "Borland",
    "Novell",
    "Compaq",
    "Gateway",
    "Lenovo",
    "Acer",
    "Xerox",
    "Kodak",
    "Polaroid",
    "Halliburton",
    "Exxon",
    "Chevron",
    "Texaco",
    "Shell",
    "Enron",
    "Dynegy",
    "Duke Energy",
    "General Electric",
    "General Motors",
    "Ford Motor",
    "Daimler Chrysler",
    "United Airlines",
    "Delta Air Lines",
    "American Express",
    "Goldman Sachs",
    "Morgan Stanley",
    "Merrill Lynch",
    "Lehman Brothers",
    "Bear Stearns",
    "Bank of America",
    "Wells Fargo",
    "JP Morgan",
    "J. P. Morgan",
    "Deutsche Bank",
    "Credit Suisse",
    "Societe Generale",
    "BNP Paribas",
    "Standard Chartered",
    "Tata Consultancy",
    "Tata Motors",
    "Reliance Industries",
    "Bharti Airtel",
    "Hindustan Lever",
    "Sun Microsystems",
    "Silicon Graphics",
    "Texas Instruments",
    "Advanced Micro Devices",
    "Hewlett Packard",
    "Procter Gamble",
    "Johnson Johnson",
    "Eli Lilly",
    "Bristol Myers",
    "Red Hat",
    "Veritas Software",
    "Siebel Systems",
    "PeopleSoft",
    "BEA Systems",
    "Sybase",
    "Business Objects",
    "Cognos",
    "Hyperion",
    "Informatica",
    "Tibco",
    "Webmethods",
];

/// Suffix words that mark the preceding capitalised run as a company.
pub const ORG_SUFFIXES: &[&str] = &[
    "Inc",
    "Inc.",
    "Corp",
    "Corp.",
    "Co",
    "Co.",
    "Ltd",
    "Ltd.",
    "PLC",
    "Plc",
    "LLC",
    "LLP",
    "AG",
    "SA",
    "NV",
    "GmbH",
    "Group",
    "Holdings",
    "Industries",
    "Systems",
    "Technologies",
    "Solutions",
    "Partners",
    "Ventures",
    "Capital",
    "Bancorp",
    "Bank",
    "Airlines",
    "Motors",
    "Energy",
    "Pharmaceuticals",
    "Communications",
    "Networks",
    "Software",
    "Semiconductor",
    "Enterprises",
    "International",
    "Worldwide",
    "Consulting",
    "Labs",
    "Laboratories",
];

/// Common given names (male and female, skewed to business news of the
/// paper's era).
pub const GIVEN_NAMES: &[&str] = &[
    "James",
    "John",
    "Robert",
    "Michael",
    "William",
    "David",
    "Richard",
    "Charles",
    "Joseph",
    "Thomas",
    "Christopher",
    "Daniel",
    "Paul",
    "Mark",
    "Donald",
    "George",
    "Kenneth",
    "Steven",
    "Edward",
    "Brian",
    "Ronald",
    "Anthony",
    "Kevin",
    "Jason",
    "Matthew",
    "Gary",
    "Timothy",
    "Jose",
    "Larry",
    "Jeffrey",
    "Frank",
    "Scott",
    "Eric",
    "Stephen",
    "Andrew",
    "Raymond",
    "Gregory",
    "Joshua",
    "Jerry",
    "Dennis",
    "Walter",
    "Patrick",
    "Peter",
    "Harold",
    "Douglas",
    "Henry",
    "Carl",
    "Arthur",
    "Ryan",
    "Roger",
    "Mary",
    "Patricia",
    "Linda",
    "Barbara",
    "Elizabeth",
    "Jennifer",
    "Maria",
    "Susan",
    "Margaret",
    "Dorothy",
    "Lisa",
    "Nancy",
    "Karen",
    "Betty",
    "Helen",
    "Sandra",
    "Donna",
    "Carol",
    "Ruth",
    "Sharon",
    "Michelle",
    "Laura",
    "Sarah",
    "Kimberly",
    "Deborah",
    "Jessica",
    "Shirley",
    "Cynthia",
    "Angela",
    "Melissa",
    "Brenda",
    "Amy",
    "Anna",
    "Rebecca",
    "Virginia",
    "Kathleen",
    "Pamela",
    "Martha",
    "Debra",
    "Amanda",
    "Stephanie",
    "Carolyn",
    "Christine",
    "Marie",
    "Janet",
    "Catherine",
    "Frances",
    "Ann",
    "Joyce",
    "Diane",
    "Alice",
    "Jane",
    "Ganesh",
    "Sachindra",
    "Sumit",
    "Raghu",
    "Sreeram",
    "Rajesh",
    "Anil",
    "Sunil",
    "Vijay",
    "Arun",
    "Ravi",
    "Sanjay",
    "Ramesh",
    "Krishna",
    "Lakshmi",
    "Priya",
    "Deepa",
    "Kavita",
    "Meera",
    "Satoshi",
    "Hiroshi",
    "Kenji",
    "Yuki",
    "Wei",
    "Li",
    "Ming",
    "Jun",
    "Hans",
    "Klaus",
    "Jurgen",
    "Pierre",
    "Jean",
    "Marc",
    "Luis",
    "Carlos",
    "Miguel",
    "Antonio",
    "Giovanni",
    "Marco",
    "Paolo",
];

/// Common surnames.
pub const SURNAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Jones",
    "Brown",
    "Davis",
    "Miller",
    "Wilson",
    "Moore",
    "Taylor",
    "Anderson",
    "Andersen",
    "Thomas",
    "Jackson",
    "White",
    "Harris",
    "Martin",
    "Thompson",
    "Garcia",
    "Martinez",
    "Robinson",
    "Clark",
    "Rodriguez",
    "Lewis",
    "Lee",
    "Walker",
    "Hall",
    "Allen",
    "Young",
    "Hernandez",
    "King",
    "Wright",
    "Lopez",
    "Hill",
    "Scott",
    "Green",
    "Adams",
    "Baker",
    "Gonzalez",
    "Nelson",
    "Carter",
    "Mitchell",
    "Perez",
    "Roberts",
    "Turner",
    "Phillips",
    "Campbell",
    "Parker",
    "Evans",
    "Edwards",
    "Collins",
    "Stewart",
    "Sanchez",
    "Morris",
    "Rogers",
    "Reed",
    "Cook",
    "Morgan",
    "Bell",
    "Murphy",
    "Bailey",
    "Rivera",
    "Cooper",
    "Richardson",
    "Cox",
    "Howard",
    "Ward",
    "Torres",
    "Peterson",
    "Gray",
    "Ramirez",
    "Watson",
    "Brooks",
    "Kelly",
    "Sanders",
    "Price",
    "Bennett",
    "Wood",
    "Barnes",
    "Ross",
    "Henderson",
    "Coleman",
    "Jenkins",
    "Perry",
    "Powell",
    "Long",
    "Patterson",
    "Hughes",
    "Flores",
    "Washington",
    "Butler",
    "Simmons",
    "Foster",
    "Gonzales",
    "Bryant",
    "Alexander",
    "Russell",
    "Griffin",
    "Diaz",
    "Hayes",
    "Palmisano",
    "Gerstner",
    "Welch",
    "Immelt",
    "Ballmer",
    "Gates",
    "Ellison",
    "Chambers",
    "Fiorina",
    "Hurd",
    "Dell",
    "Grove",
    "Barrett",
    "Otellini",
    "Murthy",
    "Premji",
    "Nilekani",
    "Ramakrishnan",
    "Joshi",
    "Negi",
    "Krishnapuram",
    "Balakrishnan",
    "Gupta",
    "Sharma",
    "Patel",
    "Singh",
    "Kumar",
    "Rao",
    "Reddy",
    "Iyer",
    "Menon",
    "Nakamura",
    "Tanaka",
    "Suzuki",
    "Yamamoto",
    "Schmidt",
    "Mueller",
    "Weber",
    "Fischer",
    "Dubois",
    "Moreau",
    "Rossi",
    "Ferrari",
    "Bianchi",
];

/// Place names (cities, countries, regions in business news).
pub const PLACES: &[&str] = &[
    "Washington",
    "New York",
    "London",
    "Paris",
    "Tokyo",
    "Beijing",
    "Shanghai",
    "Hong Kong",
    "Singapore",
    "Sydney",
    "Toronto",
    "Chicago",
    "Boston",
    "Seattle",
    "Austin",
    "Dallas",
    "Houston",
    "Atlanta",
    "Denver",
    "Phoenix",
    "Detroit",
    "Philadelphia",
    "San Francisco",
    "San Jose",
    "Los Angeles",
    "San Diego",
    "New Delhi",
    "Mumbai",
    "Bangalore",
    "Chennai",
    "Hyderabad",
    "Pune",
    "Kolkata",
    "Gurgaon",
    "Noida",
    "Frankfurt",
    "Munich",
    "Berlin",
    "Zurich",
    "Geneva",
    "Amsterdam",
    "Brussels",
    "Madrid",
    "Barcelona",
    "Milan",
    "Rome",
    "Stockholm",
    "Helsinki",
    "Oslo",
    "Copenhagen",
    "Dublin",
    "Edinburgh",
    "Moscow",
    "Warsaw",
    "Prague",
    "Vienna",
    "Budapest",
    "Istanbul",
    "Dubai",
    "Tel Aviv",
    "Johannesburg",
    "Cairo",
    "Lagos",
    "Nairobi",
    "Sao Paulo",
    "Mexico City",
    "Buenos Aires",
    "Santiago",
    "Lima",
    "Seoul",
    "Taipei",
    "Osaka",
    "Manila",
    "Jakarta",
    "Bangkok",
    "Kuala Lumpur",
    "Melbourne",
    "Auckland",
    "Wellington",
    "America",
    "England",
    "France",
    "Germany",
    "Japan",
    "China",
    "India",
    "Brazil",
    "Russia",
    "Canada",
    "Australia",
    "Italy",
    "Spain",
    "Mexico",
    "Korea",
    "Taiwan",
    "Ireland",
    "Israel",
    "Switzerland",
    "Sweden",
    "Norway",
    "Denmark",
    "Finland",
    "Netherlands",
    "Belgium",
    "Austria",
    "Poland",
    "Turkey",
    "Egypt",
    "Argentina",
    "Chile",
    "Europe",
    "Asia",
    "Africa",
    "New Zealand",
    "United States",
    "United Kingdom",
    "Silicon Valley",
    "Wall Street",
    "Bangalore South",
    "California",
    "Texas",
    "Virginia",
    "Massachusetts",
    "Connecticut",
    "Delaware",
    "Nevada",
    "Oregon",
    "Colorado",
];

/// Job designations, matched case-insensitively (the trigger literature
/// writes both "CEO" and "Chief Executive Officer").
pub const DESIGNATIONS: &[&str] = &[
    "ceo",
    "cfo",
    "cto",
    "coo",
    "cio",
    "cmo",
    "chairman",
    "chairwoman",
    "chairperson",
    "president",
    "director",
    "manager",
    "officer",
    "executive",
    "founder",
    "cofounder",
    "co-founder",
    "partner",
    "principal",
    "treasurer",
    "secretary",
    "controller",
    "chief",
    "head",
    "leader",
    "supervisor",
    "administrator",
    "trustee",
    "governor",
    "dean",
    "provost",
    "chancellor",
    "vice president",
    "vice chairman",
    "senior vice president",
    "executive vice president",
    "managing director",
    "general manager",
    "deputy director",
    "chief executive",
    "chief executive officer",
    "chief financial officer",
    "chief technology officer",
    "chief operating officer",
    "chief information officer",
    "chief marketing officer",
    "board member",
    "general counsel",
];

/// Product names (technology products circa the paper).
pub const PRODUCTS: &[&str] = &[
    "ThinkPad",
    "PowerPC",
    "WebSphere",
    "Lotus Notes",
    "Windows",
    "Office",
    "Excel",
    "Exchange",
    "SharePoint",
    "Photoshop",
    "Acrobat",
    "Navigator",
    "Netware",
    "Solaris",
    "SPARC",
    "PowerEdge",
    "Latitude",
    "Inspiron",
    "Pavilion",
    "LaserJet",
    "DeskJet",
    "iPod",
    "iMac",
    "PowerBook",
    "Macintosh",
    "PlayStation",
    "Walkman",
    "Xbox",
    "Pentium",
    "Itanium",
    "Xeon",
    "Opteron",
    "Athlon",
    "BlackBerry",
    "Treo",
    "Palm Pilot",
    "Zaurus",
    "DB2",
    "Informix",
    "SQL Server",
    "Oracle Database",
    "MySQL",
    "Weblogic",
    "Tuxedo",
    "Visual Studio",
    "Eclipse",
    "NetBeans",
    "Rational Rose",
    "Tivoli",
    "OpenView",
];

/// Measurement units other than currency (paper's LNGTH category).
pub const UNITS: &[&str] = &[
    "km",
    "kilometer",
    "kilometers",
    "kilometre",
    "kilometres",
    "mile",
    "miles",
    "meter",
    "meters",
    "metre",
    "metres",
    "foot",
    "feet",
    "inch",
    "inches",
    "yard",
    "yards",
    "kg",
    "kilogram",
    "kilograms",
    "gram",
    "grams",
    "pound",
    "pounds",
    "ton",
    "tons",
    "tonne",
    "tonnes",
    "liter",
    "liters",
    "litre",
    "litres",
    "gallon",
    "gallons",
    "barrel",
    "barrels",
    "byte",
    "bytes",
    "kilobyte",
    "kilobytes",
    "megabyte",
    "megabytes",
    "gigabyte",
    "gigabytes",
    "terabyte",
    "terabytes",
    "gigahertz",
    "megahertz",
    "hertz",
    "watt",
    "watts",
    "kilowatt",
    "kilowatts",
    "megawatt",
    "megawatts",
    "acre",
    "acres",
    "hectare",
    "hectares",
    "sqft",
    "gbps",
    "mbps",
    "kbps",
];

/// Currency words: symbols handled separately by token rules.
pub const CURRENCY_WORDS: &[&str] = &[
    "dollar",
    "dollars",
    "usd",
    "cent",
    "cents",
    "euro",
    "euros",
    "eur",
    "pound sterling",
    "gbp",
    "yen",
    "jpy",
    "rupee",
    "rupees",
    "inr",
    "yuan",
    "rmb",
    "franc",
    "francs",
    "chf",
    "crore",
    "crores",
    "lakh",
    "lakhs",
    "rs",
];

/// Month names and weekday names (PERIOD rules).
pub const MONTHS: &[&str] = &[
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

/// Weekday names (PERIOD rules).
pub const WEEKDAYS: &[&str] = &[
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
];

/// Period words: relative and calendar period expressions.
pub const PERIOD_WORDS: &[&str] = &[
    "today",
    "yesterday",
    "tomorrow",
    "week",
    "month",
    "quarter",
    "year",
    "decade",
    "fiscal",
    "annual",
    "quarterly",
    "monthly",
    "weekly",
    "daily",
    "half-year",
    "halfyear",
    "fortnight",
];

/// Spelled-out small numbers (CNT rules).
pub const NUMBER_WORDS: &[&str] = &[
    "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten", "eleven",
    "twelve", "dozen", "twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty",
    "ninety", "hundred", "thousand", "million", "billion", "trillion",
];

/// Objects: named artifacts (paper's OBJ category is a catch-all for
/// named things that are neither ORG/PROD/PLC/PRSN).
pub const OBJECTS: &[&str] = &[
    "Boeing 747",
    "Airbus A380",
    "Hubble Telescope",
    "Space Shuttle",
    "Concorde",
    "Titanic",
    "Internet",
    "World Wide Web",
    "Dow Jones",
    "Nasdaq",
    "Sensex",
    "Nikkei",
    "FTSE",
    "S&P 500",
];

/// Honorifics that open a person name (PRSN rules; case-sensitive).
pub const HONORIFICS: &[&str] = &["Mr", "Mrs", "Ms", "Dr", "Prof", "Sir", "Madam"];

/// Scale words that extend a currency figure (CURRENCY rules).
pub const SCALE_WORDS: &[&str] = &[
    "million", "billion", "trillion", "thousand", "crore", "lakh", "m", "bn",
];

/// Currency symbols that open a CURRENCY span (case-sensitive).
pub const CURRENCY_SYMBOLS: &[&str] = &["$", "€", "£", "¥", "₹"];

/// Currency codes that open a CURRENCY span (`Rs 5 crore`).
pub const CURRENCY_CODES: &[&str] = &["rs", "usd", "eur", "gbp", "inr", "jpy"];

/// Words that open a relative PERIOD (`fourth quarter`, `last year`).
pub const PERIOD_HEADS: &[&str] = &[
    "first", "second", "third", "fourth", "last", "next", "this", "current", "previous", "fiscal",
];

/// Named times of day (TIM rules).
pub const NAMED_TIMES: &[&str] = &["noon", "midnight"];

/// Words after a figure that make it a percentage (PRCNT rules).
pub const PERCENT_WORDS: &[&str] = &["percent", "pct"];

/// Words after a figure that make it a time of day (TIM rules).
pub const MERIDIEMS: &[&str] = &["am", "pm"];

/// Plural nouns after a figure that make it a count (CNT rules).
pub const COUNT_NOUNS: &[&str] = &[
    "employees",
    "people",
    "workers",
    "staff",
    "stores",
    "offices",
    "branches",
    "customers",
    "subscribers",
    "users",
    "units",
    "shares",
    "subsidiaries",
    "plants",
    "factories",
    "countries",
    "cities",
    "products",
    "patents",
    "clients",
    "members",
    "engineers",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gazetteer_single_and_multi() {
        let g = Gazetteer::from_entries(&["IBM", "General Electric", "Bank of America"]);
        assert!(g.contains("IBM"));
        assert!(g.contains("General Electric"));
        assert!(g.contains("Bank of America"));
        assert!(!g.contains("General"));
        assert_eq!(g.max_len(), 3);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn walk_reports_every_matching_prefix_length() {
        let g = Gazetteer::from_entries(&["New", "New York", "New York City"]);
        let mut w = g.walk();
        assert!(w.token("New"));
        assert!(w.matched());
        assert!(w.sep());
        assert!(w.token("York"));
        assert!(w.matched());
        assert!(w.sep());
        assert!(w.token("City"));
        assert!(w.matched());
        // One token past the longest entry kills the walk.
        assert!(!w.sep() || !w.token("Council"));
        assert!(!w.matched());
    }

    #[test]
    fn walk_dies_on_first_divergence() {
        let g = Gazetteer::from_entries(&["Bank of America"]);
        let mut w = g.walk();
        assert!(w.token("Bank"));
        assert!(!w.matched());
        assert!(w.sep());
        assert!(
            !w.token("off"),
            "walk must die inside the mismatching token"
        );
        assert!(!w.alive());
        assert!(!w.token("America"));
    }

    #[test]
    fn folded_walk_matches_lowercase_entries() {
        let g = Gazetteer::from_entries(&["vice president", "ceo"]);
        let mut scratch = String::new();
        let mut w = g.walk();
        assert!(w.token_folded("Vice", &mut scratch));
        assert!(w.sep());
        assert!(w.token_folded("PRESIDENT", &mut scratch));
        assert!(w.matched());
        // Unicode fold falls back through the scratch buffer: the Kelvin
        // sign lowers to ASCII 'k'.
        let g2 = Gazetteer::from_entries(&["kelvin"]);
        let mut w2 = g2.walk();
        assert!(w2.token_folded("\u{212A}elvin", &mut scratch));
        assert!(w2.matched());
    }

    #[test]
    fn gazetteer_insert_idempotent() {
        let mut g = Gazetteer::default();
        g.insert("IBM");
        g.insert("IBM");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn builtin_lists_nonempty_and_deduped() {
        for (name, list) in [
            ("ORGANIZATIONS", ORGANIZATIONS),
            ("GIVEN_NAMES", GIVEN_NAMES),
            ("SURNAMES", SURNAMES),
            ("PLACES", PLACES),
            ("DESIGNATIONS", DESIGNATIONS),
            ("PRODUCTS", PRODUCTS),
            ("UNITS", UNITS),
            ("MONTHS", MONTHS),
            ("WEEKDAYS", WEEKDAYS),
        ] {
            assert!(list.len() > 5, "{name} too small");
            let mut v = list.to_vec();
            v.sort_unstable();
            let before = v.len();
            v.dedup();
            assert_eq!(v.len(), before, "{name} contains duplicates");
        }
    }

    #[test]
    fn designations_are_lowercase() {
        for d in DESIGNATIONS {
            assert_eq!(*d, d.to_lowercase(), "{d} must be stored lowercase");
        }
    }

    #[test]
    fn months_count() {
        assert_eq!(MONTHS.len(), 12);
        assert_eq!(WEEKDAYS.len(), 7);
    }
}
